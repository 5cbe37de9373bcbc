"""The benchmark's workloads: one `wfduality run` config each, from a seed.

Each workload loads a different layer of the program:

* ``moment``: the limit pair X and Z on the AC-1 baseline parameters.  The
  X side is the dt-grid Euler engine with every path still interior; the Z
  side is many short Gillespie paths, with the rate cache rebuilt per
  1024-replicate batch.
* ``annealed``: the finite graph alone.  The backward ancestry loop runs per
  replicate; the forward chain is vectorised.  No X and no Z.
* ``fixation``: the AC-5 survival parameters.  X runs to a long horizon where
  paths absorb, and Z is one long serial stationary path.  The only workload
  that runs two worker threads.

The program sees only the generated config; the benchmark seed changes the
config's ``seed`` and nothing else, so every seed asks for the same work.
"""

from __future__ import annotations

import hashlib

#: AC-1 baseline: geometric kernel, Lambda_s = 0.5 delta_0.5, w = 0.1,
#: Lambda_c = delta_0.5, c = 1, no diffusion.
BASELINE_LIMIT = {
    "kernel": {"variant": "geometric"},
    "lambda_s": {"atoms": [[0.5, 0.5]]},
    "w": 0.1,
    "lambda_c": {"atoms": [[0.5, 1.0]]},
    "c": 1.0,
    "sigma": 0.0,
}

#: AC-5 survival variant: selection mass 1, no weak drift.
SURVIVAL_LIMIT = dict(BASELINE_LIMIT, lambda_s={"atoms": [[0.5, 1.0]]},
                      w=0.0)

WORKLOADS = {
    "moment": {
        "workers": 1,
        "config": {
            "experiment": "duality-moment",
            "limit": BASELINE_LIMIT,
            "x": 0.5, "n": 2, "t": 1.0, "dt": 1e-3, "replicates": 20480,
        },
    },
    "annealed": {
        "workers": 1,
        "config": {
            "experiment": "duality-annealed",
            "finite": {
                "N": 100,
                "kernel": {"variant": "geometric"},
                "env_law": {"atoms": [[0.0, 0.9], [0.5, 0.1]]},
                "c_N": 0.1,
                "lambda_c": {"atoms": [[0.5, 1.0]]},
            },
            "horizon": 20, "x": 0.5, "n": 5, "replicates": 10240,
        },
    },
    "fixation": {
        "workers": 2,
        "config": {
            "experiment": "fixation",
            "limit": SURVIVAL_LIMIT,
            "x_grid": [0.5], "replicates": 2048, "T": 12.0, "dt": 1e-3,
            "burn_in": 50.0, "T_stat": 2e5,
        },
    },
}


def config_seed(workload: str, seed: int) -> int:
    """Program seed for a benchmark seed: a fixed hash, below 2**32."""
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def make_config(workload: str, seed: int) -> dict:
    """The config file contents for one workload and benchmark seed."""
    return dict(WORKLOADS[workload]["config"],
                seed=config_seed(workload, seed))


def replicates(cfg: dict) -> int:
    """Monte Carlo replicates a config asks for, over both duality sides.

    Both sides of a duality check draw ``replicates`` paths each.  A fixation
    run draws ``replicates`` forward paths per grid point and one stationary
    dual path.
    """
    M = int(cfg["replicates"])
    if cfg["experiment"] == "fixation":
        return M * len(cfg["x_grid"]) + 1
    return 2 * M
