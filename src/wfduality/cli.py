"""Command-line entry points: run and validate experiment configs.

``wfduality run config.json [--out DIR] [--workers K] [--seed S]`` executes
the configured experiment and writes ``result.json`` (deterministic payload:
config echo, build id, metrics, verdicts) plus data CSVs into the output
directory.  ``result.json`` is strict JSON: a non-finite float is written
as the string "Infinity", "-Infinity" or "NaN".  Wall-clock timing and the
process's peak memory go to ``run_meta.json``, which is excluded from the
determinism contract.  Exit codes: 0 success, 2 a statistical verdict
failed, 1 error.  ``--workers`` must be at least 1, as the config key
``workers`` must, and is otherwise ignored: batches always run in order.

``wfduality validate config.json`` dry-runs schema and model validation
without simulating.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import sys
import time

import click
import numpy as np

from . import bcre, bridge, duality, fvwrs, thresholds
from .config import (build_finite_params, build_limit_params, load_config)
from .errors import ConfigError, SigmaNotZero, WfdualityError
from .rngstreams import batch_mean_se
from .wf_graph import EnvSequence

BUILD_ID = "wfduality-0.1.0"
DEFAULT_Z_THRESHOLD = 4.0
FIXATION_BURN_IN = 50.0
FIXATION_T_STAT = 5000.0


def _plain(report, *properties) -> dict:
    """A report's dataclass fields and the named properties, by name, with
    arrays as lists."""
    out = dataclasses.asdict(report)
    out.update((name, getattr(report, name)) for name in properties)
    return {name: value.tolist() if isinstance(value, np.ndarray) else value
            for name, value in out.items()}


def _strict(value):
    """``value`` with every non-finite float spelled as the string
    "Infinity", "-Infinity" or "NaN", so that it dumps as strict JSON."""
    if isinstance(value, dict):
        return {key: _strict(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return "NaN" if math.isnan(value) else \
            ("Infinity" if value > 0 else "-Infinity")
    return value


def _write_csv(path: str, header: list[str], rows: list[tuple]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# Experiment dispatch
# ---------------------------------------------------------------------------


def _run_thresholds(cfg: dict):
    limit = build_limit_params(cfg["limit"])
    report = thresholds.classify(limit)
    return _plain(report), {}, {}


def _run_duality(cfg: dict):
    kind = cfg["experiment"].removeprefix("duality-")
    x, n, seed = float(cfg["x"]), int(cfg["n"]), int(cfg["seed"])
    M = int(cfg.get("replicates", 100000))
    if kind == "moment":
        rep = duality.moment_check(
            build_limit_params(cfg["limit"]), x, n, float(cfg["t"]), M,
            float(cfg.get("dt", 1e-3)), seed)
    elif kind == "quenched":
        env = EnvSequence(np.asarray(cfg["env"], dtype=float))
        rep = duality.quenched_check(build_finite_params(cfg["finite"]), env,
                                     x, n, M, seed)
    else:
        rep = duality.annealed_check(build_finite_params(cfg["finite"]),
                                     int(cfg["horizon"]), x, n, M, seed)
    thr = float(cfg.get("z_threshold", DEFAULT_Z_THRESHOLD))
    verdicts = {"z_within_threshold": abs(rep.z) < thr}
    csvs = {"duality.csv": (
        ["check", "lhs", "lhs_se", "rhs", "rhs_se", "z"],
        [(kind, rep.lhs, rep.lhs_se, rep.rhs, rep.rhs_se, rep.z)],
    )}
    return _plain(rep, "z"), verdicts, csvs


def _finals(finals: np.ndarray, **results):
    """Report of a simulate run: the mean and SE of the final states, then
    ``results``, no verdicts, and the states in ``finals.csv``."""
    mean, se = batch_mean_se(finals)
    csvs = {"finals.csv": (["replicate", "value"],
                           list(enumerate(finals.tolist())))}
    return {"mean": mean, "se": se, **results}, {}, csvs


def _run_simulate_x(cfg: dict):
    limit = build_limit_params(cfg["limit"])
    x0 = float(cfg["x0"])
    T = float(cfg["T"])
    dt = float(cfg.get("dt", 1e-3))
    M = int(cfg.get("replicates", 10000))
    finals = fvwrs.ensemble_states(limit, x0, [T], dt, M, int(cfg["seed"]))[0]
    eps0 = float(cfg.get("eps0", fvwrs.EPS0))
    return _finals(finals,
                   fraction_at_0=float((finals <= eps0).mean()),
                   fraction_at_1=float((finals >= 1.0 - eps0).mean()),
                   T=T, dt=dt, replicates=M)


def _run_simulate_z(cfg: dict):
    limit = build_limit_params(cfg["limit"])
    n0 = int(cfg.get("n0", 1))
    T = float(cfg["T"])
    M = int(cfg.get("replicates", 10000))
    finals = bcre.final_states(limit, n0, T, M, int(cfg["seed"]))
    return _finals(finals, max=int(finals.max()), T=T, n0=n0, replicates=M)


def _run_simulate_finite(cfg: dict):
    finite = build_finite_params(cfg["finite"])
    est, se = duality.finite_moment(
        finite, float(cfg["x0"]), int(cfg.get("n", 1)),
        int(cfg["generations"]), int(cfg.get("replicates", 10000)),
        int(cfg["seed"]),
    )
    return {"moment": est, "se": se}, {}, {}


def _run_fixation(cfg: dict):
    limit = build_limit_params(cfg["limit"])
    rep = bridge.fixation_via_duality(
        limit, cfg["x_grid"], int(cfg["seed"]),
        M=int(cfg.get("replicates", 20000)),
        T=float(cfg.get("T", bridge.FIXATION_T_CAP)),
        dt=float(cfg.get("dt", 1e-3)),
        burn_in=float(cfg.get("burn_in", FIXATION_BURN_IN)),
        T_stat=float(cfg.get("T_stat", FIXATION_T_STAT)),
    )
    thr = float(cfg.get("z_threshold", DEFAULT_Z_THRESHOLD))
    verdicts = {
        f"z_within_threshold_x{x}": bool(abs(z) < thr)
        for x, z in zip(rep.x_grid, rep.z_scores)
    }
    csvs = {"fixation.csv": (
        ["x", "predicted", "predicted_se", "simulated", "simulated_se", "z"],
        list(zip(rep.x_grid.tolist(), rep.predicted.tolist(),
                 rep.predicted_se.tolist(), rep.simulated.tolist(),
                 rep.simulated_se.tolist(), rep.z_scores.tolist())),
    )}
    return _plain(rep), verdicts, csvs


def _run_convergence(cfg: dict):
    scheme = duality.ScalingScheme(build_limit_params(cfg["limit"]))
    rows = duality.convergence_experiment(
        [int(N) for N in cfg["N_list"]], scheme, float(cfg["x"]),
        int(cfg["n"]), float(cfg["t"]), int(cfg.get("replicates", 100000)),
        float(cfg.get("dt", 1e-3)), int(cfg["seed"]),
    )
    first, last = rows[0], rows[-1]
    margin = 2.0 * math.hypot(first.gap_se, last.gap_se)
    verdicts = {"gap_shrinks": bool(last.gap < first.gap - margin)}
    results = {"rows": [_plain(r, "gap") for r in rows]}
    csvs = {"convergence.csv": (
        ["N", "generations", "finite_moment", "finite_se",
         "limit_moment", "limit_se", "gap"],
        [(r.N, r.generations, r.finite_moment, r.finite_se,
          r.limit_moment, r.limit_se, r.gap) for r in rows],
    )}
    return results, verdicts, csvs


_DISPATCH = {
    "thresholds": _run_thresholds,
    "duality-moment": _run_duality,
    "duality-quenched": _run_duality,
    "duality-annealed": _run_duality,
    "simulate-x": _run_simulate_x,
    "simulate-z": _run_simulate_z,
    "simulate-finite": _run_simulate_finite,
    "fixation": _run_fixation,
    "convergence": _run_convergence,
}


def _semantic_validate(cfg: dict) -> list[str]:
    """Model-level checks beyond the JSON schema; returns report lines."""
    lines = [f"experiment: {cfg['experiment']}"]
    kind = cfg["experiment"]
    if "limit" in cfg:
        limit = build_limit_params(cfg["limit"])
        lines.append(f"selection admissible, Lambda_s mass {limit.alpha_s!r}")
        lines.append(f"selection jump rate {limit.mu_mass!r}")
        lines.append(f"coalescence jump rate {limit.coalescence_rate!r}")
        if kind == "thresholds" and limit.sigma > 0:
            raise SigmaNotZero("classification requires sigma = 0")
        if kind == "fixation":
            bridge.require_regime(limit, thresholds.SURVIVAL, "fixation")
        if kind == "fixation" and len(set(cfg["x_grid"])) < len(cfg["x_grid"]):
            # each point names one verdict, z_within_threshold_x{x}
            raise ConfigError(f"x_grid={cfg['x_grid']} repeats a value")
        if kind == "fixation" and (cfg.get("burn_in", FIXATION_BURN_IN)
                                   >= cfg.get("T_stat", FIXATION_T_STAT)):
            raise ConfigError("T_stat must exceed burn_in")
        if kind == "duality-moment" and not 1 <= cfg["n"] <= bcre.DEFAULT_CEILING:
            raise ConfigError(f"moment order n={cfg['n']} must lie in [1, "
                              f"{bcre.DEFAULT_CEILING}], the dual state ceiling")
        if kind == "simulate-z" and cfg.get("n0", 1) > bcre.DEFAULT_CEILING:
            raise ConfigError(f"initial state n0={cfg['n0']} must not exceed "
                              f"the state ceiling {bcre.DEFAULT_CEILING}")
        time_key = {"duality-moment": "t", "convergence": "t",
                    "simulate-x": "T"}.get(kind)
        if time_key and limit.sigma > 0:
            # the X engine reads states at grid times k*dt only
            dt = cfg.get("dt", 1e-3)
            steps = cfg[time_key] / dt
            if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
                raise ConfigError(f"{time_key}={cfg[time_key]} must be a "
                                  f"multiple of dt={dt} when sigma > 0")
        if kind == "convergence":
            if cfg["n"] == 0 or cfg["t"] == 0:
                # every gap is then 0, so gap_shrinks cannot hold
                raise ConfigError(f"n={cfg['n']} and t={cfg['t']} must be "
                                  "positive for a moment gap")
            # gap_shrinks compares the smallest N with the largest
            sizes = cfg["N_list"]
            if len(sizes) < 2 or any(a >= b for a, b in zip(sizes, sizes[1:])):
                raise ConfigError(f"N_list={sizes} must hold at least two "
                                  "strictly increasing sizes")
            scheme = duality.ScalingScheme(limit)
            for N in sizes:
                scheme.finite_params(int(N))
            lines.append("scaling scheme valid for all N")
    if "finite" in cfg:
        finite = build_finite_params(cfg["finite"])
        lines.append(f"finite model valid, N={finite.N}")
        if (kind in ("duality-quenched", "duality-annealed")
                and not 1 <= cfg["n"] <= finite.N):
            raise ConfigError(
                f"sample size n={cfg['n']} must lie in [1, N={finite.N}]")
    lines.append("OK")
    return lines


# ---------------------------------------------------------------------------
# Click commands
# ---------------------------------------------------------------------------


@click.group()
def main():
    """Simulation and duality-verification toolkit for two-type
    Wright-Fisher models with selection in random environment."""


@main.command()
@click.argument("config_path", type=click.Path(exists=False))
@click.option("--out", default=".", type=click.Path(), help="output directory")
@click.option("--workers", default=None, type=int,
              help="at least 1, and ignored: batches always run in order")
@click.option("--seed", default=None, type=int, help="override config seed")
def run(config_path, out, workers, seed):
    """Execute the experiment described by CONFIG_PATH."""
    t_start = time.monotonic()
    try:
        # checked here, not by click's range type, whose exit code 2 is a
        # failed verdict's
        if workers is not None and workers < 1:
            raise ConfigError(f"--workers must be at least 1, got {workers}")
        cfg = load_config(config_path, seed)
        _semantic_validate(cfg)
        results, verdicts, csvs = _DISPATCH[cfg["experiment"]](cfg)
    except WfdualityError as exc:
        click.echo(f"error: {type(exc).__name__}: {exc}", err=True)
        sys.exit(1)
    os.makedirs(out, exist_ok=True)
    envelope = _strict({
        "build": BUILD_ID,
        "config": cfg,
        "results": results,
        "verdicts": verdicts,
    })
    with open(os.path.join(out, "result.json"), "w") as fh:
        json.dump(envelope, fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")
    for name, (header, rows) in csvs.items():
        _write_csv(os.path.join(out, name), header, rows)
    meta = {
        "wall_time_s": time.monotonic() - t_start,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    peak = _peak_rss_mb()
    if peak is not None:
        meta["peak_rss_mb"] = peak
    with open(os.path.join(out, "run_meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")
    for key, ok in verdicts.items():
        click.echo(f"{'PASS' if ok else 'FAIL'} {key}")
    if verdicts and not all(verdicts.values()):
        sys.exit(2)
    sys.exit(0)


def _peak_rss_mb() -> float | None:
    """This process's peak resident set size in MB (``VmHWM``), or None
    where ``/proc/self/status`` does not exist.  ``ru_maxrss`` is not used:
    a process keeps the peak of the one it was forked from across exec."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0  # kB
    except OSError:
        pass
    return None


@main.command()
@click.argument("config_path", type=click.Path(exists=False))
def validate(config_path):
    """Validate CONFIG_PATH without running any simulation."""
    try:
        cfg = load_config(config_path)
        lines = _semantic_validate(cfg)
    except WfdualityError as exc:
        click.echo(f"error: {type(exc).__name__}: {exc}", err=True)
        sys.exit(1)
    for line in lines:
        click.echo(line)
    sys.exit(0)


if __name__ == "__main__":
    main()
