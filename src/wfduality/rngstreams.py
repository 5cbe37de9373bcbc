"""Counter-based, splittable random number streams.

Every Monte Carlo driver draws from ``substream(seed, role, index, sub)``: a
Philox generator keyed by the two 64-bit words (seed, index), with the role
and a sub-index in the two high words of its starting counter.  ``index`` is
the replicate batch; ``role`` names which part of an experiment draws (see
``ROLES``) and ``sub`` tells apart the grid points, horizons or population
sizes of one role.  Draws advance only the low counter words, so substreams
with different (seed, index, role, sub) never overlap; each batch owns a
fixed substream and batches run in order, so results are a pure function of
the seed.  Role 0 with sub-index 0 is ``stream(seed, index)``.

Two rules carry every Monte Carlo estimate, and each is coded once, here:
``run_batches`` is the one batch loop, which splits replicates and hands
each batch its substream, and ``batch_mean_se`` is the one mean/SE rule.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgument

#: Replicates per stream. Fixed so the (seed, batch) -> draws map is stable.
BATCH_SIZE = 1024

#: Stream roles: the high counter word of a substream.
ROLES = {
    "lhs": 0,         # left-hand side of a check; every draw of a one-sided run
    "rhs": 1,         # right-hand side of a duality or convergence check
    "stationary": 2,  # the batch of stationary-law chains of the dual chain
    "scan": 3,        # one ensemble per grid point, horizon or population size
}


def substream(seed: int, role: str, index: int,
              sub: int = 0) -> np.random.Generator:
    """Generator of batch ``index`` of ``role`` (sub-index ``sub``) of a run.

    Raises ``InvalidArgument`` for a seed outside [0, 2**64), which would
    otherwise alias another seed's stream.  The key is passed as uint64:
    numpy rounds a list key of 2**63 or more through float64.
    """
    if not 0 <= seed < 2**64:
        raise InvalidArgument(f"seed {seed} must lie in [0, 2**64)")
    key = np.array([seed, index], dtype=np.uint64)
    counter = np.array([0, 0, sub, ROLES[role]], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def stream(seed: int, index: int) -> np.random.Generator:
    """Independent generator for (seed, index): role 0, sub-index 0."""
    return substream(seed, "lhs", index)


def batches(total: int, batch_size: int = BATCH_SIZE) -> list[tuple[int, int]]:
    """Deterministic split of ``total`` replicates into (index, size) batches."""
    out = []
    index = 0
    remaining = total
    while remaining > 0:
        size = min(batch_size, remaining)
        out.append((index, size))
        index += 1
        remaining -= size
    return out


def run_batches(batch, M: int, seed: int, role: str,
                sub: int = 0) -> np.ndarray:
    """Outputs of ``batch(size, rng)`` over the batches of M replicates,
    joined along the last axis in batch order; batch ``idx`` draws from
    ``substream(seed, role, idx, sub)``.  Raises ``InvalidArgument`` for
    M < 1: an estimate needs at least one replicate."""
    if M < 1:
        raise InvalidArgument(f"replicates M={M} must be >= 1")
    return np.concatenate([batch(size, substream(seed, role, idx, sub))
                           for idx, size in batches(M)], axis=-1)


def batch_mean_se(values) -> tuple[float, float]:
    """Mean and SE of per-replicate values laid out in ``batches`` order.

    Each batch's (count, mean, sum of squared deviations) is pooled into the
    running total in batch order, so the reduction is fixed by the batching.
    """
    values = np.asarray(values, dtype=float)
    full = values.size - values.size % BATCH_SIZE
    n_tot, mean_tot, m2_tot = 0, 0.0, 0.0
    for chunk in (values[:full].reshape(-1, BATCH_SIZE), values[None, full:]):
        n = chunk.shape[1]  # one row per batch, then the remainder, if any
        if n == 0:
            continue
        means = chunk.mean(axis=1)
        m2s = ((chunk - means[:, None]) ** 2).sum(axis=1)
        for m, m2 in zip(means.tolist(), m2s.tolist()):
            delta = m - mean_tot
            new_n = n_tot + n
            m2_tot += m2 + delta * delta * n_tot * n / new_n
            mean_tot += delta * n / new_n
            n_tot = new_n
    if n_tot < 2:
        return mean_tot, 0.0
    return mean_tot, float(np.sqrt(m2_tot / (n_tot - 1) / n_tot))
