"""Counter-based, splittable random number streams.

Every Monte Carlo driver draws from ``substream(seed, role, index, sub)``: a
Philox generator keyed by the two 64-bit words (seed, index), with the role
and a sub-index in the two high words of its starting counter.  ``index`` is
the replicate batch; ``role`` names which part of an experiment draws (see
``ROLES``) and ``sub`` tells apart the grid points, horizons or population
sizes of one role.  Draws advance only the low counter words, so substreams
with different (seed, index, role, sub) never overlap; each batch owns a
fixed substream and batches run in order, so results are a pure function of
the seed.

A batch holds ``BATCH_SIZE`` = 4096 replicates, so each engine call works on
arrays wide enough that numpy's fixed cost per call is small beside its
compute.  The counter-based streams make the size a choice of the
(seed, batch) -> draws map only, never a statistical one; changing it
changes which numbers a given seed draws.

Two rules carry every Monte Carlo estimate, and each is coded once, here:
``run_batches`` is the one batch loop, which splits replicates and hands
each batch its substream, and ``batch_mean_se`` is the one mean/SE rule:
the plain mean and SE of the joined replicates, whatever their batches.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgument

#: Replicates per stream. Fixed so the (seed, batch) -> draws map is stable.
BATCH_SIZE = 4096

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
    """``substream(seed, "lhs", index)``; only ``perfbench`` still calls it."""
    return substream(seed, "lhs", index)


def run_batches(batch, M: int, seed: int, role: str,
                sub: int = 0) -> np.ndarray:
    """Outputs of ``batch(size, rng)`` over M replicates split into batches
    of ``BATCH_SIZE`` (read at call time, the last batch short), joined
    along the last axis in batch order; batch ``idx`` draws from
    ``substream(seed, role, idx, sub)``.  Raises ``InvalidArgument`` for
    M < 1: an estimate needs at least one replicate."""
    if M < 1:
        raise InvalidArgument(f"replicates M={M} must be >= 1")
    return np.concatenate([
        batch(min(BATCH_SIZE, M - start), substream(seed, role, idx, sub))
        for idx, start in enumerate(range(0, M, BATCH_SIZE))], axis=-1)


def batch_mean_se(values) -> tuple[float, float]:
    """Mean and SE of per-replicate values: the plain mean of the whole
    array, and sqrt(sum((v - mean)**2) / (n - 1) / n) by a second pass.

    A finite constant v gives exactly (v, 0.0), not a rounded mean, and an
    infinite one (v, nan); fewer than two values give SE 0.
    """
    values = np.asarray(values, dtype=float)
    if values.size and values.min() == values.max() and np.isfinite(values[0]):
        return float(values[0]) + 0.0, 0.0  # -0.0 reads 0.0
    mean = float(values.mean())
    if values.size < 2:
        return mean, 0.0
    m2 = float(((values - mean) ** 2).sum())
    return mean, float(np.sqrt(m2 / (values.size - 1) / values.size))
