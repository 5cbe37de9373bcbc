"""Counter-based, splittable random number streams.

Every Monte Carlo driver derives its randomness from ``stream(seed, index)``:
a Philox generator keyed by the two 64-bit words (seed, index).  Streams are
independent by construction and reproducible across platforms, and each
replicate batch owns a fixed stream index, so results never depend on worker
count or scheduling order.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import InvalidArgument

#: Replicates per stream. Fixed so the (seed, batch) -> draws map is stable.
BATCH_SIZE = 1024


def stream(seed: int, index: int) -> np.random.Generator:
    """Independent generator for (seed, index); pure function of its inputs.

    Raises ``InvalidArgument`` for a seed outside [0, 2**64), which would
    otherwise alias another seed's stream.  The key is passed as uint64:
    numpy rounds a list key of 2**63 or more through float64.
    """
    if not 0 <= seed < 2**64:
        raise InvalidArgument(f"seed {seed} must lie in [0, 2**64)")
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


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


def parallel_map(fn, items, workers: int = 1) -> list:
    """Order-preserving map, optionally fanned out over a thread pool.

    Aggregation downstream must consume results in list order, which is
    independent of completion order, so worker count never changes output.
    """
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def mean_and_se(values: np.ndarray) -> tuple[float, float]:
    """Sample mean and standard error of the mean."""
    values = np.asarray(values, dtype=float)
    m = float(values.mean())
    if values.size < 2:
        return m, 0.0
    se = float(values.std(ddof=1) / np.sqrt(values.size))
    return m, se


def pooled_mean_se(counts, means, m2s) -> tuple[float, float]:
    """Combine per-batch (count, mean, sum of squared deviations) triples.

    Pairwise left-fold in list order; deterministic for a fixed batching.
    """
    n_tot = 0
    mean_tot = 0.0
    m2_tot = 0.0
    for n, m, m2 in zip(counts, means, m2s):
        if n == 0:
            continue
        delta = m - mean_tot
        new_n = n_tot + n
        m2_tot += m2 + delta * delta * n_tot * n / new_n
        mean_tot += delta * n / new_n
        n_tot = new_n
    if n_tot < 2:
        return mean_tot, 0.0
    var = m2_tot / (n_tot - 1)
    return mean_tot, float(np.sqrt(var / n_tot))
