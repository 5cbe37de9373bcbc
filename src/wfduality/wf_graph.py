"""Exact finite-N Wright-Fisher graph simulation.

Each direction has one engine, a step that advances a whole batch of
independent replicates by one generation in a fixed number of numpy calls;
a single replicate is a batch of one.

Forward direction: the 0-allele frequency chain, ``step_frequency_many``.
Conditionally on the generation's environment y, merger strength V and
central-individual type b, children are iid and each is of type 0 iff all
of its potential parents are, each parent independently of type 0 with
probability (1-V)x + V(1-b).  The next-generation 0-count is therefore
Binomial(N, pgf_y(p)) with p = (1-V)x + V(1-b), which we sample directly
instead of materialising parent lists; the merger step ``params.merge``
draws p.

Backward direction: the block-counting chain of the ancestry,
``step_ancestry_many``, which ``simulate_ancestry`` runs over an environment
sequence.  Every lineage of the batch draws its parent count from Q(y) in
one flat array, y shared by the batch (quenched) or one per replicate
(annealed).  Each count is capped at K_CAP_FACTOR*N and the capped counts
are summed per replicate; a replicate saturates, reaching all N labels, when
any of its lineages reaches the cap or draws infinitely many parents.  With
probability c_N a replicate's generation has a merger of strength V: each
parent pick goes to the central individual with probability V, the rest
pick uniform labels.  The distinct uniform labels D are counted from one
sort of the batch's (replicate, label) keys, at a cost that does not grow
with N; the central label is uniform, so it adds a new label with
probability 1 - D/N.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument
from .measures import FiniteMeasure, pgf_many
from .params import FiniteModelParams, merge

#: Per-lineage parent-count cap, as a multiple of N. A draw at or above the
#: cap is treated as reaching every label (saturation), recorded in path
#: metadata.
K_CAP_FACTOR = 8


@dataclass(frozen=True)
class EnvSequence:
    """One environment value per generation."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.size and (vals.min() < -1.0 or vals.max() > 1.0):
            raise InvalidArgument("environment values must lie in [-1,1]")

    def __len__(self) -> int:
        """Number of generations, also for one row per replicate."""
        return self.values.shape[-1]


def draw_env(env_law: FiniteMeasure, length: int,
             rng: np.random.Generator) -> EnvSequence:
    return EnvSequence(env_law.sample(length, rng))


@dataclass
class BlockCountPath:
    values: np.ndarray  # block counts in {1,...,N}, length len(env)+1
    # (one row per replicate for a batched env)
    saturations: int = 0  # parent-count cap hits, over all replicates


# ---------------------------------------------------------------------------
# Forward frequency chain
# ---------------------------------------------------------------------------


def step_frequency_many(params: FiniteModelParams, x: np.ndarray, y,
                        rng: np.random.Generator) -> np.ndarray:
    """One forward generation for a vector of independent replicates.

    ``y`` may be a scalar (shared environment, quenched) or a per-replicate
    array (annealed).
    """
    p = np.array(x, dtype=float)  # the type-0 probability of a parent pick
    if params.c_N > 0:
        hit = rng.random(p.size) < params.c_N
        p[hit] = merge(params.merger_strength_law, p[hit], rng)
    succ = pgf_many(params.kernel, y, p)
    counts = rng.binomial(params.N, succ)
    return counts / params.N


# ---------------------------------------------------------------------------
# Backward block-counting chain
# ---------------------------------------------------------------------------


def step_ancestry_many(params: FiniteModelParams, n, y,
                       rng: np.random.Generator
                       ) -> tuple[np.ndarray, np.ndarray]:
    """One backward generation for a batch of independent replicates.

    ``n`` holds each replicate's lineage count, each in [1, N]; ``y`` is one
    environment value (quenched) or one per replicate (annealed).  Returns
    (distinct parent labels, saturated) per replicate.  A replicate with a
    lineage whose parent count reaches the cap (or is infinite) is treated
    as reaching all N labels and saturates at N.
    """
    N = params.N
    n = np.asarray(n, dtype=np.int64)
    ks = params.kernel.sample(np.repeat(np.broadcast_to(y, n.shape), n),
                              int(n.sum()), rng)
    starts = np.cumsum(n) - n
    cap = K_CAP_FACTOR * N
    saturated = np.maximum.reduceat(ks, starts) >= cap
    total = np.where(saturated, 0,
                     np.add.reduceat(np.minimum(ks, cap), starts))
    to_central = np.zeros(n.size, dtype=np.int64)
    if params.c_N > 0:
        hit = np.flatnonzero(rng.random(n.size) < params.c_N)
        v = params.merger_strength_law.sample(hit.size, rng)
        to_central[hit] = rng.binomial(total[hit], v)
    distinct = _occupied_labels(total - to_central, N, rng)
    # the central label is uniform, so it is new with probability 1 - D/N
    central = to_central > 0
    new = rng.random(int(central.sum())) < 1.0 - distinct[central] / N
    distinct[central] += new
    return np.where(saturated, N, distinct), saturated


def _occupied_labels(picks: np.ndarray, N: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Distinct labels among ``picks[i]`` uniform draws from N, per row.

    Each pick is keyed row*N + label; once the batch's keys are sorted, a
    row's count is the number of its keys that differ from their
    predecessor.
    """
    rows = np.repeat(np.arange(picks.size), picks)
    keys = np.sort(rows * N + rng.integers(0, N, size=rows.size))
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return np.bincount(keys[first] // N, minlength=picks.size)


def simulate_ancestry(params: FiniteModelParams, n0: int, env: EnvSequence,
                      rng: np.random.Generator) -> BlockCountPath:
    """Backward chain over len(env) generations, env consumed in reverse.

    ``env.values`` is one path's environment, or a (replicates, generations)
    array with one row per replicate, all started from n0 lineages; the
    block counts then have one row per replicate, and ``saturations`` sums
    the saturated steps over all rows.
    """
    if not 1 <= n0 <= params.N:
        raise InvalidArgument(
            f"sample size {n0} must lie in [1, N={params.N}]")
    ys = np.atleast_2d(env.values)
    gens = ys.shape[1]
    out = np.empty((ys.shape[0], gens + 1), dtype=np.int64)
    out[:, 0] = n0
    saturations = 0
    for g in range(gens):
        out[:, g + 1], sat = step_ancestry_many(params, out[:, g],
                                                ys[:, gens - 1 - g], rng)
        saturations += int(sat.sum())
    return BlockCountPath(out if env.values.ndim == 2 else out[0],
                          saturations)
