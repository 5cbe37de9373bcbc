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
draws p.  Most generations are neutral, where pgf_0(p) = p, so without a
merger the success probability is the current count over N.  A replicate
whose success probability is c/N for an interior count c inverts row c of
``binomial_rows``, the laws Binomial(N, c/N) built once per N <= 255,
with one uniform through its guide table; every other replicate, and every
replicate at larger N, takes ``rng.binomial``, whose setup for each new
probability costs several times as much.

Backward direction: the block-counting chain of the ancestry,
``step_ancestry_many``, which ``simulate_ancestry`` runs over an environment
sequence, y shared by the batch (quenched) or one per replicate (annealed).
At y = 0 every kernel gives each lineage one parent, so a replicate's pick
count is its lineage count; only the lineages of replicates with y != 0
draw parent counts from Q(y), in one flat array.  Each count is capped at
K_CAP_FACTOR*N and the capped counts are summed per replicate; a replicate
saturates, reaching all N labels, when any of its lineages reaches the cap
or draws infinitely many parents.  With probability c_N a replicate's
generation has a merger of strength V: each parent pick goes to the central
individual with probability V, the rest pick uniform labels.  The distinct
uniform labels D among s picks follow the classical occupancy law, drawn
with one uniform per replicate from rows built once per N up to the largest
pick count seen (``occupancy_rows``), within an entry budget, through their
guide table (``occupancy_guide``); past a table cut at the budget, D is
drawn exactly from coupon-collector gaps.  So a step costs O(replicates +
lineages under selection), not O(picks log picks), while pick counts fit
the table; the central label is uniform, so it adds a new label with
probability 1 - D/N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidArgument
from .measures import FiniteMeasure, guide_table, guided_draw, pgf_many
from .params import K_CAP_FACTOR, FiniteModelParams, merge


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
    array (annealed).  A replicate whose success probability is c/N for an
    interior count c reads its next count from row c of ``binomial_rows``
    with one uniform; every other replicate, and every replicate when N has
    no table, takes ``rng.binomial``.
    """
    p = np.array(x, dtype=float)  # the type-0 probability of a parent pick
    if p.size and not (p.min() >= 0.0 and p.max() <= 1.0):
        raise InvalidArgument("frequencies must lie in [0, 1]")
    if params.c_N > 0:
        hit = rng.random(p.size) < params.c_N
        p[hit] = merge(params.merger_strength_law, p[hit], rng)
    N = params.N
    succ = pgf_many(params.kernel, y, p)
    table = binomial_rows(N, OCCUPANCY_ENTRIES)
    if table is None:
        return rng.binomial(N, succ) / N
    c = np.rint(succ * N)
    on = (c / N == succ) & (c > 0) & (c < N)
    counts = np.empty(succ.shape, dtype=np.int64)
    off = ~on
    counts[off] = rng.binomial(N, succ[off])
    if on.any():
        cum, indptr, first, guide, gptr, buckets = table
        c = c[on].astype(np.int64)
        at = guided_draw(cum, indptr, guide, gptr, buckets, c,
                         rng.random(c.size))
        counts[on] = first[c] + at - indptr[c]
    return counts / N


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
    y = np.broadcast_to(y, n.shape)
    total = n.copy()  # Q(0) is one parent, whatever the kernel
    saturated = np.zeros(n.size, dtype=bool)
    sel = np.flatnonzero(y != 0)
    if sel.size:
        m = n[sel]
        ks = params.kernel.sample(np.repeat(y[sel], m), int(m.sum()), rng)
        starts = np.cumsum(m) - m
        cap = K_CAP_FACTOR * N
        saturated[sel] = np.maximum.reduceat(ks, starts) >= cap
        total[sel] = np.add.reduceat(np.minimum(ks, cap), starts)
        total[saturated] = 0
    to_central = np.zeros(n.size, dtype=np.int64)
    if params.c_N > 0:
        hit = np.flatnonzero(rng.random(n.size) < params.c_N)
        v = params.merger_strength_law.sample(hit.size, rng)
        to_central[hit] = rng.binomial(total[hit], v)
    distinct = _occupied_labels(total - to_central, N, rng.random(n.size),
                                rng)
    # the central label is uniform, so it is new with probability 1 - D/N
    central = to_central > 0
    new = rng.random(int(central.sum())) < 1.0 - distinct[central] / N
    distinct[central] += new
    return np.where(saturated, N, distinct), saturated


def _occupied_labels(picks: np.ndarray, N: int, u: np.ndarray,
                     rng: np.random.Generator) -> np.ndarray:
    """Distinct labels among ``picks[i]`` uniform draws from N, per row,
    by inverting the occupancy law at the uniform ``u[i]`` in [0, 1).

    Row s of ``occupancy_rows`` is read at s + u through
    ``occupancy_guide`` by ``measures.guided_draw``, so each count is the
    one a search of every row gives, in [min(s, 1), min(s, N)].  A pick
    count past the table's last row has every label occupied, unless the
    table was cut at its entry budget
    ``OCCUPANCY_ENTRIES``: such a row draws its count from ``rng`` by
    ``_collected_labels`` instead, and ignores its uniform.  When every
    pick count lies at or past the budget and N above it, no table is
    built at all.
    """
    top, budget = int(picks.max(initial=0)), OCCUPANCY_ENTRIES
    if N > budget and picks.size and picks.min() >= budget:
        # a table has at most one row per entry and cannot reach d = N,
        # so no row of it could serve these picks
        return _collected_labels(picks, N, rng)
    # a row holds at least one entry, so no table has more rows than entries
    rows = min(max(64, 1 << top.bit_length()), budget)
    cum, indptr, first = occupancy_rows(N, rows, budget)
    s = np.minimum(picks, first.size - 1)
    at = guided_draw(cum, indptr, *occupancy_guide(N, rows, budget), s, u)
    out = first[s] + at - indptr[s]
    if top >= first.size and first[-1] < N:  # a table cut at the budget
        far = np.flatnonzero(picks >= first.size)
        out[far] = _collected_labels(picks[far], N, rng)
    return out


def _collected_labels(picks: np.ndarray, N: int,
                      rng: np.random.Generator) -> np.ndarray:
    """Distinct labels among ``picks[i]`` uniform draws from N, per row,
    drawn exactly by the coupon collector: the picks from the d-th new label
    to the (d+1)-th are Geometric on {1, 2, ...} with success (N - d)/N, so
    the count is the number of partial sums of these gaps that are at most
    s.  Row i draws min(s_i, N) gaps in one flat array, so memory grows with
    the picks."""
    lens = np.minimum(picks, N)
    ends = np.cumsum(lens)
    starts = ends - lens
    p = np.arange(float(ends[-1]))  # d, then (N - d)/N, in place
    p -= np.repeat(starts, lens)
    np.subtract(N, p, out=p)
    p /= N
    gaps = rng.geometric(p)
    del p
    np.cumsum(gaps, out=gaps)
    # a row's partial sums are its running totals past the rows before it
    before = np.zeros(picks.size, dtype=np.int64)
    before[1:] = gaps[ends[:-1] - 1]
    return np.add.reduceat(gaps <= np.repeat(picks + before, lens), starts)


#: Most entries of one ``occupancy_rows`` table, and of the (N+1)^2 grid a
#: ``binomial_rows`` table is built from, so N <= 255 has one.  An
#: occupancy table at this budget stops before its first row that would
#: pass it; pick counts past its last row draw their distinct labels by
#: ``_collected_labels``.
OCCUPANCY_ENTRIES = 2**16

#: Occupancy probabilities below this are dropped from the recursion, so a
#: row's band of d stays narrow however large N is.
OCCUPANCY_TINY = 1e-30


@lru_cache(maxsize=16)
def occupancy_rows(N: int, rows: int, entries: int = OCCUPANCY_ENTRIES
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The classical occupancy law of the distinct labels D among s uniform
    picks from N, for s < ``rows``, as flat rows to search.

    Row s holds s + P(D <= d) in ``cum[indptr[s]:indptr[s+1]]`` for
    d = ``first[s]``, ``first[s]`` + 1, ..., cut as ``bcre.RateCache``
    cuts its rows: from the first entry above s to the first that rounds
    to s + 1.  So ``cum`` is sorted, and a draw's resolution is s * eps.
    Rows come from the recursion
    P(d | s+1) = P(d | s) d/N + P(d-1 | s) (N-d+1)/N over the band of d
    whose probability is at least ``OCCUPANCY_TINY``; d never exceeds
    min(s, N).  The table ends early at the first row that holds d = N
    alone, as every later row would, or before the first row that would
    take it past ``entries`` entries.  The arrays are read-only; their
    guide table, which draws read first, is ``occupancy_guide``.
    """
    repeat = np.arange(min(rows, N) + 1) / N  # P(a pick is old | d labels)
    p, lo = np.ones(1), 0  # P(D = d | s) for d in [lo, lo + p.size)
    cums, firsts, size = [], [], 0
    for s in range(rows):
        c = p.cumsum()
        row = c / c[-1] + s
        a = int(row.searchsorted(s, "right"))
        row = row[a:int(row.searchsorted(s + 1.0)) + 1]
        size += row.size
        if size > entries:
            break
        cums.append(row)
        firsts.append(lo + a)
        if lo + a == N:
            break
        old = p * repeat[lo:lo + p.size]
        nxt = np.append(old, 0.0)
        nxt[1:] += p - old
        keep = np.flatnonzero(nxt >= OCCUPANCY_TINY)
        p, lo = nxt[keep[0]:keep[-1] + 1], lo + int(keep[0])
    indptr = np.zeros(len(cums) + 1, dtype=np.int64)
    np.cumsum([row.size for row in cums], out=indptr[1:])
    out = np.concatenate(cums), indptr, np.array(firsts, dtype=np.int64)
    for arr in out:
        arr.flags.writeable = False
    return out


@lru_cache(maxsize=16)
def occupancy_guide(N: int, rows: int, entries: int = OCCUPANCY_ENTRIES
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``measures.guide_table`` (guide, gptr, buckets) of the rows of
    ``occupancy_rows(N, rows, entries)``, cached beside them; at most twice
    their entries.  The arrays are read-only."""
    cum, indptr, _ = occupancy_rows(N, rows, entries)
    out = guide_table(cum, np.diff(indptr))
    for arr in out:
        arr.flags.writeable = False
    return out


@lru_cache(maxsize=16)
def binomial_rows(N: int, entries: int = OCCUPANCY_ENTRIES):
    """The laws Binomial(N, c/N), c = 0..N, as flat rows to search, or None
    when their (N+1)^2 grid would pass ``entries``.

    Row c holds c + P(K <= k) in ``cum[indptr[c]:indptr[c+1]]`` for
    k = ``first[c]``, ``first[c]`` + 1, ..., cut as ``occupancy_rows``
    cuts its rows: from the first entry above c to the first that rounds
    to c + 1.  Rows 0 and N are the point masses at 0 and N.  The pmfs come
    from one log-space pass over the grid.  Returns (cum, indptr, first)
    and their ``measures.guide_table`` (guide, gptr, buckets), all
    read-only.
    """
    if (N + 1) ** 2 > entries:
        return None
    k = np.arange(N + 1.0)
    log_fact = np.array([math.lgamma(i + 1.0) for i in range(N + 1)])
    c = k[1:-1, None]  # the interior rows
    grid = np.zeros((N + 1, N + 1))
    grid[0, 0] = grid[N, N] = 1.0
    grid[1:-1] = log_fact[N] - log_fact - log_fact[::-1]
    grid[1:-1] += k * np.log(c / N) + (N - k) * np.log1p(-c / N)
    np.exp(grid[1:-1], out=grid[1:-1])
    np.cumsum(grid, axis=1, out=grid)
    grid /= grid[:, -1:]
    grid += k[:, None]
    # keep entry k of row c from the first above c to the first that
    # rounds to c + 1: above c, with no entry before it at c + 1
    above = grid > k[:, None]
    keep = above.copy()
    keep[:, 1:] &= grid[:, :-1] < k[:, None] + 1.0
    lens = keep.sum(axis=1)
    indptr = np.zeros(N + 2, dtype=np.int64)
    np.cumsum(lens, out=indptr[1:])
    cum = grid[keep]
    out = (cum, indptr, N + 1 - above.sum(axis=1), *guide_table(cum, lens))
    for arr in out:
        arr.flags.writeable = False
    return out


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
