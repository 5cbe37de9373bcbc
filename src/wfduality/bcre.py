"""Exact Gillespie simulation of the branching-coalescing dual chain.

From state n the chain branches to n+k at rate

    integral of P(K_{y,1}+...+K_{y,n} = n+k) against the selection
    environment measure, plus w*n for k=1,

and coalesces to n-k at rate

    c * integral of C(n,k+1) y^{k+1} (1-y)^{n-k-1} y^{-2} Lambda_c(dy),
    plus sigma * C(n,2) for k=1.

Branch rates are truncated at a window k_max sized once per state by
``measures.SumLaw.windows`` from the mean and variance of the summed excess
(mean + 12 sd + 16).  The mass beyond it is kept as the lumped-tail rate,
and a tail draw is resolved exactly by conditional sampling, never
discarded.  The rates and tail draws come from ``measures.SumLaw`` and
``measures.log_space_pmfs`` (a table kernel's branch rates by convolution),
one pass over the branch and the merger atoms together.
``RateCache`` builds the rows of newly visited states in batches, each in
one numpy pass over a (state, category) grid, from the laws it takes once
per cache, and keeps of each row only the entries a draw can reach;
``jump_rates`` is its one-state case, the full row.  Until its state's row
is built, a path waits on the hold row, at an infinite rate and with a move
of 0: it takes null steps, in which no time passes and the state does not
change, so every path keeps its law and only the assignment of random
numbers to paths changes.

One engine, ``_paths``, runs every path: Gillespie's direct method over a
batch of paths at once, each round picking every jump from the flat rate
rows of ``RateCache`` by ``measures.guided_draw``, the inverse-CDF draw of
every flat table, and moving each path by the entry of its flat move
table.  ``final_states`` runs M paths through ``rngstreams.run_batches``;
``stationary_estimate`` pools the occupation times of ``STATIONARY_CHAINS``
independent chains, read from the row-ordered table once the rate rows are
dropped.
"""

from __future__ import annotations

import math
import mmap
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import telemetry
from .errors import (InvalidArgument, InvariantViolation,
                     NonConvergenceWarning, StateExplosionGuard)
from .measures import (ENTRY_CAP, SumLaw, guide_table, guided_draw, joined,
                       log_atoms, log_space_pmfs, segments)
from .params import LimitParams
from .rngstreams import batch_mean_se, run_batches

#: Default state ceiling; exceeding it raises StateExplosionGuard.
DEFAULT_CEILING = 10**6

#: Half-sample total variation above which ``stationary_estimate`` warns.
TV_WARN = 0.05

#: Independent chains of ``stationary_estimate``, run as one batch; fixed
#: apart from ``rngstreams.BATCH_SIZE`` and ``PATH_BATCH_SIZE``, so each
#: chain's burn-in and kept time do not follow the replicate batching.
STATIONARY_CHAINS = 1024

#: Most calls of ``RateCache.rows`` a newly visited state waits on the hold
#: row before its row is built; held paths that make up 1/HOLD_ROUNDS of a
#: call's paths build at once.
HOLD_ROUNDS = 12

#: Cells an occupation table reserves at first, 8192 rows of
#: ``STATIONARY_CHAINS`` chains (64 MiB): address space only, as a page of
#: the table is mapped once it is written.
OCC_CELLS = 2**23


@dataclass
class RateTable:
    """All jump rates out of state n, with the branch tail lumped.

    Categories run n+1..n+k_max, the lumped tail, then n-1, n-2, ...
    """

    n: int
    branch_rates: np.ndarray  # index k-1 holds the rate of n -> n+k
    branch_tail: float        # lumped rate of n -> beyond n+k_max
    coalesce_rates: np.ndarray  # index k-1 holds the rate of n -> n-k
    cum_rates: np.ndarray = field(init=False)  # cumulative, category order
    total: float = field(init=False)
    k_max: int = field(init=False)

    def __post_init__(self):
        self.cum_rates = np.cumsum(np.concatenate([
            self.branch_rates, [self.branch_tail], self.coalesce_rates
        ]))
        self.total = float(self.cum_rates[-1])
        self.k_max = self.branch_rates.size


def _rate_rows(cache: RateCache, ns: np.ndarray, k_max: np.ndarray):
    """Jump rates out of every state of ``ns``, built in one numpy pass.

    Returns (rates, cum).  Row i of the (state, category) grid ``rates``
    runs n+1..n+K, the lumped tail, then n-1, ..., n-top+1, K the largest
    window and top the largest state: the rates of n+k past k_max[i] and of
    n-k past n-1 are 0, so a row of one state is a ``RateTable``.  ``cum``
    is its cumulative sum along each row, which numpy takes in sequence, and
    a zero rate leaves it as it is, so a row's nonzero steps do not depend
    on the batch.
    """
    params, top = cache.params, int(ns.max())
    # one pass over the branch and the merger atoms; C(n,k+1) y^{k+1}
    # (1-y)^{n-k-1} is the Binomial(n, y) pmf at k+1, zero past k = n-1
    probs, coal = log_space_pmfs(cache.laws, ns,
                                 (int(k_max.max()) + 1, top + 1))
    coal = coal[:, 2:]  # n -> n-k in column k-1
    if params.sigma > 0:
        coal[:, :1] += params.sigma * ns[:, None] * (ns[:, None] - 1) / 2.0
    probs, tails = cache.branch.rows(probs, ns, k_max)
    rates = np.concatenate((probs[:, 1:], tails[:, None], coal), axis=1)
    if params.w > 0:
        rates[:, 0] += params.w * ns
    if rates.min() < 0:
        raise InvariantViolation("negative jump rate")
    cum = np.add.accumulate(rates, axis=1)
    branch = cum[:, probs.shape[1] - 1]  # with the lumped tail
    bound = ns * cache.bound
    if (branch > bound + 1e-9 * (1.0 + branch)).any():
        raise InvariantViolation("branch rate exceeds the Markov bound")
    return rates, cum


def jump_rates(params: LimitParams, n: int) -> RateTable:
    """Rate table out of state n: the one-state case of ``_rate_rows``."""
    if n < 1:
        raise InvalidArgument("state must be >= 1")
    cache = RateCache(params)
    k = int(cache.branch.windows(np.array([n]))[0])
    row = _rate_rows(cache, np.array([n]), np.array([k]))[0][0]
    return RateTable(n, row[:k], float(row[k]), row[k + 1:])


def _grown(a: np.ndarray, size: int, fill=0) -> np.ndarray:
    """``a`` padded with ``fill`` to at least ``size`` rows, four times as
    many at a time, so the appends copy each entry about a third of a time;
    a zero pad is left unwritten, so the OS maps its pages only once they
    are used."""
    if size <= len(a):
        return a
    out = np.zeros((max(size, 4 * len(a)),) + a.shape[1:], dtype=a.dtype)
    out[:len(a)] = a
    if fill:
        out[len(a):] = fill
    return out


def _table(occ: np.ndarray, cells: int) -> np.ndarray:
    """The flat occupation table ``occ`` if it has ``cells`` cells, else
    ``occ`` followed by zeros, in max(``cells``, 4 * ``occ.size``,
    ``OCC_CELLS``) cells, so a run seldom grows its table.  The table is an
    anonymous map in small pages, so a page costs memory only once a cell
    on it is written; numpy advises huge pages for its arrays of 4 MiB or
    more, each of which maps 2 MiB at its first write.  The saving was
    measured on Linux x86-64 only, with transparent huge pages in madvise
    mode: ``wfduality run`` of the benchmark's ``fixation`` config peaked at
    41.6 MB with this table, at 43.4-44.5 MB with ``np.zeros`` tables grown
    1.5, 2 or 4 times at a time.  Where ``MADV_NOHUGEPAGE`` is missing the
    table is a plain anonymous map."""
    if cells <= occ.size:
        return occ
    buf = mmap.mmap(-1, 8 * max(cells, 4 * occ.size, OCC_CELLS))
    if hasattr(mmap, "MADV_NOHUGEPAGE"):  # Linux
        buf.madvise(mmap.MADV_NOHUGEPAGE)
    table = np.frombuffer(buf, dtype=np.float64)
    table[:occ.size] = occ
    return table


class RateCache:
    """Rate rows of the states one call visits, flattened for batch draws.

    Row 0 is the hold row: total rate inf and one entry, 1.0, whose move is
    0, so a path on it stays where it is.  A state not seen before maps to
    it and is queued until ``rows`` builds the queue (``HOLD_ROUNDS``).
    Row r > 0, of the r-th state built, holds the entries of
    r + cum_rates/total that a float draw can reach, in
    ``cum[indptr[r]:indptr[r+1]]``: those strictly above the entry before
    them (r before the first), through the first that rounds to r + 1 (no
    float draw reaches beyond).  A category too narrow to change its entry
    is never the first entry above r + U, so dropping it changes no draw.
    So ``cum`` stays sorted as rows are appended, one ``np.searchsorted`` of
    r + U, U ~ U[0, 1), picks a jump per path, and the float resolution is
    r * eps, whatever the state.  Each row also gets a ``measures.guide_table``
    when it is built, row r's buckets in ``guide[gptr[r]:gptr[r+1]]``,
    ``buckets[r]`` of them, for ``measures.guided_draw``: the bucket of U
    gives the search's answer without searching whenever its entry lies
    above r + U, so a draw costs O(1) in expectation; it reads row r's last
    entry as ``indptr[r+1] - 1``.  Next to each entry of ``cum``, ``move``
    holds what its category adds to the state n: 1+j for the branch j, -k
    for a merger of k+1 lineages, -n for the lumped tail, whose jump then
    reads as state 0 and is drawn alone.  ``row_of`` maps a state to its
    row, -1 before its first visit and 0 while it is queued; its last entry
    is always -1.  The laws of the rows are taken once per cache: the
    branch ``SumLaw`` over the environment atoms, which also sizes each
    row's window, joined with the merger ``LogAtoms`` of y^{-2} Lambda_c,
    one Binomial(n, y) law per atom, for one ``log_space_pmfs`` pass over
    both.
    """

    def __init__(self, params: LimitParams):
        self.params = params
        mu, law = params.mu, params.merger_law
        self.branch = SumLaw(params.kernel, mu.locations, mu.weights)
        merger = log_atoms(-1, np.empty(0), np.empty(0))  # none
        if params.c > 0 and law is not None:
            merger = log_atoms(-1, law.locations, params.c * law.weights)
        self.laws = joined(self.branch.law, merger)
        self.bound = params.alpha_s + params.w  # Markov bound per lineage
        self.row_of = np.full(64, -1, dtype=np.int64)
        self.indptr = np.zeros(64, dtype=np.int64)
        self.k_max = np.zeros(64, dtype=np.int64)
        self.gptr = np.zeros(64, dtype=np.int64)
        self.cum, self.total, self.buckets = (np.empty(1024), np.empty(64),
                                              np.empty(64))
        self.move, self.guide = (np.empty(1024, dtype=np.int64),
                                 np.empty(1024, dtype=np.int64))
        # row 0, the hold row: one entry 1.0 of move 0, its own guide, at an
        # infinite total rate
        self.indptr[1] = self.gptr[1] = self.n_rows = 1
        self.cum[0], self.move[0], self.guide[0] = 1.0, 0, 0
        self.total[0], self.buckets[0] = np.inf, 1.0
        self.queued, self.waited = [], 0

    def get(self, n: int) -> int:
        """Row of state n, built on its first visit."""
        return int(self.rows(np.array([n]))[0])

    def rows(self, states: np.ndarray) -> np.ndarray:
        """Row of each state; row 0, the hold row, for a state whose row is
        not built yet.

        A state not seen before is queued.  Every queued state is built in
        one pass once ``HOLD_ROUNDS`` calls have passed since the oldest was
        queued, or once the held states make up at least 1/``HOLD_ROUNDS``
        of the call's states, so a call whose states are all held builds at
        once, and so does ``get``.  A state past the end of ``row_of`` reads
        its last entry, -1.
        """
        rows = self.row_of.take(states, mode="clip")
        low = rows.min()
        if low <= 0:  # held or new states
            held = rows <= 0
            if low < 0:
                new = states[rows < 0]
                self.row_of = _grown(self.row_of, int(new.max()) + 2, -1)
                self.row_of[new] = 0
                self.queued.append(new)
                rows[held] = 0
            self.waited += 1
            n_held = int(np.count_nonzero(held))
            if self.waited > HOLD_ROUNDS or HOLD_ROUNDS * n_held >= rows.size:
                self._build()
                return self.row_of[states]
            tel = telemetry.current()
            if tel is not None:
                tel["z_held_steps"] += n_held
        return rows

    def _build(self):
        """Build the rows of the queued states, appended in sorted order in
        chunks of at most ``ENTRY_CAP`` (state, category) entries, so a
        build's memory does not grow with its number of states."""
        new = np.sort(np.concatenate(self.queued))
        if new.size > 1:  # drop repeats: np.unique would import numpy.ma
            new = new[np.concatenate(([True], new[1:] != new[:-1]))]
        self.queued, self.waited = [], 0
        k_max = self.branch.windows(new)
        lengths, lo = (k_max + new).tolist(), 0  # row lengths grow with n
        for hi in range(1, new.size + 1):
            if hi == new.size or (hi + 1 - lo) * lengths[hi] > ENTRY_CAP:
                self._append(new[lo:hi], k_max[lo:hi])
                lo = hi

    def _append(self, ns: np.ndarray, k_max: np.ndarray):
        """Build the rows of the new states ``ns`` and append the entries a
        draw can reach.  One pass over the (state, category) grid of
        ``_rate_rows`` normalises it to r + cum_j/total and marks entry j
        where it lies strictly above its predecessor (r before the first),
        which drops the zero rates and every entry past the first that
        rounds to r + 1.  The marked entries are gathered at once, with the
        moves of their columns j: 1+j for the branch j < K, -n for the
        lumped tail at K and K-j for a merger; the new rows' guide is built
        over them."""
        _, cum = _rate_rows(self, ns, k_max)
        (m, width), r0, tail = cum.shape, self.n_rows, int(k_max.max())
        self.indptr, self.k_max, self.total, self.gptr, self.buckets = (
            _grown(a, r0 + m + 1) for a in (self.indptr, self.k_max,
                                            self.total, self.gptr,
                                            self.buckets))
        total = self.total[r0:r0 + m]
        total[:] = cum[:, -1]
        if not total.all():  # no event, ever: one entry r + 1, never drawn
            cum[total == 0] = 1.0
        base = np.arange(float(r0), r0 + m)  # r, row by row
        cum /= cum[:, -1:]  # numpy reads the overlapping divisor first
        cum += base[:, None]
        keep = np.empty(cum.shape, dtype=bool)
        np.greater(cum[:, 0], base, out=keep[:, 0])
        np.greater(cum[:, 1:], cum[:, :-1], out=keep[:, 1:])
        at = np.flatnonzero(keep)
        lo = int(self.indptr[r0])
        hi = lo + at.size
        ends = self.indptr[r0 + 1:r0 + m + 1]
        np.cumsum(np.count_nonzero(keep, axis=1), out=ends)
        ends += lo
        self.cum, self.move = _grown(self.cum, hi), _grown(self.move, hi)
        self.cum[lo:hi] = cum.ravel()[at]
        row, j = np.divmod(at, width)
        move = self.move[lo:hi]
        np.copyto(move, np.where(j < tail, 1 + j, tail - j))
        tails = j == tail
        move[tails] = -ns[row[tails]]
        guide, gptr, self.buckets[r0:r0 + m] = guide_table(
            self.cum[lo:hi], np.diff(self.indptr[r0:r0 + m + 1]), r0)
        g0 = int(self.gptr[r0])
        self.guide = _grown(self.guide, g0 + guide.size)
        np.add(guide, lo, out=self.guide[g0:g0 + guide.size])
        np.add(gptr, g0, out=self.gptr[r0:r0 + m + 1])
        self.k_max[r0:r0 + m] = k_max
        self.row_of[ns] = np.arange(r0, r0 + m)
        self.n_rows = r0 + m
        tel = telemetry.current()
        if tel is not None:
            tel["z_rows"] += m
            tel["z_row_builds"] += 1


def _sample_tail_jump(params: LimitParams, n: int, k_max: int,
                      rng: np.random.Generator) -> int:
    """Next state for a lumped-tail branch draw: exact conditional sampling.

    Picks the environment atom proportionally to its contribution to the
    tail rate, then samples the summed parent count conditioned on exceeding
    n + k_max by widening the pmf window.
    """
    mu = params.mu
    tails = np.array([
        SumLaw(params.kernel, [y], [wgt]).pmfs([n], [k_max])[1][0]
        for y, wgt in zip(mu.locations.tolist(), mu.weights.tolist())
    ])
    total = tails.sum()
    if total <= 0:
        return n + k_max + 1
    y = float(mu.locations[np.searchsorted(np.cumsum(tails) / total, rng.random())])
    width = k_max
    while True:
        width *= 4
        (cond,), tail = SumLaw(params.kernel, [y], [1.0]).pmfs([n], [width])
        cond[: k_max + 1] = 0.0
        mass = cond.sum()
        # infinite parent counts never reach here: the tail of a law with an
        # infinity atom still has finite-window mass growing toward it
        if tail[0] <= 1e-12 * max(mass, 1e-300) or width >= 2**24:
            if mass <= 0:
                return n + width
            k = int(np.searchsorted(np.cumsum(cond) / mass, rng.random()))
            return n + k


def _paths(params: LimitParams, n0: int, T: float, size: int,
           rng: np.random.Generator, cache: RateCache, ceiling: int,
           cut: bool = False, keep_from: float | None = None):
    """The Gillespie loop: ``size`` independent paths from n0 on [0, T].

    Each round every active path draws its holding time Exp(1)/total[n].  A
    path whose next event falls past T records its state and leaves; each
    other path picks its jump at r + U in the rows (r the row of its state)
    by ``measures.guided_draw``, and adds the entry's move from the cache's
    move table to its state, or draws a rare lumped-tail jump alone.  A
    path on the hold row draws the holding time Exp(1)/inf = 0 and the
    move 0: a null step, which adds 0.0 to its occupation cell.  n0 must
    lie in [1, ceiling]; a jump above ``ceiling`` raises
    StateExplosionGuard, or with ``cut`` stops the path at state
    ``ceiling + 1``.  Returns the
    states at T and the occupation times on [keep_from, T] as a dense table
    ``occ[r, path]`` over the cache's rows r, or None without
    ``keep_from``; a path adds to one cell per round, so each cell is its
    round-ordered sum from 0.0.
    """
    if not 1 <= n0 <= ceiling:
        raise InvalidArgument(f"initial state {n0} must lie in [1, {ceiling}]")
    if not T >= 0.0:
        raise InvalidArgument(f"horizon T={T} must be >= 0")
    finals = np.empty(size, dtype=np.int64)
    occ = None if keep_from is None else _table(np.zeros(0), 1)  # (row, path)
    ids, n, t = np.arange(size), np.full(size, n0, dtype=np.int64), np.zeros(size)
    tel = telemetry.current()
    with np.errstate(divide="ignore"):  # total 0: no event, ever
        while ids.size:
            if tel is not None:
                tel["z_rounds"] += 1
                tel["z_steps"] += ids.size
            rows = cache.rows(n)
            wait = rng.standard_exponential(ids.size) / cache.total[rows]
            t_prev, t = t, t + wait
            latest = t.max()  # NaN if a 0/0 holding time: it lasts to T
            if occ is not None and not latest <= keep_from:
                # a cell plus 0.0 is the cell, so time outside adds nothing
                held = np.fmin(t, T) - np.maximum(t_prev, keep_from)
                occ = _table(occ, cache.n_rows * size)
                np.add.at(occ, rows * size + ids, np.maximum(held, 0.0))
            if not latest <= T:
                go = t <= T
                finals[ids[~go]] = n[~go]
                ids, n, t, rows = ids[go], n[go], t[go], rows[go]
            pos = guided_draw(cache.cum[:cache.indptr[cache.n_rows]],
                              cache.indptr, cache.guide, cache.gptr,
                              cache.buckets, rows, rng.random(ids.size))
            nxt = n + cache.move[pos]
            if nxt.size and nxt.min() == 0:  # the lumped tail
                for i in np.flatnonzero(nxt == 0).tolist():
                    nxt[i] = _sample_tail_jump(params, int(n[i]),
                                               int(cache.k_max[rows[i]]), rng)
            n = nxt
            if n.size and n.max() > ceiling:
                over = n > ceiling
                if not cut:
                    raise StateExplosionGuard(
                        f"state {n[over].max()} exceeded ceiling {ceiling}")
                finals[ids[over]] = ceiling + 1
                ids, n, t = ids[~over], n[~over], t[~over]
    if occ is None:
        return finals, None
    # rows built after the last kept round hold no time
    occ = _table(occ, cache.n_rows * size)
    return finals, occ[:cache.n_rows * size].reshape(-1, size)


def final_state(params: LimitParams, n0: int, T: float,
                rng: np.random.Generator, cache: RateCache,
                ceiling: int = DEFAULT_CEILING) -> int:
    """State at time T of one exact path: a one-path batch of the engine."""
    return int(_paths(params, n0, T, 1, rng, cache, ceiling)[0][0])


def final_states(params: LimitParams, n0: int, T: float, M: int, seed: int,
                 role: str = "lhs", sub: int = 0,
                 ceiling: int = DEFAULT_CEILING,
                 cut: bool = False) -> np.ndarray:
    """States at time T of M independent paths from n0, in batch order.

    The streams of ``PATH_BATCH_SIZE`` paths of ``rngstreams.run_batches``
    run through the engine and share one rate cache.  A path that jumps
    above ``ceiling`` raises ``StateExplosionGuard``; with ``cut`` it stops
    there and reports ``ceiling + 1`` instead.
    """
    cache = RateCache(params)
    return run_batches(
        lambda size, rng: _paths(params, n0, T, size, rng, cache, ceiling,
                                 cut)[0],
        M, seed, role, sub, paths=True)


def dual_moment(params: LimitParams, x: float, n0: int, t: float, M: int,
                seed: int, role: str = "lhs") -> tuple[float, float]:
    """Monte Carlo mean and SE of x**Z(t) over M independent chain paths."""
    if not 0.0 <= x <= 1.0:
        raise InvalidArgument("x must lie in [0,1]")
    zs = final_states(params, n0, t, M, seed, role)
    # one scalar pow per distinct state: numpy's SIMD power loop can differ
    # from it in the last bit, and so from one CPU to another
    states, inverse = np.unique(zs, return_inverse=True)
    return batch_mean_se(np.array([x**z for z in states.tolist()])[inverse])


@dataclass
class StationaryEstimate:
    """Occupation-time estimate of the stationary law from parallel chains."""

    pmf: np.ndarray  # pmf[k] is the pooled occupation mass of state k (k >= 1)
    half_sample_tv: float
    chains: tuple  # (chain, state, mass): each chain's occupation law

    def prob(self, k: int) -> float:
        return float(self.pmf[k]) if 0 < k < self.pmf.size else 0.0

    def pgf(self, x) -> np.ndarray | float:
        """Generating-function evaluator; equals 1 at x=1 by normalisation."""
        x = np.asarray(x, dtype=float)
        ks = np.arange(self.pmf.size)
        vals = (np.power.outer(x, ks) * self.pmf).sum(axis=-1)
        return float(vals) if vals.ndim == 0 else vals

    def pgf_se(self, x) -> np.ndarray | float:
        """Between-chain SE of ``pgf(x)``; 0 at x = 1, where it is rounding."""
        x = np.asarray(x, dtype=float)
        chain, state, mass = self.chains
        per_chain = np.array([np.bincount(chain, weights=mass * xi**state)
                              for xi in x.ravel().tolist()])
        se = per_chain.std(axis=1, ddof=1) / math.sqrt(per_chain.shape[1])
        se = np.where(x == 1.0, 0.0, se.reshape(x.shape))
        return float(se) if se.ndim == 0 else se


def stationary_estimate(params: LimitParams, n0: int, burn_in: float, T: float,
                        rng: np.random.Generator) -> StationaryEstimate:
    """Occupation-time estimate of the stationary law of the chain.

    Runs K = ``STATIONARY_CHAINS`` independent chains from n0.  Each discards
    [0, burn_in] and keeps the next (T - burn_in) / K of time: the kept time
    totals T - burn_in, as for one chain kept on [burn_in, T], but every
    chain pays the burn-in.  The estimate is the pooled occupation law, and
    the spread of the chains' laws gives the SE of its pgf.  Warns if the
    pooled laws of the two halves of the chains differ by more than
    ``TV_WARN`` in total variation.  The rate cache is dropped before the
    pooling, which reads the nonzero cells of the row-ordered table in
    (state, chain) order, each row's cells as one segment, with no copy of
    the table.
    """
    if T <= burn_in:
        raise InvalidArgument("T must exceed burn_in")
    K, cache = STATIONARY_CHAINS, RateCache(params)
    _, occ = _paths(params, n0, burn_in + (T - burn_in) / K, K, rng, cache,
                    DEFAULT_CEILING, keep_from=burn_in)
    states = np.flatnonzero(cache.row_of > 0)  # row 0 holds no time
    rows = cache.row_of[states]
    del cache  # the pooling reads no rate row
    # the table's nonzero cells, (row, chain) in row order, each row's cells
    # one segment; the segments taken in state order put them in (state,
    # chain) order
    cells = np.flatnonzero(occ)
    bounds = np.searchsorted(cells, np.arange(occ.shape[0] + 1) * K)
    at, offset = segments(np.diff(bounds)[rows])
    cells = cells[bounds[rows][at] + offset]
    state, chain, times = states[at], cells % K, occ.ravel()[cells]
    del occ, cells
    h1, h2 = (np.bincount(state, weights=times * half, minlength=state.max() + 1)
              for half in (chain < K // 2, chain >= K // 2))
    tv = 0.5 * float(np.abs(h1 / h1.sum() - h2 / h2.sum()).sum())
    if tv > TV_WARN:
        warnings.warn(f"half-sample occupation laws differ by TV={tv:.3f}",
                      NonConvergenceWarning)
    pmf = h1 + h2
    mass = times / np.bincount(chain, weights=times)[chain]
    return StationaryEstimate(pmf / pmf.sum(), tv, (chain, state, mass))
