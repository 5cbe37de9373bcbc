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
``RateCache.rows`` builds all of a round's new states in one numpy pass over
a (state, category) grid, from the laws it takes once per cache, and keeps
of each row only the entries a draw can reach; ``jump_rates`` is its
one-state case, the full row.

One engine, ``_paths``, runs every path: Gillespie's direct method over a
batch of paths at once, each round picking every jump from the guide table
of the flat rate rows of ``RateCache``, with one ``np.searchsorted`` for the
few draws the guide does not settle, and reading the next state from its
flat target table.  ``final_states``
runs M paths through ``rngstreams.run_batches``; ``stationary_estimate``
pools the occupation times of ``STATIONARY_CHAINS`` independent chains,
read from the row-ordered table once the rate rows are dropped.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (InvalidArgument, InvariantViolation,
                     NonConvergenceWarning, StateExplosionGuard)
from .measures import (ENTRY_CAP, SumLaw, guide_table, joined, log_atoms,
                       log_space_pmfs, segments)
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

    Returns (rates, cum).  Row i of the zero-padded (state, category) grid
    ``rates`` runs n+1..n+k_max[i], the lumped tail, then n-1, ..., 1, as a
    ``RateTable``; ``cum`` is its cumulative sum along each row, which numpy
    takes in sequence, so a row does not depend on the batch.
    """
    params, top, i = cache.params, int(ns.max()), np.arange(ns.size)
    # one pass over the branch and the merger atoms; C(n,k+1) y^{k+1}
    # (1-y)^{n-k-1} is the Binomial(n, y) pmf at k+1, zero past k = n-1
    probs, coal = log_space_pmfs(cache.laws, ns,
                                 (int(k_max.max()) + 1, top + 1))
    coal = coal[:, 2:]  # n -> n-k in column k-1
    if params.sigma > 0:
        coal[:, :1] += params.sigma * ns[:, None] * (ns[:, None] - 1) / 2.0
    probs, tails = cache.branch.rows(probs, ns, k_max)
    if ns.size == 1:  # one row: its window is the grid's
        rates = np.concatenate((probs[:, 1:], tails[:, None], coal), axis=1)
    else:
        rates = np.zeros((ns.size, probs.shape[1] - 1 + top))
        rates[:, :probs.shape[1] - 1] = probs[:, 1:]  # from k = 1
        rates[i, k_max] = tails
        rates[i[:, None], k_max[:, None] + np.arange(1, top)] = coal
    if params.w > 0:
        rates[:, 0] += params.w * ns
    if rates.min() < 0:
        raise InvariantViolation("negative jump rate")
    cum = np.add.accumulate(rates, axis=1)
    branch = cum[i, k_max]  # with the lumped tail
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


class RateCache:
    """Rate rows of the states one call visits, flattened for batch draws.

    Row r, of the r-th state built, holds the entries of r + cum_rates/total
    that a float draw can reach, in ``cum[indptr[r]:indptr[r+1]]``: those
    strictly above the entry before them (r before the first), through the
    first that rounds to r + 1 (no float draw reaches beyond); ``last[r]``
    is the index of that entry.  A category too narrow to change its entry
    is never the first entry above r + U, so dropping it changes no draw.
    So ``cum`` stays sorted as rows are appended, one ``np.searchsorted`` of
    r + U, U ~ U[0, 1), picks a jump per path, and the float resolution is
    r * eps, whatever the state.  Each row also gets a ``measures.guide_table``
    when it is built, row r's buckets in ``guide[gptr[r]:gptr[r+1]]``,
    ``buckets[r]`` of them: the bucket of U gives the search's answer
    without searching whenever its entry lies above r + U, so a draw costs
    O(1) in expectation.  Next to each entry of ``cum``, ``to``
    holds the state its category jumps to: n+1+j for the branch j, n-k for a
    merger of k+1 lineages, 0 for the lumped tail.  ``row_of`` maps a state
    to its row, -1 before its first visit; its last entry is always -1.  The
    laws of the rows are taken once per cache: the branch ``SumLaw`` over
    the environment atoms, which also sizes each row's window, joined with
    the merger ``LogAtoms`` of y^{-2} Lambda_c, one Binomial(n, y) law per
    atom, for one ``log_space_pmfs`` pass over both.
    """

    def __init__(self, params: LimitParams):
        self.params, self.n_rows = params, 0
        mu, law = params.mu, params.merger_law
        self.branch = SumLaw(params.kernel, mu.locations, mu.weights)
        merger = log_atoms(-1, np.empty(0), np.empty(0))  # none
        if params.c > 0 and law is not None:
            merger = log_atoms(-1, law.locations, params.c * law.weights)
        self.laws = joined(self.branch.law, merger)
        self.bound = params.alpha_s + params.w  # Markov bound per lineage
        self.row_of = np.full(64, -1, dtype=np.int64)
        self.indptr = np.zeros(64, dtype=np.int64)
        self.last = np.zeros(64, dtype=np.int64)
        self.k_max = np.zeros(64, dtype=np.int64)
        self.gptr = np.zeros(64, dtype=np.int64)
        self.cum, self.total, self.buckets = (np.empty(1024), np.empty(64),
                                              np.empty(64))
        self.to, self.guide = (np.empty(1024, dtype=np.int64),
                               np.empty(1024, dtype=np.int64))

    def get(self, n: int) -> int:
        """Row of state n, built on its first visit."""
        return int(self.rows(np.array([n]))[0])

    def rows(self, states: np.ndarray) -> np.ndarray:
        """Row of each state, building the rows of states not seen before.

        A state past the end of ``row_of`` reads its last entry, -1.  The
        new states are appended in sorted order, in chunks of at most
        ``ENTRY_CAP`` (state, category) entries, so a round's memory does
        not grow with its number of new states.
        """
        rows = self.row_of.take(states, mode="clip")
        if rows.min() < 0:
            new = np.sort(states[rows < 0])
            if new.size > 1:  # drop repeats: np.unique would import numpy.ma
                new = new[np.concatenate(([True], new[1:] != new[:-1]))]
            self.row_of = _grown(self.row_of, int(new[-1]) + 2, -1)
            k_max = self.branch.windows(new)
            lengths, lo = (k_max + new).tolist(), 0  # row lengths grow with n
            for hi in range(1, new.size + 1):
                if hi == new.size or (hi + 1 - lo) * lengths[hi] > ENTRY_CAP:
                    self._append(new[lo:hi], k_max[lo:hi])
                    lo = hi
            rows = self.row_of[states]
        return rows

    def _append(self, ns: np.ndarray, k_max: np.ndarray):
        """Build the rows of the new states ``ns`` and append the entries a
        draw can reach.  One pass over the round's (state, category) grid
        normalises it to r + cum_j/total and marks entry j where it lies
        strictly above its predecessor (r before the first), which also
        drops every entry past the first that rounds to r + 1.  The marked
        entries, and the targets of their categories, n+1+j for the branch
        j, 0 for the lumped tail and n-k for a merger of k+1 lineages, are
        gathered at once, and the new rows' guide is built over them."""
        _, cum = _rate_rows(self, ns, k_max)
        (m, width), r0 = cum.shape, self.n_rows
        (self.indptr, self.last, self.k_max, self.total, self.gptr,
         self.buckets) = (_grown(a, r0 + m + 1)
                          for a in (self.indptr, self.last, self.k_max,
                                    self.total, self.gptr, self.buckets))
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
        to = np.empty(cum.shape, dtype=np.int64)  # the target of each cell
        lo = hi = int(self.indptr[r0])
        for r, (row, kept, n, k) in enumerate(
                zip(to, keep, ns.tolist(), k_max.tolist()), r0):
            row[:k] = np.arange(n + 1, n + 1 + k)
            row[k] = 0
            row[k + 1:] = np.arange(n - 1, n + k - width, -1)
            hi += np.count_nonzero(kept)
            self.indptr[r + 1], self.last[r] = hi, hi - 1
        at = np.flatnonzero(keep)
        self.cum, self.to = _grown(self.cum, hi), _grown(self.to, hi)
        self.cum[lo:hi] = cum.ravel()[at]
        self.to[lo:hi] = to.ravel()[at]
        guide, gptr, self.buckets[r0:r0 + m] = guide_table(
            self.cum[lo:hi], np.diff(self.indptr[r0:r0 + m + 1]), r0)
        g0 = int(self.gptr[r0])
        self.guide = _grown(self.guide, g0 + guide.size)
        np.add(guide, lo, out=self.guide[g0:g0 + guide.size])
        np.add(gptr, g0, out=self.gptr[r0:r0 + m + 1])
        self.k_max[r0:r0 + m] = k_max
        self.row_of[ns] = np.arange(r0, r0 + m)
        self.n_rows = r0 + m


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
    other path picks its jump at r + U in the rows (r the row of its state):
    the entry its guide bucket names, or, where that entry does not lie
    above r + U, one ``searchsorted`` of all such keys, clamped to the
    row's last entry.  It reads its next state from the cache's target
    table, or draws a rare lumped-tail jump alone.  n0 must lie in
    [1, ceiling]; a jump above ``ceiling`` raises StateExplosionGuard, or
    with ``cut`` stops the path at state ``ceiling + 1``.  Returns the
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
    occ = None if keep_from is None else np.zeros(0)  # flat (row, path)
    ids, n, t = np.arange(size), np.full(size, n0, dtype=np.int64), np.zeros(size)
    with np.errstate(divide="ignore"):  # total 0: no event, ever
        while ids.size:
            rows = cache.rows(n)
            wait = rng.standard_exponential(ids.size) / cache.total[rows]
            t_prev, t = t, t + wait
            latest = t.max()  # NaN if a 0/0 holding time: it lasts to T
            if occ is not None and not latest <= keep_from:
                # a cell plus 0.0 is the cell, so time outside adds nothing
                held = np.fmin(t, T) - np.maximum(t_prev, keep_from)
                occ = _grown(occ, cache.n_rows * size)
                np.add.at(occ, rows * size + ids, np.maximum(held, 0.0))
            if not latest <= T:
                go = t <= T
                finals[ids[~go]] = n[~go]
                ids, n, t, rows = ids[go], n[go], t[go], rows[go]
            u = rng.random(ids.size)
            key = rows + u
            pos = cache.guide[cache.gptr[rows]
                              + (u * cache.buckets[rows]).astype(np.int64)]
            miss = np.flatnonzero(cache.cum[pos] <= key)
            if miss.size:
                # r + U may round up to r + 1, past the row's last entry
                pos[miss] = np.minimum(
                    np.searchsorted(cache.cum[:cache.indptr[cache.n_rows]],
                                    key[miss], side="right"),
                    cache.last[rows[miss]])
            nxt = cache.to[pos]
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
    occ = _grown(occ, cache.n_rows * size)[:cache.n_rows * size]
    return finals, occ.reshape(-1, size)


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
    states = np.flatnonzero(cache.row_of >= 0)
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
