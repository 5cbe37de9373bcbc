"""Exact Gillespie simulation of the branching-coalescing dual chain.

From state n the chain branches to n+k at rate

    integral of P(K_{y,1}+...+K_{y,n} = n+k) against the selection
    environment measure, plus w*n for k=1,

and coalesces to n-k at rate

    c * integral of C(n,k+1) y^{k+1} (1-y)^{n-k-1} y^{-2} Lambda_c(dy),
    plus sigma * C(n,2) for k=1.

Branch rates are truncated at a window k_max sized once per state from the
mean and variance of the summed excess (mean + 12 sd + 16), widened only if
the lumped tail still carries more than TAIL_REL of the state's rate; the
tail is kept as an explicit rate, and a tail draw is resolved exactly by
conditional sampling, never discarded.  ``RateCache.rows`` builds all of a
round's new states in one numpy pass over a (state, category) grid, and
``jump_rates`` is the one-state case of the same builder.

One engine, ``_paths``, runs every path: Gillespie's direct method over a
batch of paths at once, each round picking every jump with one
``np.searchsorted`` in the flat rate rows of ``RateCache``.  ``final_states``
runs M paths through ``rngstreams.run_batches``; ``stationary_estimate``
pools the occupation times of ``STATIONARY_CHAINS`` independent chains.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (InvalidArgument, InvariantViolation,
                     NonConvergenceWarning, StateExplosionGuard)
from .measures import binom_pmf, excess_moments, segments, sum_pmfs
from .params import LimitParams
from .rngstreams import batch_mean_se, run_batches

#: Relative tail-rate threshold for the branch-table truncation.
TAIL_REL = 1e-9

#: Default state ceiling; exceeding it raises StateExplosionGuard.
DEFAULT_CEILING = 10**6

#: Widest branch window, in categories.
K_MAX_CAP = 2**20

#: Most (state, category) entries built in one pass of ``RateCache.rows``.
ENTRY_CAP = 2**15

#: Independent chains of ``stationary_estimate``, run as one batch; fixed
#: apart from ``rngstreams.BATCH_SIZE``, so each chain's burn-in and kept
#: time do not follow the replicate batching.
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


def _windows(params: LimitParams, ns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Branch window of each state, and the most it may be widened to.

    The window is mean + 12 sd + 16 of the summed excess K_{y,1} + ... +
    K_{y,n} - n, the largest over the environment atoms, and never more than
    the sum's finite support (n for the binary kernel) or ``K_MAX_CAP``.
    """
    size, top = np.ones(ns.size), np.ones(ns.size)
    for y in params.mu.locations.tolist():
        mean, var, most = excess_moments(params.kernel, y)
        size = np.maximum(size, ns * mean + 12.0 * np.sqrt(ns * var) + 16.0)
        top = np.maximum(top, ns * most)
    limit = np.minimum(top, K_MAX_CAP)
    return np.minimum(size, limit).astype(np.int64), limit.astype(np.int64)


def _branch_rates(params: LimitParams, ns: np.ndarray, k_max: np.ndarray) -> np.ndarray:
    """Branch rows of k = 1..k_max then the lumped tail, laid end to end."""
    ends = np.cumsum(k_max + 1)
    rates = np.zeros(ends[-1])
    for y, wgt in zip(params.mu.locations.tolist(), params.mu.weights.tolist()):
        probs, tails = sum_pmfs(params.kernel, y, ns, k_max)
        probs[:-1] = probs[1:]  # each row drops k = 0 and ends in its tail
        probs[ends - 1] = tails
        rates += wgt * probs
    if params.w > 0:
        rates[ends - k_max - 1] += params.w * ns
    return rates


def _coalesce_rates(params: LimitParams, n: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Rates of n -> n-k, elementwise over the arrays n and k."""
    rates = np.zeros(n.size)
    lc = params.lambda_c
    if params.c > 0 and lc.total_mass > 0:
        for y, wgt in zip(lc.locations.tolist(), lc.weights.tolist()):
            # C(n,k+1) y^{k+1} (1-y)^{n-k-1} is the Binomial(n,y) pmf at
            # k+1; the pmf form stays finite for large n where the
            # binomial coefficient alone overflows
            rates += params.c * wgt / y**2 * binom_pmf(k + 1, n, y)
    if params.sigma > 0:
        pair = k == 1
        rates[pair] += params.sigma * n[pair] * (n[pair] - 1) / 2.0
    return rates


def _rate_rows(params: LimitParams, ns: np.ndarray, k_max: np.ndarray,
               limit: np.ndarray):
    """Jump rates out of every state of ``ns``, built in one numpy pass.

    Returns (rates, cum, k_max).  Row i of the zero-padded (state, category)
    grid ``rates`` runs n+1..n+k_max[i], the lumped tail, then n-1, ..., 1,
    as a ``RateTable``; ``cum`` is its cumulative sum along each row, which
    numpy takes in sequence, so a row does not depend on the batch.  The
    windows from ``_windows`` are doubled, within ``limit``, only while a
    lumped tail exceeds TAIL_REL of its state's total rate.
    """
    crow, ccol = segments(ns - 1)
    coal = _coalesce_rates(params, ns[crow], ccol + 1)
    i = np.arange(ns.size)
    while True:
        brow, bcol = segments(k_max + 1)
        rates = np.zeros((ns.size, int((k_max + ns).max())))
        rates[brow, bcol] = _branch_rates(params, ns, k_max)
        rates[crow, k_max[crow] + 1 + ccol] = coal
        cum = np.cumsum(rates, axis=1)
        wide = (rates[i, k_max] > TAIL_REL * cum[:, -1]) & (k_max < limit)
        if not wide.any():
            break
        k_max = np.where(wide, np.minimum(2 * k_max, limit), k_max)
    if (rates < 0).any():
        raise InvariantViolation("negative jump rate")
    branch = cum[i, k_max]  # with the lumped tail
    if (branch > ns * (params.alpha_s + params.w) + 1e-9 * (1.0 + branch)).any():
        raise InvariantViolation("branch rate exceeds the Markov bound")
    return rates, cum, k_max


def jump_rates(params: LimitParams, n: int) -> RateTable:
    """Rate table out of state n: the one-state case of ``_rate_rows``."""
    if n < 1:
        raise InvalidArgument("state must be >= 1")
    ns = np.array([n])
    rates, _, k_max = _rate_rows(params, ns, *_windows(params, ns))
    k, row = int(k_max[0]), rates[0]
    return RateTable(n, row[:k], float(row[k]), row[k + 1:])


def _grown(a: np.ndarray, size: int, fill=0) -> np.ndarray:
    """``a`` padded with ``fill`` to at least ``size`` rows, doubling; a zero
    pad is left unwritten, so the OS maps its pages only once they are used."""
    if size <= len(a):
        return a
    out = np.zeros((max(size, 2 * len(a)),) + a.shape[1:], dtype=a.dtype)
    out[:len(a)] = a
    if fill:
        out[len(a):] = fill
    return out


class RateCache:
    """Rate rows of the states one call visits, flattened for batch draws.

    Row r, of the r-th state built, holds r + cum_rates/total in
    ``cum[indptr[r]:indptr[r+1]]`` up to its first entry that rounds to r + 1
    (no float draw reaches beyond).  So ``cum`` stays sorted as rows are
    appended, one ``np.searchsorted`` of r + U, U ~ U[0, 1), picks a jump per
    path, and the float resolution is r * eps, whatever the state.
    ``row_of`` maps a state to its row, -1 before its first visit.
    """

    def __init__(self, params: LimitParams):
        self.params, self.n_rows = params, 0
        self.row_of = np.full(64, -1, dtype=np.int64)
        self.indptr = np.zeros(64, dtype=np.int64)
        self.k_max = np.zeros(64, dtype=np.int64)
        self.cum, self.total = np.empty(1024), np.empty(64)

    def get(self, n: int) -> int:
        """Row of state n, built on its first visit."""
        return int(self.rows(np.array([n]))[0])

    def rows(self, states: np.ndarray) -> np.ndarray:
        """Row of each state, building the rows of states not seen before.

        The new states are appended in sorted order, in chunks of at most
        ``ENTRY_CAP`` (state, category) entries, so a round's memory does
        not grow with its number of new states.
        """
        self.row_of = _grown(self.row_of, int(states.max()) + 1, -1)
        rows = self.row_of[states]
        if (rows < 0).any():
            # sort and drop repeats: np.unique would import numpy.ma
            new = np.sort(states[rows < 0])
            new = new[np.concatenate(([True], new[1:] != new[:-1]))]
            k_max, limit = _windows(self.params, new)
            lo = 0
            while lo < new.size:  # row lengths k_max + n grow with n
                fits = (np.arange(1, new.size - lo + 1) * (k_max + new)[lo:]
                        <= ENTRY_CAP)
                hi = lo + max(1, int(fits.sum()))
                self._append(new[lo:hi], k_max[lo:hi], limit[lo:hi])
                lo = hi
            rows = self.row_of[states]
        return rows

    def _append(self, ns: np.ndarray, k_max: np.ndarray, limit: np.ndarray):
        """Build and append the rows of the new states ``ns``."""
        _, cum, k_max = _rate_rows(self.params, ns, k_max, limit)
        total = cum[:, -1]  # a padded entry repeats its row's total
        r = self.n_rows + np.arange(ns.size)
        with np.errstate(invalid="ignore"):
            cum = r[:, None] + cum / total[:, None]
        cum[total == 0, 0] = r[total == 0] + 1.0  # never drawn from
        keep = np.argmax(cum >= (r + 1.0)[:, None], axis=1) + 1
        vals = cum[np.arange(cum.shape[1]) < keep[:, None]]
        lo = int(self.indptr[self.n_rows])
        self.cum = _grown(self.cum, lo + vals.size)
        self.cum[lo:lo + vals.size] = vals
        self.indptr, self.k_max, self.total = (
            _grown(a, r[-1] + 2) for a in (self.indptr, self.k_max, self.total))
        self.indptr[r + 1] = lo + np.cumsum(keep)
        self.k_max[r], self.total[r] = k_max, total
        self.row_of[ns] = r
        self.n_rows += ns.size


def _sample_tail_jump(params: LimitParams, n: int, k_max: int,
                      rng: np.random.Generator) -> int:
    """Next state for a lumped-tail branch draw: exact conditional sampling.

    Picks the environment atom proportionally to its contribution to the
    tail rate, then samples the summed parent count conditioned on exceeding
    n + k_max by widening the pmf window.
    """
    mu = params.mu
    tails = np.array([
        wgt * sum_pmfs(params.kernel, float(y), [n], [k_max])[1][0]
        for y, wgt in zip(mu.locations, mu.weights)
    ])
    total = tails.sum()
    if total <= 0:
        return n + k_max + 1
    y = float(mu.locations[np.searchsorted(np.cumsum(tails) / total, rng.random())])
    width = k_max
    while True:
        width *= 4
        cond, tail = sum_pmfs(params.kernel, y, [n], [width])
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
    other path picks its jump by one ``searchsorted`` of r + U in the rows
    (r the row of its state), or draws a rare lumped-tail jump alone.  A
    jump above ``ceiling`` raises StateExplosionGuard, or with ``cut`` stops
    the path at state ``ceiling + 1``.  Returns the states at T and the
    occupation times on [keep_from, T] as a dense table ``occ[r, path]`` over
    the cache's rows r, or None without ``keep_from``; a path adds to one
    cell per round, so each cell is its round-ordered sum from 0.0.
    """
    if n0 < 1:
        raise InvalidArgument("initial state must be >= 1")
    finals = np.empty(size, dtype=np.int64)
    occ = None if keep_from is None else np.zeros((0, size))
    ids, n, t = np.arange(size), np.full(size, n0, dtype=np.int64), np.zeros(size)
    while ids.size:
        rows = cache.rows(n)
        with np.errstate(divide="ignore"):  # total 0: no event, ever
            wait = rng.standard_exponential(ids.size) / cache.total[rows]
        t_prev, t = t, t + wait
        if occ is not None:
            # fmin: an absorbing state's 0/0 holding time lasts to T
            held = np.fmin(t, T) - np.maximum(t_prev, keep_from)
            on = held > 0
            on = slice(None) if on.all() else on  # a view, not a copy
            occ = _grown(occ, cache.n_rows)
            occ[rows[on], ids[on]] += held[on]
        go = t <= T
        if not go.all():
            finals[ids[~go]] = n[~go]
            ids, n, t, rows = ids[go], n[go], t[go], rows[go]
        lo, hi = cache.indptr[rows], cache.indptr[rows + 1]
        pos = np.searchsorted(cache.cum[:cache.indptr[cache.n_rows]],
                              rows + rng.random(ids.size), side="right")
        j = np.clip(pos, lo, hi - 1) - lo  # r + U may round up to r + 1
        jump = j - cache.k_max[rows]  # < 0 branch, 0 lumped tail, > 0 merge
        n = np.where(jump < 0, n + 1 + j, n - jump)
        for i in np.flatnonzero(jump == 0).tolist():  # n[i] is still the state
            n[i] = _sample_tail_jump(params, int(n[i]),
                                     int(cache.k_max[rows[i]]), rng)
        over = n > ceiling
        if over.any():
            if not cut:
                raise StateExplosionGuard(
                    f"state {n[over].max()} exceeded ceiling {ceiling}")
            finals[ids[over]] = ceiling + 1
            ids, n, t = ids[~over], n[~over], t[~over]
    return finals, occ


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

    The batches of ``rngstreams.run_batches`` run through the engine and
    share one rate cache.  A path that jumps above ``ceiling`` raises
    ``StateExplosionGuard``; with ``cut`` it stops there and reports
    ``ceiling + 1`` instead.
    """
    cache = RateCache(params)
    return run_batches(
        lambda size, rng: _paths(params, n0, T, size, rng, cache, ceiling,
                                 cut)[0],
        M, seed, role, sub)


def dual_moment(params: LimitParams, x: float, n0: int, t: float, M: int,
                seed: int, role: str = "lhs",
                ceiling: int = DEFAULT_CEILING) -> tuple[float, float]:
    """Monte Carlo mean and SE of x**Z(t) over M independent chain paths."""
    if not 0.0 <= x <= 1.0:
        raise InvalidArgument("x must lie in [0,1]")
    if t == 0:
        return x**n0, 0.0
    zs = final_states(params, n0, t, M, seed, role, ceiling=ceiling)
    # one scalar pow per distinct state: numpy's SIMD power loop can differ
    # from it in the last bit, and so from one CPU to another
    states, inverse = np.unique(zs, return_inverse=True)
    return batch_mean_se(np.array([x**z for z in states.tolist()])[inverse])


@dataclass
class StationaryEstimate:
    """Occupation-time estimate of the stationary law from parallel chains."""

    pmf: np.ndarray  # pmf[k] is the pooled occupation mass of state k (k >= 1)
    total_time: float
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
                        rng: np.random.Generator, tv_threshold: float = 0.05,
                        ceiling: int = DEFAULT_CEILING) -> StationaryEstimate:
    """Occupation-time estimate of the stationary law of the chain.

    Runs K = ``STATIONARY_CHAINS`` independent chains from n0.  Each discards
    [0, burn_in] and keeps the next (T - burn_in) / K of time: the kept time
    totals T - burn_in, as for one chain kept on [burn_in, T], but every
    chain pays the burn-in.  The estimate is the pooled occupation law, and
    the spread of the chains' laws gives the SE of its pgf.  Warns if the
    pooled laws of the two halves of the chains differ by more than
    ``tv_threshold`` in total variation.
    """
    if T <= burn_in:
        raise InvalidArgument("T must exceed burn_in")
    K, cache = STATIONARY_CHAINS, RateCache(params)
    _, occ = _paths(params, n0, burn_in + (T - burn_in) / K, K, rng, cache,
                    ceiling, keep_from=burn_in)
    states = np.flatnonzero(cache.row_of >= 0)
    occ = occ[cache.row_of[states]]  # rows by state: cells in (state, chain)
    at, chain = np.nonzero(occ)
    state, times = states[at], occ[at, chain]
    h1, h2 = (np.bincount(state, weights=times * half, minlength=state.max() + 1)
              for half in (chain < K // 2, chain >= K // 2))
    tv = 0.5 * float(np.abs(h1 / h1.sum() - h2 / h2.sum()).sum())
    if tv > tv_threshold:
        warnings.warn(f"half-sample occupation laws differ by TV={tv:.3f}",
                      NonConvergenceWarning)
    pmf = h1 + h2
    mass = times / np.bincount(chain, weights=times)[chain]
    return StationaryEstimate(pmf / pmf.sum(), T - burn_in, tv,
                              (chain, state, mass))
