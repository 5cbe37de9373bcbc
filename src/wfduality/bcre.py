"""Exact Gillespie simulation of the branching-coalescing dual chain.

From state n the chain branches to n+k at rate

    integral of P(K_{y,1}+...+K_{y,n} = n+k) against the selection
    environment measure, plus w*n for k=1,

and coalesces to n-k at rate

    c * integral of C(n,k+1) y^{k+1} (1-y)^{n-k-1} y^{-2} Lambda_c(dy),
    plus sigma * C(n,2) for k=1.

Branch rates are truncated at an adaptive k_max with the lumped tail kept as
an explicit rate; a tail draw is resolved exactly by conditional sampling,
never discarded.  Rate tables are memoized per state.

One Gillespie loop, ``holding_intervals``, simulates every path; paths,
final states, moments and occupation-time estimates consume its holding
intervals.  ``final_states`` runs M paths batch by batch, one substream per
batch, for every caller that needs many final states.
"""

from __future__ import annotations

import math
import threading
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (InvalidArgument, InvariantViolation,
                     NonConvergenceWarning, StateExplosionGuard)
from .measures import binom_pmf, sum_distribution
from .params import LimitParams
from .rngstreams import BATCH_SIZE, batch_mean_se, batches, substream

#: Relative tail-rate threshold for the adaptive branch-table truncation.
TAIL_REL = 1e-9

#: Default state ceiling; exceeding it raises StateExplosionGuard.
DEFAULT_CEILING = 10**6


@dataclass
class RateTable:
    """All jump rates out of state n, with the branch tail lumped."""

    n: int
    branch_rates: np.ndarray  # index k-1 holds the rate of n -> n+k
    branch_tail: float        # lumped rate of n -> beyond n+k_max
    coalesce_rates: np.ndarray  # index k-1 holds the rate of n -> n-k
    # sampling helpers: outcome state per category, cumulative rates
    outcomes: np.ndarray = field(init=False)
    cum_rates: np.ndarray = field(init=False)
    total: float = field(init=False)

    def __post_init__(self):
        k_max = self.branch_rates.size
        outcomes = np.concatenate([
            self.n + 1 + np.arange(k_max),
            [-1],  # sentinel: branch-tail draw, resolved separately
            self.n - 1 - np.arange(self.coalesce_rates.size),
        ]).astype(np.int64)
        rates = np.concatenate([
            self.branch_rates, [self.branch_tail], self.coalesce_rates
        ])
        if (rates < 0).any():
            raise InvariantViolation("negative jump rate")
        self.outcomes = outcomes
        self.cum_rates = np.cumsum(rates)
        self.total = float(self.cum_rates[-1]) if rates.size else 0.0

    @property
    def k_max(self) -> int:
        return self.branch_rates.size


def _branch_rates(params: LimitParams, n: int, k_max: int) -> tuple[np.ndarray, float]:
    """Branch rates for k=1..k_max plus the lumped tail rate."""
    mu = params.mu
    rates = np.zeros(k_max)
    tail = 0.0
    for y, wgt in zip(mu.locations, mu.weights):
        sd = sum_distribution(params.kernel, float(y), n, k_max)
        rates += wgt * sd.probs[1:]
        tail += wgt * sd.tail
    if params.w > 0:
        rates[0] += params.w * n
    return rates, tail


def _coalesce_rates(params: LimitParams, n: int) -> np.ndarray:
    rates = np.zeros(max(n - 1, 0))
    if n >= 2:
        lc = params.lambda_c
        if params.c > 0 and lc.total_mass > 0:
            ks = np.arange(1, n)
            for y, wgt in zip(lc.locations, lc.weights):
                # C(n,k+1) y^{k+1} (1-y)^{n-k-1} is the Binomial(n,y) pmf at
                # k+1; the pmf form stays finite for large n where the
                # binomial coefficient alone overflows
                rates += params.c * wgt / y**2 * binom_pmf(ks + 1, n, y)
        if params.sigma > 0:
            rates[0] += params.sigma * n * (n - 1) / 2.0
    return rates


def jump_rates(params: LimitParams, n: int, k_max: int | None = None) -> RateTable:
    """Rate table out of state n; k_max adaptive unless given."""
    if n < 1:
        raise InvalidArgument("state must be >= 1")
    coal = _coalesce_rates(params, n)
    if k_max is not None:
        br, tail = _branch_rates(params, n, k_max)
    else:
        k_max = 16
        while True:
            br, tail = _branch_rates(params, n, k_max)
            total = br.sum() + tail + coal.sum()
            if tail <= TAIL_REL * total or total == 0.0 or k_max >= 2**20:
                break
            k_max *= 2
    branch_total = br.sum() + tail
    bound = n * (params.alpha_s + params.w) + 1e-9 * (1.0 + branch_total)
    if branch_total > bound:
        raise InvariantViolation("branch rate exceeds the Markov bound")
    return RateTable(n, br, tail, coal)


class RateCache:
    """Memoized rate tables keyed by state, with a simple capacity bound.

    The engines use a cache from one thread.  It is still safe to share
    between threads: a table is a pure function of (params, n), and a miss
    builds, inserts and evicts under a lock, so each state is built once
    while it stays cached.
    """

    def __init__(self, params: LimitParams, capacity: int = 4096):
        self.params = params
        self.capacity = capacity
        self._tables: dict[int, RateTable] = {}
        self._lock = threading.Lock()

    def get(self, n: int) -> RateTable:
        table = self._tables.get(n)
        if table is None:
            with self._lock:
                table = self._tables.get(n)
                if table is None:
                    table = jump_rates(self.params, n)
                    if len(self._tables) >= self.capacity:
                        self._tables.pop(next(iter(self._tables)))
                    self._tables[n] = table
        return table


def _sample_tail_jump(params: LimitParams, n: int, k_max: int,
                      rng: np.random.Generator) -> int:
    """Next state for a lumped-tail branch draw: exact conditional sampling.

    Picks the environment atom proportionally to its contribution to the
    tail rate, then samples the summed parent count conditioned on exceeding
    n + k_max by widening the pmf window.
    """
    mu = params.mu
    tails = np.array([
        wgt * sum_distribution(params.kernel, float(y), n, k_max).tail
        for y, wgt in zip(mu.locations, mu.weights)
    ])
    total = tails.sum()
    if total <= 0:
        return n + k_max + 1
    y = float(mu.locations[np.searchsorted(np.cumsum(tails) / total, rng.random())])
    width = k_max
    while True:
        width *= 4
        sd = sum_distribution(params.kernel, y, n, width)
        cond = sd.probs.copy()
        cond[: k_max + 1] = 0.0
        mass = cond.sum()
        # infinite parent counts never reach here: the tail of a law with an
        # infinity atom still has finite-window mass growing toward it
        if sd.tail <= 1e-12 * max(mass, 1e-300) or width >= 2**24:
            if mass <= 0:
                return n + width
            k = int(np.searchsorted(np.cumsum(cond) / mass, rng.random()))
            return n + k


@dataclass
class PathZ:
    """Event log of one chain path: (time, from-state, to-state) triples."""

    n0: int
    events: list

    def state_at(self, t: float) -> int:
        n = self.n0
        for time, _, to in self.events:
            if time > t:
                break
            n = to
        return n


def _step(params: LimitParams, n: int, t: float, cache: RateCache,
          rng: np.random.Generator) -> tuple[int, float]:
    """One Gillespie event from (n, t); returns (next state, event time)."""
    table = cache.get(n)
    if table.total <= 0:
        return n, math.inf
    t_next = t + rng.exponential(1.0 / table.total)
    u = rng.random() * table.total
    idx = int(np.searchsorted(table.cum_rates, u))
    idx = min(idx, table.outcomes.size - 1)
    n_next = int(table.outcomes[idx])
    if n_next == -1:
        n_next = _sample_tail_jump(params, n, table.k_max, rng)
    return n_next, t_next


def holding_intervals(params: LimitParams, n0: int, T: float,
                      rng: np.random.Generator, cache: RateCache,
                      ceiling: int = DEFAULT_CEILING):
    """The Gillespie loop: yield (n, t, t_next) per holding interval on [0, T].

    The last interval ends at T; each earlier one ends with a jump out of n
    into the state of the next interval.  A jump to a state above
    ``ceiling`` raises ``StateExplosionGuard``.
    """
    if n0 < 1:
        raise InvalidArgument("initial state must be >= 1")
    n, t = n0, 0.0
    while True:
        n_next, t_next = _step(params, n, t, cache, rng)
        if t_next > T:
            yield n, t, T
            return
        if n_next > ceiling:
            raise StateExplosionGuard(
                f"state {n_next} exceeded ceiling {ceiling} at t={t_next:.4g}"
            )
        yield n, t, t_next
        n, t = n_next, t_next


def simulate(params: LimitParams, n0: int, T: float, rng: np.random.Generator,
             ceiling: int = DEFAULT_CEILING, cache: RateCache | None = None) -> PathZ:
    """Exact path of the chain on [0, T]."""
    events = []
    prev = None
    for n, t, _ in holding_intervals(params, n0, T, rng,
                                     cache or RateCache(params), ceiling):
        if prev is not None:
            events.append((t, prev, n))
        prev = n
    return PathZ(n0, events)


def final_state(params: LimitParams, n0: int, T: float,
                rng: np.random.Generator, cache: RateCache,
                ceiling: int = DEFAULT_CEILING) -> int:
    """State of one exact path at time T."""
    for n, _, _ in holding_intervals(params, n0, T, rng, cache, ceiling):
        pass
    return n


def final_states(params: LimitParams, n0: int, T: float, M: int, seed: int,
                 role: str = "lhs", sub: int = 0,
                 ceiling: int = DEFAULT_CEILING,
                 cut: bool = False) -> np.ndarray:
    """States at time T of M independent paths from n0, in batch order.

    Batch ``idx`` draws from ``substream(seed, role, idx, sub)`` and all
    batches share one rate cache.  With ``cut`` a path that passes
    ``ceiling`` stops there and reports ``ceiling + 1`` instead of raising.
    """
    cache = RateCache(params)
    out = np.empty(M, dtype=np.int64)
    for idx, size in batches(M):
        rng = substream(seed, role, idx, sub)
        for i in range(idx * BATCH_SIZE, idx * BATCH_SIZE + size):
            try:
                out[i] = final_state(params, n0, T, rng, cache, ceiling)
            except StateExplosionGuard:
                if not cut:
                    raise
                out[i] = ceiling + 1
    return out


def dual_moment(params: LimitParams, x: float, n0: int, t: float, M: int,
                seed: int, role: str = "lhs",
                ceiling: int = DEFAULT_CEILING) -> tuple[float, float]:
    """Monte Carlo mean and SE of x**Z(t) over M independent chain paths."""
    if not 0.0 <= x <= 1.0:
        raise InvalidArgument("x must lie in [0,1]")
    if t == 0:
        return x**n0, 0.0
    zs = final_states(params, n0, t, M, seed, role, ceiling=ceiling)
    return batch_mean_se([x**z for z in zs.tolist()])


@dataclass
class StationaryEstimate:
    """Time-weighted occupation estimate of the stationary law."""

    pmf: np.ndarray  # pmf[k] is the occupation mass of state k (index 0 unused)
    total_time: float
    half_sample_tv: float

    def prob(self, k: int) -> float:
        return float(self.pmf[k]) if 0 < k < self.pmf.size else 0.0

    def pgf(self, x) -> np.ndarray | float:
        """Generating-function evaluator; equals 1 at x=1 by normalisation."""
        x = np.asarray(x, dtype=float)
        ks = np.arange(self.pmf.size)
        vals = (np.power.outer(x, ks) * self.pmf).sum(axis=-1)
        return float(vals) if vals.ndim == 0 else vals


def stationary_estimate(params: LimitParams, n0: int, burn_in: float, T: float,
                        rng: np.random.Generator, tv_threshold: float = 0.05,
                        ceiling: int = DEFAULT_CEILING) -> StationaryEstimate:
    """Occupation-time estimate of the stationary law of the chain.

    Runs one long path, discards [0, burn_in], and normalises the occupation
    times on [burn_in, T].  Warns if the two halves of the kept window give
    occupation laws further apart than ``tv_threshold`` in total variation.
    """
    if T <= burn_in:
        raise InvalidArgument("T must exceed burn_in")
    t_mid = burn_in + (T - burn_in) / 2.0
    occ1 = np.zeros(64)
    occ2 = np.zeros(64)
    for n, t, t_next in holding_intervals(params, n0, T, rng,
                                          RateCache(params), ceiling):
        if occ1.size <= n:
            occ1 = np.concatenate([occ1, np.zeros(n + 1 - occ1.size)])
            occ2 = np.concatenate([occ2, np.zeros(n + 1 - occ2.size)])
        lo, hi = max(t, burn_in), min(t_next, t_mid)
        if hi > lo:
            occ1[n] += hi - lo
        lo, hi = max(t, t_mid), t_next
        if hi > lo:
            occ2[n] += hi - lo
    occ = occ1 + occ2
    span = T - burn_in
    h1 = occ1 / max(occ1.sum(), 1e-300)
    h2 = occ2 / max(occ2.sum(), 1e-300)
    tv = 0.5 * float(np.abs(h1 - h2).sum())
    if tv > tv_threshold:
        warnings.warn(
            f"half-sample occupation laws differ by TV={tv:.3f}",
            NonConvergenceWarning,
        )
    pmf = occ / occ.sum()
    return StationaryEstimate(pmf, span, tv)
