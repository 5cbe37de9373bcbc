"""Simulation of the weak-allele frequency limit process.

The process lives on [0,1] and combines four mechanisms:

* selection shocks at rate |mu|: draw y from the normalised environment
  measure and jump x -> pgf_y(x),
* coalescence shocks at rate c * |z^{-2} Lambda_c|: draw a merger strength z
  and jump x -> x(1-z) + z with probability x, else x -> x(1-z),
* weak-selection drift -w x(1-x) dt,
* neutral diffusion sqrt(sigma x(1-x)) dB.

Both jump intensities are finite and constant in the state, so jumps come
exactly at the events of a rate-R Poisson process, R the total jump rate.
One event-driven engine serves every sigma; it advances a batch of paths
together and drops a path from its active set once it is absorbed or has
recorded its last requested time.  With sigma = 0 the motion between jumps
is the closed-form logistic flow of the drift, so paths are sampled exactly
from exponential event gaps (as in Gillespie's algorithm) with no time
grid.  With sigma > 0 each path also stops at every grid time k*dt and
moves by one Euler piece of drift and diffusion between consecutive stops;
requested times are snapped to the grid.  0 and 1 are absorbing.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidStep, InvariantViolation
from .measures import pgf_many, segments
from .params import LimitParams
from .rngstreams import batch_mean_se, run_batches

#: Snap-to-boundary tolerance: Euler noise may overshoot [0,1] slightly, and
#: jumps and the flow approach a boundary without reaching it, so a state
#: this close to a boundary is treated as exactly absorbed.
ABSORB_EPS = 1e-12

#: A state this close to 0 or 1 counts as absorbed at that boundary when a
#: run reports its absorption fractions.
EPS0 = 1e-4


def _snap(x: np.ndarray) -> np.ndarray:
    """Clip into [0,1] and absorb states within ABSORB_EPS of a boundary."""
    x = np.minimum(np.maximum(x, 0.0), 1.0)  # np.clip, at half the cost
    x[x <= ABSORB_EPS] = 0.0
    x[x >= 1.0 - ABSORB_EPS] = 1.0
    return x


def _flow(x, w: float, h):
    """Solution at time h of dx/dt = -w x(1-x) started at x (broadcasts)."""
    if w == 0:
        return x
    em1 = np.expm1(-w * h)  # e^{-wh} - 1, accurate for small wh
    return x * (1.0 + em1) / (1.0 + x * em1)


def _move(params: LimitParams, x: np.ndarray, h,
          rng: np.random.Generator) -> np.ndarray:
    """Motion between stops over times h: the exact flow when sigma = 0,
    else one Euler piece of drift and diffusion."""
    if params.sigma == 0:
        return _snap(_flow(x, params.w, h))
    var = x * (1.0 - x) * h  # nonnegative: x in [0,1] and h >= 0
    step = np.sqrt(params.sigma * var) * rng.standard_normal(x.size)
    if params.w:
        step -= params.w * var
    return _snap(x + step)


def _jump(params: LimitParams, x: np.ndarray, selection,
          rng: np.random.Generator) -> np.ndarray:
    """One jump per entry of x: a selection jump where the boolean mask
    ``selection`` holds, a coalescence jump elsewhere.

    The jump laws are the module's; they raise InvariantViolation if a
    selection jump raises the frequency or a coalescence jump leaves [0,1].
    """
    out = np.empty_like(x)
    sel = np.flatnonzero(selection)
    if sel.size:
        pre = x[sel]
        post = pgf_many(params.kernel, params.mu.sample(sel.size, rng), pre)
        if (post > pre + 1e-12).any():
            raise InvariantViolation("selection jump increased the frequency")
        out[sel] = post
    coal = np.flatnonzero(~selection)
    if coal.size:
        pre = x[coal]
        z = params.merger_law.sample(coal.size, rng)
        post = pre * (1.0 - z) + z * (rng.random(coal.size) < pre)
        if ((post < -1e-12) | (post > 1.0 + 1e-12)).any():
            raise InvariantViolation("coalescence jump left [0,1]")
        out[coal] = post
    return _snap(out)


def _paths(params: LimitParams, x0: float, ts: np.ndarray, dt: float,
           size: int, rng: np.random.Generator) -> np.ndarray:
    """States of ``size`` paths at the sorted distinct requested times.

    ``ts`` holds the times when sigma = 0 and their dt-grid indices when
    sigma > 0.  Each path keeps its next event time, drawn Exp(R) after its
    previous event (R the total jump rate); an event is a selection jump
    with probability |mu| / R, else a coalescence jump.  Each round moves
    every active path by one stop.  When sigma = 0 the stop is the path's
    next event: the flowed state is recorded at every requested time before
    it, then the path flows to the event and jumps.  When sigma > 0 the stop
    is the earlier of the next event and the next grid time k*dt, the move
    is one Euler piece, and a grid stop at a requested index records the
    state.  A path leaves the active set once it is absorbed or has recorded
    its last requested time; an absorbed path holds its state thereafter.
    """
    mu_mass = params.mu_mass
    rate = mu_mass + params.coalescence_rate
    exact = params.sigma == 0
    last = ts.size - 1
    out = np.empty((ts.size, size))
    x = _snap(np.full(size, float(x0)))
    k0 = int(ts.size > 0 and ts[0] == 0)  # time 0 is recorded at the start
    out[:k0] = x
    nxt = np.full(size, k0, dtype=np.intp)  # next unrecorded time, per path
    ids = np.arange(size if k0 <= last and 0.0 < x[0] < 1.0 else 0)
    xa, ta, ka = x[ids], np.zeros(ids.size), nxt[ids]
    t_ev = np.full(ids.size, np.inf)
    cell = np.ones(ids.size)  # next grid index (integer-valued), sigma > 0
    ev = np.full(ids.size, rate > 0)  # paths that stop at their event
    jumps = np.flatnonzero(ev)
    # sigma > 0: after r rounds no path is past grid index r, so the record
    # check waits for ``first``, the least unrecorded requested index
    rounds, first = 0, ts[k0] if ids.size else 0
    while ids.size:
        if jumps.size:  # the paths that jumped draw their next event
            t_ev[jumps] = ta[jumps] + rng.exponential(1.0 / rate, jumps.size)
        if exact:
            end = np.searchsorted(ts, t_ev)  # requested times before it
            due, off = segments(end - ka)
            k = ka[due] + off
            out[k, ids[due]] = _snap(_flow(xa[due], params.w,
                                           ts[k] - ta[due]))
            ka = end
            ev = ka <= last
            jumps = np.flatnonzero(ev)
            stop = t_ev.copy()
            done = jumps.size < ids.size
        else:
            stop = cell * dt
            if rate > 0:  # else every stop is a grid stop
                ev = t_ev <= stop
                jumps = np.flatnonzero(ev)
                stop = np.minimum(t_ev, stop)
        xa = _move(params, xa, stop - ta, rng)
        ta = stop
        if jumps.size:
            xa[jumps] = _jump(params, xa[jumps],
                              rng.random(jumps.size) * rate < mu_mass, rng)
        if not exact:
            cell += 1.0
            cell[jumps] -= 1.0
            rounds += 1
            done = False
            if rounds >= first:
                due = np.flatnonzero(cell == ts[ka] + 1)
                out[ka[due], ids[due]] = xa[due]
                ka[due] += 1
                done = ka.max() > last
                first = ts[np.minimum(ka, last)].min()
        if done or xa.min() == 0.0 or xa.max() == 1.0:
            gone = (ka > last) | (xa == 0.0) | (xa == 1.0)
            x[ids[gone]] = xa[gone]
            nxt[ids[gone]] = ka[gone]
            keep = ~gone
            ids, xa, ta, ka, t_ev, ev, cell = (
                a[keep] for a in (ids, xa, ta, ka, t_ev, ev, cell))
            jumps = np.flatnonzero(ev)
    return np.where(np.arange(ts.size)[:, None] < nxt, out, x)


def ensemble_states(params: LimitParams, x0: float, times, dt: float, M: int,
                    seed: int, role: str = "lhs", sub: int = 0) -> np.ndarray:
    """States of M independent paths at each requested time.

    Returns an array of shape (len(times), M).  Requested times may come in
    any order and repeat.  One event-driven engine serves every sigma.  With
    sigma = 0 paths move by the exact flow between events and each
    requested time is used as given; dt is then only checked.  With
    sigma > 0 paths also stop at every dt-grid time and move by one Euler
    piece of drift and diffusion between stops; each requested time is
    snapped to the nearest grid time, so recording it adds no stop and no
    draw.  Replicates run through ``rngstreams.run_batches``.
    """
    if dt <= 0:
        raise InvalidStep("dt must be positive")
    if not 0.0 <= x0 <= 1.0:
        raise InvalidStep("x0 must lie in [0,1]")
    times = np.asarray(times, dtype=float)
    if (times < 0).any():
        raise InvalidStep("requested times must be nonnegative")
    if params.sigma > 0:
        times = np.rint(times / dt).astype(np.int64)
    ts, inverse = np.unique(times, return_inverse=True)
    return run_batches(
        lambda size, rng: _paths(params, x0, ts, dt, size, rng)[inverse],
        M, seed, role, sub)


def moment_estimate(params: LimitParams, x0: float, n: int, t: float, M: int,
                    dt: float, seed: int, role: str = "lhs") -> tuple[float, float]:
    """Monte Carlo estimate and SE of the n-th moment of the state at time t."""
    if n < 0:
        raise InvalidStep("moment order must be nonnegative")
    if t == 0:
        return x0**n, 0.0
    return batch_mean_se(ensemble_states(params, x0, [t], dt, M, seed,
                                         role)[0] ** n)

