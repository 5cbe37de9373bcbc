"""Simulation of the weak-allele frequency limit process.

The process lives on [0,1] and combines four mechanisms:

* selection shocks at rate |mu|: draw y from the normalised environment
  measure and jump x -> pgf_y(x),
* coalescence shocks at rate c * |z^{-2} Lambda_c|: the merger step
  ``params.merge`` draws a strength z and jumps x -> x(1-z) + z with
  probability x, else x -> x(1-z),
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
requested times are snapped to grid times.  One rule records for every
sigma: before each move, a path records every requested time before its
next stop.  0 and 1 are absorbing.
"""

from __future__ import annotations

import numpy as np

from . import telemetry
from .errors import InvalidStep, InvariantViolation
from .measures import pgf_many, segments
from .params import LimitParams, merge
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

    A selection jump is x -> pgf_y(x), a coalescence jump the merger step
    ``params.merge``; they raise InvariantViolation if a selection jump
    raises the frequency or a coalescence jump leaves [0,1].
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
        post = merge(params.merger_law, x[coal], rng)
        if ((post < -1e-12) | (post > 1.0 + 1e-12)).any():
            raise InvariantViolation("coalescence jump left [0,1]")
        out[coal] = post
    return _snap(out)


def _paths(params: LimitParams, x0: float, ts: np.ndarray, dt: float,
           size: int, rng: np.random.Generator) -> np.ndarray:
    """States of ``size`` paths at the sorted distinct requested times.

    Each path keeps its next event time, drawn Exp(R) after its previous
    event (R the total jump rate); an event is a selection jump with
    probability |mu| / R, else a coalescence jump.  Each round moves every
    active path by one stop: its next event when sigma = 0, else the earlier
    of its next event and its next grid time k*dt, moving by one Euler piece.
    One rule records: before its move, a path at time ``ta`` records every
    requested time in [ta, stop) as its state flowed over the gap.  At
    sigma > 0 the requested times are grid times and every grid time is a
    stop, so that is ``ta`` alone, over a zero gap.  A path that has recorded
    its last time leaves before its move, and an absorbed one draws no next
    event time and leaves before the next move, so neither draws again; an
    absorbed path holds its state thereafter.
    """
    mu_mass = params.mu_mass
    rate = mu_mass + params.coalescence_rate
    grid = params.sigma > 0  # every grid time k*dt is a stop
    last = ts.size - 1
    ts_end = np.append(ts, np.inf)  # ts_end[ka] is inf once ka > last
    out = np.empty((ts.size, size))
    x = _snap(np.full(size, float(x0)))
    nxt = np.zeros(size, dtype=np.intp)  # next unrecorded time, per path
    ids = np.arange(size if ts.size and 0.0 < x[0] < 1.0 else 0)
    xa, ta, ka = x[ids], np.zeros(ids.size), nxt[ids]
    t_ev = (rng.exponential(1.0 / rate, ids.size) if rate > 0
            else np.full(ids.size, np.inf))
    cell = np.ones(ids.size) if grid else None  # next grid index
    t_next = ts_end[0]  # least time still to record
    leave = False  # a path absorbed at its last jump
    tel = telemetry.current()
    while ids.size:
        if grid:  # with rate 0 no path jumps and every stop is a grid stop
            stop = np.minimum(t_ev, cell * dt) if rate > 0 else cell * dt
            leave = xa.min() == 0.0 or xa.max() == 1.0  # absorbed paths
        else:  # every stop is an event
            stop = t_ev
        if stop.max() >= t_next:
            rec = np.flatnonzero(ts_end[ka] < stop)
            end = np.searchsorted(ts, stop[rec])  # requested times before it
            due, off = segments(end - ka[rec])
            k, due = ka[rec][due] + off, rec[due]
            out[k, ids[due]] = _snap(_flow(xa[due], params.w, ts[k] - ta[due]))
            ka[rec] = end
            t_next = ts_end[ka].min()
            leave = leave or end.max(initial=0) > last  # done recording
        if leave:
            gone = (ka > last) | (xa == 0.0) | (xa == 1.0)
            x[ids[gone]] = xa[gone]
            nxt[ids[gone]] = ka[gone]
            keep = ~gone
            ids, xa, ta, ka, t_ev = (a[keep] for a in (ids, xa, ta, ka, t_ev))
            cell, stop = (cell[keep], stop[keep]) if grid else (None, t_ev)
        if tel is not None:
            tel["x_rounds"] += 1
        if grid:
            jumps = np.flatnonzero(t_ev == stop) if rate > 0 else ids[:0]
            np.add(cell, 1.0, out=cell, where=stop < t_ev)  # grid stops
            xa = _move(params, xa, stop - ta, rng)
            ta = stop
            if tel is not None:
                tel["x_events"] += jumps.size
            if jumps.size:
                post = _jump(params, xa[jumps],
                             rng.random(jumps.size) * rate < mu_mass, rng)
                xa[jumps] = post
                live = jumps[(post > 0.0) & (post < 1.0)]  # absorbed: no draw
                t_ev[live] = ta[live] + rng.exponential(1.0 / rate, live.size)
        elif ids.size:  # every path jumps, so it absorbs only there
            if params.w:
                xa = _move(params, xa, stop - ta, rng)
            ta = stop
            if tel is not None:
                tel["x_events"] += xa.size
            xa = _jump(params, xa, rng.random(xa.size) * rate < mu_mass, rng)
            live = (xa > 0.0) & (xa < 1.0)  # absorbed: no draw
            leave = not live.all()
            if leave:
                t_ev = ta.copy()
                t_ev[live] += rng.exponential(1.0 / rate,
                                              np.count_nonzero(live))
            else:
                t_ev = ta + rng.exponential(1.0 / rate, ta.size)
    return np.where(np.arange(ts.size)[:, None] < nxt, out, x)


def ensemble_states(params: LimitParams, x0: float, times, dt: float, M: int,
                    seed: int, role: str = "lhs", sub: int = 0) -> np.ndarray:
    """States of M independent paths at each requested time.

    Returns an array of shape (len(times), M).  Requested times may come in
    any order and repeat.  With sigma = 0 each is used as given and dt is
    only checked; with sigma > 0 each is snapped to its nearest grid time
    round(t/dt)*dt, a stop of every path, so recording it adds no stop and
    no draw.  For every sigma a path records each requested time before its
    next stop (see ``_paths``).  Replicates run through
    ``rngstreams.run_batches`` in streams of ``PATH_BATCH_SIZE`` paths.
    """
    if dt <= 0:
        raise InvalidStep("dt must be positive")
    if not 0.0 <= x0 <= 1.0:
        raise InvalidStep("x0 must lie in [0,1]")
    times = np.asarray(times, dtype=float)
    if (times < 0).any():
        raise InvalidStep("requested times must be nonnegative")
    if params.sigma > 0:
        times = np.rint(times / dt) * dt
    ts, inverse = np.unique(times, return_inverse=True)
    return run_batches(
        lambda size, rng: _paths(params, x0, ts, dt, size, rng)[inverse],
        M, seed, role, sub, paths=True)


def moment_estimate(params: LimitParams, x0: float, n: int, t: float, M: int,
                    dt: float, seed: int, role: str = "lhs") -> tuple[float, float]:
    """Monte Carlo estimate and SE of the n-th moment of the state at time t."""
    if n < 0:
        raise InvalidStep("moment order must be nonnegative")
    states = ensemble_states(params, x0, [t], dt, M, seed, role)[0]
    if t == 0:  # exact: numpy's array power may differ in the last bit
        return x0**n, 0.0
    return batch_mean_se(states ** n)

