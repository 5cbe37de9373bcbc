"""Simulation of the weak-allele frequency limit process.

The process lives on [0,1] and combines four mechanisms:

* selection shocks at rate |mu|: draw y from the normalised environment
  measure and jump x -> pgf_y(x),
* coalescence shocks at rate c * |z^{-2} Lambda_c|: draw a merger strength z
  and jump x -> x(1-z) + z with probability x, else x -> x(1-z),
* weak-selection drift -w x(1-x) dt,
* neutral diffusion sqrt(sigma x(1-x)) dB.

Both jump intensities are finite and constant in the state, so jumps are
placed exactly.  With sigma = 0 the motion between jumps is the closed-form
logistic flow of the drift, so paths are sampled exactly from exponential
event gaps (as in Gillespie's algorithm) with no time grid.  With sigma > 0
drift and diffusion are Euler-stepped on a uniform dt grid, with jumps
applied after the cell's Euler move.  0 and 1 are absorbing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidStep, InvariantViolation
from .measures import pgf_many
from .params import LimitParams
from .rngstreams import batch_mean_se, batches, substream

#: Snap-to-boundary tolerance: Euler noise may overshoot [0,1] slightly, and
#: jumps and the flow approach a boundary without reaching it, so a state
#: this close to a boundary is treated as exactly absorbed.
ABSORB_EPS = 1e-12


@dataclass
class PathX:
    """Single path on a uniform time grid, with a log of applied jumps."""

    times: np.ndarray
    values: np.ndarray
    jumps: list  # (time, kind, pre, post) with kind in {selection, coalescence}


def _grid(T: float, dt: float) -> np.ndarray:
    if dt <= 0:
        raise InvalidStep("dt must be positive")
    if T < 0:
        raise InvalidStep("horizon must be nonnegative")
    n_cells = int(math.ceil(T / dt - 1e-9)) if T > 0 else 0
    times = np.minimum(np.arange(n_cells + 1) * dt, T)
    return times


def _snap(x: np.ndarray) -> np.ndarray:
    """Clip into [0,1] and absorb states within ABSORB_EPS of a boundary."""
    x = np.clip(x, 0.0, 1.0)
    x[x <= ABSORB_EPS] = 0.0
    x[x >= 1.0 - ABSORB_EPS] = 1.0
    return x


def _flow(x, w: float, h):
    """Solution at time h of dx/dt = -w x(1-x) started at x (broadcasts)."""
    if w == 0:
        return x
    em1 = np.expm1(-w * h)  # e^{-wh} - 1, accurate for small wh
    return x * (1.0 + em1) / (1.0 + x * em1)


def _move(params: LimitParams, x: np.ndarray, h: float,
          rng: np.random.Generator) -> np.ndarray:
    """Motion between jumps over time h: the exact flow when sigma = 0,
    else one Euler step of drift and diffusion."""
    if params.sigma == 0:
        return _snap(_flow(x, params.w, h))
    inner = x * (1.0 - x)
    x = x - params.w * inner * h + np.sqrt(
        np.maximum(params.sigma * inner * h, 0.0)) * rng.standard_normal(x.size)
    return _snap(x)


def _jump(params: LimitParams, x: np.ndarray, selection,
          rng: np.random.Generator) -> np.ndarray:
    """One jump per entry of x: a selection jump where ``selection`` holds
    (a boolean mask or scalar), a coalescence jump elsewhere.

    The jump laws are the module's; they raise InvariantViolation if a
    selection jump raises the frequency or a coalescence jump leaves [0,1].
    """
    selection = np.broadcast_to(selection, x.shape)
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


def simulate_path(params: LimitParams, x0: float, T: float, dt: float,
                  rng: np.random.Generator) -> PathX:
    """One path of the limit process recorded on the dt grid.

    Jumps come at the events of a rate-R Poisson process, R the total jump
    rate, each a selection jump with probability |mu| / R.  The motion
    between consecutive event and grid times is the exact flow when
    sigma = 0, else one Euler step.
    """
    if not 0.0 <= x0 <= 1.0:
        raise InvalidStep("x0 must lie in [0,1]")
    times = _grid(T, dt)
    mu_mass = params.mu_mass
    rate = mu_mass + params.coalescence_rate
    t_ev = rng.exponential(1.0 / rate) if rate > 0 else math.inf

    x = _snap(np.array([float(x0)]))
    t = 0.0
    values = np.empty(times.size)
    values[0] = x[0]
    jumps = []
    for i in range(1, times.size):
        t1 = times[i]
        while t_ev <= t1:
            x = _move(params, x, t_ev - t, rng)
            t = t_ev
            pre = float(x[0])
            selection = rng.random() * rate < mu_mass
            x = _jump(params, x, selection, rng)
            if x[0] != pre:
                kind = "selection" if selection else "coalescence"
                jumps.append((t, kind, pre, float(x[0])))
            t_ev += rng.exponential(1.0 / rate)
        x = _move(params, x, t1 - t, rng)
        t = t1
        values[i] = x[0]
    return PathX(times, values, jumps)


# ---------------------------------------------------------------------------
# Vectorised ensemble engines
# ---------------------------------------------------------------------------


def _exact_batch(params: LimitParams, x0: float, ts: np.ndarray, size: int,
                 rng: np.random.Generator) -> np.ndarray:
    """States at the sorted distinct times ``ts`` of ``size`` paths, sigma = 0.

    Each round draws one Exp(R) gap per active path, R the total jump rate,
    records the flowed state at every requested time inside the gap, flows
    to the gap's end and applies one jump there, selection with probability
    |mu| / R.  A path leaves the active set once it is absorbed or has passed
    the last requested time; an absorbed path holds its state thereafter.
    """
    mu_mass = params.mu_mass
    rate = mu_mass + params.coalescence_rate
    out = np.empty((ts.size, size))
    x = _snap(np.full(size, float(x0)))
    nxt = np.zeros(size, dtype=np.intp)  # next unrecorded time, per path
    ids = np.arange(size) if ts.size and 0.0 < x[0] < 1.0 else np.arange(0)
    xa, ta, ka = x[ids], np.zeros(ids.size), nxt[ids]
    last = ts.size - 1
    while ids.size:
        if rate > 0:
            t_ev = ta + rng.exponential(1.0 / rate, ids.size)
        else:
            t_ev = np.full(ids.size, np.inf)
        while True:
            due = np.flatnonzero((ka <= last) & (ts[np.minimum(ka, last)] < t_ev))
            if due.size == 0:
                break
            k = ka[due]
            out[k, ids[due]] = _snap(_flow(xa[due], params.w, ts[k] - ta[due]))
            ka[due] += 1
        go = np.flatnonzero(ka <= last)
        xg = _snap(_flow(xa[go], params.w, t_ev[go] - ta[go]))
        xa[go] = _jump(params, xg, rng.random(go.size) * rate < mu_mass, rng)
        ta = t_ev
        gone = (ka > last) | (xa == 0.0) | (xa == 1.0)
        x[ids[gone]] = xa[gone]
        nxt[ids[gone]] = ka[gone]
        keep = ~gone
        ids, xa, ta, ka = ids[keep], xa[keep], ta[keep], ka[keep]
    return np.where(np.arange(ts.size)[:, None] < nxt, out, x)


def _step_cell(params: LimitParams, x: np.ndarray, h: float,
               rng: np.random.Generator, mu_mass: float, lam_c: float) -> np.ndarray:
    """Advance every replicate by one dt cell: Euler move, then jumps."""
    x = _move(params, x, h, rng)
    for selection, rate in ((True, mu_mass), (False, lam_c)):
        if rate > 0:
            k = rng.poisson(rate * h, x.size)
            while (hit := np.flatnonzero(k)).size:
                x[hit] = _jump(params, x[hit], selection, rng)
                k[hit] -= 1
    return x


def ensemble_states(params: LimitParams, x0: float, times, dt: float, M: int,
                    seed: int, role: str = "lhs", sub: int = 0) -> np.ndarray:
    """States of M independent paths at each requested time.

    Returns an array of shape (len(times), M).  Requested times may come in
    any order and repeat.  With sigma = 0 paths are simulated exactly from
    their events and each requested time is used as given; dt is then only
    checked.  With sigma > 0 paths are Euler-stepped on the dt grid and each
    requested time is snapped to the nearest dt-cell boundary.  Replicates
    are split into fixed-size batches, run in order; batch ``idx`` draws
    from ``substream(seed, role, idx, sub)``.
    """
    if dt <= 0:
        raise InvalidStep("dt must be positive")
    if not 0.0 <= x0 <= 1.0:
        raise InvalidStep("x0 must lie in [0,1]")
    times = np.asarray(times, dtype=float)
    if (times < 0).any():
        raise InvalidStep("requested times must be nonnegative")

    if params.sigma == 0:
        ts, inverse = np.unique(times, return_inverse=True)

        def run(batch):
            idx, size = batch
            return _exact_batch(params, x0, ts, size,
                                substream(seed, role, idx, sub))[inverse]
    else:
        record = {}
        for pos, t in enumerate(times):
            record.setdefault(int(round(t / dt)), []).append(pos)
        n_cells = max(record) if record else 0
        mu_mass = params.mu_mass
        lam_c = params.coalescence_rate

        def run(batch):
            idx, size = batch
            rng = substream(seed, role, idx, sub)
            x = _snap(np.full(size, float(x0)))
            out = np.empty((times.size, size))
            for pos in record.get(0, []):
                out[pos] = x
            for cell in range(1, n_cells + 1):
                x = _step_cell(params, x, dt, rng, mu_mass, lam_c)
                for pos in record.get(cell, []):
                    out[pos] = x
            return out

    return np.concatenate([run(batch) for batch in batches(M)], axis=1)


def moment_estimate(params: LimitParams, x0: float, n: int, t: float, M: int,
                    dt: float, seed: int, role: str = "lhs") -> tuple[float, float]:
    """Monte Carlo estimate and SE of the n-th moment of the state at time t."""
    if n < 0:
        raise InvalidStep("moment order must be nonnegative")
    if t == 0:
        return x0**n, 0.0
    return batch_mean_se(ensemble_states(params, x0, [t], dt, M, seed,
                                         role)[0] ** n)


@dataclass
class AbsorptionScan:
    """Fractions of paths absorbed at each boundary by a fixed horizon."""

    fraction_at_0: float
    fraction_at_1: float
    fraction_interior: float
    replicates: int

    def se_at_0(self) -> float:
        p = self.fraction_at_0
        return math.sqrt(p * (1.0 - p) / self.replicates)

    def se_at_1(self) -> float:
        p = self.fraction_at_1
        return math.sqrt(p * (1.0 - p) / self.replicates)


def absorption_scan(params: LimitParams, x0: float, T: float, M: int, dt: float,
                    seed: int, role: str = "lhs", sub: int = 0,
                    eps0: float = 1e-4) -> AbsorptionScan:
    """Classify M paths at time T as 0-absorbed, 1-absorbed, or interior."""
    finals = ensemble_states(params, x0, [T], dt, M, seed, role, sub)[0]
    at0 = float((finals <= eps0).mean())
    at1 = float((finals >= 1.0 - eps0).mean())
    return AbsorptionScan(at0, at1, 1.0 - at0 - at1, M)
