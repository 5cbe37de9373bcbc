"""Statistical verification of the duality identities and of convergence.

Three identities are checked by paired Monte Carlo:

* quenched sampling duality: for a fixed environment sequence, the forward
  frequency chain and the backward block-counting chain give the same
  expectation of the sampling statistic H(x, n; y) = pgf_y(x)^n,
* annealed sampling duality: same with iid environments refreshed per
  replicate and the environment-averaged statistic H_mu,
* moment duality: E_x[X(t)^n] = E^n[x^Z(t)] between the limit processes.

Each check reports both estimates with standard errors and the z-score of
their difference.  The convergence experiment rescales the finite model and
tracks the moment gap to the limit as N grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import bcre, fvwrs
from .errors import InvalidArgument, InvalidScaling
from .measures import FiniteMeasure, SelectionKernel, integrate, pgf, pgf_many
from .params import FiniteModelParams, LimitParams
from .rngstreams import batch_mean_se, run_batches
from .wf_graph import EnvSequence, simulate_ancestry, step_frequency_many


@dataclass(frozen=True)
class DualityReport:
    lhs: float
    lhs_se: float
    rhs: float
    rhs_se: float
    replicates: int
    params: dict = field(default_factory=dict)

    @property
    def z(self) -> float:
        denom = math.hypot(self.lhs_se, self.rhs_se)
        if denom == 0.0:
            return 0.0 if self.lhs == self.rhs else math.inf
        return (self.lhs - self.rhs) / denom

    def to_dict(self) -> dict:
        return {
            "lhs": self.lhs, "lhs_se": self.lhs_se,
            "rhs": self.rhs, "rhs_se": self.rhs_se,
            "z": self.z, "replicates": self.replicates,
            "params": self.params,
        }


def eval_H(kernel: SelectionKernel, x: float, n: int, y: float) -> float:
    """Sampling duality statistic pgf_y(x)^n."""
    if n == 0:
        return 1.0
    return pgf(kernel, y, x) ** n


def eval_H_mu(kernel: SelectionKernel, env_law: FiniteMeasure, x: float,
              n: int) -> float:
    """Environment-averaged statistic: integral of pgf_y(x)^n over the law."""
    if n == 0:
        return 1.0
    return integrate(env_law, lambda y: pgf(kernel, float(y), x) ** n)


def _merger_score_many(params: FiniteModelParams, y: float, fs: np.ndarray,
                       m) -> np.ndarray:
    """P(m sampled children under env y are all weak | parent frequency fs).

    ``fs`` and ``m`` broadcast: many frequencies at one sample size, or one
    frequency at many sample sizes.

    Averages over the sampled generation's merger event: with probability
    c_N the picks are redirected to a shared central parent with strength V,
    which conditions the statistic on the central parent's type.  Without
    mergers this is the plain pgf power.  Exactness with mergers is verified
    against full graph enumeration at N=2 in the test suite.
    """
    base = pgf_many(params.kernel, y, fs) ** m
    law = params.merger_strength_law
    if params.c_N <= 0 or law is None:
        return base
    out = (1.0 - params.c_N) * base
    for v, wgt in zip(law.locations, law.weights):
        v = float(v)
        weak = pgf_many(params.kernel, y, v + (1.0 - v) * fs) ** m
        strong = pgf_many(params.kernel, y, (1.0 - v) * fs) ** m
        out += params.c_N * float(wgt) * (fs * weak + (1.0 - fs) * strong)
    return out


def _score_blocks(params: FiniteModelParams, ys, wts, x: float,
                  z: np.ndarray) -> np.ndarray:
    """Backward-side statistic of block counts z: the wts-weighted sum over
    environments ys of the merger-averaged score of z lineages at x."""
    return sum(float(w) * _merger_score_many(params, float(y), x, z)
               for y, w in zip(ys, wts))


def _annealed_forward(params: FiniteModelParams, x: float, generations: int,
                      size: int, rng: np.random.Generator) -> np.ndarray:
    """Frequencies of ``size`` forward chains started at x after
    ``generations`` generations, each replicate drawing its own environment
    every generation."""
    xs = np.full(size, x)
    for _ in range(generations):
        xs = step_frequency_many(params, xs,
                                 params.env_law.sample(size, rng), rng)
    return xs


# ---------------------------------------------------------------------------
# Quenched sampling duality
# ---------------------------------------------------------------------------


def quenched_check(params: FiniteModelParams, env: EnvSequence, x: float,
                   n: int, M: int, seed: int) -> DualityReport:
    """Both sides of the sampling duality under a fixed environment.

    With environment values y_0..y_{L-1}: the forward chain runs L-1
    generations through y_0..y_{L-2} and is scored by the sampling statistic
    at y_{L-1}; the backward chain runs L-1 generations through y_{L-1}..y_1
    and is scored by the statistic at y_0.  With mergers present both scores
    average over the merger event of their generation, so each side covers
    the same set of per-generation label correlations.
    """
    if len(env) < 1:
        raise InvalidArgument("environment sequence must be nonempty")
    y_vals = env.values
    fwd_env = y_vals[:-1]
    y_score = float(y_vals[-1])
    bwd_env = y_vals[1:]

    def lhs_batch(size, rng):
        xs = np.full(size, x)
        for y in fwd_env:
            xs = step_frequency_many(params, xs, float(y), rng)
        return _merger_score_many(params, y_score, xs, n)

    def rhs_batch(size, rng):
        env = EnvSequence(np.broadcast_to(bwd_env, (size, bwd_env.size)))
        z = simulate_ancestry(params, n, env, rng).values[:, -1]
        return _score_blocks(params, y_vals[:1], [1.0], x, z)

    lhs, lhs_se = batch_mean_se(run_batches(lhs_batch, M, seed, "lhs"))
    rhs, rhs_se = batch_mean_se(run_batches(rhs_batch, M, seed, "rhs"))
    return DualityReport(lhs, lhs_se, rhs, rhs_se, M, {
        "check": "quenched", "N": params.N, "x": x, "n": n,
        "env": [float(v) for v in y_vals],
    })


# ---------------------------------------------------------------------------
# Annealed sampling duality
# ---------------------------------------------------------------------------


def annealed_check(params: FiniteModelParams, horizon: int, x: float, n: int,
                   M: int, seed: int) -> DualityReport:
    """Both sides of the sampling duality averaged over iid environments."""
    if horizon < 0:
        raise InvalidArgument("horizon must be nonnegative")
    law = params.env_law
    locs = law.locations
    wts = law.weights

    def lhs_batch(size, rng):
        xs = _annealed_forward(params, x, horizon, size, rng)
        vals = np.zeros(size)
        for y, wgt in zip(locs, wts):
            vals += wgt * _merger_score_many(params, float(y), xs, n)
        return vals

    def rhs_batch(size, rng):
        env = law.sample(size * horizon, rng).reshape(size, horizon)
        z = simulate_ancestry(params, n, EnvSequence(env), rng).values[:, -1]
        return _score_blocks(params, locs, wts, x, z)

    lhs, lhs_se = batch_mean_se(run_batches(lhs_batch, M, seed, "lhs"))
    rhs, rhs_se = batch_mean_se(run_batches(rhs_batch, M, seed, "rhs"))
    return DualityReport(lhs, lhs_se, rhs, rhs_se, M, {
        "check": "annealed", "N": params.N, "x": x, "n": n,
        "horizon": horizon,
    })


# ---------------------------------------------------------------------------
# Moment duality between the limit processes
# ---------------------------------------------------------------------------


def moment_check(params: LimitParams, x: float, n: int, t: float, M: int,
                 dt: float, seed: int) -> DualityReport:
    """E_x[X(t)^n] against E^n[x^Z(t)], both Monte Carlo."""
    lhs, lhs_se = fvwrs.moment_estimate(params, x, n, t, M, dt, seed)
    rhs, rhs_se = bcre.dual_moment(params, x, n, t, M, seed, "rhs")
    return DualityReport(lhs, lhs_se, rhs, rhs_se, M, {
        "check": "moment", "x": x, "n": n, "t": t, "dt": dt,
    })


# ---------------------------------------------------------------------------
# Scaling scheme and convergence experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalingScheme:
    """Rescaling of a limit parameter set into finite-N models.

    Time is compressed by rho_N per generation: 1/(sigma*N) when sigma > 0,
    else 1/sqrt(N).  Per generation the environment is a mixture: with
    probability |mu| * rho_N an atom of the normalised selection environment
    measure, otherwise the weak-selection value -w*rho_N (negative values
    encode a geometric kernel with that parameter).  The merger probability
    is the total coalescence jump rate times rho_N.
    """

    limit: LimitParams

    def rho(self, N: int) -> float:
        if self.limit.sigma > 0:
            return 1.0 / (self.limit.sigma * N)
        return 1.0 / math.sqrt(N)

    def generations(self, N: int, t: float) -> int:
        return int(math.floor(t / self.rho(N) + 1e-9))

    def finite_params(self, N: int) -> FiniteModelParams:
        lim = self.limit
        rho = self.rho(N)
        mu_mass = lim.mu_mass
        sel_prob = mu_mass * rho
        if sel_prob >= 1.0:
            raise InvalidScaling(
                f"selection mixture weight {sel_prob:.3g} >= 1 at N={N}"
            )
        w_N = lim.w * rho
        if w_N > 1.0:
            raise InvalidScaling(f"weak-selection value {w_N:.3g} > 1 at N={N}")
        locs = [-w_N]
        wts = [1.0 - sel_prob]
        if sel_prob > 0:
            mu_bar = lim.mu.normalized()
            for y, wgt in zip(mu_bar.locations, mu_bar.weights):
                locs.append(float(y))
                wts.append(sel_prob * float(wgt))
        env_law = FiniteMeasure(np.array(locs), np.array(wts),
                                _allow_negative=True)
        c_N = lim.coalescence_rate * rho
        if c_N > 1.0:
            raise InvalidScaling(f"merger probability {c_N:.3g} > 1 at N={N}")
        return FiniteModelParams(N, lim.kernel, env_law, c_N, lim.lambda_c)


@dataclass(frozen=True)
class ConvergenceRow:
    N: int
    generations: int
    finite_moment: float
    finite_se: float
    limit_moment: float
    limit_se: float

    @property
    def gap(self) -> float:
        return abs(self.finite_moment - self.limit_moment)

    @property
    def gap_se(self) -> float:
        return math.hypot(self.finite_se, self.limit_se)


def finite_moment(params: FiniteModelParams, x: float, n: int,
                  generations: int, M: int, seed: int, role: str = "lhs",
                  sub: int = 0) -> tuple[float, float]:
    """E[X^n] after a fixed number of annealed generations."""
    return batch_mean_se(run_batches(
        lambda size, rng: _annealed_forward(params, x, generations, size,
                                            rng) ** n,
        M, seed, role, sub))


def convergence_experiment(limit: LimitParams, N_list, scaling: ScalingScheme,
                           x: float, n: int, t: float, M: int, dt: float,
                           seed: int) -> list[ConvergenceRow]:
    """Finite-model moments against the limit moment across N."""
    lim_est, lim_se = fvwrs.moment_estimate(limit, x, n, t, M, dt, seed,
                                            "rhs")
    rows = []
    for j, N in enumerate(N_list):
        fp = scaling.finite_params(N)
        gens = scaling.generations(N, t)
        est, se = finite_moment(fp, x, n, gens, M, seed, "scan", j)
        rows.append(ConvergenceRow(N, gens, est, se, lim_est, lim_se))
    return rows
