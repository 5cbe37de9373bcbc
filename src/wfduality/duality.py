"""Statistical verification of the duality identities and of convergence.

Three identities are checked by paired Monte Carlo:

* sampling duality, quenched and annealed: the forward frequency chain and
  the backward block-counting chain give the same expectation of the
  sampling statistic H(x, n; y) = pgf_y(x)^n.  Both environments run one
  code path: a forward loop, a backward block count and one score.
  Quenched means one fixed environment sequence shared by every replicate:
  the forward side steps through all but its last value and is scored
  there, the backward side the reverse.  Annealed means every replicate
  draws its own iid environments, and the score is integrated against the
  environment law,
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
from .measures import FiniteMeasure, pgf_many
from .params import FiniteModelParams, LimitParams, merged
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


def _merger_score_many(params: FiniteModelParams, y: float, fs: np.ndarray,
                       m) -> np.ndarray:
    """P(m sampled children under env y are all weak | parent frequency fs).

    ``fs`` and ``m`` broadcast: many frequencies at one sample size, or one
    frequency at many sample sizes.

    Averages over the sampled generation's merger event: with probability
    c_N the picks are redirected to a shared central parent with strength V,
    which conditions the statistic on the central parent's type: the weak
    frequency becomes one of the pair ``params.merged``.  Without
    mergers this is the plain pgf power.  Exactness with mergers is verified
    against full graph enumeration at N=2 in the test suite.
    """
    base = pgf_many(params.kernel, y, fs) ** m
    law = params.merger_strength_law
    if params.c_N <= 0 or law is None:
        return base
    out = (1.0 - params.c_N) * base
    for v, wgt in zip(law.locations.tolist(), law.weights.tolist()):
        strong, weak = (pgf_many(params.kernel, y, f) ** m
                        for f in merged(fs, v))
        out += params.c_N * wgt * (fs * weak + (1.0 - fs) * strong)
    return out


# ---------------------------------------------------------------------------
# Sampling duality: one forward loop, one block count, one score
# ---------------------------------------------------------------------------


def _score(params: FiniteModelParams, ys, wts, fs, m) -> np.ndarray:
    """Sampling statistic of m lineages at frequencies fs: the wts-weighted
    sum over environments ys of the merger-averaged score."""
    return sum(float(w) * _merger_score_many(params, float(y), fs, m)
               for y, w in zip(ys, wts))


def _forward(params: FiniteModelParams, x: float, size: int, ys,
             rng: np.random.Generator) -> np.ndarray:
    """Frequencies of ``size`` forward chains started at x after one
    generation per entry of ``ys``: a value shared by every replicate, or
    one value per replicate."""
    xs = np.full(size, x)
    for y in ys:
        xs = step_frequency_many(params, xs, y, rng)
    return xs


def _annealed_forward(params: FiniteModelParams, x: float, generations: int,
                      size: int, rng: np.random.Generator) -> np.ndarray:
    """``_forward`` through ``generations`` iid environments per replicate,
    each generation's drawn just before its step."""
    return _forward(params, x, size, (params.env_law.sample(size, rng)
                                      for _ in range(generations)), rng)


def _blocks(params: FiniteModelParams, n: int, env_rows: np.ndarray,
            rng: np.random.Generator) -> np.ndarray:
    """Block counts of n lineages traced back through each row of
    ``env_rows``, one row per replicate."""
    return simulate_ancestry(params, n, EnvSequence(env_rows),
                             rng).values[:, -1]


def _paired(lhs_batch, rhs_batch, M: int, seed: int,
            info: dict) -> DualityReport:
    """Both sides on their own substreams, M replicates each."""
    lhs, lhs_se = batch_mean_se(run_batches(lhs_batch, M, seed, "lhs"))
    rhs, rhs_se = batch_mean_se(run_batches(rhs_batch, M, seed, "rhs"))
    return DualityReport(lhs, lhs_se, rhs, rhs_se, M, info)


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
    ys = env.values
    return _paired(
        lambda size, rng: _score(params, ys[-1:], [1.0],
                                 _forward(params, x, size, ys[:-1], rng), n),
        lambda size, rng: _score(params, ys[:1], [1.0], x, _blocks(
            params, n, np.broadcast_to(ys[1:], (size, ys.size - 1)), rng)),
        M, seed, {"check": "quenched", "N": params.N, "x": x, "n": n,
                  "env": ys.tolist()})


def annealed_check(params: FiniteModelParams, horizon: int, x: float, n: int,
                   M: int, seed: int) -> DualityReport:
    """Both sides of the sampling duality averaged over iid environments."""
    if horizon < 0:
        raise InvalidArgument("horizon must be nonnegative")
    law = params.env_law
    ys, wts = law.locations, law.weights
    return _paired(
        lambda size, rng: _score(params, ys, wts, _annealed_forward(
            params, x, horizon, size, rng), n),
        lambda size, rng: _score(params, ys, wts, x, _blocks(
            params, n, law.sample(size * horizon, rng).reshape(size, horizon),
            rng)),
        M, seed, {"check": "annealed", "N": params.N, "x": x, "n": n,
                  "horizon": horizon})


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


def convergence_experiment(N_list, scaling: ScalingScheme, x: float, n: int,
                           t: float, M: int, dt: float,
                           seed: int) -> list[ConvergenceRow]:
    """Finite-model moments across N against the scheme's limit moment."""
    lim_est, lim_se = fvwrs.moment_estimate(scaling.limit, x, n, t, M, dt,
                                            seed, "rhs")
    rows = []
    for j, N in enumerate(N_list):
        fp = scaling.finite_params(N)
        gens = scaling.generations(N, t)
        est, se = finite_moment(fp, x, n, gens, M, seed, "scan", j)
        rows.append(ConvergenceRow(N, gens, est, se, lim_est, lim_se))
    return rows
