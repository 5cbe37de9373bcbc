import dataclasses
import itertools
import math

import numpy as np
import pytest
from scipy import stats

from wfduality import (
    DualityReport,
    EnvSequence,
    FiniteMeasure,
    FiniteModelParams,
    InvalidScaling,
    LimitParams,
    ScalingScheme,
    SelectionKernel,
    annealed_check,
    convergence_experiment,
    moment_check,
    quenched_check,
)
from wfduality.duality import _score, finite_moment
from wfduality.measures import pgf
from wfduality.rngstreams import batch_mean_se, substream
from wfduality.wf_graph import step_frequency_many


def mixed_env_law() -> FiniteMeasure:
    return FiniteMeasure.atomic([(0.0, 0.9), (0.5, 0.1)])


def geo_model(N: int, env_law=None, c_N: float = 0.0,
              lambda_c=None) -> FiniteModelParams:
    return FiniteModelParams(
        N=N,
        kernel=SelectionKernel.geometric(),
        env_law=env_law or mixed_env_law(),
        c_N=c_N,
        lambda_c=lambda_c,
    )


def law_score(params: FiniteModelParams, x: float, n: int) -> float:
    """The score integrated against the environment law, at one x."""
    law = params.env_law
    return float(_score(params, law.locations, law.weights, x, n))


class TestStatistics:
    # without mergers the score is the sampling statistic pgf_y(x)^n
    def test_score_closed_form(self):
        # pgf at (y,x)=(0.5,0.5) is 1/3
        params = geo_model(5)
        assert _score(params, [0.5], [1.0], 0.5, 2) == \
            pytest.approx(1.0 / 9.0)
        assert _score(params, [0.5], [1.0], 0.5, 0) == 1.0

    def test_score_point_mass(self):
        params = geo_model(5, FiniteMeasure.point_mass(0.5))
        assert law_score(params, 0.5, 3) == pytest.approx(1.0 / 27.0)

    def test_score_mixture(self):
        assert law_score(geo_model(5), 0.5, 1) == \
            pytest.approx(0.9 * 0.5 + 0.1 / 3.0)

    def test_neutral_law_is_identity_power(self):
        params = geo_model(5, FiniteMeasure.point_mass(0.0))
        assert law_score(params, 0.7, 4) == pytest.approx(0.7**4)


def exact_quenched_sides(x: float, n: int, y0: float, y1: float):
    """Both sides of the two-step duality for N=2 with the binary kernel,
    enumerated exactly over the intermediate state."""
    kernel = SelectionKernel.binary()
    phi0 = pgf(kernel, y0, x)
    phi1 = [pgf(kernel, y1, j / 2) for j in range(3)]
    lhs = sum(stats.binom.pmf(j, 2, phi0) * phi1[j] ** n for j in range(3))
    # backward: each of the n sampled lineages independently doubles with
    # probability y1, then the T resulting lineages pick among 2 parents
    rhs = 0.0
    for doubles in range(n + 1):
        p_k = stats.binom.pmf(doubles, n, y1)
        T = n + doubles
        # distinct-parent count among T uniform picks from 2 individuals
        p_two = 1.0 - 2.0 ** (1 - T) if T >= 2 else 0.0
        rhs += p_k * ((1 - p_two) * phi0 + p_two * phi0**2)
    return lhs, rhs


class TestQuenchedDuality:
    def test_two_step_enumeration_identity(self):
        for x, n, y0, y1 in itertools.product(
                (0.3, 0.7), (1, 2, 3), (0.0, 0.4), (0.0, 0.6)):
            lhs, rhs = exact_quenched_sides(x, n, y0, y1)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_two_step_monte_carlo(self):
        params = FiniteModelParams(
            N=2, kernel=SelectionKernel.binary(),
            env_law=FiniteMeasure.point_mass(0.0),
        )
        x, n, y0, y1 = 0.7, 2, 0.4, 0.6
        env = EnvSequence(np.array([y0, y1]))
        report = quenched_check(params, env, x, n, M=100_000, seed=21)
        exact, _ = exact_quenched_sides(x, n, y0, y1)
        assert abs(report.lhs - exact) < 4 * report.lhs_se
        assert abs(report.rhs - exact) < 4 * report.rhs_se
        assert abs(report.z) < 4.0

    def test_neutral_environment_second_moment(self):
        # all environments zero: both sides equal the neutral second moment,
        # which obeys m' = m (1 - 1/N) + x/N per generation
        N, x, steps = 10, 0.5, 4
        params = geo_model(N, FiniteMeasure.point_mass(0.0))
        env = EnvSequence(np.zeros(steps + 1))
        report = quenched_check(params, env, x, 2, M=50_000, seed=22)
        m2 = x * x
        for _ in range(steps):
            m2 = m2 * (1 - 1 / N) + x / N
        assert abs(report.z) < 4.0
        assert report.lhs == pytest.approx(m2, abs=4 * report.lhs_se)
        assert report.rhs == pytest.approx(m2, abs=4 * report.rhs_se)

    def test_one_step_merger_enumeration(self):
        # N=2, binary kernel, one transition with a merger opportunity:
        # enumerate the full graph on both sides and compare to the
        # merger-aware simulated check
        N, n = 2, 2
        y0, y1, c, v, x = 0.4, 0.6, 0.5, 0.7, 0.5

        def phi(y, p):
            return (1 - y) * p + y * p * p

        def score(f, m, y):
            return (1 - c) * phi(y, f) ** m + c * (
                f * phi(y, v + (1 - v) * f) ** m
                + (1 - f) * phi(y, (1 - v) * f) ** m)

        lhs = 0.0
        for pm, V in ((1 - c, 0.0), (c, v)):
            for pb, b0 in ((x, 1), (1 - x, 0)):
                q = phi(y0, (1 - V) * x + V * b0)
                for j in range(N + 1):
                    lhs += pm * pb * stats.binom.pmf(j, N, q) * \
                        score(j / N, n, y1)

        rhs = 0.0
        for pm, V in ((1 - c, 0.0), (c, v)):
            for k1, pk1 in ((1, 1 - y1), (2, y1)):
                for k2, pk2 in ((1, 1 - y1), (2, y1)):
                    T = k1 + k2
                    for chans in itertools.product((0, 1), repeat=T):
                        pc = math.prod(V if ch else 1 - V for ch in chans)
                        if pc == 0:
                            continue
                        nunif = T - sum(chans)
                        for central in range(N):
                            for labs in itertools.product(range(N),
                                                          repeat=nunif):
                                pl = (1 / N) ** (nunif + 1)
                                labels = set(labs)
                                if sum(chans):
                                    labels.add(central)
                                rhs += pm * pk1 * pk2 * pc * pl * \
                                    score(x, len(labels), y0)

        assert lhs == pytest.approx(rhs, abs=1e-12)

        params = FiniteModelParams(
            N=N, kernel=SelectionKernel.binary(),
            env_law=FiniteMeasure.point_mass(0.0),
            c_N=c, lambda_c=FiniteMeasure.point_mass(v),
        )
        env = EnvSequence(np.array([y0, y1]))
        report = quenched_check(params, env, x, n, M=100_000, seed=33)
        assert abs(report.lhs - lhs) < 4 * report.lhs_se
        assert abs(report.rhs - rhs) < 4 * report.rhs_se

    def test_mixed_environment_with_mergers(self):
        params = geo_model(20, c_N=0.2,
                           lambda_c=FiniteMeasure.point_mass(0.5))
        env = EnvSequence(np.array([0.5, 0.0, 0.3, 0.0, 0.2]))
        report = quenched_check(params, env, 0.5, 2, M=100_000, seed=23)
        assert abs(report.z) < 4.0

    def test_empty_env_rejected(self):
        with pytest.raises(ValueError):
            quenched_check(geo_model(5), EnvSequence(np.empty(0)), 0.5, 1,
                           M=10, seed=0)

    @pytest.mark.parametrize("c_N", [0.0, 0.3])
    def test_one_value_environment_is_exact(self, c_N):
        # no generation to step through: both sides score x itself at y0,
        # the quenched counterpart of annealed horizon 0
        y0, x, n = 0.5, 0.4, 3
        params = geo_model(10, c_N=c_N,
                           lambda_c=FiniteMeasure.point_mass(0.5))
        report = quenched_check(params, EnvSequence(np.array([y0])), x, n,
                                M=2048, seed=34)
        assert (report.lhs, report.lhs_se) == (report.rhs, report.rhs_se)
        # each side's score is one constant: its SE is exactly 0, not the
        # ulp-sized spread of a rounded chunk mean
        assert report.lhs_se == report.rhs_se == 0.0
        assert report.z == 0.0
        if c_N == 0.0:
            assert report.lhs == pgf(params.kernel, y0, x) ** n


class TestExactReport:
    def test_sides_equal_to_rounding_read_zero(self):
        # 1/9 squared by numpy's square loop and by its pow loop
        report = DualityReport(0.1111111111111111, 0.0,
                               0.11111111111111109, 0.0, 10)
        assert report.z == 0.0

    def test_distinct_exact_sides_read_infinite(self):
        assert DualityReport(0.25, 0.0, 0.2500001, 0.0, 10).z == math.inf
        assert DualityReport(0.0, 0.0, 1e-300, 0.0, 10).z == math.inf


class TestAnnealedDuality:
    def test_horizon_zero_is_exact_identity(self):
        params = geo_model(10)
        report = annealed_check(params, 0, 0.5, 2, M=2048, seed=24)
        # pgf_0(x) = x and pgf_{1/2}(1/2) = 1/3
        target = 0.9 * 0.5**2 + 0.1 / 9.0
        assert report.lhs == pytest.approx(target, abs=1e-12)
        assert report.rhs == pytest.approx(target, abs=1e-12)
        assert report.z == 0.0

    def test_five_generations(self):
        params = geo_model(20)
        report = annealed_check(params, 5, 0.5, 3, M=100_000, seed=25)
        assert abs(report.z) < 4.0

    def test_with_mergers(self):
        params = geo_model(20, c_N=0.3,
                           lambda_c=FiniteMeasure.point_mass(0.5))
        report = annealed_check(params, 3, 0.4, 2, M=50_000, seed=26)
        assert abs(report.z) < 4.0

    @pytest.mark.parametrize("kernel", [SelectionKernel.geometric(),
                                        SelectionKernel.binary()])
    def test_weak_selection_encoding(self, kernel):
        # y < 0 means geometric with parameter -y on both sides, whatever
        # the kernel variant
        law = FiniteMeasure(np.array([-0.4, 0.0]), np.array([0.5, 0.5]),
                            _allow_negative=True)
        params = FiniteModelParams(N=20, kernel=kernel, env_law=law)
        report = annealed_check(params, 3, 0.5, 2, M=50_000, seed=29)
        assert abs(report.z) < 4.0


class TestMomentDuality:
    def test_time_zero_exact(self, baseline_params):
        report = moment_check(baseline_params, 0.5, 2, 0.0, 100, 1e-3, seed=27)
        assert report.lhs == report.rhs == 0.25
        assert report.z == 0.0

    def test_pairwise_coalescent_ode_oracle(self):
        # pure diffusion: E[X^2](t) solves m' = sigma (E[X] - m), so
        # m(t) = 1/2 - 1/4 e^{-sigma t} from x = 1/2
        sigma, t = 1.0, 0.5
        empty = FiniteMeasure(np.empty(0), np.empty(0))
        params = LimitParams(SelectionKernel.geometric(), empty, w=0.0,
                             lambda_c=empty, c=0.0, sigma=sigma)
        target = 0.5 - 0.25 * math.exp(-sigma * t)
        report = moment_check(params, 0.5, 2, t, M=40_000, dt=1e-3, seed=28)
        assert abs(report.lhs - target) < 4 * report.lhs_se + 1e-3
        assert abs(report.rhs - target) < 4 * report.rhs_se
        assert abs(report.z) < 4.0

    def test_full_model(self, baseline_params):
        # sigma > 0 interleaves jumps with Euler pieces on the dt grid
        for sigma in (0.0, 0.5):
            params = dataclasses.replace(baseline_params, sigma=sigma)
            report = moment_check(params, 0.5, 2, 0.5, M=40_000, dt=1e-3,
                                  seed=29)
            assert abs(report.z) < 4.0


class TestScalingScheme:
    def test_rho_choices(self, baseline_params):
        scheme = ScalingScheme(baseline_params)
        assert scheme.rho(100) == pytest.approx(0.1)  # sigma = 0: N^{-1/2}
        empty = FiniteMeasure(np.empty(0), np.empty(0))
        diff = LimitParams(SelectionKernel.geometric(), empty, w=0.0,
                           lambda_c=empty, c=0.0, sigma=2.0)
        assert ScalingScheme(diff).rho(100) == pytest.approx(1.0 / 200.0)

    def test_generations_floor(self, baseline_params):
        scheme = ScalingScheme(baseline_params)
        assert scheme.generations(100, 0.5) == 5
        assert scheme.generations(100, 0.55) == 5

    def test_finite_params_mixture(self, baseline_params):
        scheme = ScalingScheme(baseline_params)
        fp = scheme.finite_params(400)
        law = fp.env_law
        assert law.total_mass == pytest.approx(1.0)
        lookup = dict(zip(law.locations, law.weights))
        # |mu| = 0.5, rho = 0.05: selection weight 0.025 at y = 0.5
        assert lookup[0.5] == pytest.approx(0.025)
        assert lookup[-baseline_params.w * 0.05] == pytest.approx(0.975)
        assert fp.c_N == pytest.approx(
            baseline_params.coalescence_rate * 0.05)

    def test_invalid_scaling_rejected(self, geo):
        p = LimitParams(geo, FiniteMeasure.point_mass(0.5, 50.0), w=0.0,
                        lambda_c=FiniteMeasure.point_mass(0.5), c=1.0,
                        sigma=0.0)
        with pytest.raises(InvalidScaling):
            ScalingScheme(p).finite_params(4)

    def test_neutral_finite_moment_martingale(self):
        params = geo_model(50, FiniteMeasure.point_mass(0.0))
        est, se = finite_moment(params, 0.3, 1, 20, 20_000, seed=30)
        assert abs(est - 0.3) < 4 * se

    def test_draws_each_generation_just_before_its_step(self):
        # reference loop on the estimator's first batch stream: per
        # generation, the environments of every replicate, then the step
        params = geo_model(20, c_N=0.2, lambda_c=FiniteMeasure.point_mass(0.5))
        x, n, gens, M, seed = 0.4, 2, 6, 300, 35
        rng = substream(seed, "lhs", 0)
        xs = np.full(M, x)
        for _ in range(gens):
            ys = params.env_law.sample(M, rng)
            xs = step_frequency_many(params, xs, ys, rng)
        assert finite_moment(params, x, n, gens, M, seed) == \
            batch_mean_se(xs ** n)

    def test_degenerate_start(self, baseline_params):
        scheme = ScalingScheme(baseline_params)
        fp = scheme.finite_params(100)
        for x, target in ((0.0, 0.0), (1.0, 1.0)):
            est, se = finite_moment(fp, x, 2, 10, 1000, seed=31)
            assert est == target and se == 0.0


class TestConvergence:
    def test_rows_structure_and_small_gap(self, baseline_params):
        scheme = ScalingScheme(baseline_params)
        rows = convergence_experiment([100, 400], scheme, 0.5, 2, 0.5,
                                      M=20_000, dt=1e-3, seed=32)
        assert [r.N for r in rows] == [100, 400]
        for row in rows:
            assert row.gap_se == pytest.approx(
                math.hypot(row.finite_se, row.limit_se))
        assert rows[-1].gap < 0.05
