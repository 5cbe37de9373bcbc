import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from wfduality import (
    FiniteMeasure,
    InvalidArgument,
    InvalidStep,
    InvariantViolation,
    LimitParams,
    SelectionKernel,
    ensemble_states,
    moment_estimate,
)
from wfduality import fvwrs
from wfduality.rngstreams import batch_mean_se

from conftest import limit_params, rng


def diffusion_only(sigma: float, w: float = 0.0) -> LimitParams:
    empty = FiniteMeasure(np.empty(0), np.empty(0))
    return LimitParams(SelectionKernel.geometric(), empty, w=w,
                       lambda_c=empty, c=0.0, sigma=sigma)


#: Diffusion of the sigma > 0 runs of the engine tests.
SIGMA = 0.1


def with_sigma(params: LimitParams, sigma: float) -> LimitParams:
    return dataclasses.replace(params, sigma=sigma)


class TestSimulatePath:
    def test_boundaries_constant(self):
        params = diffusion_only(1.0)
        for x0 in (0.0, 1.0):
            out = ensemble_states(params, x0, np.linspace(0.0, 1.0, 101),
                                  1e-2, 20, seed=1)
            assert (out == x0).all()

    def test_state_stays_in_unit_interval(self, baseline_params):
        ts = np.linspace(0.0, 2.0, 201)
        for sigma in (0.0, SIGMA):
            out = ensemble_states(with_sigma(baseline_params, sigma), 0.5,
                                  ts, 1e-2, 20, seed=10)
            assert out.min() >= 0.0
            assert out.max() <= 1.0

    def test_invalid_step_rejected(self, baseline_params):
        with pytest.raises(InvalidStep):
            ensemble_states(baseline_params, 0.5, [1.0], 0.0, 10, seed=2)
        with pytest.raises(InvalidStep):
            moment_estimate(baseline_params, 0.5, 1, 1.0, 100, -1e-3, 0)

    def test_no_event_probability_is_exp_minus_cT(self, geo, empty_measure):
        # Lambda_c = delta_1: every event is a merger of strength 1, which
        # sends an interior state to 0 or 1, so X_T = x0 iff no event came
        # by T, an event of the rate-c Poisson process
        c, T, M = 1.0, 1.5, 20000
        params = LimitParams(geo, empty_measure, w=0.0,
                             lambda_c=FiniteMeasure.point_mass(1.0), c=c,
                             sigma=0.0)
        finals = ensemble_states(params, 0.3, [T], 1e-3, M, seed=12)[0]
        p = math.exp(-c * T)
        assert abs((finals == 0.3).mean() - p) < 4 * math.sqrt(p * (1 - p) / M)


class TestExactEngine:
    def test_logistic_flow_matches_ode_solve(self):
        w, hs = 0.7, np.linspace(0.0, 5.0, 11)
        for x0 in (0.05, 0.5, 0.95):
            sol = solve_ivp(lambda t, x: -w * x * (1.0 - x), (0.0, 5.0), [x0],
                            method="DOP853", t_eval=hs, rtol=1e-13,
                            atol=1e-16)
            np.testing.assert_allclose(fvwrs._flow(x0, w, hs), sol.y[0],
                                       rtol=1e-10)

    def test_pure_drift_follows_the_flow(self):
        params = diffusion_only(0.0, w=0.5)
        out = ensemble_states(params, 0.3, [1.0, 2.0], 1e-3, 50, seed=20)
        np.testing.assert_array_equal(
            out, np.repeat(fvwrs._flow(0.3, 0.5, np.array([[1.0], [2.0]])),
                           50, axis=1))

    def test_dt_has_no_effect(self, baseline_params):
        a = ensemble_states(baseline_params, 0.3, [0.25, 1.0], 1e-3, 2000,
                            seed=21)
        b = ensemble_states(baseline_params, 0.3, [0.25, 1.0], 1e-2, 2000,
                            seed=21)
        assert (a == b).all()
        with pytest.raises(InvalidStep):
            ensemble_states(baseline_params, 0.3, [1.0], 0.0, 10, seed=21)

    def test_unsorted_repeated_and_zero_times(self, baseline_params):
        # with sigma > 0 the times are grid times, so recording any subset
        # of them leaves the draws alone
        ts = [1.0, 0.0, 0.5, 1.0, 0.25]
        for sigma in (0.0, SIGMA):
            params = with_sigma(baseline_params, sigma)
            out = ensemble_states(params, 0.5, ts, 1e-3, 1500, seed=22)
            assert out.shape == (5, 1500)
            assert (out[1] == 0.5).all()
            sorted_out = ensemble_states(params, 0.5, [0.25, 0.5, 1.0],
                                         1e-3, 1500, seed=22)
            np.testing.assert_array_equal(out[[4, 2, 0]], sorted_out)
            np.testing.assert_array_equal(out[3], out[0])
            final = ensemble_states(params, 0.5, [1.0], 1e-3, 1500, seed=22)
            np.testing.assert_array_equal(final[0], out[0])
            # time 0 alone records the start; no time gives no row
            assert (ensemble_states(params, 0.5, [0.0], 1e-3, 1500,
                                    seed=22) == 0.5).all()
            assert ensemble_states(params, 0.5, [], 1e-3, 1500,
                                   seed=22).shape == (0, 1500)
            with pytest.raises(InvalidStep):
                ensemble_states(params, 0.5, [-0.1], 1e-3, 10, seed=22)
        # 0.5004 snaps to the grid time 0.5
        params = with_sigma(baseline_params, SIGMA)
        near = ensemble_states(params, 0.5, [0.5, 0.5004], 1e-3, 1500,
                               seed=22)
        alone = ensemble_states(params, 0.5, [0.5], 1e-3, 1500, seed=22)
        np.testing.assert_array_equal(near, np.repeat(alone, 2, axis=0))

    def test_boundary_starts_hold(self, baseline_params):
        for sigma in (0.0, SIGMA):
            for x0 in (0.0, 1.0):
                out = ensemble_states(with_sigma(baseline_params, sigma), x0,
                                      [2.0, 0.0, 1.0], 1e-3, 1500, seed=23)
                assert (out == x0).all()

    def test_absorbed_paths_hold_their_state(self, extinction_params):
        for sigma in (0.0, SIGMA):
            params = with_sigma(extinction_params, sigma)
            out = ensemble_states(params, 0.5, [1.0, 4.0, 8.0], 1e-3, 2000,
                                  seed=24)
            for i in range(2):
                for b in (0.0, 1.0):
                    assert (out[i + 1][out[i] == b] == b).all()
            assert (out[-1] == 0.0).mean() > 0.9
            # recording earlier times and absorbing leave the draws alone
            many = ensemble_states(params, 0.5, [1.0, 4.0, 0.5, 8.0], 1e-3,
                                   2000, seed=24)
            final = ensemble_states(params, 0.5, [8.0], 1e-3, 2000, seed=24)
            np.testing.assert_array_equal(many[3], final[0])

    def test_selection_increasing_the_frequency_raises(self, baseline_params,
                                                       monkeypatch):
        monkeypatch.setattr(fvwrs, "pgf_many",
                            lambda kernel, y, x: np.minimum(x + 0.1, 1.0))
        with pytest.raises(InvariantViolation):
            ensemble_states(baseline_params, 0.5, [2.0], 1e-3, 100, seed=25)


class TestMomentEstimate:
    def test_time_zero_exact(self, baseline_params):
        est, se = moment_estimate(baseline_params, 0.5, 3, 0.0, 100, 1e-3, 0)
        assert est == 0.125 and se == 0.0

    @pytest.mark.parametrize("x0, n, t, M, dt, seed, error", [
        (1.5, 2, 0.0, 100, 1e-3, 0, InvalidStep),
        (0.5, -1, 0.0, 100, 1e-3, 0, InvalidStep),
        (0.5, 2, -1.0, 100, 1e-3, 0, InvalidStep),
        (0.5, 2, 0.0, 100, -1.0, 0, InvalidStep),
        (0.5, 2, 0.0, 0, 1e-3, 0, InvalidArgument),
        (0.5, 2, 0.0, 100, 1e-3, -1, InvalidArgument)],
        ids=["x0", "n", "negative-t", "dt", "M", "seed"])
    def test_bad_arguments_rejected_at_time_zero(self, baseline_params, x0,
                                                 n, t, M, dt, seed, error):
        with pytest.raises(error):
            moment_estimate(baseline_params, x0, n, t, M, dt, seed)

    def test_neutral_martingale(self):
        params = diffusion_only(1.0)
        est, se = moment_estimate(params, 0.5, 1, 1.0, 20000, 1e-3, seed=3)
        assert abs(est - 0.5) < 4 * se

    def test_dt_refinement_stability(self, baseline_params):
        e1, s1 = moment_estimate(baseline_params, 0.5, 2, 0.5, 20000, 1e-3,
                                 seed=4)
        e2, s2 = moment_estimate(baseline_params, 0.5, 2, 0.5, 20000, 5e-4,
                                 seed=5)
        assert abs(e1 - e2) < 2 * math.hypot(s1, s2) + 2e-3

    def test_supermartingale_mean_decreasing(self, baseline_params):
        ts = [0.25, 0.5, 1.0, 2.0]
        states = ensemble_states(baseline_params, 0.5, ts, 1e-3, 20000, seed=6)
        means = states.mean(axis=1)
        ses = states.std(axis=1, ddof=1) / np.sqrt(states.shape[1])
        for i in range(len(ts) - 1):
            assert means[i + 1] < means[i] + 3 * (ses[i] + ses[i + 1])


class TestAbsorptionScan:
    def test_boundary_starts(self, baseline_params):
        finals = ensemble_states(baseline_params, 0.0, [1.0], 1e-2, 500,
                                 seed=7)[0]
        assert (finals <= fvwrs.EPS0).all()
        finals = ensemble_states(baseline_params, 1.0, [1.0], 1e-2, 500,
                                 seed=8)[0]
        assert (finals >= 1.0 - fvwrs.EPS0).all()

    def test_hitting_probability_matches_scale_function(self):
        # pure drift-diffusion: dx = -w x(1-x) dt + sqrt(sigma x(1-x)) dB.
        # The scale density is exp(2wx/sigma), so
        # P_x(hit 1) = (e^{2wx/s} - 1) / (e^{2w/s} - 1).
        sigma, w, x0 = 0.5, 0.25, 0.5
        target = (math.exp(2 * w * x0 / sigma) - 1) / \
            (math.exp(2 * w / sigma) - 1)
        params = diffusion_only(sigma, w)
        finals = ensemble_states(params, x0, [30.0], 1e-3, 10000, seed=9)[0]
        interior = (finals > fvwrs.EPS0) & (finals < 1.0 - fvwrs.EPS0)
        assert interior.mean() < 0.005
        at1, se = batch_mean_se(finals >= 1.0 - fvwrs.EPS0)
        assert abs(at1 - target) < 4 * se


class TestDeterminism:
    def test_rerun_is_identical(self, baseline_params):
        a = ensemble_states(baseline_params, 0.5, [0.5], 1e-2, 3000, seed=11)
        b = ensemble_states(baseline_params, 0.5, [0.5], 1e-2, 3000, seed=11)
        assert (a == b).all()


class TestJumpProperties:
    @settings(max_examples=100, deadline=None)
    @given(params=limit_params(),
           xs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20),
           seed=st.integers(0, 2**32))
    def test_stays_in_unit_interval(self, params, xs, seed):
        gen = rng(seed)
        x = np.array(xs)
        # selection jumps need a nonempty selection environment measure
        selection = (gen.random(x.size) < 0.5) & (params.mu_mass > 0)
        post = fvwrs._jump(params, x, selection, gen)
        assert ((post >= 0.0) & (post <= 1.0)).all()
        assert (post[selection] <= x[selection] + 1e-12).all()
        ends = (x == 0.0) | (x == 1.0)
        assert (post[ends] == x[ends]).all()
