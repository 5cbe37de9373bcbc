import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wfduality import (
    FiniteMeasure,
    LimitParams,
    SelectionKernel,
    StateExplosionGuard,
    dual_moment,
    jump_rates,
    simulate,
    stationary_estimate,
)
from wfduality import bcre
from wfduality.bcre import RateCache, final_state

from conftest import limit_params, rng

EMPTY = FiniteMeasure(np.empty(0), np.empty(0))


def params_with(lambda_s=EMPTY, w=0.0, lambda_c=EMPTY, c=0.0, sigma=0.0,
                kernel=None):
    return LimitParams(kernel or SelectionKernel.geometric(), lambda_s,
                       w=w, lambda_c=lambda_c, c=c, sigma=sigma)


class TestJumpRates:
    def test_pairwise_only(self):
        p = params_with(sigma=1.0)
        table = jump_rates(p, 3)
        assert table.coalesce_rates[0] == pytest.approx(3.0)
        assert table.coalesce_rates[1:].sum() == 0.0
        assert table.branch_rates.sum() == 0.0

    def test_multiple_merger_rates(self):
        p = params_with(lambda_c=FiniteMeasure.point_mass(0.5), c=1.0,
                        w=1e-12)
        table = jump_rates(p, 3)
        # C(3,k+1) 0.5^{k+1} 0.5^{2-k} / 0.25 for k = 1, 2
        assert table.coalesce_rates[0] == pytest.approx(1.5)
        assert table.coalesce_rates[1] == pytest.approx(0.5)

    def test_single_lineage_branch_rates(self):
        p = params_with(lambda_s=FiniteMeasure.point_mass(0.5))
        table = jump_rates(p, 1)
        for k in range(1, 6):
            assert table.branch_rates[k - 1] == pytest.approx(0.5 ** (k + 1))
        assert table.coalesce_rates.size == 0

    def test_star_collapse(self):
        # coalescence mass at z=1: the only merger from n is straight to 1
        p = params_with(lambda_c=FiniteMeasure.point_mass(1.0), c=0.7,
                        w=1e-12)
        table = jump_rates(p, 6)
        assert table.coalesce_rates[-1] == pytest.approx(0.7)
        assert table.coalesce_rates[:-1].sum() == pytest.approx(0.0, abs=1e-15)

    def test_rates_positive_and_bounded(self, baseline_params):
        for n in (1, 2, 5, 20, 100):
            table = jump_rates(baseline_params, n)
            assert (table.branch_rates >= 0).all()
            assert (table.coalesce_rates >= 0).all()
            bound = n * (baseline_params.alpha_s + baseline_params.w)
            assert table.branch_rates.sum() + table.branch_tail <= bound + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(params=limit_params(), n=st.integers(1, 40))
    def test_rates_positive_and_bounded_for_random_measures(self, params, n):
        table = jump_rates(params, n)
        assert (table.branch_rates >= 0).all() and table.branch_tail >= 0
        assert (table.coalesce_rates >= 0).all()
        bound = n * (params.alpha_s + params.w)
        branch = table.branch_rates.sum() + table.branch_tail
        assert branch <= bound * (1 + 1e-9) + 1e-12

    def test_large_states_stay_finite(self, baseline_params):
        table = jump_rates(baseline_params, 5000)
        assert np.isfinite(table.total)
        assert (table.coalesce_rates >= 0).all()


class TestSimulate:
    def test_yule_growth(self):
        w = 0.3
        p = params_with(w=w)
        finals = np.array([
            final_state(p, 1, 3.0, rng(100 + i), RateCache(p))
            for i in range(5000)
        ])
        se = finals.std(ddof=1) / np.sqrt(finals.size)
        assert abs(finals.mean() - math.exp(w * 3.0)) < 4 * se

    def test_pairwise_death_chain_absorption_time(self):
        # from 5 lineages the expected time to reach 1 is
        # sum over j=2..5 of 1/C(j,2) = 2 (1 - 1/5) = 1.6
        p = params_with(sigma=1.0)
        times = []
        for i in range(4000):
            path = simulate(p, 5, 50.0, rng(200 + i))
            assert path.events[-1][2] == 1
            times.append(path.events[-1][0])
        times = np.array(times)
        se = times.std(ddof=1) / np.sqrt(times.size)
        assert abs(times.mean() - 1.6) < 4 * se

    def test_absorbing_without_branching(self):
        p = params_with(sigma=1.0)
        path = simulate(p, 1, 10.0, rng(1))
        assert path.events == []

    def test_explosion_guard_triggers(self):
        p = params_with(lambda_s=FiniteMeasure.point_mass(0.5, 5.0))
        with pytest.raises(StateExplosionGuard):
            for i in range(2000):
                simulate(p, 10, 5.0, rng(300 + i), ceiling=50)

    def test_state_at(self):
        p = params_with(w=0.5)
        path = simulate(p, 1, 2.0, rng(2))
        assert path.state_at(0.0) == 1
        assert path.state_at(2.0) == (path.events[-1][2] if path.events else 1)


class TestDualMoment:
    def test_time_zero(self, baseline_params):
        est, se = dual_moment(baseline_params, 0.5, 3, 0.0, 100, seed=0)
        assert est == 0.125 and se == 0.0

    def test_degenerate_x(self, baseline_params):
        est, _ = dual_moment(baseline_params, 1.0, 2, 1.0, 2000, seed=1)
        assert est == 1.0
        est, _ = dual_moment(baseline_params, 0.0, 2, 1.0, 2000, seed=2)
        assert est == 0.0

    def test_rerun_is_identical(self, baseline_params):
        a = dual_moment(baseline_params, 0.5, 2, 1.0, 4000, seed=3)
        b = dual_moment(baseline_params, 0.5, 2, 1.0, 4000, seed=3)
        assert a == b

    def test_one_rate_build_per_state_per_call(self, baseline_params,
                                               monkeypatch):
        # the batches of one call share a cache, so each state visited is
        # built once
        built = []
        build = bcre.jump_rates

        def counting(params, n, *args):
            built.append(n)
            return build(params, n, *args)

        monkeypatch.setattr(bcre, "jump_rates", counting)
        dual_moment(baseline_params, 0.5, 2, 1.0, 4000, seed=3)
        assert len(built) == len(set(built))


class TestRateCache:
    def test_shared_between_threads(self, baseline_params, monkeypatch):
        built = []
        build = bcre.jump_rates

        def counting(params, n, *args):
            built.append(n)
            return build(params, n, *args)

        monkeypatch.setattr(bcre, "jump_rates", counting)
        states = list(range(1, 41))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for capacity in (4096, 8):
                built.clear()
                cache = RateCache(baseline_params, capacity=capacity)

                def visit(seed):
                    order = rng(seed).permutation(states * 5)
                    return all(cache.get(int(n)).n == n for n in order)

                with ThreadPoolExecutor(max_workers=8) as pool:
                    ok = list(pool.map(visit, range(16), timeout=60))
                assert all(ok)
                assert len(cache._tables) <= capacity
                if capacity > len(states):
                    assert sorted(built) == states
        finally:
            sys.setswitchinterval(interval)


def birth_death_stationary_oracle(w: float, sigma: float, n_max: int = 200):
    """Stationary law of the linear-birth quadratic-death chain on 1..n_max,
    solved directly from the truncated generator."""
    Q = np.zeros((n_max, n_max))
    for i, n in enumerate(range(1, n_max + 1)):
        if n < n_max:
            Q[i, i + 1] = w * n
        if n > 1:
            Q[i, i - 1] = sigma * n * (n - 1) / 2
        Q[i, i] = -Q[i].sum()
    A = np.vstack([Q.T, np.ones(n_max)])
    b = np.zeros(n_max + 1)
    b[-1] = 1.0
    nu, *_ = np.linalg.lstsq(A, b, rcond=None)
    return nu


class TestStationaryEstimate:
    def test_no_branching_gives_point_mass(self):
        p = params_with(sigma=1.0)
        est = stationary_estimate(p, 5, 5.0, 200.0, rng(4))
        assert est.prob(1) == pytest.approx(1.0, abs=1e-6)
        assert est.pgf(1.0) == pytest.approx(1.0)

    def test_birth_death_matches_generator_solve(self):
        w, sigma = 1.0, 1.0
        p = params_with(w=w, sigma=sigma)
        est = stationary_estimate(p, 1, 20.0, 20000.0, rng(5))
        oracle = birth_death_stationary_oracle(w, sigma)
        sim = np.zeros(oracle.size)
        for k in range(1, min(est.pmf.size, oracle.size + 1)):
            sim[k - 1] = est.prob(k)
        tv = 0.5 * np.abs(sim - oracle).sum()
        assert tv < 0.02

    def test_pgf_normalised(self, survival_params):
        est = stationary_estimate(survival_params, 1, 10.0, 2000.0, rng(6))
        assert est.pgf(1.0) == pytest.approx(1.0)
        grid = est.pgf(np.linspace(0, 1, 11))
        assert (np.diff(grid) >= -1e-12).all()


class TestConservativeness:
    def test_mean_bounded_by_pure_growth(self, baseline_params):
        # every path stays finite and the mean is dominated by the
        # branching-only growth bound n0 * exp((mass + w) t)
        n0, T = 10, 5.0
        cache = RateCache(baseline_params)
        finals = np.array([
            final_state(baseline_params, n0, T, rng(400 + i), cache)
            for i in range(5000)
        ])
        bound = n0 * math.exp(
            (baseline_params.alpha_s + baseline_params.w) * T)
        se = finals.std(ddof=1) / np.sqrt(finals.size)
        assert finals.mean() <= bound + 4 * se
