import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from wfduality import (
    FiniteMeasure,
    LimitParams,
    SelectionKernel,
    StateExplosionGuard,
    dual_moment,
    jump_rates,
    stationary_estimate,
)
from wfduality import bcre, rngstreams
from wfduality.bcre import RateCache, final_state, final_states
from wfduality.measures import nbinom_pmf
from wfduality.rngstreams import batch_mean_se

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
        finals = final_states(params_with(w=w), 1, 3.0, 5000, seed=100)
        se = finals.std(ddof=1) / np.sqrt(finals.size)
        assert abs(finals.mean() - math.exp(w * 3.0)) < 4 * se

    def test_yule_law(self):
        # pure Yule from one lineage: Z_t is geometric,
        # P(Z_t = k) = e^{-wt} (1 - e^{-wt})^{k-1}
        w, t = 0.7, 1.5
        finals = final_states(params_with(w=w), 1, t, 20000, seed=101)
        p = math.exp(-w * t)
        ks = np.arange(1, 16)
        expected = p * (1.0 - p) ** (ks - 1)
        expected = np.append(expected, 1.0 - expected.sum()) * finals.size
        observed = np.bincount(np.minimum(finals, 16), minlength=17)[1:]
        _, pval = stats.chisquare(observed, expected)
        assert pval > 0.001

    def test_pairwise_death_chain_absorption_time(self):
        # from 5 lineages the time to reach 1 is hypoexponential with rates
        # C(5,2), C(4,2), C(3,2), C(2,2) = 10, 6, 3, 1, so P(Z_t = 1) is its
        # CDF at t
        rates = np.array([10.0, 6.0, 3.0, 1.0])
        coef = [np.prod([b / (b - a) for b in rates if b != a]) for a in rates]
        p = params_with(sigma=1.0)
        for sub, t in enumerate((0.5, 1.0, 2.0)):
            finals = final_states(p, 5, t, 4000, seed=200, sub=sub)
            cdf = 1.0 - float(np.dot(coef, np.exp(-rates * t)))
            got = float((finals == 1).mean())
            se = math.sqrt(cdf * (1.0 - cdf) / finals.size)
            assert abs(got - cdf) < 4 * se
            assert finals.min() >= 1

    def test_absorbing_without_branching(self):
        p = params_with(sigma=1.0)
        assert (final_states(p, 1, 10.0, 100, seed=1) == 1).all()
        assert final_state(p, 1, 10.0, rng(1), RateCache(p)) == 1

    def test_explosion_guard_triggers(self):
        p = params_with(lambda_s=FiniteMeasure.point_mass(0.5, 5.0))
        with pytest.raises(StateExplosionGuard):
            final_states(p, 10, 5.0, 2000, seed=300, ceiling=50)
        with pytest.raises(StateExplosionGuard):
            final_state(p, 10, 5.0, rng(300), RateCache(p), ceiling=50)

    def test_explosion_guard_cut_reports_ceiling_plus_one(self):
        p = params_with(lambda_s=FiniteMeasure.point_mass(0.5, 5.0))
        finals = final_states(p, 10, 5.0, 2000, seed=300, ceiling=50,
                              cut=True)
        assert (finals == 51).any()
        assert finals.max() == 51 and finals.min() >= 1


class TestDualMoment:
    def test_time_zero(self, baseline_params):
        est, se = dual_moment(baseline_params, 0.5, 3, 0.0, 100, seed=0)
        assert est == 0.125 and se == 0.0

    def test_degenerate_x(self, baseline_params):
        est, _ = dual_moment(baseline_params, 1.0, 2, 1.0, 2000, seed=1)
        assert est == 1.0
        est, _ = dual_moment(baseline_params, 0.0, 2, 1.0, 2000, seed=2)
        assert est == 0.0

    @pytest.mark.parametrize("x", [0.0, 0.3, 0.5, 1.0])
    def test_power_matches_the_scalar_loop(self, baseline_params, x,
                                           monkeypatch):
        # each path's x**Z carries the bits of the scalar power; numpy's
        # SIMD power loop differs from it in the last bit at x = 0.3
        seen = []
        monkeypatch.setattr(bcre, "batch_mean_se",
                            lambda v: seen.append(v) or batch_mean_se(v))
        dual_moment(baseline_params, x, 2, 1.0, 3000, seed=4)
        zs = final_states(baseline_params, 2, 1.0, 3000, 4)
        assert seen[0].tobytes() == np.array(
            [x**z for z in zs.tolist()]).tobytes()

    def test_rerun_is_identical(self, baseline_params):
        a = dual_moment(baseline_params, 0.5, 2, 1.0, 4000, seed=3)
        b = dual_moment(baseline_params, 0.5, 2, 1.0, 4000, seed=3)
        assert a == b

    def test_one_rate_build_per_state_per_call(self, baseline_params,
                                               monkeypatch):
        # the batches of one call share a cache, so each state visited is
        # built once, whichever batch of states it is built in
        built = []
        build = bcre._rate_rows

        def counting(params, ns, *args):
            built.extend(ns.tolist())
            return build(params, ns, *args)

        monkeypatch.setattr(bcre, "_rate_rows", counting)
        dual_moment(baseline_params, 0.5, 2, 1.0, 4000, seed=3)
        assert built and len(built) == len(set(built))


class TestRateCache:
    def test_rows_are_sorted_and_end_at_row_plus_one(self, baseline_params):
        cache = RateCache(baseline_params)
        states = np.array([7, 3, 7, 40, 1, 3])
        rows = cache.rows(states)
        assert rows.tolist() == [2, 1, 2, 3, 0, 1]  # sorted new states
        assert cache.rows(states).tolist() == rows.tolist()
        cum = cache.cum[:cache.indptr[cache.n_rows]]
        assert (np.diff(cum) >= 0).all()
        for r, n in enumerate((1, 3, 7, 40)):
            row = cum[cache.indptr[r]:cache.indptr[r + 1]]
            assert row[-1] == r + 1.0 and row[0] >= r
            table = jump_rates(baseline_params, n)
            assert cache.total[r] == table.total
            assert cache.k_max[r] == table.k_max
            # the kept categories carry all of the rate a draw can reach
            kept = table.cum_rates[row.size - 1] / table.total
            assert kept == pytest.approx(1.0, abs=1e-12)

    def test_round_without_new_states_skips_unique(self, baseline_params,
                                                   monkeypatch):
        cache = RateCache(baseline_params)
        states = np.array([4, 2, 4])
        cache.rows(states)

        def unique(*_args, **_kw):
            raise AssertionError("np.unique on a round without new states")

        monkeypatch.setattr(np, "unique", unique)
        assert cache.rows(states).tolist() == [1, 0, 1]
        assert cache.get(2) == 0


def table_kernel():
    return SelectionKernel.table({1: 0.2, 2: 0.5, 4: 0.3})


def with_kernel(params, kernel):
    return LimitParams(kernel, params.lambda_s, w=params.w,
                       lambda_c=params.lambda_c, c=params.c,
                       sigma=params.sigma)


class TestRateRows:
    """One builder for every row: a batch of states, or ``jump_rates``."""

    @pytest.mark.parametrize("kernel", [SelectionKernel.geometric(),
                                        SelectionKernel.binary(),
                                        table_kernel()],
                             ids=["geometric", "binary", "table"])
    @pytest.mark.parametrize("which", ["baseline_params", "survival_params"])
    def test_batch_rows_equal_one_state_rows(self, kernel, which, request):
        params = with_kernel(request.getfixturevalue(which), kernel)
        ns = np.arange(1, 513)
        cache = RateCache(params)
        assert cache.rows(ns).tolist() == list(range(512))
        bound = ns * (params.alpha_s + params.w)
        for r, n in enumerate(ns.tolist()):
            table = jump_rates(params, n)
            row = cache.cum[cache.indptr[r]:cache.indptr[r + 1]]
            np.testing.assert_array_equal(
                row, (r + table.cum_rates / table.total)[:row.size])
            assert cache.total[r] == table.total
            assert cache.k_max[r] == table.k_max
            assert table.branch_tail <= bcre.TAIL_REL * table.total
            branch = table.branch_rates.sum() + table.branch_tail
            assert branch <= bound[r] * (1 + 1e-12)

    def test_fixation_windows_never_widen(self, survival_params):
        ns = np.arange(1, 1001)
        cache = RateCache(survival_params)
        rows = cache.rows(ns)
        window, _ = bcre._windows(survival_params, ns)
        np.testing.assert_array_equal(cache.k_max[rows], window)

    def test_heavy_tail_widens_until_the_check_holds(self):
        # y = 0.99: the summed excess is far more skewed than its moments
        # say, so the first window leaves too much rate in the tail
        p = params_with(lambda_s=FiniteMeasure.point_mass(0.99, 1.0))
        window, _ = bcre._windows(p, np.array([1]))
        table = jump_rates(p, 1)
        assert table.k_max > window[0]
        assert table.branch_tail <= bcre.TAIL_REL * table.total


class TestTailJump:
    """The lumped tail, drawn alone, against its exact conditional law."""

    @pytest.mark.parametrize("atoms", [[(0.5, 1.0)], [(0.3, 1.0), (0.7, 0.5)]],
                             ids=["one-atom", "two-atoms"])
    def test_conditional_law(self, atoms):
        p = params_with(lambda_s=FiniteMeasure.atomic(atoms))
        n, k_max, M = 3, 4, 2000
        gen = rng(700)
        draws = np.array([bcre._sample_tail_jump(p, n, k_max, gen)
                          for _ in range(M)]) - n
        assert draws.min() > k_max
        # P(excess = k | excess > k_max), mixed over the environment atoms
        ks = np.arange(k_max + 1, 4000)
        law = sum(wgt * nbinom_pmf(ks, n, 1.0 - y)
                  for y, wgt in zip(p.mu.locations, p.mu.weights))
        law /= law.sum()
        top = k_max + 12
        expected = np.append(law[:top - k_max - 1],
                             law[top - k_max - 1:].sum()) * M
        observed = np.bincount(np.minimum(draws, top) - k_max - 1,
                               minlength=top - k_max)
        _, pval = stats.chisquare(observed, expected)
        assert pval > 0.001


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
        # every one of the 1024 chains pays the burn-in: a 5-lineage pure-
        # death chain is still above 1 at t with probability about 2e^{-t}
        est = stationary_estimate(p, 5, 25.0, 200.0, rng(4))
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
        # the between-chain SE covers the error of the pgf
        exact = float(np.dot(oracle, 0.5 ** np.arange(1, oracle.size + 1)))
        assert abs(est.pgf(0.5) - exact) < 4 * est.pgf_se(0.5)

    def test_pgf_normalised(self, survival_params):
        est = stationary_estimate(survival_params, 1, 10.0, 2000.0, rng(6))
        assert est.pgf(1.0) == pytest.approx(1.0)
        grid = est.pgf(np.linspace(0, 1, 11))
        assert (np.diff(grid) >= -1e-12).all()
        se = est.pgf_se(np.array([0.0, 0.5, 1.0]))
        assert se[0] == 0.0 and se[2] == 0.0 and se[1] > 0.0
        assert est.pgf_se(0.5) == se[1]

    def test_chains_do_not_follow_the_replicate_batches(self, monkeypatch,
                                                        survival_params):
        # the chain count is its own constant, so each chain's burn-in and
        # kept time, and so the estimate, stay put when BATCH_SIZE changes
        runs = []
        for batch in (7, 1024, 4096):
            monkeypatch.setattr(rngstreams, "BATCH_SIZE", batch)
            est = stationary_estimate(survival_params, 1, 10.0, 2000.0, rng(6))
            chain = est.chains[0]
            assert np.unique(chain).size == bcre.STATIONARY_CHAINS
            assert chain.max() == bcre.STATIONARY_CHAINS - 1
            runs.append((est.pmf.tobytes(), est.pgf_se(0.5),
                         est.half_sample_tv))
        assert runs[0] == runs[1] == runs[2]


# short stationary window: the half-sample warning is expected here
@pytest.mark.filterwarnings("ignore::wfduality.NonConvergenceWarning")
class TestOccupationTable:
    """Exact bookkeeping of the (row, chain) occupation table."""

    BURN_IN, T = 10.0, 2000.0

    @pytest.fixture
    def est(self, survival_params):
        return stationary_estimate(survival_params, 1, self.BURN_IN, self.T,
                                   rng(6))

    def test_each_chain_keeps_its_share_of_the_time(self, survival_params):
        K = bcre.STATIONARY_CHAINS
        horizon = self.BURN_IN + (self.T - self.BURN_IN) / K
        _, occ = bcre._paths(survival_params, 1, horizon, K, rng(6),
                             RateCache(survival_params), bcre.DEFAULT_CEILING,
                             keep_from=self.BURN_IN)
        assert (occ >= 0).all()
        per_chain = occ.sum(axis=0)
        assert per_chain == pytest.approx(np.full(K, horizon - self.BURN_IN),
                                          rel=1e-9)
        assert per_chain.sum() == pytest.approx(self.T - self.BURN_IN,
                                                rel=1e-9)

    def test_cells_equal_the_sorted_key_pooling(self, survival_params):
        # reference: the sparse bookkeeping the table replaced.  Each round's
        # (state * size + path, held time) pairs, pooled by sorted key with
        # bincount, which sums each key in round order from 0.0
        K, burn_in, horizon = 64, 2.0, 6.0
        seen, waits = [], []

        class Cache(RateCache):
            def rows(self, states):
                seen.append(states.copy())
                return super().rows(states)

        class Draws:
            def __init__(self, gen):
                self.gen = gen

            def __getattr__(self, name):
                return getattr(self.gen, name)

            def standard_exponential(self, size):
                waits.append(self.gen.standard_exponential(size))
                return waits[-1]

        cache = Cache(survival_params)
        _, occ = bcre._paths(survival_params, 1, horizon, K, Draws(rng(9)),
                             cache, bcre.DEFAULT_CEILING, keep_from=burn_in)
        ids, t, keys, times = np.arange(K), np.zeros(K), [], []
        for n, wait in zip(seen, waits):
            t_next = t + wait / cache.total[cache.row_of[n]]
            held = np.fmin(t_next, horizon) - np.maximum(t, burn_in)
            keys.append(n[held > 0] * K + ids[held > 0])
            times.append(held[held > 0])
            ids, t = ids[t_next <= horizon], t_next[t_next <= horizon]
        assert ids.size == 0 and len(seen) > 10
        keys, inverse = np.unique(np.concatenate(keys), return_inverse=True)
        pooled = np.bincount(inverse, weights=np.concatenate(times))
        cells = occ[cache.row_of[keys // K], keys % K]
        assert cells.tobytes() == pooled.tobytes()
        assert np.count_nonzero(occ) == keys.size

    def test_no_table_without_keep_from(self, survival_params):
        _, occ = bcre._paths(survival_params, 1, 1.0, 8, rng(6),
                             RateCache(survival_params), bcre.DEFAULT_CEILING)
        assert occ is None

    def test_each_chain_mass_sums_to_one(self, est):
        chain, _, mass = est.chains
        sums = np.bincount(chain, weights=mass)
        assert sums.size == bcre.STATIONARY_CHAINS
        assert sums == pytest.approx(np.ones(sums.size), rel=1e-12)

    def test_triples_are_unique_sorted_and_positive(self, est):
        chain, state, mass = est.chains
        assert (mass > 0).all() and (state >= 1).all()
        # strictly increasing (state, chain): sorted, with no repeats
        assert ((np.diff(state) > 0)
                | ((np.diff(state) == 0) & (np.diff(chain) > 0))).all()

    def test_pmf_is_the_bincount_of_the_triples(self, est):
        # every chain keeps the same time, so the pooled law is the mean of
        # the chains' laws
        chain, state, mass = est.chains
        law = np.bincount(state, weights=mass) / bcre.STATIONARY_CHAINS
        assert est.pmf.size == law.size
        assert est.pmf == pytest.approx(law, rel=1e-12, abs=1e-15)
        assert est.pmf.sum() == pytest.approx(1.0, rel=1e-12)

    def test_absorbing_state_one_holds_all_the_time(self):
        # pairwise coalescence only: state 1 has total rate 0
        est = stationary_estimate(params_with(sigma=1.0), 1, 5.0, 100.0,
                                  rng(8))
        chain, state, mass = est.chains
        assert est.pmf.tolist() == [0.0, 1.0]
        assert chain.tolist() == list(range(bcre.STATIONARY_CHAINS))
        assert (state == 1).all() and (mass == 1.0).all()
        assert est.half_sample_tv == 0.0


class TestConservativeness:
    def test_mean_bounded_by_pure_growth(self, baseline_params):
        # every path stays finite and the mean is dominated by the
        # branching-only growth bound n0 * exp((mass + w) t)
        n0, T = 10, 5.0
        finals = final_states(baseline_params, n0, T, 5000, seed=400)
        bound = n0 * math.exp(
            (baseline_params.alpha_s + baseline_params.w) * T)
        se = finals.std(ddof=1) / np.sqrt(finals.size)
        assert finals.mean() <= bound + 4 * se
