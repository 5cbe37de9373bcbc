import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from wfduality import (
    FiniteMeasure,
    InvalidArgument,
    LimitParams,
    SelectionKernel,
    StateExplosionGuard,
    dual_moment,
    jump_rates,
    stationary_estimate,
)
from wfduality import bcre, rngstreams
from wfduality.bcre import RateCache, final_state, final_states
from wfduality.measures import SumLaw, binom_pmf, nbinom_pmf
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

    def test_start_above_the_ceiling_rejected(self):
        # such a path was never guarded: it built its rate row and reported
        # its start state at T
        p = params_with(sigma=1.0)
        cache = RateCache(p)
        with pytest.raises(InvalidArgument):
            final_state(p, 51, 1e-9, rng(0), cache, ceiling=50)
        assert cache.n_rows == 0
        with pytest.raises(InvalidArgument):
            final_states(p, 51, 1e-9, 10, seed=0, ceiling=50)
        assert (final_states(p, 50, 1e-9, 10, seed=0, ceiling=50) == 50).all()

    def test_negative_horizon_rejected(self):
        p = params_with(sigma=1.0)
        with pytest.raises(InvalidArgument):
            final_states(p, 2, -1.0, 5, seed=1)
        with pytest.raises(InvalidArgument):
            final_state(p, 2, -1e-9, rng(0), RateCache(p))

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

    @pytest.mark.parametrize("x, n0, t, M, seed", [
        (1.5, 3, 0.0, 10, 1), (0.5, -1, 0.0, 10, 1), (0.5, 0, 0.0, 10, 1),
        (0.5, 3, 0.0, 0, 1), (0.5, 3, 0.0, 10, -1), (0.5, 3, -1.0, 10, 1)],
        ids=["x", "negative-n0", "zero-n0", "M", "seed", "negative-t"])
    def test_bad_arguments_rejected_at_time_zero(self, baseline_params, x,
                                                 n0, t, M, seed):
        with pytest.raises(InvalidArgument):
            dual_moment(baseline_params, x, n0, t, M, seed)

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
            # every kept entry lies strictly above the one before it
            assert row[-1] == r + 1.0 and row[0] > r
            assert (np.diff(row) > 0).all()
            table = jump_rates(baseline_params, n)
            assert cache.total[r] == table.total
            assert cache.k_max[r] == table.k_max
            # the kept categories carry all of the rate a draw can reach
            _, kept = reachable(table, r)
            assert kept.size == row.size
            assert table.cum_rates[kept[-1]] / table.total == pytest.approx(
                1.0, abs=1e-12)

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


def full_row(table, r):
    """Row r of the full layout, r + cum_rates/total through its first
    entry that rounds to r + 1, as float draws see it; a state without
    events has the one entry r + 1, never drawn from."""
    if table.total == 0:
        return np.array([r + 1.0])
    v = r + table.cum_rates / table.total
    return v[:int(np.searchsorted(v, r + 1.0)) + 1]


def reachable(table, r):
    """The entries of ``full_row`` that lie strictly above the one before
    them (r before the first), and their categories."""
    v = full_row(table, r)
    kept = np.flatnonzero(v > np.concatenate(([r], v[:-1])))
    return v[kept], kept


def category_rule(n, k_max, j):
    """State that category j of the row of n jumps to: n+1+j for the
    branch j, 0 for the lumped tail, n-k for the merger of k+1 lineages."""
    j = np.asarray(j)
    rule = np.where(j < k_max, n + 1 + j, n + k_max - j)
    rule[j == k_max] = 0
    return rule


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
            np.testing.assert_array_equal(row, reachable(table, r)[0])
            assert cache.total[r] == table.total
            assert cache.k_max[r] == table.k_max
            assert table.branch_tail <= 1e-9 * table.total
            branch = table.branch_rates.sum() + table.branch_tail
            assert branch <= bound[r] * (1 + 1e-12)

    @pytest.mark.parametrize("kernel", [SelectionKernel.geometric(),
                                        SelectionKernel.binary(),
                                        table_kernel()],
                             ids=["geometric", "binary", "table"])
    @pytest.mark.parametrize("which", ["baseline_params", "survival_params"])
    def test_targets_follow_the_category_rule(self, kernel, which, request):
        # to[entry] is the state the entry's category jumps to: n+1+j for
        # the branch j, 0 for the lumped tail, n-k for the merger k
        params = with_kernel(request.getfixturevalue(which), kernel)
        ns = np.arange(1, 513)
        cache = RateCache(params)
        rows = cache.rows(ns)
        kept = []
        for r, n in enumerate(ns.tolist()):
            table = jump_rates(params, n)
            lo, hi = cache.indptr[r], cache.indptr[r + 1]
            assert cache.last[r] == hi - 1 and cache.k_max[r] == table.k_max
            kept.append(reachable(table, r)[1])
            np.testing.assert_array_equal(
                cache.to[lo:hi], category_rule(n, table.k_max, kept[-1]))
        # a pick reads the state of the kept category at its clipped
        # position in the row, also where r + U rounds up to r + 1 (U just
        # below 1)
        gen = rng(12)
        at = gen.integers(0, ns.size, 50_000)
        u = np.concatenate([gen.random(at.size - 2000), np.zeros(1000),
                            np.full(1000, np.nextafter(1.0, 0.0))])
        row = rows[at]
        pos = np.searchsorted(cache.cum[:cache.indptr[cache.n_rows]],
                              row + u, side="right")
        lo, hi = cache.indptr[row], cache.indptr[row + 1]
        j = np.concatenate(kept)[np.clip(pos, lo, hi - 1)]
        old = category_rule(ns[at], cache.k_max[row], j)
        new = cache.to[np.minimum(pos, cache.last[row])]
        np.testing.assert_array_equal(new, old)

    @pytest.mark.parametrize("kernel", [SelectionKernel.geometric(),
                                        SelectionKernel.binary(),
                                        table_kernel()],
                             ids=["geometric", "binary", "table"])
    @pytest.mark.parametrize("which", ["baseline_params", "survival_params"])
    def test_kept_entries_are_the_positive_widths(self, kernel, which,
                                                  request):
        # oracle, one category at a time: a row keeps the entries of the
        # full jump_rates row r + cum/total of positive width, up to its
        # first entry that rounds to r + 1, with each kept category's state
        params = with_kernel(request.getfixturevalue(which), kernel)
        ns = np.r_[1:129, 300, 1000]
        cache = RateCache(params)
        cache.rows(ns)
        for r, n in enumerate(ns.tolist()):
            table = jump_rates(params, n)
            values, states, before = [], [], float(r)
            for j, c in enumerate(table.cum_rates.tolist()):
                v = r + c / table.total
                if v > before:
                    values.append(v)
                    states.append(n + 1 + j if j < table.k_max
                                  else 0 if j == table.k_max
                                  else n + table.k_max - j)
                    before = v
                if v == r + 1.0:
                    break
            lo, hi = cache.indptr[r], cache.indptr[r + 1]
            assert cache.cum[lo:hi].tolist() == values
            assert cache.to[lo:hi].tolist() == states

    @pytest.mark.parametrize("kernel", [SelectionKernel.geometric(),
                                        SelectionKernel.binary(),
                                        table_kernel()],
                             ids=["geometric", "binary", "table"])
    @pytest.mark.parametrize("which", ["baseline_params", "survival_params"])
    def test_picks_equal_picks_in_the_full_rows(self, kernel, which,
                                                request):
        # the full rows, with a target per category, laid end to end as
        # the cache lays its kept entries; the same search and clamp in
        # both reads the same next state, at U = 0 and U = 1 - 2^-53 too
        params = with_kernel(request.getfixturevalue(which), kernel)
        ns = np.arange(1, 513)
        cache = RateCache(params)
        cache.rows(ns)
        rows, to = [], []
        for r, n in enumerate(ns.tolist()):
            table = jump_rates(params, n)
            rows.append(full_row(table, r))
            to.append(category_rule(n, table.k_max, np.arange(rows[-1].size)))
        last = np.cumsum([row.size for row in rows]) - 1
        full, to = np.concatenate(rows), np.concatenate(to)
        gen = rng(13)
        row = gen.integers(0, ns.size, 50_000)
        u = np.concatenate([gen.random(row.size - 2000), np.zeros(1000),
                            np.full(1000, 1.0 - 2.0**-53)])
        keys = row + u
        pos = np.searchsorted(full, keys, side="right")
        expected = to[np.minimum(pos, last[row])]
        pos = np.searchsorted(cache.cum[:cache.indptr[cache.n_rows]], keys,
                              side="right")
        got = cache.to[np.minimum(pos, cache.last[row])]
        np.testing.assert_array_equal(got, expected)

    def test_rows_accept_a_state_far_above_every_row(self, baseline_params):
        # row_of is read with a clipped take: a state past its end reads
        # its last entry, which stays -1, and is built like any new state
        cache = RateCache(baseline_params)
        cache.rows(np.arange(1, 11))
        assert cache.row_of.size < 5000
        rows = cache.rows(np.array([3, 5000, 3, 5000]))
        assert rows.tolist() == [2, 10, 2, 10]
        assert cache.row_of[-1] == -1 and cache.row_of.size > 5001
        assert cache.get(5000) == 10 and cache.n_rows == 11
        table = jump_rates(baseline_params, 5000)
        assert cache.total[10] == table.total
        row, kept = reachable(table, 10)
        lo, hi = cache.indptr[10], cache.indptr[11]
        np.testing.assert_array_equal(cache.cum[lo:hi], row)
        assert cache.to[lo] == 5001 and kept[0] == 0  # n -> n+1 first

    def test_fixation_windows_never_widen(self, survival_params):
        # the windows from the moments alone leave at most 1e-9 of each
        # row's rate to the lumped tail on the fixation parameters
        for n in range(1, 1001):
            table = jump_rates(survival_params, n)
            assert table.branch_tail <= 1e-9 * table.total

    def test_heavy_tail_is_kept_as_the_lumped_rate(self):
        # y = 0.99: the summed excess is far more skewed than its moments
        # say, so the window leaves rate beyond it; the row keeps that rate
        # as its lumped tail, the negative binomial mass past k_max up to
        # the rounding of the row's total rate
        p = params_with(lambda_s=FiniteMeasure.point_mass(0.99, 1.0))
        table = jump_rates(p, 1)
        window = SumLaw(p.kernel, p.mu.locations, p.mu.weights).windows(
            np.array([1]))
        assert table.k_max == window[0]
        ks = np.arange(table.k_max + 1, 20 * table.k_max)
        exact = p.mu.weights[0] * nbinom_pmf(ks, 1, 0.01).sum()
        assert table.branch_tail > 1e-9 * table.total
        assert abs(table.branch_tail - exact) <= 1e-12 * table.total


def table_sum_law(kernel, y, n, size):
    """Law of the summed excess of n table-kernel draws at y, k < size, by
    n plain convolutions."""
    single = np.zeros(max(kernel.table_values))
    single[0] = 1.0 - y
    for k, q in zip(kernel.table_values, kernel.table_probs):
        single[k - 1] += y * q
    law = np.ones(1)
    for _ in range(n):
        law = np.convolve(law, single)[:size]
    return np.pad(law, (0, size - law.size))


def reference_row(params, n, k_max):
    """The rates out of n in ``RateTable`` order, from Loader's pmfs (and
    plain convolutions for the table kernel), one atom at a time."""
    ks = np.arange(k_max + 1)
    branch, tail = np.zeros(k_max + 1), 0.0
    for y, wgt in zip(params.mu.locations.tolist(),
                      params.mu.weights.tolist()):
        if params.kernel.variant == "geometric":
            law = nbinom_pmf(ks, n, 1.0 - y)
        elif params.kernel.variant == "binary":
            law = binom_pmf(ks, n, y)
        else:
            law = table_sum_law(params.kernel, y, n, k_max + 1)
        branch += wgt * law
        tail += wgt * max(1.0 - law.sum(), 0.0)
    branch[1] += params.w * n
    coal = np.zeros(n - 1)
    law = params.merger_law
    for y, wgt in zip(law.locations.tolist(), law.weights.tolist()):
        coal += params.c * wgt * binom_pmf(np.arange(2, n + 1), n, y)
    coal[:1] += params.sigma * n * (n - 1) / 2.0
    return np.concatenate([branch[1:], [tail], coal])


def _unit_atoms():
    # atoms in (0, 1], with 1 drawn often
    return st.lists(st.tuples(st.one_of(st.just(1.0), st.floats(0.01, 0.95)),
                              st.floats(0.05, 3.0)),
                    min_size=1, max_size=3).map(FiniteMeasure.atomic)


class TestRowsAgainstLoader:
    """Rows of the log-space recurrence against rows built from Loader's
    pmfs: every entry, the lumped tail included, within 1e-10 of the row's
    total rate."""

    @settings(max_examples=40, deadline=None)
    @given(kernel=st.sampled_from([SelectionKernel.geometric(),
                                   SelectionKernel.binary(), table_kernel()]),
           lambda_s=_unit_atoms(), lambda_c=_unit_atoms(),
           w=st.floats(0.0, 2.0), c=st.floats(0.1, 2.0),
           sigma=st.floats(0.0, 1.0),
           n=st.one_of(st.integers(1, 60), st.integers(1, 5000)))
    def test_rows_match(self, kernel, lambda_s, lambda_c, w, c, sigma, n):
        p = LimitParams(kernel, lambda_s, w=w, lambda_c=lambda_c, c=c,
                        sigma=sigma)
        table = jump_rates(p, n)
        ref = reference_row(p, n, table.k_max)
        got = np.concatenate([table.branch_rates, [table.branch_tail],
                              table.coalesce_rates])
        tol = 1e-10 * ref.sum()
        assert np.abs(got - ref).max() <= tol
        # the same state as row 1 of a cache, between two other states
        cache = RateCache(p)
        assert cache.rows(np.array([n, n + 1, max(n - 1, 1)]))[0] == (
            0 if n == 1 else 1)
        r = int(cache.row_of[n])
        row = cache.cum[cache.indptr[r]:cache.indptr[r + 1]]
        _, kept = reachable(table, r)
        assert kept.size == row.size
        # a kept entry's width is the rate of its category and of the
        # categories too narrow to draw just before it
        rates = np.diff(np.concatenate([[r], row])) * cache.total[r]
        covered = np.add.reduceat(ref[:kept[-1] + 1],
                                  np.concatenate(([0], kept[:-1] + 1)))
        assert abs(cache.total[r] - ref.sum()) <= tol
        assert np.abs(rates - covered).max() <= tol
        assert ref[kept[-1] + 1:].sum() <= tol  # what the cut leaves out

    def test_binary_atom_at_one_is_exact(self, binary):
        # Q(1) = d_2, so n draws exceed n by exactly n
        p = params_with(lambda_s=FiniteMeasure.point_mass(1.0, 0.7),
                        kernel=binary)
        for n in (1, 7, 300):
            table = jump_rates(p, n)
            expected = np.zeros(table.k_max)
            expected[n - 1] = 0.7
            np.testing.assert_array_equal(table.branch_rates, expected)
            assert table.branch_tail == 0.0
        (probs,), tails = SumLaw(binary, [1.0], [1.0]).pmfs([5], [5])
        np.testing.assert_array_equal(probs, [0, 0, 0, 0, 0, 1])
        assert tails[0] == 0.0

    def test_merger_atom_at_one_leaves_only_the_collapse(self):
        p = params_with(lambda_c=FiniteMeasure.point_mass(1.0), c=0.7,
                        w=1e-12)
        for n in (2, 6, 300):
            expected = np.zeros(n - 1)
            expected[-1] = 0.7
            np.testing.assert_array_equal(jump_rates(p, n).coalesce_rates,
                                          expected)


class TestTailJump:
    """The lumped tail, drawn alone, against its exact conditional law."""

    @pytest.mark.parametrize("atoms, kernel", [
        ([(0.5, 1.0)], None), ([(0.3, 1.0), (0.7, 0.5)], None),
        ([(0.5, 1.0)], table_kernel()),
        ([(0.3, 1.0), (0.7, 0.5)], table_kernel())],
        ids=["one-atom", "two-atoms", "table-one-atom", "table-two-atoms"])
    def test_conditional_law(self, atoms, kernel):
        p = params_with(lambda_s=FiniteMeasure.atomic(atoms), kernel=kernel)
        n, k_max, M = 3, 4, 2000
        gen = rng(700)
        draws = np.array([bcre._sample_tail_jump(p, n, k_max, gen)
                          for _ in range(M)]) - n
        assert draws.min() > k_max
        # P(excess = k | excess > k_max), mixed over the environment atoms
        ks = np.arange(k_max + 1, 4000)
        law = sum(wgt * self.excess_law(p.kernel, y, n, ks)
                  for y, wgt in zip(p.mu.locations, p.mu.weights))
        law /= law.sum()
        top = k_max + 12
        expected = np.append(law[:top - k_max - 1],
                             law[top - k_max - 1:].sum()) * M
        observed = np.bincount(np.minimum(draws, top) - k_max - 1,
                               minlength=top - k_max)
        some = expected > 0  # a table kernel's sum is bounded
        assert observed[~some].sum() == 0
        _, pval = stats.chisquare(observed[some], expected[some])
        assert pval > 0.001

    @staticmethod
    def excess_law(kernel, y, n, ks):
        """P(K_1 + ... + K_n - n = k) at ks: the negative binomial for the
        geometric kernel, and for the table kernel every n-tuple of draws
        summed by brute force."""
        if kernel.variant == "geometric":
            return nbinom_pmf(ks, n, 1.0 - y)
        single = {0: 1.0 - y}
        for k, q in zip(kernel.table_values, kernel.table_probs):
            single[k - 1] = single.get(k - 1, 0.0) + y * q
        law = np.zeros(ks.max() + 1)
        for draw in itertools.product(single.items(), repeat=n):
            law[sum(k for k, _ in draw)] += math.prod(q for _, q in draw)
        return law[ks]


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

    def test_time_before_keep_from_adds_nothing(self, survival_params):
        # rounds that end before keep_from skip the table, which still
        # comes back with one zero row per row built
        cache = RateCache(survival_params)
        _, occ = bcre._paths(survival_params, 1, 1.0, 64, rng(3), cache,
                             bcre.DEFAULT_CEILING, keep_from=5.0)
        assert occ.shape == (cache.n_rows, 64) and cache.n_rows > 1
        assert (occ == 0.0).all()

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

    def test_pooling_equals_the_state_ordered_table(self, survival_params,
                                                    est):
        # reference: the table copied into state order, its nonzero cells
        # pooled in (state, chain) order, as the estimate pooled them
        # before it read the row-ordered table by segments
        K = bcre.STATIONARY_CHAINS
        cache = RateCache(survival_params)
        _, occ = bcre._paths(survival_params, 1,
                             self.BURN_IN + (self.T - self.BURN_IN) / K, K,
                             rng(6), cache, bcre.DEFAULT_CEILING,
                             keep_from=self.BURN_IN)
        states = np.flatnonzero(cache.row_of >= 0)
        occ = occ[cache.row_of[states]]
        at, chain = np.nonzero(occ)
        state, times = states[at], occ[at, chain]
        h1, h2 = (np.bincount(state, weights=times * half)
                  for half in (chain < K // 2, chain >= K // 2))
        pmf = h1 + h2
        mass = times / np.bincount(chain, weights=times)[chain]
        np.testing.assert_array_equal(est.pmf, pmf / pmf.sum())
        for got, want in zip(est.chains, (chain, state, mass)):
            np.testing.assert_array_equal(got, want)

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
