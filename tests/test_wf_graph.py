import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from wfduality import (
    EnvSequence,
    FiniteMeasure,
    FiniteModelParams,
    InvalidArgument,
    ModelError,
    SelectionKernel,
    draw_env,
    simulate_ancestry,
    step_ancestry_many,
    step_frequency_many,
)
from wfduality import wf_graph
from wfduality.measures import guided_draw, pgf, pgf_many
from wfduality.params import N_MAX

from conftest import KERNELS, rng
from reference import (EDGE_UNIFORMS, entry_uniforms, guided_pick,
                       searched_pick)

SRC = Path(__file__).resolve().parent.parent / "src"

#: Peak RSS of a run of ``LARGE_PICKS_CFG`` when distinct labels were
#: counted by sorting every pick, before the occupancy table.
SORTED_PICKS_RSS_MB = 87.0

#: Quenched run at N = 10**6 whose backward steps hold 2e5 to 4e5 picks per
#: replicate, far past any occupancy table within its entry budget.
LARGE_PICKS_CFG = {
    "experiment": "duality-quenched", "seed": 3,
    "finite": {"N": 10**6, "kernel": {"variant": "geometric"},
               "env_law": {"atoms": [[0.5, 1.0]]}},
    "env": [0.5, 0.5], "x": 0.5, "n": 10**5, "replicates": 8,
}


def neutral_model(N: int, c_N: float = 0.0, lambda_c=None) -> FiniteModelParams:
    return FiniteModelParams(
        N=N,
        kernel=SelectionKernel.geometric(),
        env_law=FiniteMeasure.point_mass(0.0),
        c_N=c_N,
        lambda_c=lambda_c,
    )


def forward_paths(params: FiniteModelParams, x0: float, env: EnvSequence,
                  size: int, gen: np.random.Generator) -> np.ndarray:
    """Frequencies of ``size`` forward chains, one row per generation."""
    out = np.empty((len(env) + 1, size))
    out[0] = x0
    for g, y in enumerate(env.values):
        out[g + 1] = step_frequency_many(params, out[g], float(y), gen)
    return out


class TestEnvSequence:
    def test_range_enforced(self):
        with pytest.raises(ValueError):
            EnvSequence(np.array([1.5]))
        EnvSequence(np.array([-1.0, 1.0, 0.0]))

    def test_draw_env_uses_law(self):
        law = FiniteMeasure.atomic([(0.0, 0.5), (0.5, 0.5)])
        env = draw_env(law, 5000, rng(0))
        assert set(np.unique(env.values)) == {0.0, 0.5}
        assert len(env) == 5000


class TestStepFrequency:
    def test_boundaries_absorbing(self):
        params = neutral_model(10)
        for y in (0.0, 0.5, 0.9):
            np.testing.assert_array_equal(
                step_frequency_many(params, np.array([0.0, 1.0]), y, rng(1)),
                [0.0, 1.0])

    def test_two_individual_selection_law(self):
        # N=2, geometric y=0.5, x=0.5: next count ~ Binomial(2, 1/3)
        params = neutral_model(2)
        draws = step_frequency_many(params, np.full(100000, 0.5), 0.5, rng(2))
        counts = np.bincount((draws * 2).astype(int), minlength=3)
        expected = np.array([4 / 9, 4 / 9, 1 / 9]) * draws.size
        _, p = stats.chisquare(counts, expected)
        assert p > 0.001

    def test_matches_conditional_binomial(self):
        # without mergers the next count is exactly Binomial(N, pgf_y(x))
        params = neutral_model(10)
        x, y = 0.5, 0.3
        draws = step_frequency_many(params, np.full(100000, x), y, rng(3))
        counts = np.bincount((draws * 10 + 0.5).astype(int), minlength=11)
        expected = stats.binom.pmf(np.arange(11), 10, pgf(params.kernel, y, x))
        _, p = stats.chisquare(counts, expected * draws.size)
        assert p > 0.001

    def test_full_merger_fixates(self):
        # merger strength 1: every child follows the central individual
        params = neutral_model(20, c_N=1.0,
                               lambda_c=FiniteMeasure.point_mass(1.0))
        draws = step_frequency_many(params, np.full(20000, 0.3), 0.0, rng(4))
        assert set(np.unique(draws)) == {0.0, 1.0}
        assert (draws == 1.0).mean() == pytest.approx(0.3, abs=0.01)

    @pytest.mark.parametrize("x", [1.5, math.nan, -0.1])
    def test_bad_frequency_is_a_package_error(self, x):
        with pytest.raises(InvalidArgument):
            step_frequency_many(neutral_model(10), np.array([0.5, x]), 0.0,
                                rng(5))


class TestBinomialRows:
    """The neutral forward step's inversion table of Binomial(N, c/N)."""

    @pytest.mark.parametrize("N", [2, 10, 100, 255])
    @pytest.mark.parametrize("where", ["one", "third", "last"])
    def test_lattice_steps_follow_the_binomial_law(self, N, where):
        c = {"one": 1, "third": max(N // 3, 1), "last": N - 1}[where]
        M = 200_000
        # neutral steps at count c read row c of the table
        draws = step_frequency_many(neutral_model(N), np.full(M, c / N), 0.0,
                                    rng(N * 1000 + c))
        k = np.rint(draws * N).astype(np.int64)
        # cells of expected count below 5 join the nearest kept cell
        expected = stats.binom.pmf(np.arange(N + 1), N, c / N) * M
        big = np.flatnonzero(expected >= 5)
        lo, hi = big[0], big[-1]
        observed = np.bincount(np.clip(k, lo, hi) - lo, minlength=hi - lo + 1)
        want = expected[lo:hi + 1].copy()
        want[0] = stats.binom.cdf(lo, N, c / N) * M
        want[-1] = stats.binom.sf(hi - 1, N, c / N) * M
        _, p = stats.chisquare(observed, want * M / want.sum())
        assert p > 0.001

    @pytest.mark.parametrize("N", [2, 10, 100, 255])
    def test_guided_index_is_the_searched_index(self, N):
        cum, indptr, first, guide, gptr, buckets = wf_graph.binomial_rows(N)
        last = indptr[1:] - 1
        # a draw at every entry but the rows' last, and at both edges and
        # 16 random uniforms in every row
        rows, u = entry_uniforms(cum, np.diff(indptr))
        more = np.repeat(np.arange(N + 1), len(EDGE_UNIFORMS) + 16)
        rand = rng(N).random(more.size)
        for j, edge in enumerate(EDGE_UNIFORMS):
            rand[j::len(EDGE_UNIFORMS) + 16] = edge
        rows, u = np.concatenate((rows, more)), np.concatenate((u, rand))
        want = searched_pick(cum, last, rows, rows + u)
        np.testing.assert_array_equal(
            guided_pick(cum, last, guide, gptr, buckets, rows, u, rows + u),
            want)
        np.testing.assert_array_equal(
            guided_draw(cum, indptr, guide, gptr, buckets, rows, u), want)
        # and a step's interior lattice counts are those of the search at
        # the uniforms it reads
        c = rows[(rows > 0) & (rows < N)]
        counts = step_frequency_many(neutral_model(N), c / N, 0.0, rng(7))
        u = rng(7).random(c.size)
        np.testing.assert_array_equal(
            np.rint(counts * N),
            first[c] + searched_pick(cum, last, c, c + u) - indptr[c])

    @pytest.mark.parametrize("N", [1, 2, 10, 100, 255])
    def test_rows_are_sorted_and_read_only(self, N):
        cum, indptr, first, guide, gptr, buckets = wf_graph.binomial_rows(N)
        lens = np.diff(indptr)
        assert (np.diff(cum) >= 0).all() and (lens >= 1).all()
        assert indptr[-1] == cum.size and lens.size == N + 1
        c = np.arange(N + 1)
        # row c lies in (c, c + 1] and ends at c + 1
        assert (cum[indptr[:-1]] > c).all()
        np.testing.assert_array_equal(cum[indptr[1:] - 1], c + 1.0)
        assert first[0] == 0 and first[N] == N and lens[0] == lens[N] == 1
        assert (first + lens <= N + 1).all()
        assert (buckets < 2 * lens).all()
        assert guide.size == gptr[-1] < 2 * cum.size
        for arr in (cum, indptr, first, guide, gptr, buckets):
            with pytest.raises(ValueError):
                arr[0] = 0

    @pytest.mark.parametrize("N,budget", [(256, wf_graph.OCCUPANCY_ENTRIES),
                                          (10, 16)])
    def test_past_the_budget_steps_are_numpy_binomials(self, N, budget,
                                                       monkeypatch):
        # an (N+1)^2 grid past the entry budget builds no table, and every
        # count is numpy's binomial draw
        monkeypatch.setattr(wf_graph, "OCCUPANCY_ENTRIES", budget)
        assert wf_graph.binomial_rows(N, budget) is None
        x = np.arange(N + 1) / N
        counts = step_frequency_many(neutral_model(N), x, 0.0, rng(8))
        np.testing.assert_array_equal(counts,
                                      rng(8).binomial(N, x) / N)

    def test_off_the_lattice_steps_are_numpy_binomials(self):
        # probabilities 0, 1 and off the lattice draw as numpy's binomial
        # alone, and leave the generator where it leaves it
        N, params = 100, neutral_model(100)
        x = np.resize([0.0, 1.0, 0.5, 0.123, 1e-3, 0.999], 3000)
        gen, ref = rng(9), rng(9)
        for y in (0.5, np.resize([0.3, 0.5, 0.7], x.size)):
            counts = step_frequency_many(params, x, y, gen)
            succ = pgf_many(params.kernel, y, x)
            assert (np.rint(succ * N) / N != succ)[(x > 0) & (x < 1)].all()
            np.testing.assert_array_equal(counts, ref.binomial(N, succ) / N)
            np.testing.assert_equal(gen.bit_generator.state,
                                    ref.bit_generator.state)


class TestSimulateFrequency:
    def test_neutral_martingale(self):
        params = neutral_model(30)
        env = EnvSequence(np.zeros(10))
        finals = forward_paths(params, 0.5, env, 4000, rng(100))[-1]
        se = finals.std(ddof=1) / np.sqrt(finals.size)
        assert abs(finals.mean() - 0.5) < 4 * se

    def test_zero_start_stays_zero(self):
        params = neutral_model(10)
        env = EnvSequence(np.full(20, 0.5))
        assert (forward_paths(params, 0.0, env, 1, rng(5)) == 0.0).all()

    def test_absorption_is_permanent(self):
        params = neutral_model(5)
        env = EnvSequence(np.full(60, 0.3))
        paths = forward_paths(params, 0.4, env, 50, rng(200))
        for vals in paths.T:
            hits = np.where((vals == 0.0) | (vals == 1.0))[0]
            if hits.size:
                first = hits[0]
                assert (vals[first:] == vals[first]).all()

    def test_constant_selection_decreases_mean(self):
        # constant environment pressure drives the weak-allele mean down
        params = neutral_model(100)
        env = EnvSequence(np.full(10, 0.2))
        finals = forward_paths(params, 0.5, env, 2000, rng(300))[-1]
        se = finals.std(ddof=1) / np.sqrt(finals.size)
        assert finals.mean() < 0.5 - 4 * se


class TestStepAncestry:
    def test_single_neutral_lineage(self):
        params = neutral_model(10)
        n, sat = step_ancestry_many(params, np.ones(20, dtype=int), 0.0,
                                    rng(400))
        assert (n == 1).all() and not sat.any()

    def test_birthday_collision(self):
        params = neutral_model(10)
        hits = step_ancestry_many(params, np.full(20000, 2), 0.0,
                                  rng(500))[0] == 1
        assert hits.mean() == pytest.approx(0.1, abs=0.01)

    def test_binary_doubling_distinct_count(self):
        N = 100
        params = FiniteModelParams(
            N=N, kernel=SelectionKernel.binary(),
            env_law=FiniteMeasure.point_mass(0.0),
        )
        # y=1 doubles both lineages: 4 uniform picks
        all4 = step_ancestry_many(params, np.full(20000, 2), 1.0,
                                  rng(600))[0] == 4
        expected = (1 - 1 / N) * (1 - 2 / N) * (1 - 3 / N)
        se = np.sqrt(expected * (1 - expected) / all4.size)
        assert abs(all4.mean() - expected) < 4 * se

    def test_full_merger_collapses(self):
        params = neutral_model(20, c_N=1.0,
                               lambda_c=FiniteMeasure.point_mass(1.0))
        n, _ = step_ancestry_many(params, np.full(20, 10), 0.0, rng(700))
        assert (n == 1).all()


class TestSimulateAncestry:
    def test_single_lineage_constant(self):
        params = neutral_model(10)
        env = EnvSequence(np.zeros(10))
        path = simulate_ancestry(params, 1, env, rng(6))
        assert (path.values == 1).all()

    def test_pure_coalescence_nonincreasing(self):
        params = neutral_model(10)
        env = EnvSequence(np.zeros(80))
        path = simulate_ancestry(params, 10, env, rng(7))
        assert (np.diff(path.values) <= 0).all()
        assert path.values[-1] == 1

    def test_branching_observed(self):
        params = neutral_model(50)
        env = EnvSequence(np.full(1, 0.5))
        grew = sum(
            simulate_ancestry(params, 2, env, rng(800 + i)).values[-1] > 2
            for i in range(10000)
        )
        assert grew > 0

    def test_bounds_and_sample_size_check(self):
        params = neutral_model(8)
        env = EnvSequence(np.full(30, 0.7))
        for i in range(30):
            path = simulate_ancestry(params, 4, env, rng(900 + i))
            assert path.values.min() >= 1
            assert path.values.max() <= 8
        with pytest.raises(ValueError):
            simulate_ancestry(params, 9, env, rng(8))

    def test_saturation_counter(self):
        # geometric y=1 draws an infinite parent count: saturates at N
        params = neutral_model(10)
        env = EnvSequence(np.array([1.0]))
        path = simulate_ancestry(params, 2, env, rng(9))
        assert path.values[-1] == 10
        assert path.saturations == 1


def occupancy_pmf(m: int, N: int) -> np.ndarray:
    """Law of the distinct labels among m uniform picks from N, by the
    recursion P_{m+1}(d) = P_m(d) d/N + P_m(d-1) (N-d+1)/N."""
    p = np.zeros(N + 1)
    p[0] = 1.0
    d = np.arange(N + 1)
    for _ in range(m):
        nxt = p * d / N
        nxt[1:] += p[:-1] * (N - d[1:] + 1) / N
        p = nxt
    return p


def enumerated_step_pmf(params: FiniteModelParams, n: int, y: float):
    """Law of one backward step from n lineages, binary kernel, by full
    enumeration of parent counts, merger event, pick channels and labels."""
    N = params.N
    law = params.merger_strength_law
    mergers = [(1.0 - params.c_N, 0.0)] + [
        (params.c_N * float(w), float(v))
        for v, w in zip(law.locations, law.weights)]
    pmf = np.zeros(N + 1)
    for ks in itertools.product((1, 2), repeat=n):
        p_k = math.prod(y if k == 2 else 1.0 - y for k in ks)
        total = sum(ks)
        for p_m, v in mergers:
            for chans in itertools.product((0, 1), repeat=total):
                p_c = math.prod(v if ch else 1.0 - v for ch in chans)
                if p_c == 0.0:
                    continue
                uniform = total - sum(chans)
                for central in range(N):
                    for labs in itertools.product(range(N), repeat=uniform):
                        labels = set(labs)
                        if sum(chans):
                            labels.add(central)
                        pmf[len(labels)] += (p_k * p_m * p_c
                                             / N ** (uniform + 1))
    return pmf


class TestStepAncestryMany:
    @pytest.mark.parametrize("n", [2, 3, 6, 10])
    def test_neutral_occupancy_law(self, n):
        # y = 0 and no merger: each lineage picks one uniform parent label
        N, M = 10, 40000
        params = neutral_model(N)
        counts, sat = step_ancestry_many(params, np.full(M, n), 0.0, rng(n))
        assert not sat.any()
        expected = occupancy_pmf(n, N) * M
        support = expected > 0
        observed = np.bincount(counts, minlength=N + 1)
        assert observed[~support].sum() == 0
        _, p = stats.chisquare(observed[support], expected[support])
        assert p > 0.001

    def test_rows_are_independent_segments(self):
        # mixed lineage counts in one batch: each row follows its own law
        N = 10
        n = np.resize(np.arange(1, N + 1), 50000)
        counts, _ = step_ancestry_many(neutral_model(N), n, 0.0, rng(11))
        for m in (2, 5, 9):
            got = counts[n == m]
            expected = occupancy_pmf(m, N) * got.size
            support = expected > 0
            observed = np.bincount(got, minlength=N + 1)[support]
            _, p = stats.chisquare(observed, expected[support])
            assert p > 0.001

    @pytest.mark.parametrize("N,n", [(2, 1), (2, 2), (3, 2)])
    def test_mergers_match_enumeration(self, N, n):
        params = FiniteModelParams(
            N=N, kernel=SelectionKernel.binary(),
            env_law=FiniteMeasure.point_mass(0.0), c_N=0.6,
            lambda_c=FiniteMeasure.atomic([(0.3, 1.0), (0.8, 1.0)]))
        y, M = 0.4, 60000
        exact = enumerated_step_pmf(params, n, y)
        assert exact.sum() == pytest.approx(1.0, abs=1e-12)
        counts, _ = step_ancestry_many(params, np.full(M, n), y, rng(20 + N))
        support = exact > 0
        observed = np.bincount(counts, minlength=N + 1)
        assert observed[~support].sum() == 0
        _, p = stats.chisquare(observed[support], exact[support] * M)
        assert p > 0.001

    def test_large_population_needs_no_per_label_memory(self):
        # distinct labels are counted from the picks alone, so N = 10**9
        # costs no more than N = 10; collisions there are vanishingly rare
        N, M, n = 10**9, 2048, 7
        counts, sat = step_ancestry_many(neutral_model(N), np.full(M, n),
                                         0.0, rng(15))
        assert not sat.any()
        assert (counts == n).all()

    def test_cost_follows_replicates_not_picks(self):
        # at y = 0 with no mergers a step draws one uniform per replicate,
        # however many lineages each replicate holds
        params = FiniteModelParams(
            N=100, kernel=SelectionKernel.binary(),
            env_law=FiniteMeasure.point_mass(0.0))
        states = []
        for lineages in (1, 50):
            gen = rng(17)
            step_ancestry_many(params, np.full(300, lineages), 0.0, gen)
            states.append(gen.bit_generator.state)
        np.testing.assert_equal(states[0], states[1])

    def test_mixed_environment_matches_enumeration(self):
        # replicates at y = 0 skip the kernel draws; each half of a batch
        # that mixes y = 0 and y = 0.4 follows its own exact step law
        params = FiniteModelParams(
            N=3, kernel=SelectionKernel.binary(),
            env_law=FiniteMeasure.point_mass(0.0), c_N=0.6,
            lambda_c=FiniteMeasure.atomic([(0.3, 1.0), (0.8, 1.0)]))
        n, M = 2, 60000
        y = np.resize([0.0, 0.4], 2 * M)
        counts, _ = step_ancestry_many(params, np.full(2 * M, n), y, rng(18))
        for value in (0.0, 0.4):
            exact = enumerated_step_pmf(params, n, value)
            observed = np.bincount(counts[y == value], minlength=4)
            support = exact > 0
            assert observed[~support].sum() == 0
            _, p = stats.chisquare(observed[support], exact[support] * M)
            assert p > 0.001

    def test_population_bound_keeps_the_cap_in_int64(self):
        cap = wf_graph.K_CAP_FACTOR
        assert N_MAX * cap <= np.iinfo(np.int64).max < (N_MAX + 1) * cap
        kernel, env = SelectionKernel.geometric(), FiniteMeasure.point_mass(0.0)
        FiniteModelParams(N=N_MAX, kernel=kernel, env_law=env)
        with pytest.raises(ModelError):
            FiniteModelParams(N=N_MAX + 1, kernel=kernel, env_law=env)

    def test_per_replicate_environment(self):
        # geometric y = 1 saturates its replicate; y = 0 keeps one lineage
        params = neutral_model(10)
        y = np.array([0.0, 1.0, 0.0, 1.0])
        counts, sat = step_ancestry_many(params, np.ones(4, int), y, rng(12))
        assert counts.tolist() == [1, 10, 1, 10]
        assert sat.tolist() == [False, True, False, True]

    def test_cap_is_inclusive(self):
        # a lineage drawing exactly K_CAP_FACTOR * N parents saturates;
        # one fewer does not
        N = 2
        cap = wf_graph.K_CAP_FACTOR * N
        for k, expect in ((cap, True), (cap - 1, False)):
            params = FiniteModelParams(
                N=N, kernel=SelectionKernel.table({k: 1.0}),
                env_law=FiniteMeasure.point_mass(0.0))
            _, sat = step_ancestry_many(params, np.ones(50, int), 1.0, rng(k))
            assert (sat == expect).all()

    def test_sample_size_error_is_package_error(self):
        params = neutral_model(8)
        for n0 in (0, 9):
            with pytest.raises(InvalidArgument):
                simulate_ancestry(params, n0, EnvSequence(np.zeros(3)),
                                  rng(13))

    def test_batched_env_gives_one_row_per_replicate(self):
        params = neutral_model(10)
        env = EnvSequence(np.zeros((5, 4)))
        path = simulate_ancestry(params, 3, env, rng(14))
        assert len(env) == 4
        assert path.values.shape == (5, 5)
        assert (path.values[:, 0] == 3).all()
        assert (np.diff(path.values, axis=1) <= 0).all()


class TestOccupiedLabels:
    @pytest.mark.parametrize("N,top", [(2, 6), (10, 30), (10**9, 64)])
    @pytest.mark.parametrize("u", [0.0, 1.0 - 2.0**-53])
    def test_edges_of_the_inversion(self, N, top, u):
        # s = 0..3N picks (0..64 at N = 10**9, whose table grows with the
        # largest pick count: 3N picks there would be 3e9 rows)
        s = np.arange(top + 1)
        d = wf_graph._occupied_labels(s, N, np.full(s.size, u), rng(0))
        assert ((d >= np.minimum(s, 1)) & (d <= np.minimum(s, N))).all()

    def test_picks_above_N_follow_the_occupancy_law(self):
        N, s, M = 10, 30, 40000
        gen = rng(16)
        d = wf_graph._occupied_labels(np.full(M, s), N, gen.random(M), gen)
        pmf = occupancy_pmf(s, N)
        support = pmf > 1e-9
        observed = np.bincount(d, minlength=N + 1)
        assert observed[~support].sum() == 0
        _, p = stats.chisquare(observed[support],
                               pmf[support] / pmf[support].sum() * M)
        assert p > 0.001

    def test_past_a_cut_table_picks_follow_the_occupancy_law(self,
                                                             monkeypatch):
        # a tiny entry budget cuts the table at N = 10 well before 30 picks,
        # so these counts come from the coupon-collector gaps
        monkeypatch.setattr(wf_graph, "OCCUPANCY_ENTRIES", 16)
        N, s, M = 10, 30, 40000
        _, _, first = wf_graph.occupancy_rows(N, 16, 16)
        assert first.size < s and first[-1] < N
        gen = rng(18)
        d = wf_graph._occupied_labels(np.full(M, s), N, gen.random(M), gen)
        pmf = occupancy_pmf(s, N)
        support = pmf > 1e-9
        observed = np.bincount(d, minlength=N + 1)
        assert observed[~support].sum() == 0
        _, p = stats.chisquare(observed[support],
                               pmf[support] / pmf[support].sum() * M)
        assert p > 0.001

    def test_a_cut_table_keeps_the_edges(self, monkeypatch):
        # rows in and past a cut table, in one batch, stay in
        # [min(s, 1), min(s, N)], and s picks of N = 1 always find one label
        monkeypatch.setattr(wf_graph, "OCCUPANCY_ENTRIES", 16)
        gen = rng(19)
        for N in (2, 10, 1000):
            s = np.resize(np.arange(3 * N + 1), 5000)
            d = wf_graph._occupied_labels(s, N, gen.random(s.size), gen)
            assert ((d >= np.minimum(s, 1)) & (d <= np.minimum(s, N))).all()

    def test_picks_past_every_row_build_no_table(self, monkeypatch):
        # with N above the budget, a table holds fewer rows than any of
        # these pick counts and never reaches d = N, so it is not built
        monkeypatch.setattr(wf_graph, "OCCUPANCY_ENTRIES", 16)

        def occupancy_rows(*_args):
            raise AssertionError("a table no pick can use")

        monkeypatch.setattr(wf_graph, "occupancy_rows", occupancy_rows)
        N, gen = 1000, rng(20)
        picks = gen.integers(16, 3000, 500)
        d = wf_graph._occupied_labels(picks, N, gen.random(picks.size), gen)
        ref_gen = rng(20)
        ref_gen.integers(16, 3000, 500)
        ref_gen.random(picks.size)
        np.testing.assert_array_equal(
            d, wf_graph._collected_labels(picks, N, ref_gen))

    def test_large_pick_counts_run_in_bounded_memory(self, tmp_path):
        # the occupancy table stops at its entry budget, so a run whose
        # picks reach 4e5 per replicate at N = 10**6 needs memory in
        # proportion to its picks, as the sort of every pick did
        path = tmp_path / "config.json"
        path.write_text(json.dumps(LARGE_PICKS_CFG))
        # VmHWM is the peak of this process image alone: ru_maxrss would
        # keep the peak of the forked test process from before the exec
        code = ("from wfduality.cli import main\n"
                "try:\n"
                f"    main(['run', {str(path)!r}, '--out', "
                f"{str(tmp_path / 'o')!r}])\n"
                "except SystemExit as exc:\n"
                "    status = open('/proc/self/status').read()\n"
                "    print(exc.code, status.split('VmHWM:')[1].split()[0])")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC), os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run(
            ["/bin/sh", "-c", 'ulimit -v 3000000 && exec "$0" -c "$1"',
             sys.executable, code], env=env, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        code, rss_kb = out.stdout.split()[-2:]
        assert code == "0"
        assert int(rss_kb) / 1024 <= 1.1 * SORTED_PICKS_RSS_MB

    def test_rows_are_sorted_and_read_only(self):
        cum, indptr, first = wf_graph.occupancy_rows(100, 4096)
        assert (np.diff(cum) >= 0).all()
        assert indptr[-1] == cum.size and (np.diff(indptr) >= 1).all()
        # the table stops at the first row holding d = N alone
        assert first[-1] == 100 and indptr[-1] - indptr[-2] == 1
        assert first.size < 4096
        with pytest.raises(ValueError):
            cum[0] = 0.0


class TestOccupancyGuide:
    """Guided occupancy draws pick what one search of the rows picks."""

    @pytest.mark.parametrize("N", [2, 10, 1000, 10**6])
    @pytest.mark.parametrize("rows", [64, 1024])
    def test_labels_are_the_searched_labels(self, N, rows):
        # the largest pick count, rows - 1, asks for a table of ``rows`` rows
        cum, indptr, first = wf_graph.occupancy_rows(N, rows)
        picks = np.arange(rows)
        if first[-1] < N:  # a cut table: compare the rows it holds
            picks = picks[picks < first.size]
        u = rng(N + rows).random(picks.size * 18)
        for j, edge in enumerate(EDGE_UNIFORMS):
            u[j::18] = edge
        # and a draw at every entry of the rows but their last
        at, exact = entry_uniforms(cum, np.diff(indptr))
        held = at < first.size if first[-1] == N else at < picks.size
        picks = np.concatenate((np.repeat(picks, 18), at[held], [rows - 1]))
        u = np.concatenate((u, exact[held], [0.5]))
        d = wf_graph._occupied_labels(picks, N, u, rng(0))
        s = np.minimum(picks, first.size - 1)[:-1]
        at = searched_pick(cum, indptr[1:] - 1, s, s + u[:-1])
        np.testing.assert_array_equal(d[:-1], first[s] + at - indptr[s])
        guide, gptr, buckets = wf_graph.occupancy_guide(N, rows)
        np.testing.assert_array_equal(
            guided_pick(cum, indptr[1:] - 1, guide, gptr, buckets, s,
                        u[:-1], s + u[:-1]), at)

    @pytest.mark.parametrize("N", [2, 10, 1000, 10**6])
    def test_guide_holds_fewer_than_twice_the_entries(self, N):
        cum, indptr, _ = wf_graph.occupancy_rows(N, 4096)
        guide, gptr, buckets = wf_graph.occupancy_guide(N, 4096)
        assert (buckets < 2 * np.diff(indptr)).all()
        assert guide.size == gptr[-1] < 2 * cum.size
        with pytest.raises(ValueError):
            guide[0] = 0


@st.composite
def ancestry_batches(draw):
    N = draw(st.integers(2, 30))
    reps = draw(st.integers(1, 12))
    n = draw(st.lists(st.integers(1, N), min_size=reps, max_size=reps))
    y = draw(st.lists(st.sampled_from([0.0, 0.3, 0.9, 1.0]) | st.floats(0, 1),
                      min_size=reps, max_size=reps))
    c_N = draw(st.sampled_from([0.0, 1.0]) | st.floats(0, 1))
    return N, np.array(n), np.array(y), c_N


class TestStepAncestryProperties:
    @settings(max_examples=150, deadline=None)
    @given(kernel=st.sampled_from(KERNELS), batch=ancestry_batches(),
           v=st.floats(0.05, 1.0), seed=st.integers(0, 2**32))
    def test_invariants(self, kernel, batch, v, seed):
        N, n, y, c_N = batch
        params = FiniteModelParams(
            N=N, kernel=kernel, env_law=FiniteMeasure.point_mass(0.0),
            c_N=c_N, lambda_c=FiniteMeasure.point_mass(v))
        counts, sat = step_ancestry_many(params, n, y, rng(seed))
        assert ((counts >= 1) & (counts <= N)).all()
        assert (counts[sat] == N).all()
        neutral = FiniteModelParams(N=N, kernel=kernel,
                                    env_law=FiniteMeasure.point_mass(0.0))
        still, sat0 = step_ancestry_many(neutral, n, 0.0, rng(seed))
        assert not sat0.any()
        assert (still <= n).all()
        assert (still[n == 1] == 1).all()
