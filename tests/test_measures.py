import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from wfduality import (
    DegenerateKernelAtAtom,
    FiniteMeasure,
    InfiniteJumpIntensity,
    ModelError,
    NonFiniteIntegrand,
    SelectionKernel,
    derive_env_measure,
    integrate,
    mean_excess,
    pgf,
)
from wfduality.measures import (GUIDE_BUCKETS, INF_K, SumLaw, excess_moments,
                                guide_table, guided_draw, joined, log_atoms,
                                log_space_pmfs, pgf_many)

from conftest import KERNELS, rng
from reference import (EDGE_UNIFORMS, binom_pmf, entry_uniforms, nbinom_pmf,
                       pgf_geometric, searched_pick)


class TestPgf:
    def test_geometric_closed_form(self, geo):
        assert pgf(geo, 0.5, 0.5) == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_binary(self, binary):
        assert pgf(binary, 0.3, 0.5) == pytest.approx(0.7 * 0.5 + 0.3 * 0.25)

    def test_neutral_environment_is_identity(self, geo, binary):
        for x in (0.0, 0.3, 1.0):
            assert pgf(geo, 0.0, x) == pytest.approx(x)
            assert pgf(binary, 0.0, x) == pytest.approx(x)

    def test_zero_at_origin(self, geo, binary):
        for y in (0.0, 0.4, 0.9):
            assert pgf(geo, y, 0.0) == 0.0
            assert pgf(binary, y, 0.0) == 0.0

    def test_one_at_one_without_infinity_atom(self, geo, binary):
        assert pgf(geo, 0.7, 1.0) == pytest.approx(1.0)
        assert pgf(binary, 1.0, 1.0) == pytest.approx(1.0)

    def test_geometric_infinity_atom(self, geo):
        # y=1 puts all mass at infinity: x^inf is 0 below 1, 1 at 1
        assert pgf(geo, 1.0, 0.99) == 0.0
        assert pgf(geo, 1.0, 1.0) == 1.0

    def test_table_infinity_atom_reduces_value_at_one(self):
        k = SelectionKernel.table({2: 0.5}, inf_mass=0.5)
        assert pgf(k, 1.0, 1.0) == pytest.approx(1.0)
        assert pgf(k, 1.0, 0.9) == pytest.approx(0.5 * 0.81)

    def test_negative_environment_is_geometric(self, binary):
        # negative y encodes a geometric kernel with parameter -y
        geo = SelectionKernel.geometric()
        for x in (0.2, 0.5, 0.9):
            assert pgf(binary, -0.3, x) == pytest.approx(pgf(geo, 0.3, x))

    def test_geometric_matches_truncated_series(self, geo):
        ys = np.linspace(0.01, 0.95, 50)
        xs = np.linspace(0.0, 0.99, 50)
        ks = np.arange(1, 4000)
        for y in ys:
            series_pmf = (1 - y) * y ** (ks - 1)
            for x in xs:
                direct = pgf(geo, y, x)
                series = float((series_pmf * x**ks).sum())
                assert direct == pytest.approx(series, abs=1e-10)

    @settings(max_examples=200, deadline=None)
    @given(
        y=st.floats(0.0, 0.99),
        x1=st.floats(0.0, 1.0),
        x2=st.floats(0.0, 1.0),
    )
    def test_monotone_in_x(self, y, x1, x2):
        geo = SelectionKernel.geometric()
        lo, hi = sorted((x1, x2))
        assert pgf(geo, y, lo) <= pgf(geo, y, hi) + 1e-12

    @settings(max_examples=300, deadline=None)
    @given(kernel=st.sampled_from(KERNELS), y=st.floats(-1.0, 1.0),
           x1=st.floats(0.0, 1.0), x2=st.floats(0.0, 1.0))
    def test_below_diagonal_and_monotone_for_every_kernel(self, kernel, y,
                                                          x1, x2):
        # every child has at least one potential parent, so E[x^K] <= x
        lo, hi = sorted((x1, x2))
        assert pgf(kernel, y, lo) <= lo + 1e-12
        assert pgf(kernel, y, lo) <= pgf(kernel, y, hi) + 1e-12

    @settings(max_examples=300, deadline=None)
    @given(kernel=st.sampled_from(KERNELS),
           ys=st.lists(st.one_of(st.sampled_from([-1.0, 1.0]),
                                 st.floats(-1.0, 1.0)), min_size=1,
                       max_size=8),
           xs=st.lists(st.one_of(st.sampled_from([0.0, 1.0]),
                                 st.floats(0.0, 1.0)), min_size=8,
                       max_size=8))
    def test_geometric_is_the_scalar_formula_bit_for_bit(self, kernel, ys,
                                                         xs):
        # the geometric kernel at either sign of y, and every kernel at
        # y < 0, is x(1 - |y|)/(1 - x|y|) with the same rounding
        ys = np.resize(ys, 8)
        if kernel.variant != "geometric":
            ys = -np.abs(ys)
        got = pgf_many(kernel, ys, np.array(xs))
        want = [pgf_geometric(y, x) for y, x in zip(ys.tolist(), xs)]
        np.testing.assert_array_equal(got.view(np.int64),
                                      np.array(want).view(np.int64))

    def test_convex_in_x(self, geo, binary):
        xs = np.linspace(0, 1, 41)
        for kernel in (geo, binary):
            for y in (0.1, 0.5, 0.9):
                vals = np.array([pgf(kernel, y, x) for x in xs])
                second = np.diff(vals, 2)
                assert (second >= -1e-10).all()


class TestMeanExcess:
    def test_geometric(self, geo):
        assert mean_excess(geo, 0.5) == pytest.approx(1.0)
        assert mean_excess(geo, 0.0) == 0.0
        assert mean_excess(geo, 1.0) == math.inf

    def test_binary(self, binary):
        assert mean_excess(binary, 0.3) == pytest.approx(0.3)

    def test_table(self):
        k = SelectionKernel.table({1: 0.5, 3: 0.5})
        # base mean 2, so excess is y * (2 - 1)
        assert mean_excess(k, 0.4) == pytest.approx(0.4)

    def test_table_infinity(self):
        k = SelectionKernel.table({2: 0.9}, inf_mass=0.1)
        assert mean_excess(k, 0.5) == math.inf
        assert mean_excess(k, 0.0) == 0.0

    @pytest.mark.parametrize("k", KERNELS)
    def test_negative_y_is_weak_geometric(self, k):
        # as in pgf, y = -q encodes a geometric kernel with parameter q
        assert mean_excess(k, -0.5) == 1.0
        assert mean_excess(k, -1.0) == math.inf


class TestMasterCondition:
    def test_reduces_to_total_mass(self):
        # mu has density 1/m against Lambda_s, so integral m dmu = |Lambda_s|
        lam = FiniteMeasure.atomic([(0.3, 0.5), (0.8, 0.25)])
        for kernel in (SelectionKernel.geometric(), SelectionKernel.binary(),
                       SelectionKernel.table({1: 0.5, 3: 0.5})):
            mu = derive_env_measure(kernel, lam)
            assert integrate(mu, lambda y: mean_excess(kernel, y)) == \
                pytest.approx(0.75, rel=1e-14)

    def test_atom_at_zero_rejected(self, binary):
        lam = FiniteMeasure.atomic([(0.0, 1.0), (0.5, 1.0)])
        with pytest.raises(DegenerateKernelAtAtom):
            derive_env_measure(binary, lam)

    def test_degenerate_kernel_rejected(self):
        # base pmf delta_1 means every Q(y) is delta_1: zero mean excess
        k = SelectionKernel.table({1: 1.0})
        with pytest.raises(DegenerateKernelAtAtom):
            derive_env_measure(k, FiniteMeasure.point_mass(0.5, 1.0))


def sum_pmfs(kernel, y, ns, k_maxs):
    """The law of one atom y of weight 1: probs[i, k] = P(sum = n_i + k)."""
    return SumLaw(kernel, [y], [1.0]).pmfs(ns, k_maxs)


class TestSumDistribution:
    # one state per call: probs[0, k] = P(sum = n + k) for k = 0..k_max
    def test_geometric_example(self, geo):
        (probs,), tails = sum_pmfs(geo, 0.5, [2], [2])
        assert probs == pytest.approx([0.25, 0.25, 0.1875])
        assert tails == pytest.approx([0.3125])

    def test_binary_deterministic(self, binary):
        (probs,), tails = sum_pmfs(binary, 1.0, [3], [3])
        assert probs == pytest.approx([0.0, 0.0, 0.0, 1.0])
        assert tails == pytest.approx([0.0], abs=1e-12)

    def test_neutral(self, geo, binary):
        for kernel in (geo, binary):
            (probs,), _ = sum_pmfs(kernel, 0.0, [5], [3])
            assert probs == pytest.approx([1.0, 0.0, 0.0, 0.0])

    def test_geometric_matches_brute_convolution(self, geo):
        k_max = 30
        for y in np.arange(0.1, 0.95, 0.1):
            single = (1 - y) * y ** np.arange(k_max + 1)  # pmf of K-1
            for n in range(1, 11):
                acc = np.ones(1)
                for _ in range(n):
                    acc = np.convolve(acc, single)[: k_max + 1]
                (probs,), _ = sum_pmfs(geo, float(y), [n], [k_max])
                assert np.allclose(probs, acc, atol=1e-12)

    def test_infinity_mass_goes_to_tail(self):
        k = SelectionKernel.table({2: 0.5}, inf_mass=0.5)
        _, tails = sum_pmfs(k, 1.0, [1], [5])
        assert tails[0] >= 0.5

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("y", [0.0, 0.3, 0.8, 1.0])
    def test_batch_rows_equal_one_state_rows(self, kernel, y):
        ns, k_maxs = np.array([7, 1, 30, 2, 7]), np.array([3, 40, 9, 1, 20])
        probs, tails = sum_pmfs(kernel, y, ns, k_maxs)
        for i, (n, k_max) in enumerate(zip(ns.tolist(), k_maxs.tolist())):
            (one_probs,), one_tails = sum_pmfs(kernel, y, [n], [k_max])
            np.testing.assert_array_equal(probs[i, :k_max + 1], one_probs)
            assert (probs[i, k_max + 1:] == 0.0).all()
            assert tails[i] == one_tails[0]


class TestJoinedAtoms:
    @pytest.mark.parametrize("widths", [(40, 31), (31, 40), (1, 2)])
    def test_one_pass_equals_a_pass_per_set(self, widths):
        # the sets of one pass keep their own widths, per-atom arithmetic
        # and summation order, so each set's rows are bit-equal to its own
        # pass; the binomial set has an atom at 1, a point mass at n
        nb = log_atoms(1, np.array([0.2, 0.7]), np.array([0.5, 1.5]))
        binom = log_atoms(-1, np.array([0.4, 1.0, 0.9]),
                          np.array([2.0, 0.3, 1.0]))
        ns = np.array([1, 5, 30, 2])
        both = log_space_pmfs(joined(nb, binom), ns, widths)
        for got, atoms, width in zip(both, (nb, binom), widths):
            (alone,) = log_space_pmfs(atoms, ns, [width])
            assert got.tobytes() == alone.tobytes()
        (empty,) = log_space_pmfs(log_atoms(-1, np.empty(0), np.empty(0)),
                                  ns, [7])
        assert (empty == 0.0).all() and empty.shape == (4, 7)


class TestExcessMoments:
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("y", [0.3, 0.8])
    def test_moments_of_the_finite_part(self, kernel, y):
        # the finite part of one draw's excess, from a long truncated pmf
        (probs,), _ = sum_pmfs(kernel, y, [1], [400])
        ks = np.arange(probs.size)
        mean, var, top = excess_moments(kernel, y)
        assert mean == pytest.approx(probs @ ks)
        assert var == pytest.approx(probs @ ks**2 - mean**2)
        assert top >= ks[probs > 0].max()

    def test_infinite_part_left_out(self, geo):
        assert excess_moments(geo, 1.0) == (0.0, 0.0, 0.0)


class TestPmfs:
    """The log-space pmfs against scipy.stats up to n = 10^4.

    Below 1e-30 the reference itself is off by about 1e-12 relative (against
    50-digit arithmetic), so there only smallness is checked.
    """

    NS = [1, 2, 3, 15, 16, 17, 100, 1000, 10_000]
    PS = [1e-6, 0.01, 0.3, 0.5, 0.7, 0.99, 1 - 1e-6]

    @staticmethod
    def check(got, ref):
        big = ref > 1e-30
        np.testing.assert_allclose(got[big], ref[big], rtol=1e-12, atol=0)
        assert (got[~big] < 1e-29).all()

    @pytest.mark.parametrize("n", NS)
    def test_binomial(self, n):
        ks = np.arange(n + 3)
        for p in self.PS:
            self.check(binom_pmf(ks, n, p), stats.binom.pmf(ks, n, p))

    @pytest.mark.parametrize("n", NS)
    def test_negative_binomial(self, n):
        for y in self.PS[:-1]:  # success probability 1 - y
            k_max = int(3 * n * y / (1 - y)) + 50  # three times the mean
            ks = np.unique(np.r_[np.arange(200), np.linspace(
                0, k_max, 20_000).astype(np.int64)])
            self.check(nbinom_pmf(ks, n, 1.0 - y),
                       stats.nbinom.pmf(ks, n, 1.0 - y))

    def test_degenerate_probabilities(self):
        ks = np.arange(6)
        for n, p, pmf in ((4, 0.0, [1, 0, 0, 0, 0, 0]),
                          (4, 1.0, [0, 0, 0, 0, 1, 0]),
                          (0, 0.3, [1, 0, 0, 0, 0, 0])):
            np.testing.assert_array_equal(binom_pmf(ks, n, p), pmf)

    def test_finite_where_the_coefficient_overflows(self):
        n = 10**6
        pmf = binom_pmf(np.arange(n + 1), n, 0.5)
        assert np.isfinite(pmf).all()
        assert pmf.sum() == pytest.approx(1.0, rel=1e-12)


class TestFiniteMeasure:
    def test_atomic_integrate(self):
        m = FiniteMeasure.atomic([(0.5, 2.0)])
        assert integrate(m, lambda y: y) == pytest.approx(1.0)

    def test_total_mass_via_integrate(self):
        m = FiniteMeasure.atomic([(0.2, 1.0), (0.8, 1.0)])
        assert integrate(m, lambda y: 1.0) == pytest.approx(2.0)

    def test_density_quadrature(self):
        m = FiniteMeasure.from_density(lambda y: 1.0, 1.0, nodes=512)
        assert m.total_mass == pytest.approx(1.0)
        assert integrate(m, lambda y: y * y) == pytest.approx(1 / 3, abs=1e-5)

    def test_nonfinite_integrand_rejected(self):
        m = FiniteMeasure.point_mass(0.5)
        with pytest.raises(NonFiniteIntegrand):
            integrate(m, lambda y: math.inf)

    def test_invalid_weights_rejected(self):
        with pytest.raises(ModelError):
            FiniteMeasure.atomic([(0.5, -1.0)])
        with pytest.raises(ModelError):
            FiniteMeasure.atomic([(1.5, 1.0)])

    def test_sampling_frequencies(self):
        m = FiniteMeasure.atomic([(0.2, 3.0), (0.8, 1.0)])
        draws = m.sample(40000, rng(1))
        frac = (draws == 0.2).mean()
        assert frac == pytest.approx(0.75, abs=0.01)

    def test_repeated_sampling_keeps_the_cumulative_weights(self):
        # the normalised cumsum is computed once; draws stay bit-identical
        m = FiniteMeasure.atomic([(0.1, 0.3), (0.4, 1.7), (0.9, 2.2)])
        cum = np.cumsum(m.weights)
        cum /= cum[-1]
        for seed in (2, 3):
            expected = m.locations[np.searchsorted(cum, rng(seed).random(500))]
            assert (m.sample(500, rng(seed)) == expected).all()


class TestEnvMeasure:
    def test_weights_divided_by_mean_excess(self, geo):
        lam = FiniteMeasure.atomic([(0.5, 1.0), (0.25, 1.0)])
        mu = derive_env_measure(geo, lam)
        lookup = dict(zip(mu.locations, mu.weights))
        assert lookup[0.5] == pytest.approx(1.0)       # m = 1
        assert lookup[0.25] == pytest.approx(3.0)      # m = 1/3

    def test_infinite_excess_points_dropped(self, geo):
        lam = FiniteMeasure.atomic([(0.5, 1.0), (1.0, 1.0)])
        mu = derive_env_measure(geo, lam)
        assert 1.0 not in mu.locations
        assert mu.total_mass == pytest.approx(1.0)


    @settings(max_examples=80, deadline=None)
    @given(kernel=st.sampled_from(KERNELS + [
               SelectionKernel.table({1: 0.5, 3: 0.5}),
               SelectionKernel.table({1: 1.0})]),
           atoms=st.lists(st.tuples(st.sampled_from([0.0, 1.0])
                                    | st.floats(0.0, 1.0),
                                    st.floats(1e-3, 10.0)),
                          min_size=1, max_size=6, unique_by=lambda a: a[0]))
    def test_equals_per_atom_rule(self, kernel, atoms):
        # the weight of atom y is Lambda_s(y) / m(y), bit for bit; an atom
        # with m = inf is dropped, one at 0 or with m = 0 is rejected, and so
        # is one whose weight overflows
        lam = FiniteMeasure.atomic(atoms)
        ms = [mean_excess(kernel, y) for y, _ in atoms]
        if 0.0 in ms:  # also every atom at 0
            with pytest.raises(DegenerateKernelAtAtom):
                derive_env_measure(kernel, lam)
            return
        kept = [(y, w / m) for (y, w), m in zip(atoms, ms) if m != math.inf]
        if any(w == math.inf for _, w in kept):
            with pytest.raises(InfiniteJumpIntensity):
                derive_env_measure(kernel, lam)
            return
        mu = derive_env_measure(kernel, lam)
        assert mu.locations.tolist() == [y for y, _ in kept]
        assert mu.weights.tolist() == [w for _, w in kept]


class TestKernelSampling:
    def test_geometric_infinite_draws_marked(self, geo):
        draws = geo.sample(1.0, 10, rng(2))
        assert (draws == INF_K).all()

    def test_supports(self, geo, binary):
        g = geo.sample(0.5, 1000, rng(3))
        assert g.min() >= 1
        b = binary.sample(0.5, 1000, rng(4))
        assert set(np.unique(b)) <= {1, 2}

    def test_per_draw_environment(self, geo, binary):
        y = np.array([0.0, 1.0, 0.0, 1.0])
        assert geo.sample(y, 4, rng(6)).tolist() == [1, INF_K, 1, INF_K]
        assert binary.sample(y, 4, rng(7)).tolist() == [1, 2, 1, 2]

    @pytest.mark.parametrize("k", [SelectionKernel.geometric(),
                                   SelectionKernel.binary(),
                                   SelectionKernel.table({3: 1.0})])
    def test_negative_y_is_weak_geometric(self, k):
        # y = -0.5 is geometric with parameter 0.5: mean 2, as in pgf
        draws = k.sample(-0.5, 40000, rng(8))
        assert draws.min() >= 1
        assert draws.mean() == pytest.approx(2.0, abs=0.05)

    def test_table_mixture(self):
        k = SelectionKernel.table({3: 1.0})
        draws = k.sample(0.25, 20000, rng(5))
        assert set(np.unique(draws)) == {1, 3}
        assert (draws == 3).mean() == pytest.approx(0.25, abs=0.01)


@st.composite
def flat_rows(draw):
    """Sorted flat inverse-CDF rows: row i holds entries in (r, r + 1],
    r = base + i, ending at r + 1.  Some rows hold one entry, some repeat
    entries, and at a large base many fractions round to r + 1."""
    base = draw(st.sampled_from([0, 1, 2**20, 2**40]) | st.integers(0, 10**6))
    lens = draw(st.lists(st.integers(1, 200), min_size=1, max_size=10))
    gen = rng(draw(st.integers(0, 2**32)))
    rows = []
    for i, n in enumerate(lens):
        r = float(base + i)
        frac = gen.random(n - 1)
        if draw(st.booleans()):  # a coarse grid: repeated entries
            grid = draw(st.sampled_from([2, 16, 1000]))
            frac = np.ceil(frac * grid) / grid
        row = np.sort(r + frac)
        rows.append(np.append(row[(row > r) & (row < r + 1.0)], r + 1.0))
    lens = np.array([row.size for row in rows])
    return base, np.concatenate(rows), lens


class AtBase:
    """A table's per-row array read at the rows' numbers base + i, as
    ``guided_draw`` reads the rows of a table built at a base."""

    def __init__(self, a, base):
        self.a, self.base = a, base

    def __getitem__(self, rows):
        return self.a[rows - self.base]


class TestGuideTable:
    @settings(max_examples=150, deadline=None)
    @given(table=flat_rows(), seed=st.integers(0, 2**32))
    def test_guided_pick_is_the_searched_pick(self, table, seed):
        base, cum, lens = table
        guide, gptr, buckets = guide_table(cum, lens, base)
        indptr = np.concatenate(([0], np.cumsum(lens)))
        last = indptr[1:] - 1
        i = np.repeat(np.arange(lens.size), len(EDGE_UNIFORMS) + 16)
        u = rng(seed).random(i.size)
        u[::len(EDGE_UNIFORMS) + 16] = EDGE_UNIFORMS[0]
        u[1::len(EDGE_UNIFORMS) + 16] = EDGE_UNIFORMS[1]
        i, u = (np.concatenate(pair)
                for pair in zip((i, u), entry_uniforms(cum, lens, base)))
        np.testing.assert_array_equal(
            guided_draw(cum, AtBase(indptr, base), guide, AtBase(gptr, base),
                        AtBase(buckets, base), base + i, u),
            searched_pick(cum, last, i, (base + i) + u))

    @settings(max_examples=50, deadline=None)
    @given(table=flat_rows())
    def test_a_guide_holds_fewer_than_twice_its_entries(self, table):
        base, cum, lens = table
        guide, gptr, buckets = guide_table(cum, lens, base)
        assert (buckets < 2 * lens).all()
        assert (buckets <= GUIDE_BUCKETS).all()
        assert (np.diff(gptr) == buckets).all() and gptr[-1] == guide.size
        assert guide.size < 2 * cum.size
