import math

import numpy as np
import pytest

from wfduality import (
    FiniteMeasure,
    LimitParams,
    ModelError,
    SelectionKernel,
    SigmaNotZero,
    alpha_eff,
    alpha_star,
    alpha_star_mc,
    beta_star,
    beta_star_mc,
    classify,
)
from wfduality.cli import _plain
from wfduality.thresholds import EXTINCTION, INDETERMINATE, SURVIVAL

from conftest import rng


class TestBetaStar:
    def test_point_mass_half(self):
        assert beta_star(FiniteMeasure.point_mass(0.5)) == \
            pytest.approx(4 * math.log(2), abs=1e-10)

    def test_atom_at_one_is_infinite(self):
        assert beta_star(FiniteMeasure.point_mass(1.0)) == math.inf

    def test_small_atoms_approach_limit(self):
        # -log(1-y)/y^2 ~ 1/y + 1/2 as y -> 0
        for y, target in [(0.1, 10.5360516), (0.01, 100.5033585),
                          (0.001, 1000.5003336)]:
            assert beta_star(FiniteMeasure.point_mass(y)) == \
                pytest.approx(target, abs=1e-6)

    def test_density_quadrature_vs_refined(self):
        # beta(2,3)-shaped density: integrand is bounded, quadrature converges
        def shape(y):
            return y * (1 - y) ** 2

        coarse = beta_star(FiniteMeasure.from_density(shape, 1.0, nodes=128))
        fine = beta_star(FiniteMeasure.from_density(shape, 1.0, nodes=4096))
        assert coarse == pytest.approx(fine, rel=1e-3)

    def test_requires_probability_measure(self):
        with pytest.raises(ModelError):
            beta_star(FiniteMeasure.point_mass(0.5, 2.0))

    def test_rejects_atom_at_zero(self):
        m = FiniteMeasure.atomic([(0.0, 0.5), (0.5, 0.5)])
        with pytest.raises(ModelError):
            beta_star(m)

    def test_mc_agreement(self):
        measures = [
            FiniteMeasure.point_mass(0.5),
            FiniteMeasure.point_mass(0.2),
            FiniteMeasure.atomic([(0.3, 0.5), (0.7, 0.5)]),
            FiniteMeasure.atomic([(0.1, 0.25), (0.5, 0.75)]),
            FiniteMeasure.atomic([(0.4, 0.2), (0.6, 0.3), (0.9, 0.5)]),
        ]
        for i, m in enumerate(measures):
            exact = beta_star(m)
            est, se = beta_star_mc(m, 1_000_000, rng(50 + i))
            assert abs(est - exact) < 4 * se + 1e-3 * exact


class TestAlphaStar:
    def test_geometric_half(self, geo):
        # m = 1, so log(2)/1
        assert alpha_star(geo, FiniteMeasure.point_mass(0.5)) == \
            pytest.approx(math.log(2), abs=1e-12)

    def test_binary_half(self, binary):
        # m = 0.5, so log(1.5)/0.5
        assert alpha_star(binary, FiniteMeasure.point_mass(0.5)) == \
            pytest.approx(2 * math.log(1.5), abs=1e-12)

    def test_infinite_mean_excess_gives_zero(self):
        k = SelectionKernel.table({}, inf_mass=1.0)
        assert alpha_star(k, FiniteMeasure.point_mass(0.5)) == 0.0

    def test_mixture_averages(self, geo):
        m = FiniteMeasure.atomic([(0.5, 1.0), (0.25, 1.0)])
        # m(0.25) = 1/3
        target = 0.5 * math.log(2) + 0.5 * math.log(4 / 3) * 3
        assert alpha_star(geo, m) == pytest.approx(target, abs=1e-12)

    def test_stronger_tails_lower_value(self, geo, binary):
        # geometric K dominates binary K, so its alpha_star is smaller
        for y in np.arange(0.1, 0.95, 0.1):
            m = FiniteMeasure.point_mass(float(y))
            assert alpha_star(geo, m) <= alpha_star(binary, m) + 1e-12

    def test_empty_measure_rejected(self, geo, empty_measure):
        with pytest.raises(ModelError):
            alpha_star(geo, empty_measure)

    def test_mc_agreement(self, geo, binary):
        cases = [
            (geo, FiniteMeasure.point_mass(0.5)),
            (geo, FiniteMeasure.atomic([(0.2, 0.3), (0.8, 0.7)])),
            (binary, FiniteMeasure.point_mass(0.5)),
            (binary, FiniteMeasure.atomic([(0.1, 1.0), (0.9, 1.0)])),
            (geo, FiniteMeasure.point_mass(0.9)),
        ]
        for i, (kernel, m) in enumerate(cases):
            exact = alpha_star(kernel, m)
            est, se = alpha_star_mc(kernel, m, 1_000_000, rng(70 + i))
            assert abs(est - exact) < 4 * se + 1e-4


class TestAlphaEff:
    def test_no_selection(self):
        assert alpha_eff(0.0, 1.0, 0.3) == pytest.approx(0.3)

    def test_unit_mass(self):
        assert alpha_eff(1.0, math.log(2), 0.0) == pytest.approx(math.log(2))

    def test_combined(self):
        assert alpha_eff(5.0, math.log(2), 0.1) == \
            pytest.approx(5 * math.log(2) + 0.1, abs=1e-12)

    def test_range_checks(self):
        with pytest.raises(ModelError):
            alpha_eff(-1.0, 0.5, 0.0)
        with pytest.raises(ModelError):
            alpha_eff(1.0, 1.5, 0.0)


class TestClassify:
    def test_survival(self, survival_params):
        report = classify(survival_params)
        assert report.classification == SURVIVAL
        # alpha_eff = log 2 < beta = 4 log 2
        assert report.alpha_eff == pytest.approx(math.log(2))
        assert report.beta_star == pytest.approx(4 * math.log(2))

    def test_extinction(self, extinction_params):
        report = classify(extinction_params)
        assert report.classification == EXTINCTION
        assert report.alpha_eff == pytest.approx(5 * math.log(2))

    def test_star_measure_forces_survival(self, geo):
        p = LimitParams(geo, FiniteMeasure.point_mass(0.5, 100.0), w=5.0,
                        lambda_c=FiniteMeasure.point_mass(1.0), c=1.0,
                        sigma=0.0)
        report = classify(p)
        assert report.classification == SURVIVAL
        assert report.beta_star == math.inf

    def test_sigma_rejected(self, geo, empty_measure):
        p = LimitParams(geo, empty_measure, w=0.0,
                        lambda_c=empty_measure, c=0.0, sigma=1.0)
        with pytest.raises(SigmaNotZero):
            classify(p)

    def test_boundary_is_indeterminate(self, geo):
        # alpha_s = 4 makes alpha_eff = 4 log 2 = beta exactly
        p = LimitParams(geo, FiniteMeasure.point_mass(0.5, 4.0), w=0.0,
                        lambda_c=FiniteMeasure.point_mass(0.5), c=1.0,
                        sigma=0.0)
        report = classify(p)
        assert report.classification == INDETERMINATE
        assert abs(report.margin) < 1e-12

    def test_coalescence_rate_scales_threshold(self, geo):
        base = LimitParams(geo, FiniteMeasure.point_mass(0.5, 1.0), w=0.0,
                           lambda_c=FiniteMeasure.point_mass(0.5), c=1.0,
                           sigma=0.0)
        doubled = LimitParams(geo, FiniteMeasure.point_mass(0.5, 1.0), w=0.0,
                              lambda_c=FiniteMeasure.point_mass(0.5), c=2.0,
                              sigma=0.0)
        assert classify(doubled).beta_star == \
            pytest.approx(2 * classify(base).beta_star)

    def test_report_round_trip(self, survival_params):
        d = _plain(classify(survival_params))
        assert d["classification"] == SURVIVAL
        assert d["margin"] == pytest.approx(d["alpha_eff"] - d["beta_star"])
