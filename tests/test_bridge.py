import numpy as np
import pytest

from wfduality import (
    RegimeMismatch,
    extinction_corroboration,
    fixation_via_duality,
)
from wfduality import rngstreams
from wfduality.cli import _plain


class TestRegimeGuards:
    def test_fixation_needs_survival(self, extinction_params):
        with pytest.raises(RegimeMismatch):
            fixation_via_duality(extinction_params, [0.5], seed=0)

    def test_extinction_needs_extinction(self, survival_params):
        with pytest.raises(RegimeMismatch):
            extinction_corroboration(survival_params, 0.5, [1.0], 100, seed=0)


class TestFixation:
    @pytest.mark.filterwarnings("ignore::wfduality.NonConvergenceWarning")
    def test_boundary_grid_points(self, survival_params):
        # short stationary window: the half-sample warning is expected here
        report = fixation_via_duality(
            survival_params, [0.0, 1.0], seed=1, M=400, T=2.0, dt=1e-2,
            burn_in=5.0, T_stat=400.0)
        # pgf of the stationary law: 0 at x=0 (chain lives on >= 1), 1 at 1
        assert report.predicted[0] == pytest.approx(0.0, abs=1e-12)
        assert report.predicted[1] == pytest.approx(1.0, abs=1e-9)
        assert report.simulated[0] == 0.0
        assert report.simulated[1] == 1.0
        assert (np.abs(report.z_scores) < 1e-9).all()

    def test_interior_point_agreement(self, survival_params):
        report = fixation_via_duality(
            survival_params, [0.5], seed=2, M=4000, T=10.0, dt=2e-3,
            burn_in=20.0, T_stat=4000.0)
        assert abs(report.z_scores[0]) < 4.0
        assert 0.0 < report.predicted[0] < 1.0
        # the z-score carries the Monte Carlo error of both sides
        assert report.predicted_se[0] > 0.0
        err = np.hypot(report.simulated_se[0], report.predicted_se[0])
        assert report.z_scores[0] == pytest.approx(
            (report.predicted[0] - report.simulated[0]) / err, rel=1e-12)
        d = _plain(report)
        assert d["x_grid"] == [0.5]
        assert d["predicted_se"] == report.predicted_se.tolist()

    @pytest.mark.filterwarnings("ignore::wfduality.NonConvergenceWarning")
    def test_only_the_x_side_follows_the_batch_size(self, monkeypatch,
                                                    survival_params):
        # the stationary chains have their own count, so the predicted side
        # draws the same numbers whatever the replicate batch size
        reports = []
        for batch in (1024, 4096):
            monkeypatch.setattr(rngstreams, "BATCH_SIZE", batch)
            reports.append(fixation_via_duality(
                survival_params, [0.5], seed=1, M=1500, T=2.0, dt=1e-2,
                burn_in=5.0, T_stat=400.0))
        old, new = reports
        assert old.predicted.tobytes() == new.predicted.tobytes()
        assert old.predicted_se.tobytes() == new.predicted_se.tobytes()
        assert old.stationary_tv == new.stationary_tv
        assert old.simulated.tobytes() != new.simulated.tobytes()



class TestExtinction:
    def test_fractions_grow_dual_shrinks(self, extinction_params):
        table = extinction_corroboration(
            extinction_params, 0.5, [1.0, 3.0, 6.0], M=4000, seed=3,
            dt=2e-3, dual_M=1000)
        fr = table.fraction_at_0
        assert (np.diff(fr) >= -1e-12).all()
        assert fr[-1] > fr[0]
        dz = table.dual_small_prob
        assert dz[-1] < dz[0]
        d = _plain(table)
        assert d["M0"] == 10
