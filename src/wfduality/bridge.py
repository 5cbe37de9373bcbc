"""Cross-process analyses linking the simulators and the thresholds.

In the survival regime the dual chain is positive recurrent and the
generating function of its stationary law equals the fixation probability
of the weak allele: phi_nu(x) = P_x(X reaches 1).  This module estimates
both sides independently and compares them; in the extinction regime it
tracks the absorption fraction at 0 across growing horizons together with
the matching escape-to-infinity statistic of the dual chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import bcre, fvwrs, thresholds
from .errors import InvariantViolation, RegimeMismatch
from .params import LimitParams
from .rngstreams import batch_mean_se, substream


def require_regime(params: LimitParams, regime: str, analysis: str) -> None:
    """Raise RegimeMismatch unless ``thresholds.classify`` gives ``regime``."""
    got = thresholds.classify(params).classification
    if got != regime:
        raise RegimeMismatch(
            f"{analysis} analysis needs the {regime} regime, got {got}")


@dataclass(frozen=True)
class FixationReport:
    x_grid: np.ndarray
    predicted: np.ndarray       # phi_nu_hat(x)
    predicted_se: np.ndarray    # between-chain SE of phi_nu_hat(x)
    simulated: np.ndarray       # absorption fraction at 1
    simulated_se: np.ndarray
    z_scores: np.ndarray
    stationary_tv: float
    params: dict = field(default_factory=dict)


def fixation_via_duality(params: LimitParams, x_grid, seed: int,
                         M: int = 20000, T: float = 8.0, dt: float = 1e-3,
                         burn_in: float = 50.0,
                         T_stat: float = 5000.0) -> FixationReport:
    """Predicted vs simulated fixation probabilities on a grid.

    Requires the survival regime; the prediction is the generating function
    of the occupation-time estimate of the dual chain's stationary law, the
    simulation is the absorption fraction at 1 of the forward process by
    horizon T.  A z-score combines both SEs; it is 0 where both are 0.
    """
    require_regime(params, thresholds.SURVIVAL, "fixation")
    x_grid = np.asarray(x_grid, dtype=float)
    nu = bcre.stationary_estimate(params, 1, burn_in, T_stat,
                                  substream(seed, "stationary", 0))
    predicted = np.asarray(nu.pgf(x_grid))
    predicted_se = np.asarray(nu.pgf_se(x_grid))
    if not (np.diff(nu.pgf(np.linspace(0, 1, 21))) >= -1e-12).all():
        raise InvariantViolation("stationary pgf must be nondecreasing")
    if abs(nu.pgf(1.0) - 1.0) >= 1e-9:
        raise InvariantViolation("stationary pgf must be 1 at x=1")

    sims, ses = np.empty((2, x_grid.size))
    for i, x in enumerate(x_grid):
        finals = fvwrs.ensemble_states(params, float(x), [T], dt, M, seed,
                                       "scan", i)[0]
        sims[i], ses[i] = batch_mean_se(finals >= 1.0 - fvwrs.EPS0)
    err = np.hypot(ses, predicted_se)
    zs = np.where(err > 0, (predicted - sims) / np.maximum(err, 1e-300), 0.0)
    return FixationReport(
        x_grid, predicted, predicted_se, sims, ses, zs, nu.half_sample_tv,
        {"M": M, "T": T, "dt": dt, "burn_in": burn_in, "T_stat": T_stat})


@dataclass(frozen=True)
class ExtinctionTable:
    horizons: np.ndarray
    fraction_at_0: np.ndarray
    fraction_se: np.ndarray
    dual_small_prob: np.ndarray     # P(Z(T) <= M0) per horizon
    dual_small_se: np.ndarray
    M0: int
    params: dict = field(default_factory=dict)


def extinction_corroboration(params: LimitParams, x: float, T_list, M: int,
                             seed: int, dt: float = 1e-3, M0: int = 10,
                             n0: int = 1,
                             dual_M: int = 2000) -> ExtinctionTable:
    """Absorption fractions at 0 across horizons, with the dual companion.

    Requires the extinction regime.  The forward fractions should increase
    toward 1; the dual chain's probability P(Z(T) <= M0) of staying small,
    from n0 on the ``scan`` substreams with one sub-index per horizon,
    should fall.  The dual chain is transient here, so its paths are cut
    off at an escape threshold well above M0 and counted as not small: the
    return probability from there is negligible, and simulating the full
    excursion would be quadratic in the peak state.
    """
    require_regime(params, thresholds.EXTINCTION, "extinction")
    horizons = np.asarray(sorted(T_list), dtype=float)
    scans = fvwrs.ensemble_states(params, x, horizons, dt, M, seed)
    fr, fr_se, dz, dz_se = np.empty((4, horizons.size))
    for i, T in enumerate(horizons):
        fr[i], fr_se[i] = batch_mean_se(scans[i] <= fvwrs.EPS0)
        zs = bcre.final_states(params, n0, float(T), dual_M, seed, "scan", i,
                               ceiling=max(1000, 100 * M0), cut=True)
        dz[i], dz_se[i] = batch_mean_se(zs <= M0)
    return ExtinctionTable(horizons, fr, fr_se, dz, dz_se, M0,
                           {"x": x, "M": M, "dt": dt, "dual_M": dual_M,
                            "n0": n0})
