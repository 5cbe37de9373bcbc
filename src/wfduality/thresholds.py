"""Long-term classification thresholds for the limit process.

beta_star measures the strength of genetic drift generated by coalescence:
one half the expectation of 1/(W(1-W)) with W = Y*U, Y drawn from the
normalised coalescence measure and U having density 2u on [0,1].
Integrating U out in closed form reduces it to

    beta_star = integral of (-log(1-y)) / y^2 against the measure.

alpha_star measures the shape of rare selection: the expectation of
1/(1 + V*m(Y)) with V uniform and Y drawn from the normalised selection
measure; the V-integral is log(1+m)/m in closed form.

The effective selection strength alpha_eff = alpha_s * alpha_star + w is
compared against beta_star: larger means almost-sure extinction of the weak
allele, smaller means survival has positive probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ModelError, SigmaNotZero
from .measures import FiniteMeasure, SelectionKernel, integrate, mean_excess
from .params import LimitParams

#: Relative band around beta_star within which ``classify`` calls the
#: regime indeterminate.
TOL = 1e-6

EXTINCTION = "ExtinctionAlmostSure"
SURVIVAL = "SurvivalPossible"
INDETERMINATE = "Indeterminate"


def beta_star(lambda_c: FiniteMeasure) -> float:
    """Drift-strength threshold of a normalised coalescence measure.

    Returns +inf when the measure charges 1 (a merger can wipe out all but
    one lineage, making the drift term non-integrable).
    """
    if abs(lambda_c.total_mass - 1.0) > 1e-9:
        raise ModelError("beta_star expects a probability measure")
    if lambda_c.has_atom_at(0.0):
        raise ModelError("coalescence measure must not charge 0")
    if lambda_c.has_atom_at(1.0):
        return math.inf
    return integrate(lambda_c, lambda y: -math.log1p(-y) / (y * y))


def alpha_star(kernel: SelectionKernel, lambda_s: FiniteMeasure) -> float:
    """Rare-selection shape: E[g(m(Y))] with g(m) = log(1+m)/m."""
    if lambda_s.total_mass <= 0:
        raise ModelError("selection measure must have positive mass")

    def g(y: float) -> float:
        m = mean_excess(kernel, y)
        if m == 0.0:
            return 1.0
        if math.isinf(m):
            return 0.0
        return math.log1p(m) / m

    return integrate(lambda_s.normalized(), g)


def alpha_eff(alpha_s: float, alpha_star_value: float, w: float) -> float:
    """Effective selection strength alpha_s * alpha_star + w."""
    if min(alpha_s, w) < 0 or not 0.0 <= alpha_star_value <= 1.0:
        raise ModelError("alpha_eff inputs out of range")
    return alpha_s * alpha_star_value + w


@dataclass(frozen=True)
class ThresholdReport:
    beta_star: float  # effective drift strength, including c and |Lambda_c|
    alpha_star: float
    alpha_s: float
    w: float
    alpha_eff: float
    classification: str
    margin: float  # alpha_eff - beta_star (signed; -inf when beta_star = inf)
    tol: float
    metadata: dict = field(default_factory=dict)


def classify(params: LimitParams) -> ThresholdReport:
    """Long-term regime of the limit process (sigma must be zero).

    The drift threshold scales linearly in the coalescence measure, so the
    effective threshold for a rate c and an unnormalised Lambda_c is
    c * |Lambda_c| * beta_star(normalised Lambda_c).
    """
    if params.sigma != 0:
        raise SigmaNotZero("classification requires sigma = 0")
    mass = params.lambda_c.total_mass
    b_star = beta_star(params.lambda_c.normalized()) if mass > 0 else None
    beta_eff = params.c * mass * b_star if params.c > 0 and mass > 0 else 0.0
    a_star = alpha_star(params.kernel, params.lambda_s) \
        if params.alpha_s > 0 else 1.0
    a_eff = alpha_eff(params.alpha_s, a_star, params.w)

    if math.isinf(beta_eff):
        verdict = SURVIVAL
        margin = -math.inf
    else:
        margin = a_eff - beta_eff
        if a_eff > beta_eff * (1.0 + TOL) and a_eff > 0.0:
            verdict = EXTINCTION
        elif a_eff < beta_eff * (1.0 - TOL):
            verdict = SURVIVAL
        else:
            verdict = INDETERMINATE
    meta = {"coalescence_mass": mass, "c": params.c,
            "beta_star_normalized": b_star}
    return ThresholdReport(beta_eff, a_star, params.alpha_s, params.w,
                           a_eff, verdict, margin, TOL, meta)
