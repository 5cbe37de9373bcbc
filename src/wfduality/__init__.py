"""Simulation and duality-verification toolkit for two-type Wright-Fisher
models with selection in random environment."""

from .errors import (
    ConfigError,
    DegenerateKernelAtAtom,
    InfiniteJumpIntensity,
    InvalidArgument,
    InvalidScaling,
    InvalidStep,
    InvariantViolation,
    ModelError,
    NonConvergenceWarning,
    NonFiniteIntegrand,
    RegimeMismatch,
    SigmaNotZero,
    StateExplosionGuard,
    WfdualityError,
)
from .measures import (
    FiniteMeasure,
    SelectionKernel,
    derive_env_measure,
    integrate,
    mean_excess,
    pgf,
)
from .params import FiniteModelParams, LimitParams
from .wf_graph import (
    BlockCountPath,
    EnvSequence,
    draw_env,
    simulate_ancestry,
    step_ancestry_many,
    step_frequency_many,
)
from .fvwrs import ensemble_states, moment_estimate
from .bcre import (
    RateCache,
    RateTable,
    dual_moment,
    jump_rates,
    stationary_estimate,
)
from .duality import (
    DualityReport,
    ScalingScheme,
    annealed_check,
    convergence_experiment,
    moment_check,
    quenched_check,
)
from .thresholds import (
    ThresholdReport,
    alpha_eff,
    alpha_star,
    alpha_star_mc,
    beta_star,
    beta_star_mc,
    classify,
)
from .bridge import (
    ExtinctionTable,
    FixationReport,
    extinction_corroboration,
    fixation_via_duality,
)

__version__ = "0.1.0"
