"""Parameter bundles for the scaling-limit and finite-population models."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InfiniteJumpIntensity, ModelError
from .measures import FiniteMeasure, SelectionKernel, derive_env_measure


#: Per-lineage parent-count cap of the backward chain, as a multiple of N.
#: A draw at or above the cap is treated as reaching every label
#: (saturation), recorded in path metadata.
K_CAP_FACTOR = 8

#: The largest population size whose parent-count cap fits in int64.
N_MAX = np.iinfo(np.int64).max // K_CAP_FACTOR


def merger_law(lambda_c: FiniteMeasure) -> FiniteMeasure | None:
    """Size-biased coalescence law z^{-2} Lambda_c, unnormalised; None when
    Lambda_c is zero.

    Its total mass times ``c`` is the coalescence jump rate of the limit
    model; normalised it is the law of the merger strength V.  Raises
    ``InfiniteJumpIntensity`` if the mass is infinite.
    """
    if lambda_c.total_mass == 0:
        return None
    weights = lambda_c.weights / lambda_c.locations**2
    if not np.all(np.isfinite(weights)):
        raise InfiniteJumpIntensity("z^{-2} Lambda_c has infinite mass")
    return FiniteMeasure(lambda_c.locations, weights)


def merged(x, v):
    """Weak-type frequencies after a merger of strength v at frequency x:
    x(1-v) when the central parent is strong, x(1-v) + v when it is weak."""
    strong = x * (1.0 - v)
    return strong, strong + v


def merge(law: FiniteMeasure, x: np.ndarray,
          rng: np.random.Generator) -> np.ndarray:
    """One merger per entry of x: the strength V from ``law``, then a
    central parent that is weak with probability x."""
    v = law.sample(x.size, rng)
    strong, weak = merged(x, v)
    return np.where(rng.random(x.size) < x, weak, strong)


@dataclass(frozen=True)
class LimitParams:
    """Parameters of the limit pair: the two-type jump-diffusion X and its
    branching-coalescing dual Z.

    The selection environment measure is always derived from
    (kernel, lambda_s); it is never stored independently.
    """

    kernel: SelectionKernel
    lambda_s: FiniteMeasure
    w: float
    lambda_c: FiniteMeasure
    c: float
    sigma: float

    def __post_init__(self):
        if min(self.w, self.c, self.sigma) < 0:
            raise ModelError("w, c, sigma must be nonnegative")
        if self.lambda_c.has_atom_at(0.0):
            raise ModelError("coalescence measure must not charge 0")
        # deriving mu checks admissibility (no atom at 0, mean excess > 0)
        if self.mu_mass + self.w + self.c + self.sigma <= 0:
            raise ModelError("degenerate model: no selection and no drift")

    @cached_property
    def mu(self) -> FiniteMeasure:
        """Selection-event environment measure (rate measure of selection jumps)."""
        return derive_env_measure(self.kernel, self.lambda_s)

    @property
    def mu_mass(self) -> float:
        return self.mu.total_mass

    @property
    def alpha_s(self) -> float:
        return self.lambda_s.total_mass

    @cached_property
    def merger_law(self) -> FiniteMeasure | None:
        """Size-biased coalescence law z^{-2} Lambda_c; see ``merger_law``."""
        return merger_law(self.lambda_c)

    @property
    def coalescence_rate(self) -> float:
        """Total rate c * integral of z^{-2} Lambda_c(dz)."""
        law = self.merger_law
        rate = self.c * (law.total_mass if law is not None else 0.0)
        if not math.isfinite(rate):
            raise InfiniteJumpIntensity("coalescence jump intensity is infinite")
        return rate


@dataclass(frozen=True)
class FiniteModelParams:
    """Finite-N Wright-Fisher graph with selection in random environment and
    multiple mergers."""

    N: int
    kernel: SelectionKernel
    env_law: FiniteMeasure  # probability measure; values may use the signed
    # weak-selection encoding (y < 0 means geometric with parameter -y)
    c_N: float = 0.0
    lambda_c: FiniteMeasure | None = None

    def __post_init__(self):
        if not 2 <= self.N <= N_MAX:
            raise ModelError(f"population size must lie in [2, {N_MAX}]")
        if abs(self.env_law.total_mass - 1.0) > 1e-9:
            raise ModelError("environment law must be a probability measure")
        if not 0.0 <= self.c_N <= 1.0:
            raise ModelError("c_N must lie in [0,1]")
        if self.c_N > 0:
            if self.lambda_c is None or self.lambda_c.total_mass == 0:
                raise ModelError("c_N > 0 requires a coalescence measure")
            if self.lambda_c.has_atom_at(0.0):
                raise ModelError("coalescence measure must not charge 0")
            merger_law(self.lambda_c)  # finite mass at finite N

    @cached_property
    def merger_strength_law(self) -> FiniteMeasure | None:
        """Normalised law of the merger strength V given a merger occurs."""
        if self.c_N == 0 or self.lambda_c is None:
            return None
        return merger_law(self.lambda_c).normalized()
