import numpy as np
import pytest
from hypothesis import strategies as st

from wfduality import FiniteMeasure, LimitParams, SelectionKernel


@pytest.fixture
def geo():
    return SelectionKernel.geometric()


@pytest.fixture
def binary():
    return SelectionKernel.binary()


@pytest.fixture
def empty_measure():
    return FiniteMeasure(np.empty(0), np.empty(0))


@pytest.fixture
def baseline_params(geo):
    """Geometric kernel, selection mass 0.5 at y=0.5, w=0.1, c=1,
    coalescence at z=0.5, no diffusion."""
    return LimitParams(
        kernel=geo,
        lambda_s=FiniteMeasure.point_mass(0.5, 0.5),
        w=0.1,
        lambda_c=FiniteMeasure.point_mass(0.5, 1.0),
        c=1.0,
        sigma=0.0,
    )


@pytest.fixture
def survival_params(geo):
    """Subcritical variant: selection mass 1, no weak drift."""
    return LimitParams(
        kernel=geo,
        lambda_s=FiniteMeasure.point_mass(0.5, 1.0),
        w=0.0,
        lambda_c=FiniteMeasure.point_mass(0.5, 1.0),
        c=1.0,
        sigma=0.0,
    )


@pytest.fixture
def extinction_params(geo):
    """Supercritical variant: selection mass 5, no weak drift."""
    return LimitParams(
        kernel=geo,
        lambda_s=FiniteMeasure.point_mass(0.5, 5.0),
        w=0.0,
        lambda_c=FiniteMeasure.point_mass(0.5, 1.0),
        c=1.0,
        sigma=0.0,
    )


def rng(seed: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


#: One kernel of each variant; the table kernel has an infinity atom, so
#: its selection environment measure is empty.
KERNELS = [SelectionKernel.geometric(), SelectionKernel.binary(),
           SelectionKernel.table({2: 0.5, 4: 0.3}, inf_mass=0.2)]


def _atoms(lo: float, hi: float):
    return st.lists(st.tuples(st.floats(lo, hi), st.floats(0.05, 3.0)),
                    min_size=1, max_size=3).map(FiniteMeasure.atomic)


@st.composite
def limit_params(draw) -> LimitParams:
    """Random limit parameters over the kernels of ``KERNELS``."""
    return LimitParams(
        kernel=draw(st.sampled_from(KERNELS)),
        lambda_s=draw(_atoms(0.01, 0.9)),
        w=draw(st.floats(0.0, 2.0)),
        lambda_c=draw(_atoms(0.01, 1.0)),
        c=draw(st.floats(0.1, 2.0)),
        sigma=draw(st.floats(0.0, 1.0)),
    )
