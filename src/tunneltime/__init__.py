"""Tunnelling-time toolkit for 1-D piecewise-constant potentials."""

__version__ = "0.1.0"

from .units import ELECTRON, UnitSystem, k_of_E, E_of_k, v_of_k
from .scattering import (
    PiecewisePotential,
    ScatteringState,
    SquareBarrierParams,
    closed_form_square,
    delta_closed_form,
    solve_transfer_matrix,
    step_reflection,
)

__all__ = [
    "ELECTRON",
    "UnitSystem",
    "k_of_E",
    "E_of_k",
    "v_of_k",
    "PiecewisePotential",
    "ScatteringState",
    "SquareBarrierParams",
    "closed_form_square",
    "delta_closed_form",
    "solve_transfer_matrix",
    "step_reflection",
    "__version__",
]
