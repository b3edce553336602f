"""Undersized-waveguide equivalence and two-barrier gap independence.

A rectangular guide of narrow side b cuts off TE propagation below
omega_c = pi c / b. Under the replacement hbar/m -> c^2/omega the evanescent
segment maps onto a square quantum barrier whose decay constant equals the
guide's |kappa|, so every barrier time acquires an electromagnetic twin.
SI meters and seconds are used on the waveguide side.

The traversal time is computed twice on purpose: once directly in guide
variables and once by building the mapped quantum barrier and calling the
generic phase-time machinery. The two routes share no code; their agreement
is asserted in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scattering import (
    PiecewisePotential,
    SquareBarrierParams,
    _phase_slopes,
    solve_transfer_matrix,
)
from .times import _stationary_times
from .units import ELECTRON, UnitSystem

C_M_S = 2.99792458e8  # m/s


@dataclass(frozen=True)
class WaveguideSpec:
    """Rectangular guide: narrow transverse size b (m), drive frequency omega."""

    b: float
    omega: float

    def __post_init__(self):
        if not (math.isfinite(self.b) and math.isfinite(self.omega)):
            raise ValueError(f"b and omega must be finite, got b={self.b}, omega={self.omega}")
        if self.b <= 0 or self.omega <= 0:
            raise ValueError("b and omega must be positive")

    @property
    def omega_c(self) -> float:
        return math.pi * C_M_S / self.b

    @property
    def evanescent(self) -> bool:
        return self.omega < self.omega_c


def _dispersion(b: float, omega: np.ndarray):
    """(kappa, v_group) arrays of waveguide_dispersion at every drive
    frequency of omega, in a guide of width b (checked by the caller)."""
    if not (np.isfinite(omega).all() and (omega > 0).all()):
        raise ValueError("omega must be finite and positive")
    omega_c = math.pi * C_M_S / b
    ratio = omega_c / omega
    kappa = (omega / C_M_S) * np.sqrt(1.0 - ratio * ratio + 0j)
    v_g = np.where(omega < omega_c, math.nan, C_M_S * C_M_S * kappa.real / omega)
    return kappa, v_g


def waveguide_dispersion(spec: WaveguideSpec):
    """(kappa, v_group) for the lowest TE mode.

    kappa = (omega/c) sqrt(1 - (omega_c/omega)^2), principal branch: real and
    >= 0 when propagating, positive imaginary when evanescent. v_group is
    c^2 kappa / omega <= c in the propagating case and nan (no energy
    transport velocity) below cutoff.
    """
    kappa, v_g = _dispersion(spec.b, np.array([spec.omega]))
    return complex(kappa[0]), float(v_g[0])


@dataclass(frozen=True)
class MappedBarrier:
    """Quantum twin of an evanescent guide segment.

    k and eps are in 1/m; hbar_over_m = c^2/omega closes the dispersion.
    """

    k: float
    eps: float
    hbar_over_m: float

    @property
    def kappa(self) -> float:
        return math.sqrt(self.eps * self.eps - self.k * self.k)


def map_quantum_waveguide(spec: WaveguideSpec) -> MappedBarrier:
    """Guide -> barrier: k = omega/c, eps = omega_c/c, hbar/m = c^2/omega."""
    return MappedBarrier(
        k=spec.omega / C_M_S,
        eps=spec.omega_c / C_M_S,
        hbar_over_m=C_M_S * C_M_S / spec.omega,
    )


def traversal_time_direct(spec: WaveguideSpec, L: float) -> float:
    """Guide-variable phase traversal time of an evanescent segment length L.

    Written out directly in (omega, omega_c, c); no quantum code involved.
    """
    if not (math.isfinite(L) and L >= 0):
        raise ValueError(f"L must be finite and >= 0, got {L}")
    if not spec.evanescent:
        raise ValueError("direct traversal time covers the evanescent case")
    if L == 0:
        return 0.0
    w, wc = spec.omega, spec.omega_c
    k = w / C_M_S
    kap = math.sqrt(wc * wc - w * w) / C_M_S
    e4 = (wc / C_M_S) ** 4
    # plain sinh form is safe to kap L ~ 300; saturated exactly at 2 beyond
    if kap * L < 300.0:
        s = math.sinh(kap * L)
        bracket = (2.0 * kap * L * k * k * (kap * kap - k * k)
                   + e4 * math.sinh(2.0 * kap * L)) / (4.0 * k * k * kap * kap + e4 * s * s)
    else:
        bracket = 2.0
    return bracket / (C_M_S * kap)


def traversal_time_mapped(spec: WaveguideSpec, L):
    """Same quantity via the mapped quantum barrier and the generic machinery.

    Builds a unit system whose hbar/m equals c^2/omega ("hbarc" = c, so
    hbar = 1; rest energy omega), then evaluates the standard extrapolated
    phase time at the mapped wavenumber. L is a length or an array of them,
    all evaluated in one call; the result has its shape.
    """
    L = np.asarray(L, dtype=float)
    if not (np.isfinite(L).all() and (L >= 0).all()):
        raise ValueError(f"L must be finite and >= 0, got {L}")
    if not spec.evanescent:
        raise ValueError("mapped traversal time covers the evanescent case")
    m = map_quantum_waveguide(spec)
    units = UnitSystem(hbarc_eV_A=C_M_S, electron_rest_eV=spec.omega, c_A_per_s=C_M_S)
    # barrier height whose eps matches the guide: eps = sqrt(2 m V0)/hbar
    V0 = m.eps ** 2 * units.hbarc_eV_A ** 2 / (2.0 * units.electron_rest_eV)
    params = SquareBarrierParams(V0=V0, d=0.0, units=units)   # the widths are L
    return _stationary_times(params, m.k, L).phase.reshape(L.shape)[()]


def superluminal_threshold(omega_ratio: float) -> float:
    """Smallest |kappa| L above which L/tau exceeds c, at omega/omega_c given.

    Solved by bisection on kappa L over [1e-3, 50]; exists because tau
    saturates (guide equivalent of the thick-barrier time limit) while L
    keeps growing.
    """
    if not 0.0 < omega_ratio < 1.0:
        raise ValueError("omega_ratio must lie in (0, 1)")
    spec = WaveguideSpec(b=0.02, omega=omega_ratio * math.pi * C_M_S / 0.02)
    kap = abs(waveguide_dispersion(spec)[0].imag)

    def excess(kapL):
        L = kapL / kap
        return L / traversal_time_direct(spec, L) - C_M_S

    a, b_ = 1e-3, 50.0
    if excess(a) > 0:
        return a
    for _ in range(200):
        mid = 0.5 * (a + b_)
        if excess(mid) > 0:
            b_ = mid
        else:
            a = mid
    return 0.5 * (a + b_)


# ---------------------------------------------------------------------------
# two opaque barriers separated by a free gap


def _single_beta(d: float, V0: float, k: float, units: UnitSystem):
    """Reflection phase of one barrier below its top; None where the
    resonance margin does not apply (no barrier, or E >= V0)."""
    if d > 0 and V0 > float(units.E_of_k(k)):
        return solve_transfer_matrix(PiecewisePotential.square(V0, d), k, units).beta
    return None


def double_barrier_time(d: float, L_gap: float, V0: float, k: float,
                        units: UnitSystem = ELECTRON):
    """(total extrapolated phase time, resonance margin) for barrier-gap-barrier.

    The time is (2d + L_gap + dalpha/dk)/v from the full transfer matrix,
    with the phase derivative taken branch-free. The margin is
    |sin(k L_gap + beta_single)|, the factor controlling proximity to a
    Fabry-Perot resonance of the inter-barrier region; values below 0.1 mean
    the off-resonance premise is failing and the time may spike.
    """
    return gap_sweep(d, V0, k, [L_gap], units)[0][1:]


def gap_sweep(d: float, V0: float, k: float, gaps,
              units: UnitSystem = ELECTRON):
    """[(L_gap, time, margin)] over an iterable of gap widths.

    Time and margin as in double_barrier_time. One batched transfer sweep
    covers every gap; a zero gap is the single barrier of width 2d. The
    single barrier's reflection phase does not depend on the gap, so it is
    solved once per sweep.
    """
    L = np.array([float(g) for g in gaps])
    if not (math.isfinite(d) and math.isfinite(V0) and np.isfinite(L).all()):
        raise ValueError(f"d, V0 and the gaps must be finite, got d={d}, V0={V0}")
    if d < 0 or (L < 0).any():
        raise ValueError("widths must be >= 0")
    beta_single = _single_beta(d, V0, k, units)
    # a zero gap is PiecewisePotential.square(V0, 2d): all of 2d in the first
    # segment, the other two empty
    x1 = np.where(L == 0, 2.0 * d, d)
    x2 = np.where(L == 0, 2.0 * d, d + L)
    x3 = 2.0 * d + L
    deriv = _phase_slopes(((0.0, x1, V0), (x1, x2, 0.0), (x2, x3, V0)), k, units)[0]
    times = (2.0 * d + L + deriv) / float(units.v_of_k(k))
    return [(Lg, t, 1.0 if beta_single is None else abs(math.sin(k * Lg + beta_single)))
            for Lg, t in zip(L.tolist(), times.tolist())]
