"""Unit system and kinematic conversions.

Everything internal runs in (eV, angstrom, second) with the electron as the
default particle. Wavenumbers are 1/A, energies eV, times s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class UnitSystem:
    """Physical constants fixing the (eV, A, s) working system.

    hbarc_eV_A: hbar*c in eV*A
    electron_rest_eV: particle rest energy m*c^2 in eV
    c_A_per_s: speed of light in A/s

    hbar itself is derived from hbarc and c, so every frequency E/hbar and
    every m/hbar reads one constant.
    """

    hbarc_eV_A: float = 1973.269804
    electron_rest_eV: float = 510998.95
    c_A_per_s: float = 2.99792458e18

    def __post_init__(self):
        for name in ("hbarc_eV_A", "electron_rest_eV", "c_A_per_s"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")

    @property
    def hbar_eV_s(self) -> float:
        """hbar in eV*s: hbarc/c."""
        return self.hbarc_eV_A / self.c_A_per_s

    @property
    def hbar_over_m(self) -> float:
        """hbar/m in A^2/s."""
        return self.hbarc_eV_A * self.c_A_per_s / self.electron_rest_eV

    @property
    def m_over_hbar(self) -> float:
        """m/hbar in s/A^2."""
        return 1.0 / self.hbar_over_m

    @property
    def hbar2_over_2m(self) -> float:
        """hbar^2/2m in eV*A^2: hbarc^2/2mc^2."""
        return self.hbarc_eV_A ** 2 / (2.0 * self.electron_rest_eV)

    def k_of_E(self, E):
        """Free wavenumber (1/A) at kinetic energy E (eV)."""
        return np.sqrt(2.0 * self.electron_rest_eV * np.asarray(E, dtype=float)) / self.hbarc_eV_A

    def E_of_k(self, k):
        """Kinetic energy (eV) at wavenumber k (1/A)."""
        p = self.hbarc_eV_A * np.asarray(k, dtype=float)
        return p * p / (2.0 * self.electron_rest_eV)

    def v_of_k(self, k):
        """Group velocity hbar*k/m in A/s."""
        return self.hbar_over_m * np.asarray(k, dtype=float)

    def kappa_of(self, E, V):
        """Evanescent decay constant sqrt(2m(V-E))/hbar (1/A); requires V > E."""
        E = np.asarray(E, dtype=float)
        V = np.asarray(V, dtype=float)
        if np.any(V <= E):
            raise ValueError("kappa_of requires V > E")
        return np.sqrt(2.0 * self.electron_rest_eV * (V - E)) / self.hbarc_eV_A


ELECTRON = UnitSystem()

# module-level shortcuts, electron units
HBAR_EVS = ELECTRON.hbar_eV_s
HBARC_EVA = ELECTRON.hbarc_eV_A
MC2_EV = ELECTRON.electron_rest_eV
C_A_S = ELECTRON.c_A_per_s
HBAR_OVER_M = ELECTRON.hbar_over_m
M_OVER_HBAR = ELECTRON.m_over_hbar


def k_of_E(E, units: UnitSystem = ELECTRON):
    return units.k_of_E(E)


def E_of_k(k, units: UnitSystem = ELECTRON):
    return units.E_of_k(k)


def v_of_k(k, units: UnitSystem = ELECTRON):
    return units.v_of_k(k)
