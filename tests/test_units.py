import dataclasses
import math

import numpy as np
import pytest

from tunneltime import units as U


def test_constant_values():
    # hbar = hbarc/c lies 2.23e-10 below CODATA 2018's 6.582119569e-16 eV s
    assert U.HBAR_EVS == pytest.approx(6.582119569e-16, rel=3e-10, abs=0)
    assert U.HBARC_EVA == pytest.approx(1973.269804, rel=1e-12)
    assert U.MC2_EV == pytest.approx(510998.95, rel=1e-12)
    assert U.C_A_S == pytest.approx(2.99792458e18, rel=1e-12)


def test_derived_ratios():
    u = U.ELECTRON
    # hbar/m = hbarc * c / mc^2
    assert u.hbar_over_m == pytest.approx(U.HBARC_EVA * U.C_A_S / U.MC2_EV, rel=1e-14)
    assert u.m_over_hbar * u.hbar_over_m == pytest.approx(1.0, rel=1e-14)
    assert u.hbar2_over_2m == U.HBARC_EVA ** 2 / (2.0 * U.MC2_EV)


def test_one_hbar():
    # three stored constants; hbar, hbar/m and hbar^2/2m all derive from them
    u = U.ELECTRON
    assert [f.name for f in dataclasses.fields(U.UnitSystem)] == [
        "hbarc_eV_A", "electron_rest_eV", "c_A_per_s"]
    assert u.hbar_eV_s == u.hbarc_eV_A / u.c_A_per_s
    with pytest.raises(TypeError):
        U.UnitSystem(hbar_eV_s=1.0)


def test_k_of_E_anchor():
    # 5 eV electron: k = sqrt(2 mc^2 E)/hbarc
    k = U.k_of_E(5.0)
    assert k == pytest.approx(math.sqrt(2.0 * U.MC2_EV * 5.0) / U.HBARC_EVA, rel=1e-14)
    assert k == pytest.approx(1.1456, abs=2e-4)


def test_energy_wavenumber_round_trip():
    for E in (0.01, 1.0, 5.0, 10.0, 250.0):
        assert U.E_of_k(U.k_of_E(E)) == pytest.approx(E, rel=1e-13)
    ks = np.linspace(0.05, 6.0, 13)
    np.testing.assert_allclose(U.k_of_E(U.E_of_k(ks)), ks, rtol=1e-13)


def test_group_velocity():
    k = 1.2
    assert U.v_of_k(k) == pytest.approx(U.ELECTRON.hbar_over_m * k, rel=1e-14)


def test_kappa_of():
    u = U.ELECTRON
    E, V = 5.0, 10.0
    kap = u.kappa_of(E, V)
    assert kap == pytest.approx(u.k_of_E(V - E), rel=1e-13)
    # kappa^2 + k^2 = eps^2
    assert kap ** 2 + u.k_of_E(E) ** 2 == pytest.approx(u.k_of_E(V) ** 2, rel=1e-13)


@pytest.mark.parametrize("E, V", [(10.0, 10.0), (12.0, 10.0), (np.array([5.0, 10.0]), 10.0)])
def test_kappa_of_rejects_energy_at_or_above_the_top(E, V):
    with pytest.raises(ValueError, match="V > E"):
        U.ELECTRON.kappa_of(E, V)


def test_unit_system_validation():
    with pytest.raises(ValueError):
        U.UnitSystem(hbarc_eV_A=0.0, electron_rest_eV=1.0, c_A_per_s=1.0)
    with pytest.raises(ValueError):
        U.UnitSystem(hbarc_eV_A=-2.0, electron_rest_eV=1.0, c_A_per_s=1.0)
    with pytest.raises(ValueError):
        U.UnitSystem(hbarc_eV_A=1.0, electron_rest_eV=1.0, c_A_per_s=0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["hbarc_eV_A", "electron_rest_eV", "c_A_per_s"])
def test_unit_system_rejects_non_finite(name, bad):
    # nan passed a "<= 0" check: hbarc = nan gave k_of_E(5) = nan, and
    # c = inf gave hbar = 0
    with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
        U.UnitSystem(**{name: bad})


def test_custom_units_flow_through():
    # doubled rest mass halves hbar/m and scales k by sqrt(2)
    u2 = U.UnitSystem(hbarc_eV_A=U.HBARC_EVA, electron_rest_eV=2.0 * U.MC2_EV, c_A_per_s=U.C_A_S)
    assert u2.hbar_eV_s == U.HBAR_EVS
    assert u2.hbar_over_m == pytest.approx(U.ELECTRON.hbar_over_m / 2.0, rel=1e-14)
    assert u2.k_of_E(5.0) == pytest.approx(math.sqrt(2.0) * U.k_of_E(5.0), rel=1e-14)
