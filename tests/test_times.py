import math
import warnings

import numpy as np
import pytest
from conftest import assert_close, assert_larmor_routes_agree
from hypothesis import assume, given, settings, strategies as st

from tunneltime import times as tt
from tunneltime.scattering import (
    PiecewisePotential,
    SquareBarrierParams,
    closed_form_square,
    delta_closed_form,
    solve_transfer_matrix,
    transmission_phase_reference,
)
from tunneltime.units import ELECTRON, HBAR_EVS, k_of_E
from tunneltime.wavepacket import SpectralPacket

V0 = 10.0
EPS = k_of_E(V0)
K5 = k_of_E(5.0)  # E = V0/2, the reference operating point


def kappa(k):
    return math.sqrt(EPS * EPS - k * k)


# ---------------------------------------------------------------------------
# equal-time references


def test_tau_equivalent_is_free_flight():
    p = SquareBarrierParams(V0, 5.0)
    assert tt.tau_equivalent(p, K5) == pytest.approx(5.0 / ELECTRON.v_of_k(K5), rel=1e-14, abs=0)


def test_tau_semiclassical_uses_kappa_velocity():
    p = SquareBarrierParams(V0, 5.0)
    want = ELECTRON.m_over_hbar * 5.0 / kappa(K5)
    assert tt.tau_semiclassical(p, K5) == pytest.approx(want, rel=1e-14, abs=0)


# ---------------------------------------------------------------------------
# phase times


def test_hartman_saturation_value():
    # saturated phase delay 2m/(hbar k kappa) at E = V0/2
    sat = 2.0 * ELECTRON.m_over_hbar / (K5 * kappa(K5))
    assert sat == pytest.approx(1.3164239135e-16, rel=1e-9, abs=0)
    dT, dR = tt.extrapolated_phase_times(SquareBarrierParams(V0, 14.0), K5)
    assert dT == pytest.approx(sat, rel=1e-2, abs=0)
    assert dR == pytest.approx(dT, rel=1e-14, abs=0)  # symmetric barrier: equal delays


def test_hartman_bracket_thick_limit():
    assert tt.hartman_bracket(SquareBarrierParams(V0, 25.0 / EPS * 5), K5) == pytest.approx(
        2.0, abs=1e-12)


def test_phase_time_zero_width():
    assert tt.extrapolated_phase_times(SquareBarrierParams(V0, 0.0), K5) == (0.0, 0.0)


@pytest.mark.parametrize("krel", [0.25, 0.6, 0.95, 1.3, 2.2])
def test_phase_times_closed_vs_fd(krel):
    # closed derivative against an independent transfer-matrix difference
    p = SquareBarrierParams(V0, 5.0)
    k = krel * EPS
    dT_c, dR_c = tt.extrapolated_phase_times(p, k)
    dT_f, dR_f = tt.phase_times_fd(p, k)
    assert dT_f == pytest.approx(dT_c, rel=1e-6, abs=0)
    assert dR_f == pytest.approx(dR_c, rel=1e-6, abs=0)


@pytest.mark.parametrize("d", [200.0, 250.0, 300.0])
def test_phase_times_fd_past_the_underflow_of_t_squared(d):
    # kappa d = 379, 473 and 568: |t|^2 underflows past ~355, where the
    # unscaled phase differences left the transmitted time near the free
    # flight d/v, 190-280 times the closed time; the decay-constant route
    # shares those differences
    p = SquareBarrierParams(15.0, d)
    k = 0.3 * p.eps
    want = tt.extrapolated_phase_times(p, k)
    assert_close(tt.phase_times_fd(p, k), want, rel=1e-7, what=f"phase times at d = {d}")
    assert_larmor_routes_agree(p, k)


def test_phase_times_continuous_through_top():
    p = SquareBarrierParams(V0, 5.0)
    lo = tt.extrapolated_phase_times(p, EPS * (1 - 2e-10))[0]
    at = tt.extrapolated_phase_times(p, EPS)[0]
    hi = tt.extrapolated_phase_times(p, EPS * (1 + 2e-10))[0]
    assert lo == pytest.approx(at, rel=1e-5, abs=0)
    assert hi == pytest.approx(at, rel=1e-5, abs=0)


# ---------------------------------------------------------------------------
# dwell times


@pytest.mark.parametrize("krel", [0.3, 0.7, 1.5])
def test_dwell_closed_vs_integral(krel):
    k = krel * EPS
    p = SquareBarrierParams(V0, 5.0)
    closed = tt.dwell_time_closed(p, k)
    quad = tt.dwell_time(p.potential(), k, 0.0, 5.0)
    assert quad == pytest.approx(closed, rel=1e-8, abs=0.0)


def test_dwell_asymptote():
    # hbar k/(V0 kappa) at kappa d = 15
    d = 15.0 / kappa(K5)
    want = HBAR_EVS * K5 / (V0 * kappa(K5))
    assert tt.dwell_time_closed(SquareBarrierParams(V0, d), K5) == pytest.approx(want, rel=5e-3, abs=0)


def test_dwell_region_additivity():
    k = 0.55 * EPS
    pot = PiecewisePotential.square(V0, 5.0)
    whole = tt.dwell_time(pot, k, -2.0, 7.0)
    parts = (tt.dwell_time(pot, k, -2.0, 2.0) + tt.dwell_time(pot, k, 2.0, 7.0))
    assert parts == pytest.approx(whole, rel=1e-10, abs=0.0)


def _quad_dwell_time(potential, k, x1, x2, units=ELECTRON):
    """The adaptive-quadrature dwell time that Gauss-Legendre replaced."""
    from scipy.integrate import quad

    state = tt.solve_transfer_matrix(potential, k, units)
    v = float(units.v_of_k(k))

    def rho(x):
        return abs(state.psi(np.float64(x))) ** 2

    cuts = [x1] + [c for xl, xr, _ in potential.segments for c in (xl, xr)
                   if x1 < c < x2] + [x2]
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        if b <= a:
            continue
        val, _ = quad(rho, a, b, limit=400, epsabs=0.0, epsrel=1e-12)
        total += val
    return total / v


@pytest.mark.parametrize("pot, k, x1, x2", [
    (PiecewisePotential.square(V0, 5.0), 0.3 * EPS, -4.0, 9.0),
    (PiecewisePotential.square(V0, 5.0), EPS, 0.0, 5.0),          # E = V: linear interior
    (PiecewisePotential.square(V0, 5.0), 2.5 * EPS, -1.0, 6.0),
    (PiecewisePotential.square(V0, 40.0 / float(EPS)), 0.6 * EPS, -3.0, 45.0 / float(EPS)),
    (PiecewisePotential.square(V0, 30.0), 0.5 * EPS, -40.0, 70.0),   # wide and opaque
    (PiecewisePotential.square(V0, 60.0), 0.1 * EPS, -5.0, 65.0),    # kappa d ~ 97
    (PiecewisePotential.square(V0, 5.0), 2.5 * EPS, -60.0, 65.0),    # long free stretches
    (PiecewisePotential.double_barrier(V0, 2.0, 3.0), K5, -2.0, 9.0),
    (PiecewisePotential.step(V0), 0.5 * EPS, -3.0, 4.0),
    (PiecewisePotential.step(3.0), 0.9 * EPS, -3.0, 4.0),        # above the step
    (PiecewisePotential.free(), K5, -3.0, 4.0),
])
def test_dwell_time_matches_adaptive_quad(pot, k, x1, x2):
    # dwell times are ~1e-15 s: approx's default 1e-12 absolute slack would
    # pass anything
    k = float(k)
    assert tt.dwell_time(pot, k, x1, x2) == pytest.approx(_quad_dwell_time(pot, k, x1, x2),
                                                          rel=1e-9, abs=0.0)


@pytest.mark.parametrize("x1, x2", [(math.nan, 5.0), (0.0, math.nan), (0.0, math.inf),
                                    (-math.inf, 5.0), (-math.inf, math.inf)])
def test_dwell_time_rejects_non_finite_bounds(x1, x2):
    # x2 = inf used to raise OverflowError and x1 = nan "cannot convert
    # float NaN to integer"
    with pytest.raises(ValueError, match="x1 and x2 must be finite"):
        tt.dwell_time(PiecewisePotential.square(V0, 5.0), K5, x1, x2)


@pytest.mark.parametrize("V0_, d", [(1.24, 1.05), (10.0, 3.0), (5.0, 2.0), (0.5, 20.0)])
def test_dwell_quadrature_at_the_top_matches_closed_form(V0_, d):
    # at k = eps exactly the interior is C psi + a S psi' with S = 1 at
    # q = 0: no anchored coefficient divides by kappa (the anchored form was
    # 1.5e-8 off at V0 = 1.24 eV, d = 1.05 A)
    p = SquareBarrierParams(V0_, d)
    assert tt.dwell_time(p.potential(), p.eps, 0.0, d) == pytest.approx(
        tt.dwell_time_closed(p, p.eps), rel=1e-10, abs=0.0)


@settings(max_examples=60, deadline=None)
@given(V0_=st.floats(0.5, 15.0), d=st.floats(0.01, 20.0), gap=st.floats(-10.0, -2.0),
       side=st.sampled_from([-1.0, 1.0]))
def test_closed_forms_across_the_top_match_independent_routes(V0_, d, gap, side):
    # one body through the top: no special case for |k/eps - 1| down to 1e-10
    p = SquareBarrierParams(V0_, d)
    k = p.eps * (1.0 + side * 10.0 ** gap)
    assert tt.dwell_time_closed(p, k) == pytest.approx(
        tt.dwell_time(p.potential(), k, 0.0, d), rel=1e-10, abs=0.0)
    assert tt.extrapolated_phase_times(p, k)[0] == pytest.approx(
        tt.phase_times_fd(p, k)[0], rel=1e-9, abs=0.0)
    T = closed_form_square(p, k)[0]
    assert T * T == pytest.approx(solve_transfer_matrix(p.potential(), k).T ** 2, rel=0.0,
                                  abs=1e-12)


# ---------------------------------------------------------------------------
# spin-rotation times


@pytest.mark.parametrize("krel", [0.3, 0.7, 1.4, 2.0])
def test_larmor_closed_vs_derivative_route(krel):
    # both routes take m/hbar from units.m_over_hbar: hbar_eV_s lies 2.2e-10
    # away from hbarc_eV_A/c_A_per_s, which 5e-11 tau_x shows here
    # (measured 6.2e-12)
    p = SquareBarrierParams(V0, 5.0)
    k = krel * EPS
    ty_c, tz_c, tx_c = tt.larmor_times(p, k)
    assert tx_c == pytest.approx(math.hypot(ty_c, tz_c), rel=1e-14, abs=0)
    assert_larmor_routes_agree(p, k, rel=5e-11)


@settings(max_examples=300, deadline=None)
@given(V0_=st.floats(0.5, 15.0), d=st.one_of(st.floats(0.01, 20.0), st.floats(20.0, 300.0)),
       r=st.one_of(st.floats(0.02, 0.999), st.floats(0.99, 1.01), st.floats(1.0 - 1e-9, 1.0 + 1e-9),
                   st.just(1.0), st.floats(1.001, 3.0)))
def test_larmor_routes_agree_across_the_top(V0_, d, r):
    # one difference in eps^2 below, at and above the top, up to total
    # opacity 590
    p = SquareBarrierParams(V0_, d)
    k = r * p.eps
    assume(math.sqrt(max(p.eps * p.eps - k * k, 0.0)) * d <= 590.0)
    assert_larmor_routes_agree(p, k)


# kappa d at k = 0.3 eps: past the limit of 600, where the decay-constant
# route once returned tau_z = -0.0 (738) and raised a math-domain error (745)
@pytest.mark.parametrize("d", [330.0, 390.0, 394.0])
def test_derivative_routes_reject_opacity_past_limit(d):
    p = SquareBarrierParams(15.0, d)
    for route in (tt.larmor_times_kappa_derivative, tt.phase_times_fd):
        with pytest.raises(ValueError, match="opacity"):
            route(p, 0.3 * p.eps)


def test_larmor_derivative_route_zero_width():
    assert tt.larmor_times_kappa_derivative(SquareBarrierParams(V0, 0.0), K5) == (0.0, 0.0, 0.0)


def test_larmor_equals_dwell():
    p = SquareBarrierParams(V0, 5.0)
    for k in (0.3 * EPS, 0.8 * EPS):
        ty, _, _ = tt.larmor_times(p, k)
        assert ty == pytest.approx(tt.dwell_time_closed(p, k), rel=1e-10, abs=0)


def test_larmor_thick_limits():
    kap = kappa(K5)
    d = 15.0 / kap
    p = SquareBarrierParams(V0, d)
    ty, tz, _ = tt.larmor_times(p, K5)
    assert tz == pytest.approx(ELECTRON.m_over_hbar * d / kap, rel=1e-2, abs=0)
    assert ty == pytest.approx(2.0 * ELECTRON.m_over_hbar * K5 / (EPS * EPS * kap), rel=1e-2, abs=0)


def test_complex_time_components():
    p = SquareBarrierParams(V0, 5.0)
    ty, tz, tx = tt.larmor_times(p, K5)
    ct = tt.complex_time(p, K5)
    assert ct.real == pytest.approx(ty, abs=0)
    assert ct.imag == pytest.approx(tz, abs=0)
    assert abs(ct) == pytest.approx(tx, rel=1e-14, abs=0)


# ---------------------------------------------------------------------------
# oscillating-barrier times


def test_bl_times_values():
    p = SquareBarrierParams(V0, 5.0)
    kap = kappa(K5)
    res = tt.buttiker_landauer(p, K5)
    assert res.tau_BL_T == pytest.approx(ELECTRON.m_over_hbar * 5.0 / kap, rel=1e-14, abs=0)
    assert res.tau_BL_R == pytest.approx(HBAR_EVS * K5 / (V0 * kap), rel=1e-14, abs=0)


@pytest.mark.parametrize("krel", [0.1, 0.5, 0.9])
def test_bl_times_agree_with_time_report_at_zero_width(krel):
    # a zero-width barrier has no sideband times on either route; the body
    # used to give buttiker_landauer hbar k/(V0 kappa) for tau_BL_R here
    p = SquareBarrierParams(V0, 0.0)
    k = krel * EPS
    res = tt.buttiker_landauer(p, k)
    rep = tt.time_report(p, k)
    assert (res.tau_BL_T, res.tau_BL_R) == (rep.tau_BL_T, rep.tau_BL_R) == (0.0, 0.0)
    # the rule keys on the width argument, not on params.d
    t = tt._stationary_times(SquareBarrierParams(V0, 5.0), k, np.array([0.0, 5.0]))
    assert t.bl_R[0] == 0.0
    assert t.bl_R[1] == tt.buttiker_landauer(SquareBarrierParams(V0, 5.0), k).tau_BL_R > 0


def test_bl_zero_frequency_limit():
    p = SquareBarrierParams(V0, 5.0)
    dV = 0.5
    res0 = tt.buttiker_landauer(p, K5, omega=0.0, deltaV=dV)
    want = (dV * res0.tau_BL_T / (2.0 * HBAR_EVS)) ** 2
    assert res0.I_plus == pytest.approx(want, rel=1e-14)
    assert res0.I_minus == pytest.approx(want, rel=1e-14)
    # small omega approaches the static value from both sidebands
    res1 = tt.buttiker_landauer(p, K5, omega=1e-4 / res0.tau_BL_T, deltaV=dV)
    assert res1.I_plus == pytest.approx(want, rel=1e-3)
    assert res1.I_minus == pytest.approx(want, rel=1e-3)


def test_bl_crossover_band_ratio():
    p = SquareBarrierParams(V0, 5.0)
    res0 = tt.buttiker_landauer(p, K5)
    with pytest.warns(UserWarning):
        res = tt.buttiker_landauer(p, K5, omega=1.0 / res0.tau_BL_T, deltaV=0.1)
    assert res.band_ratio == pytest.approx(math.tanh(1.0), rel=1e-12)
    assert res.I_plus > res.I_minus  # absorption sideband favoured


def test_bl_validity_warning_on_large_modulation():
    p = SquareBarrierParams(V0, 5.0)
    with pytest.warns(UserWarning, match="deltaV"):
        tt.buttiker_landauer(p, K5, omega=0.0, deltaV=2.0)


@pytest.mark.parametrize("d", [0.01, 5.0, 20.0])
def test_bl_times_rise_toward_the_top_from_either_side(d):
    p = SquareBarrierParams(V0, d)
    gaps = 10.0 ** -np.arange(2.0, 15.0)   # |k/eps - 1|, shrinking
    for side in (-1.0, 1.0):
        t = tt._stationary_times(p, EPS * (1.0 + side * gaps), d)
        assert (np.diff(t.bl_T) > 0).all() and (np.diff(t.bl_R) > 0).all()
    on_top = tt._stationary_times(p, EPS, [0.0, d])
    assert on_top.bl_T.tolist() == on_top.bl_R.tolist() == [0.0, math.inf]


def test_bl_absorption_sideband_overflows_to_inf_near_the_top():
    # omega tau_BL_T = 4.3e3 at k = eps (1 - 1e-15): I_+ overflows
    p = SquareBarrierParams(V0, 5.0)
    with pytest.warns(UserWarning, match="hbar\\*omega"):
        res = tt.buttiker_landauer(p, EPS * (1.0 - 1e-15), omega=1e12, deltaV=0.01)
    assert res.I_plus == math.inf
    assert math.isfinite(res.I_minus) and res.band_ratio == 1.0
    # without a modulation both sidebands are empty, however large e^{omega tau}
    with pytest.warns(UserWarning, match="hbar\\*omega"):
        res = tt.buttiker_landauer(p, EPS * (1.0 - 1e-15), omega=1e12, deltaV=0.0)
    assert res.I_plus == 0.0 and res.I_minus == 0.0


def test_bl_rejects_barrier_top():
    with pytest.raises(ValueError):
        tt.buttiker_landauer(SquareBarrierParams(V0, 5.0), EPS)


# ---------------------------------------------------------------------------
# dwell decomposition


@pytest.mark.parametrize("x1", [0.0, -5.0, -20.0])
@pytest.mark.parametrize("krel", [0.2, 0.55, 0.9])
def test_self_interference_identity(krel, x1):
    p = SquareBarrierParams(V0, 5.0)
    res = tt.self_interference_identity(p, krel * EPS, x1=x1, x2=12.0)
    assert abs(res.residual) <= 1e-9 * max(abs(res.tau_dwell), 1e-16)


def test_self_interference_oscillates_with_probe_position():
    # the interference term carries the sin(beta - 2 k x1) signature: moving
    # the upstream probe by a quarter wavelength flips its size
    p = SquareBarrierParams(V0, 5.0)
    k = 0.5 * EPS
    r0 = tt.self_interference_identity(p, k, x1=-3.0)
    r1 = tt.self_interference_identity(p, k, x1=-3.0 - math.pi / (2.0 * k))
    assert r0.tau_self_interference == pytest.approx(-r1.tau_self_interference, rel=1e-6, abs=0)


def test_self_interference_rejects_bad_probes():
    p = SquareBarrierParams(V0, 5.0)
    with pytest.raises(ValueError):
        tt.self_interference_identity(p, 0.5 * EPS, x1=1.0)
    with pytest.raises(ValueError):
        tt.self_interference_identity(p, 0.5 * EPS, x1=0.0, x2=2.0)


def test_step_barrier_relations():
    k = 0.7 * EPS
    res = tt.step_barrier_times(V0, k)
    E = float(ELECTRON.E_of_k(k))
    assert res.tau_dwell == pytest.approx((E / V0) * res.dtau_phase_R, rel=1e-12, abs=0)
    assert res.delta_tau_dwell == pytest.approx(((E - V0) / V0) * res.dtau_phase_R, rel=1e-12, abs=0)
    # independent route: integral of the standing density over the decay region
    assert tt.step_dwell_numeric(V0, k) == pytest.approx(res.tau_dwell, rel=1e-9, abs=0)


# ---------------------------------------------------------------------------
# spectral filtering


def test_reshaping_thin_barrier_no_violation():
    res = tt.reshaping_check(SquareBarrierParams(V0, 0.05), 0.7 * EPS, 0.07 * EPS)
    assert abs(res.peak_shift) < 0.07 * EPS
    assert res.violation_interval is None


def test_reshaping_zero_width():
    res = tt.reshaping_check(SquareBarrierParams(V0, 0.0), 0.7 * EPS, 0.1 * EPS)
    assert res.peak_shift == pytest.approx(0.0, abs=1e-4)
    assert res.weight_above_eps < 0.05


def test_reshaping_thick_barrier_pushes_weight_up():
    # the e^{-2 kappa d} filter moves the transmitted peak above k0
    res = tt.reshaping_check(SquareBarrierParams(V0, 20.0 / EPS), 0.7 * EPS, 0.07 * EPS)
    assert res.peak_shift > 0.0
    assert res.violation_interval is not None


def test_reshaping_rejects_bad_dk():
    with pytest.raises(ValueError):
        tt.reshaping_check(SquareBarrierParams(V0, 5.0), 0.7 * EPS, 0.0)


# ---------------------------------------------------------------------------
# centroid times


def make_summary(dk, d):
    pkt = SpectralPacket.gaussian(K5, dk)
    return tt.spectrum_summary(pkt, SquareBarrierParams(V0, d))


def test_spectrum_summary_symmetric_input():
    s = make_summary(0.02, 5.0)
    assert s.mean_k_in == pytest.approx(K5, rel=1e-10)
    assert s.mean_k_T > K5  # filter favours the fast components


def _fd_richardson(f, x: float, h: float) -> float:
    """Centered difference with one Richardson step (O(h^4)): the parent
    times module's helper, verbatim."""
    d1 = (f(x + h) - f(x - h)) / (2.0 * h)
    d2 = (f(x + 0.5 * h) - f(x - 0.5 * h)) / h
    return (4.0 * d2 - d1) / 3.0


def _parent_spectrum_summary(packet, params):
    """spectrum_summary as it was, with the phase slopes by a centered
    difference and one Richardson step on 8 closed phases per node: the
    oracle of the exact slopes."""
    h_rel = 1e-6
    ks = np.asarray(packet.k_nodes, dtype=float)
    wq = np.asarray(packet.weights, dtype=float)
    f2 = np.asarray(packet.amplitude, dtype=float) ** 2
    T = np.empty_like(ks)
    ap = np.empty_like(ks)
    bp = np.empty_like(ks)
    for i, kk in enumerate(ks):
        T[i] = closed_form_square(params, kk)[0]
        ap[i] = _fd_richardson(lambda kv: closed_form_square(params, kv)[2], kk, h_rel * kk)
        bp[i] = _fd_richardson(lambda kv: transmission_phase_reference(params, kv),
                               kk, h_rel * kk)
    R2 = np.maximum(1.0 - T ** 2, 0.0)
    w_in = wq * f2
    w_T = w_in * T ** 2
    w_R = w_in * R2
    s_in, s_T, s_R = w_in.sum(), w_T.sum(), w_R.sum()
    return tt.PacketSpectrumSummary(
        k0=float(packet.k0), dk=float(packet.dk),
        mean_k_in=float((w_in * ks).sum() / s_in),
        mean_k_T=float((w_T * ks).sum() / s_T),
        mean_k_R=float((w_R * ks).sum() / s_R),
        mean_alpha_prime_T=float((w_T * ap).sum() / s_T),
        mean_beta_prime_R=float((w_R * bp).sum() / s_R),
    ), ap, bp


# the reference packet, and one above the top
@pytest.mark.parametrize("V0_, d, E", [(V0, 5.0, 5.0), (5.0, 8.0, 6.0)])
def test_spectrum_summary_exact_slopes_match_richardson(V0_, d, E):
    params = SquareBarrierParams(V0_, d)
    pkt = SpectralPacket.gaussian(float(k_of_E(E)), 0.02, n_nodes=513)
    want, ap, bp = _parent_spectrum_summary(pkt, params)
    got = tt.spectrum_summary(pkt, params)
    for name in ("k0", "dk", "mean_k_in", "mean_k_T", "mean_k_R"):
        assert getattr(got, name) == getattr(want, name), name
    assert got.mean_alpha_prime_T == pytest.approx(want.mean_alpha_prime_T, rel=1e-7, abs=0)
    assert got.mean_beta_prime_R == pytest.approx(want.mean_beta_prime_R, rel=1e-7, abs=0)
    # node by node: alpha_ref' = v dtau_phase, alpha' = alpha_ref' - d, beta' = alpha_ref'
    exact = ELECTRON.v_of_k(pkt.k_nodes) * np.array(
        [tt.extrapolated_phase_times(params, k)[0] for k in pkt.k_nodes.tolist()])
    assert np.abs(exact - bp).max() <= 1e-7 * np.abs(exact).min()
    assert np.abs(exact - d - ap).max() <= 1e-7 * np.abs(exact).min()


def test_centroid_zero_width_barrier():
    s = make_summary(0.02, 0.0)
    tau_T, _ = tt.centroid_times(s, SquareBarrierParams(V0, 0.0))
    assert tau_T == pytest.approx(0.0, abs=1e-22)


def test_centroid_approaches_phase_time():
    p = SquareBarrierParams(V0, 5.0)
    dT, _ = tt.extrapolated_phase_times(p, K5)
    errs = []
    for dk in (0.02, 0.005):
        tau_T, _ = tt.centroid_times(make_summary(dk, 5.0), p)
        errs.append(abs(tau_T - dT))
    assert errs[1] < errs[0]  # converges toward the monochromatic limit
    assert errs[1] < 0.05 * dT


# ---------------------------------------------------------------------------
# assembled report


def test_time_report_fields_finite():
    rep = tt.time_report(SquareBarrierParams(V0, 5.0), K5)
    for name in ("tau_eq", "dtau_phase_T", "dtau_phase_R", "tau_dwell",
                 "tau_larmor_y", "tau_larmor_z", "tau_larmor_x",
                 "tau_BL_T", "tau_BL_R", "tau_semiclassical"):
        assert math.isfinite(getattr(rep, name)), name
    assert rep.k == K5
    assert rep.tau_dwell == pytest.approx(rep.tau_larmor_y, rel=1e-10, abs=0)


def test_time_report_finite_at_barrier_top():
    # the sideband (and semiclassical) times m d/(hbar |q|) and
    # hbar k/(V0 |q|) diverge on the top; every other time is finite there
    rep = tt.time_report(SquareBarrierParams(V0, 5.0), float(EPS))
    infinite = ("tau_BL_T", "tau_BL_R", "tau_semiclassical")
    for name in infinite:
        assert getattr(rep, name) == math.inf, name
    for name, value in vars(rep).items():
        if name not in infinite:
            assert np.isfinite(value), name


@settings(max_examples=30, deadline=None)
@given(krel=st.floats(0.1, 0.95), deps=st.floats(2.0, 20.0))
def test_phase_dwell_selfinterference_consistency(krel, deps):
    # tau_dwell <= phase-time scale sanity across the sub-barrier grid:
    # identity residual stays at solver precision everywhere
    p = SquareBarrierParams(V0, deps / EPS)
    res = tt.self_interference_identity(p, krel * EPS, x1=-2.0)
    assert abs(res.residual) <= 1e-9 * max(abs(res.tau_dwell), 1e-16)


# ---------------------------------------------------------------------------
# input validation


_P = SquareBarrierParams(V0, 5.0)

# each takes a bad value in one argument; x1 gets -bad, since x1 = -1 is valid
BAD_INPUT = {
    "dwell_time_closed": lambda b: tt.dwell_time_closed(_P, b),
    "larmor_times": lambda b: tt.larmor_times(_P, b),
    "complex_time": lambda b: tt.complex_time(_P, b),
    "tau_semiclassical": lambda b: tt.tau_semiclassical(_P, b),
    "tau_equivalent": lambda b: tt.tau_equivalent(_P, b),
    "hartman_bracket": lambda b: tt.hartman_bracket(_P, b),
    "buttiker_landauer k": lambda b: tt.buttiker_landauer(_P, b),
    "buttiker_landauer omega": lambda b: tt.buttiker_landauer(_P, K5, omega=b),
    "buttiker_landauer deltaV": lambda b: tt.buttiker_landauer(_P, K5, omega=1e12, deltaV=b),
    "step_barrier_times": lambda b: tt.step_barrier_times(V0, b),
    "step_dwell_numeric": lambda b: tt.step_dwell_numeric(V0, b),
    "delta_closed_form": lambda b: delta_closed_form(50.0, b),
    "larmor_times_kappa_derivative": lambda b: tt.larmor_times_kappa_derivative(_P, b),
    "self_interference_identity k": lambda b: tt.self_interference_identity(_P, b, x1=-1.0),
    "self_interference_identity x1": lambda b: tt.self_interference_identity(_P, K5, x1=-b),
    "self_interference_identity x2": lambda b: tt.self_interference_identity(_P, K5, x1=-1.0,
                                                                             x2=b),
}


@pytest.mark.parametrize("bad", [math.nan, -1.0, math.inf])
@pytest.mark.parametrize("call", sorted(BAD_INPUT))
def test_library_rejects_bad_input(call, bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # a raise, not a warning on the way to nan
        with pytest.raises(ValueError):
            BAD_INPUT[call](bad)


# each call is finite but just outside its function's domain
OUT_OF_DOMAIN = {
    "hartman_bracket above the top": (lambda: tt.hartman_bracket(_P, 1.1 * EPS),
                                      "below the barrier top"),
    "dwell_time x2 = x1": (lambda: tt.dwell_time(PiecewisePotential.square(V0, 5.0), K5,
                                                 5.0, 5.0), "x1 < x2"),
    "dwell_time x2 < x1": (lambda: tt.dwell_time(PiecewisePotential.square(V0, 5.0), K5,
                                                 5.0, 0.0), "x1 < x2"),
    "step_barrier_times E > V0": (lambda: tt.step_barrier_times(V0, 1.2 * EPS), "sub-barrier"),
    # T^2 underflows on every node of a 1 eV packet under a 100 eV, 200 A barrier
    "spectrum_summary T = 0": (lambda: tt.spectrum_summary(
        SpectralPacket.gaussian(k_of_E(1.0), 0.02, n_nodes=65), SquareBarrierParams(100.0, 200.0)),
        "transmitted weight vanishes"),
}


@pytest.mark.parametrize("call", sorted(OUT_OF_DOMAIN))
def test_library_rejects_out_of_domain_input(call):
    fn, match = OUT_OF_DOMAIN[call]
    with pytest.raises(ValueError, match=match):
        fn()
