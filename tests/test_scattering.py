import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from conftest import parent_psi_and_dpsi, parent_solve_transfer_matrix
from hypothesis import given, settings, strategies as st
from numpy.polynomial.legendre import leggauss, legvander

from tunneltime.scattering import (
    PiecewisePotential,
    ScatteringState,
    SquareBarrierParams,
    _gauss_legendre,
    closed_form_square,
    delta_closed_form,
    solve_transfer_matrix,
    step_reflection,
)
from tunneltime.units import ELECTRON, E_of_k, k_of_E

V0 = 10.0
EPS = k_of_E(V0)


def wrap(x):
    """Map an angle difference into (-pi, pi]."""
    return (x + math.pi) % (2.0 * math.pi) - math.pi


DELTA_D0 = 1e-4   # A; the widest square barrier of the delta limit


def delta_barrier_limit(strength, k):
    """(T, R, alpha, beta) of the d -> 0 square-barrier family at fixed
    V0*d: the transfer-matrix side of the delta pair, the oracle of
    delta_closed_form. The amplitudes converge with error proportional to d,
    so one Richardson step on DELTA_D0, DELTA_D0/2 removes the leading term."""
    vals = []
    for d in (DELTA_D0, DELTA_D0 / 2.0):
        st_ = solve_transfer_matrix(PiecewisePotential.square(strength / d, d), k)
        vals.append((st_.amp_T, st_.amp_R))
    t = 2.0 * vals[1][0] - vals[0][0]
    r = 2.0 * vals[1][1] - vals[0][1]
    return abs(t), abs(r), float(np.angle(t)), float(np.angle(r))


# ---------------------------------------------------------------------------
# construction and validation


def test_potential_validation():
    with pytest.raises(ValueError):
        PiecewisePotential(segments=((0.0, 5.0, 10.0), (6.0, 8.0, 4.0)))  # gap
    with pytest.raises(ValueError):
        PiecewisePotential(segments=((0.0, -1.0, 10.0),))  # negative width
    # zero-width segments are dropped, not errors
    p = PiecewisePotential(segments=((0.0, 0.0, 3.0), (0.0, 5.0, 10.0)))
    assert len(p.segments) == 1


def test_zero_width_square_is_free_space():
    assert PiecewisePotential.square(10.0, 0.0) == PiecewisePotential.free()


@pytest.mark.parametrize("V0_, d, match", [(0.0, 5.0, "V0 must be positive"),
                                           (-1.0, 5.0, "V0 must be positive"),
                                           (10.0, -1.0, "d must be >= 0")])
def test_square_params_reject_out_of_domain(V0_, d, match):
    with pytest.raises(ValueError, match=match):
        SquareBarrierParams(V0_, d)


def test_step_cannot_be_reversed():
    with pytest.raises(ValueError, match="semi-infinite"):
        PiecewisePotential.step(V0).reversed()


def test_k_validation():
    with pytest.raises(ValueError):
        solve_transfer_matrix(PiecewisePotential.square(V0, 5.0), 0.0)
    with pytest.raises(ValueError):
        closed_form_square(SquareBarrierParams(V0, 5.0), -1.0)


def test_opacity_guard():
    # kappa*d ~ 1.15 * 600 far beyond the supported range
    with pytest.raises(ValueError, match="opacity"):
        solve_transfer_matrix(PiecewisePotential.square(V0, 600.0), 0.5 * EPS)


def test_free_potential():
    st_ = solve_transfer_matrix(PiecewisePotential.free(), 1.1)
    assert st_.amp_T == pytest.approx(1.0)
    assert abs(st_.amp_R) == pytest.approx(0.0, abs=1e-15)


# ---------------------------------------------------------------------------
# unitarity and closed form vs transfer matrix


@settings(max_examples=60, deadline=None)
@given(
    krel=st.floats(0.05, 3.0),
    deps=st.floats(1.0, 25.0),
    V=st.floats(0.5, 40.0),
)
def test_unitarity_property(krel, deps, V):
    eps = k_of_E(V)
    k = krel * eps
    d = deps / eps
    st_ = solve_transfer_matrix(PiecewisePotential.square(V, d), k)
    assert st_.T ** 2 + st_.R ** 2 == pytest.approx(1.0, abs=1e-10)


@settings(max_examples=60, deadline=None)
@given(krel=st.floats(0.05, 3.0), deps=st.floats(1.0, 25.0))
def test_closed_form_matches_transfer_matrix(krel, deps):
    k = krel * EPS
    d = deps / EPS
    params = SquareBarrierParams(V0, d)
    T, R, alpha, beta = closed_form_square(params, k)
    st_ = solve_transfer_matrix(params.potential(), k)
    assert st_.T == pytest.approx(T, abs=1e-10)
    assert st_.R == pytest.approx(R, abs=1e-10)
    assert wrap(st_.alpha - alpha) == pytest.approx(0.0, abs=1e-8)
    if R > 1e-12:  # reflection phase means nothing at a transmission resonance
        assert wrap(st_.beta - beta) == pytest.approx(0.0, abs=1e-8)


def test_exact_barrier_top():
    d = 5.0
    params = SquareBarrierParams(V0, d)
    T, R, alpha, beta = closed_form_square(params, EPS)
    assert T == pytest.approx(1.0 / math.sqrt(1.0 + (EPS * d) ** 2 / 4.0), rel=1e-12)
    st_ = solve_transfer_matrix(params.potential(), EPS)
    assert st_.T == pytest.approx(T, abs=1e-12)
    assert wrap(st_.alpha - alpha) == pytest.approx(0.0, abs=1e-10)
    # continuity through the eps window
    for k in (EPS * (1 - 5e-10), EPS * (1 + 5e-10)):
        Tk = closed_form_square(params, k)[0]
        assert Tk == pytest.approx(T, rel=1e-7)


def test_zero_width_barrier():
    params = SquareBarrierParams(V0, 0.0)
    assert closed_form_square(params, 0.9) == (1.0, 0.0, 0.0, 0.0)


def test_deep_tunnelling_amplitude_scale():
    # T tracks 2 k kappa e^{-kappa d}/eps^2 deep in the opaque regime
    d = 40.0
    k = 0.5 * EPS
    kap = math.sqrt(EPS ** 2 - k ** 2)
    T = closed_form_square(SquareBarrierParams(V0, d), k)[0]
    assert T == pytest.approx(4.0 * k * kap * math.exp(-kap * d) / EPS ** 2, rel=1e-3, abs=0)


def test_above_barrier_resonances():
    # T = 1 exactly at kt d = n pi
    d = 5.0
    kt = 2.0 * math.pi / d
    k = math.hypot(kt, EPS)
    T, R, _, _ = closed_form_square(SquareBarrierParams(V0, d), k)
    assert T == pytest.approx(1.0, abs=1e-12)
    assert R == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# wavefunction structure


@pytest.mark.parametrize("krel", [0.3, 0.7, 0.999999999, 1.4])
def test_interface_continuity(krel):
    k = krel * EPS
    pot = PiecewisePotential.double_barrier(V0, 3.0, 4.0)
    st_ = solve_transfer_matrix(pot, k)
    h = 1e-7
    for edge in (0.0, 3.0, 7.0, 10.0):
        pl, dl = st_.psi_and_dpsi(edge - h)
        pr, dr = st_.psi_and_dpsi(edge + h)
        # O(h) mismatch from the derivative jump is second order in psi
        assert abs(pl - pr) <= 1e-9 * max(1.0, abs(pl)) + 2e-7 * abs(dl)
        assert abs(dl - dr) <= 1e-6 * max(abs(dl), abs(dr), k)


def test_left_region_form():
    k = 0.6 * EPS
    pot = PiecewisePotential.square(V0, 5.0)
    st_ = solve_transfer_matrix(pot, k)
    x = -7.3
    expected = np.exp(1j * k * x) + st_.amp_R * np.exp(-1j * k * x)
    assert st_.psi(x) == pytest.approx(expected, abs=1e-12)


def test_right_region_form():
    k = 0.6 * EPS
    d = 5.0
    st_ = solve_transfer_matrix(PiecewisePotential.square(V0, d), k)
    x = d + 11.0
    assert st_.psi(x) == pytest.approx(st_.amp_T * np.exp(1j * k * x), abs=1e-12)
    # |psi| at the exit face equals |t|
    assert abs(st_.psi(d)) == pytest.approx(abs(st_.amp_T), rel=1e-12)


@pytest.mark.parametrize("krel,d", [(0.5, 5.0), (0.5, 30.0), (1.7, 5.0)])
def test_interior_satisfies_schrodinger(krel, d):
    # psi'' = (2m/hbar^2)(V-E) psi checked by a five-point stencil
    k = krel * EPS
    pot = PiecewisePotential.square(V0, d)
    st_ = solve_transfer_matrix(pot, k)
    E = E_of_k(k)
    q2 = (2.0 * ELECTRON.electron_rest_eV / ELECTRON.hbarc_eV_A ** 2) * (V0 - E)
    h = 1e-3
    for x in (0.2 * d, 0.5 * d, 0.8 * d):
        xs = x + h * np.arange(-2, 3)
        ps = st_.psi(xs)
        second = (-ps[0] + 16 * ps[1] - 30 * ps[2] + 16 * ps[3] - ps[4]) / (12 * h * h)
        assert abs(second - q2 * ps[2]) <= 1e-5 * abs(q2 * ps[2]) + 1e-18


def test_interior_two_edge_anchoring_extreme_opacity():
    # at kappa*d ~ 460 the growing-edge coefficient must still be finite and
    # the exit amplitude exact; naive forward propagation would overflow
    d = 400.0
    k = 0.5 * EPS
    st_ = solve_transfer_matrix(PiecewisePotential.square(V0, d), k)
    assert np.isfinite(st_.T)
    assert abs(st_.psi(d)) == pytest.approx(abs(st_.amp_T), rel=1e-10)
    assert abs(st_.psi(0.5 * d)) < abs(st_.psi(0.0))


def _series_modes(state, j, xs):
    """(psi, dpsi) at xs in segment j from the anchored solver's left-edge
    values: C psi_l + b S psi'_l and -q^2 b S psi_l + C psi'_l with
    b = x - x_l, and C = cos(q b), S = sin(q b)/(q b) summed as their Taylor
    series in s = q^2 b^2 (|s| < 1 here, 20 terms past rounding)."""
    xl = state.potential.segments[j][0]
    q2 = -(state.kappas[j] ** 2).real
    b = xs - xl
    s = q2 * b * b
    C, S = np.zeros_like(b), np.zeros_like(b)
    for n in range(19, -1, -1):
        C = C * -s + 1.0 / math.factorial(2 * n)
        S = S * -s + 1.0 / math.factorial(2 * n + 1)
    pl, dl = state._psi_l[j], state._dpsi_l[j]
    return C * pl + b * S * dl, -q2 * b * S * pl + C * dl


@pytest.mark.parametrize("pot", [PiecewisePotential.square(5.0, 2.0),
                                 PiecewisePotential.square(10.0, 3.0),
                                 PiecewisePotential.square(1.24, 1.05),
                                 PiecewisePotential.double_barrier(5.0, 2.0, 3.0)])
@pytest.mark.parametrize("delta", [0.0, 1e-16, -1e-16, 1e-13, -1e-13, 1e-10, -1e-10,
                                   1e-7, -1e-7])
def test_interior_modes_through_the_top(pot, delta):
    # k = eps (1 + delta) on each barrier's top. The reference is independent
    # of the segment body: inside a segment with |q w| < 1 the Taylor series
    # of C and S from the anchored solver's left edge, elsewhere that
    # solver's anchored form, which near the top loses about eps/(|q| w) to
    # A = (psi_l - psi'_l/kappa)/2 (1.5e-8 at k = eps on square(1.24, 1.05))
    k = float(k_of_E(pot.segments[0][2])) * (1.0 + delta)
    state = solve_transfer_matrix(pot, k)
    parent = parent_solve_transfer_matrix(pot, k)
    for j, (xl, xr, _) in enumerate(pot.segments):
        xs = np.append(xl + (xr - xl) * np.linspace(0.0, 0.9, 10), np.nextafter(xr, xl))
        near_top = abs(parent.kappas[j]) * (xr - xl) < 1.0
        want_p, want_d = (_series_modes(parent, j, xs) if near_top
                          else parent_psi_and_dpsi(parent, xs))
        got_p, got_d = state.psi_and_dpsi(xs)
        np.testing.assert_allclose(got_p, want_p, rtol=1e-13, atol=0, err_msg=f"psi {j}")
        np.testing.assert_allclose(got_d, want_d, rtol=1e-13, atol=0, err_msg=f"dpsi {j}")


def test_current_constancy_moderate_opacity():
    k = k_of_E(5.0)
    pot = PiecewisePotential.square(V0, 5.0)
    st_ = solve_transfer_matrix(pot, k)
    xs = np.array([-8.0, -1.0, 0.3, 2.5, 4.7, 5.2, 12.0])
    psi, dpsi = st_.psi_and_dpsi(xs)
    j = ELECTRON.hbar_over_m * np.imag(np.conj(psi) * dpsi)
    j_out = ELECTRON.v_of_k(k) * st_.T ** 2
    np.testing.assert_allclose(j, j_out, rtol=1e-9)


# ---------------------------------------------------------------------------
# reciprocity


@settings(max_examples=40, deadline=None)
@given(krel=st.floats(0.1, 2.5))
def test_transmission_reciprocity_asymmetric(krel):
    # same |t| (and T) from either side of an asymmetric structure
    k = krel * EPS
    pot = PiecewisePotential(segments=((0.0, 2.0, 10.0), (2.0, 5.0, 4.0)))
    fwd = solve_transfer_matrix(pot, k)
    rev = solve_transfer_matrix(pot.reversed(), k)
    assert rev.T == pytest.approx(fwd.T, abs=1e-11)
    assert rev.R == pytest.approx(fwd.R, abs=1e-11)


def test_double_barrier_reciprocity():
    k = 0.62 * EPS
    pot = PiecewisePotential.double_barrier(V0, 3.0, 6.0)
    fwd = solve_transfer_matrix(pot, k)
    rev = solve_transfer_matrix(pot.reversed(), k)
    assert rev.amp_T == pytest.approx(fwd.amp_T, abs=1e-12)


# ---------------------------------------------------------------------------
# step and delta barriers


def test_step_total_reflection():
    k = 0.6 * EPS
    st_ = solve_transfer_matrix(PiecewisePotential.step(V0), k)
    assert abs(st_.amp_R) == pytest.approx(1.0, abs=1e-12)
    r = step_reflection(V0, k)
    assert st_.amp_R == pytest.approx(r, abs=1e-10)


def test_step_reflection_above_raises():
    with pytest.raises(ValueError):
        step_reflection(V0, 1.2 * EPS)


def test_delta_limit_matches_closed_form():
    strength = 20.0  # eV * A
    for k in (0.5, 1.1456, 3.0):
        got = delta_barrier_limit(strength, k)
        want = delta_closed_form(strength, k)
        assert got[0] == pytest.approx(want[0], abs=1e-6)
        assert got[1] == pytest.approx(want[1], abs=1e-6)
        assert wrap(got[2] - want[2]) == pytest.approx(0.0, abs=1e-5)
        assert wrap(got[3] - want[3]) == pytest.approx(0.0, abs=1e-5)


def test_delta_zero_strength():
    assert delta_closed_form(0.0, 1.0) == (1.0, 0.0, 0.0, 0.0)
    assert delta_barrier_limit(0.0, 1.0) == (1.0, 0.0, 0.0, 0.0)


def test_delta_transparent_at_large_k():
    T = delta_closed_form(20.0, 80.0)[0]
    assert T > 0.999


def test_delta_unitarity():
    T, R, _, _ = delta_closed_form(35.0, 0.8)
    assert T * T + R * R == pytest.approx(1.0, rel=1e-14)


# ---------------------------------------------------------------------------
# phase conventions


def test_phase_reference_anchor():
    params = SquareBarrierParams(V0, 5.0)
    k = 0.5 * EPS
    _, _, alpha, _ = closed_form_square(params, k)
    # the barrier-face phase alpha + k d: tan = (k^2 - kappa^2)/(2 k kappa) tanh(kappa d)
    kap = math.sqrt(EPS * EPS - k * k)
    want = math.atan((k * k - kap * kap) / (2.0 * k * kap) * math.tanh(kap * 5.0))
    assert alpha + k * 5.0 == pytest.approx(want, rel=1e-12)
    # d -> 0: full phase vanishes
    assert closed_form_square(SquareBarrierParams(V0, 1e-12), k)[2] == pytest.approx(0.0, abs=1e-10)


def test_below_top_phase_relation():
    # beta = alpha_ref - pi/2 in the tunnelling regime
    params = SquareBarrierParams(V0, 5.0)
    k = 0.45 * EPS
    _, _, alpha, beta = closed_form_square(params, k)
    assert beta == pytest.approx(alpha + k * 5.0 - math.pi / 2.0, rel=1e-12)


# ---------------------------------------------------------------------------
# the Gauss-Legendre rule, against numpy's Golub-Welsch leggauss

RULE_SIZES = [*range(1, 17), 24, 41, 65, *range(125, 134), *range(509, 518), 2049]


@pytest.mark.parametrize("n", RULE_SIZES)
def test_gauss_legendre_nodes_match_leggauss(n):
    x, w = _gauss_legendre(n)
    assert x.shape == w.shape == (n,)
    assert -1.0 < x[0] and x[-1] < 1.0 and (np.diff(x) > 0).all()
    assert (x == -x[::-1]).all() and (w == w[::-1]).all()
    if n % 2:
        assert x[n // 2] == 0.0
    assert np.abs(x - leggauss(n)[0]).max() <= np.finfo(float).eps
    assert (w > 0).all()


@pytest.mark.parametrize("n", [1, 2, 3, 8, 24, 41, 65, 129, 513])
def test_gauss_legendre_weights_are_orthogonal(n):
    # sum w P_i P_j = 2/(2i+1) delta_ij whenever i + j <= 2n - 1
    x, w = _gauss_legendre(n)
    V = legvander(x, n)
    gram = V.T @ (w[:, None] * V)
    want = np.diag(2.0 / (2.0 * np.arange(n + 1) + 1.0))
    i, j = np.indices(gram.shape)
    exact = i + j <= 2 * n - 1
    assert np.abs(gram - want)[exact].max() <= 1e-13


@pytest.mark.parametrize("n", [65, 129, 513])
def test_gauss_legendre_weights_match_a_40_digit_rule(n):
    # 2(1 - x^2)/(n P_{n-1}(x))^2 at roots refined by Newton in decimal; the
    # endpoint weights are the hardest: 3.4e-13 here at n = 513, 9e-10 for leggauss
    x, w = _gauss_legendre(n)
    want = []
    with localcontext() as ctx:
        ctx.prec = 40
        for xi in x[n // 2:]:
            r = Decimal(float(xi))
            for newton in range(4):
                p0, p1 = Decimal(1), r
                for k in range(2, n + 1):
                    p0, p1 = p1, ((2 * k - 1) * r * p1 - (k - 1) * p0) / k
                if newton < 3:
                    r -= p1 * (1 - r * r) / (n * (p0 - r * p1))
            want.append(float(2 * (1 - r * r) / (n * p0) ** 2))
    assert np.abs(w[n // 2:] / np.array(want) - 1.0).max() <= 1e-12


def test_gauss_legendre_rule_is_cached_read_only():
    x, w = _gauss_legendre(65)
    assert _gauss_legendre(65)[0] is x
    for a in (x, w):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0
