"""Stationary tunnelling-time catalogue for the square barrier.

Every definition keeps two independent code paths where one exists:
closed forms on one side, numerical derivatives or integrals of the
scattering solution on the other. Tests pin the two against each other;
nothing here collapses them into a single route.

Below the barrier top all expressions use k (incident), kappa (decay) with
eps^2 = k^2 + kappa^2. Above the top the analytic continuation
kappa -> i*kt (kt^2 = k^2 - eps^2) is carried out explicitly in each form.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .scattering import (
    PiecewisePotential,
    ScatteringState,
    SquareBarrierParams,
    _check_k,
    _phase_slopes,
    closed_form_square,
    solve_transfer_matrix,
    step_reflection,
    transmission_phase_reference,
)
from .units import ELECTRON, UnitSystem

_TOP_REL_WINDOW = 1e-9     # |k - eps| below this uses one-sided continuation
_TOP_OFFSET = 1e-7         # continuation points k = eps(1 +- 1e-7)
_DWELL_NODES = 24          # Gauss-Legendre nodes per dwell-time panel


# ---------------------------------------------------------------------------
# report container


@dataclass
class TimeReport:
    """All stationary times at one (barrier, k) point, in seconds."""

    k: float
    tau_eq: float
    dtau_phase_T: float
    dtau_phase_R: float
    tau_dwell: float
    tau_larmor_y: float
    tau_larmor_z: float
    tau_larmor_x: float
    tau_BL_T: float
    tau_BL_R: float
    tau_semiclassical: float
    tau_complex: complex


@dataclass
class PacketSpectrumSummary:
    """Weighted spectral averages feeding the centroid times.

    mean_k_* use |f|^2, |fT|^2, |fR|^2 weights respectively; the phase
    derivative means use the transmitted/reflected weights.
    """

    k0: float
    dk: float
    mean_k_in: float
    mean_k_T: float
    mean_k_R: float
    mean_alpha_prime_T: float
    mean_beta_prime_R: float
    x0: float


@dataclass
class SelfInterferenceResult:
    residual: float
    tau_dwell: float
    tau_phase_T: float
    tau_phase_R: float
    tau_self_interference: float


@dataclass
class StepBarrierTimes:
    tau_dwell: float
    dtau_phase_R: float
    delta_tau_dwell: float


@dataclass
class ReshapeResult:
    peak_shift: float
    violation_interval: tuple[float, float] | None
    weight_above_eps: float
    k_grid: np.ndarray
    transmission: np.ndarray
    weight: np.ndarray
    product: np.ndarray


@dataclass
class ButtikerLandauerResult:
    tau_BL_T: float
    tau_BL_R: float
    I_plus: float
    I_minus: float
    band_ratio: float


# ---------------------------------------------------------------------------
# helpers


def _split_k(params: SquareBarrierParams, k: float):
    """(kappa, kt) with exactly one of them valid; None marks the other."""
    eps = params.eps
    if k < eps:
        return math.sqrt(eps * eps - k * k), None
    return None, math.sqrt(k * k - eps * eps)


def _at_top(params: SquareBarrierParams, k: float) -> bool:
    return abs(k - params.eps) < _TOP_REL_WINDOW * params.eps


def _continue_through_top(f, params: SquareBarrierParams, k: float):
    """Average of f at k = eps(1 -+ offset); used only in the k = eps window."""
    eps = params.eps
    lo = f(params, eps * (1.0 - _TOP_OFFSET))
    hi = f(params, eps * (1.0 + _TOP_OFFSET))
    if isinstance(lo, tuple):
        return tuple(0.5 * (a + b) for a, b in zip(lo, hi))
    return 0.5 * (lo + hi)


def _scaled_den(k: float, kap: float, eps: float, d: float):
    """(g2, D_sc) below the top: g2 = e^{-2 kappa d} and
    D_sc = D e^{-2 kappa d}, D = 4 k^2 kappa^2 + eps^4 sinh^2(kappa d).
    The scaled pair stays finite at any opacity."""
    g2 = math.exp(-2.0 * kap * d)
    return g2, 4.0 * k * k * kap * kap * g2 + eps ** 4 * (0.5 * (1.0 - g2)) ** 2


def _den_above(k: float, kt: float, eps: float, d: float) -> float:
    """D continued above the top: 4 k^2 kt^2 + eps^4 sin^2(kt d)."""
    return 4.0 * k * k * kt * kt + eps ** 4 * math.sin(kt * d) ** 2


def _sideband_pair(params: SquareBarrierParams, k: float):
    """(m d/(hbar kappa), hbar k/(V0 kappa)); kappa -> kt above the top."""
    if _at_top(params, k):
        return _continue_through_top(_sideband_pair, params, k)
    kap, kt = _split_k(params, k)
    kv = kap if kap is not None else kt
    u = params.units
    return u.m_over_hbar * params.d / kv, u.hbar_eV_s * k / (params.V0 * kv)


def _fd_richardson(f, x: float, h: float) -> float:
    """Centered difference with one Richardson step (O(h^4))."""
    d1 = (f(x + h) - f(x - h)) / (2.0 * h)
    d2 = (f(x + 0.5 * h) - f(x - 0.5 * h)) / h
    return (4.0 * d2 - d1) / 3.0


def tau_equivalent(params: SquareBarrierParams, k: float) -> float:
    """Free flight over the barrier width: m d/(hbar k)."""
    return params.units.m_over_hbar * params.d / k


def tau_semiclassical(params: SquareBarrierParams, k: float) -> float:
    """m d/(hbar kappa); interior-momentum crossing above the top."""
    return _sideband_pair(params, k)[0]


# ---------------------------------------------------------------------------
# phase times


def hartman_bracket(params: SquareBarrierParams, k: float) -> float:
    """Dimensionless factor of the extrapolated phase time (sub-barrier).

    [2 kappa d k^2 (kappa^2-k^2) + eps^4 sinh(2 kappa d)] / D with
    D = 4 k^2 kappa^2 + eps^4 sinh^2(kappa d); tends to 2 for opaque barriers.
    """
    eps = params.eps
    d = params.d
    if k >= eps:
        raise ValueError("bracket defined below the barrier top")
    kap = math.sqrt(eps * eps - k * k)
    # numerator and denominator both scaled by e^{-2 kappa d}: finite at any opacity
    g2, D_sc = _scaled_den(k, kap, eps, d)
    sh2_sc = 0.5 * (1.0 - g2 * g2)        # sinh(2 kappa d) e^{-2 kappa d}
    num_sc = 2.0 * kap * d * k * k * (kap * kap - k * k) * g2 + eps ** 4 * sh2_sc
    return num_sc / D_sc


def extrapolated_phase_times(params: SquareBarrierParams, k: float):
    """(dtau_T, dtau_R) from the closed phase-derivative form.

    Both channels coincide for the square barrier. Above the top the
    continued form is used; at k = eps the one-sided limit.
    """
    _check_k(k)
    if params.d == 0:
        return 0.0, 0.0
    if _at_top(params, k):
        return _continue_through_top(extrapolated_phase_times, params, k)
    u = params.units
    eps = params.eps
    d = params.d
    kap, kt = _split_k(params, k)
    if kap is not None:
        tau = u.m_over_hbar / (k * kap) * hartman_bracket(params, k)
    else:
        num = 2.0 * kt * d * k * k * (kt * kt + k * k) - eps ** 4 * math.sin(2.0 * kt * d)
        tau = u.m_over_hbar / (k * kt) * num / _den_above(k, kt, eps, d)
    return tau, tau


def phase_times_fd(params: SquareBarrierParams, k: float):
    """(dtau_T, dtau_R) from transfer-matrix phases by centered differences.

    Independent of the closed route: phases come from the transfer sweep
    (_phase_slopes), differentiated with step 1e-6 k and one Richardson
    extrapolation. Branch cuts cancel in angle(t(k+h) conj(t(k-h))) for
    small h.
    """
    if params.d == 0:
        return 0.0, 0.0
    u = params.units
    alpha_prime, beta_prime = _phase_slopes(params.potential().segments, k, u)
    v = u.v_of_k(k)
    return (params.d + alpha_prime) / v, beta_prime / v


# ---------------------------------------------------------------------------
# dwell time


def dwell_time_closed(params: SquareBarrierParams, k: float) -> float:
    """Barrier-interval dwell time, closed form.

    (m/hbar)(k/kappa) [2 kappa d (kappa^2-k^2) + eps^2 sinh(2 kappa d)] / D.
    The prefactor carries kappa^1, fixed against the direct |psi|^2 integral.
    """
    if params.d == 0:
        return 0.0
    if _at_top(params, k):
        return _continue_through_top(dwell_time_closed, params, k)
    u = params.units
    eps = params.eps
    d = params.d
    kap, kt = _split_k(params, k)
    if kap is not None:
        g2, D_sc = _scaled_den(k, kap, eps, d)
        num_sc = 2.0 * kap * d * (kap * kap - k * k) * g2 + eps ** 2 * 0.5 * (1.0 - g2 * g2)
        return u.m_over_hbar * k / kap * num_sc / D_sc
    num = 2.0 * kt * d * (kt * kt + k * k) - eps ** 2 * math.sin(2.0 * kt * d)
    return u.m_over_hbar * k / kt * num / _den_above(k, kt, eps, d)


@functools.cache
def _dwell_rule():
    """Gauss-Legendre nodes and weights of one dwell-time panel, built and
    imported on first use: leggauss starts numpy's LAPACK (about 1 MB and
    0.6 ms), and importing it ahead of wavepacket raises the CLI's import
    peak by about 0.3 MB."""
    from numpy.polynomial.legendre import leggauss

    return leggauss(_DWELL_NODES)


def _medium_wavenumber(state: ScatteringState, x: float) -> float:
    """|q| of the medium at x: |kappa_j| inside segment j, k outside."""
    pot = state.potential
    last = len(pot.segments) - 1
    for j, (xl, xr, _) in enumerate(pot.segments):
        if xl <= x and (x < xr or (pot.semi_infinite and j == last)):
            return abs(state.kappas[j])
    return state.k


def dwell_time(potential: PiecewisePotential, k: float, x1: float, x2: float,
               units: UnitSystem = ELECTRON) -> float:
    """Probability content of [x1, x2] over incident flux, by quadrature.

    Composite Gauss-Legendre between the segment edges, _DWELL_NODES nodes
    per panel. A panel spans at most 1.5/|q| for the medium's wavenumber q,
    so |psi|^2 turns through at most 3 rad or falls by at most e^3 across it.
    """
    if x2 <= x1:
        raise ValueError("x1 < x2 required")
    state = solve_transfer_matrix(potential, k, units)
    v = float(units.v_of_k(k))
    nodes, weights = _dwell_rule()
    cuts = [x1] + [c for xl, xr, _ in potential.segments for c in (xl, xr)
                   if x1 < c < x2] + [x2]
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        if b <= a:
            continue
        q = _medium_wavenumber(state, 0.5 * (a + b))
        edges = np.linspace(a, b, max(1, math.ceil(2.0 * (b - a) * q / 3.0)) + 1)
        half = 0.5 * np.diff(edges)[:, None]
        xs = edges[:-1, None] + half * (1.0 + nodes)
        total += float(np.sum(half * weights * np.abs(state.psi(xs)) ** 2))
    return total / v


# ---------------------------------------------------------------------------
# Larmor and complex times


def larmor_times(params: SquareBarrierParams, k: float):
    """(tau_y, tau_z, tau_x) closed forms.

    tau_y equals the (0,d) dwell time; tau_z is the spin-alignment time;
    tau_x = hypot(tau_y, tau_z). Above the top the continued forms are used
    (tau_z then oscillates in sign; the thick-barrier limits do not apply).
    """
    if params.d == 0:
        return 0.0, 0.0, 0.0
    if _at_top(params, k):
        return _continue_through_top(larmor_times, params, k)
    u = params.units
    eps = params.eps
    d = params.d
    tau_y = dwell_time_closed(params, k)
    kap, kt = _split_k(params, k)
    if kap is not None:
        g2, D_sc = _scaled_den(k, kap, eps, d)
        sh2_sc = (0.5 * (1.0 - g2)) ** 2            # sinh^2 e^{-2 kappa d}
        sh_two_sc = 0.5 * (1.0 - g2 * g2)           # sinh(2 kappa d) e^{-2 kappa d}
        num_sc = (kap * kap - k * k) * sh2_sc + (kap * d * eps * eps / 2.0) * sh_two_sc
        tau_z = u.m_over_hbar * eps * eps / (kap * kap) * num_sc / D_sc
    else:
        s = math.sin(kt * d)
        num = (kt * kt + k * k) * s * s - (kt * d * eps * eps / 2.0) * math.sin(2.0 * kt * d)
        tau_z = u.m_over_hbar * eps * eps / (kt * kt) * num / _den_above(k, kt, eps, d)
    return tau_y, tau_z, math.hypot(tau_y, tau_z)


def _amp_phase_k_kappa(k: float, kap: float, d: float, below: bool):
    """|T| and face phase treating (k, kappa) as independent variables.

    below=True: evanescent interior, eps^2 = k^2 + kappa^2 implied.
    below=False: kap means the interior oscillatory wavenumber, eps^2 = k^2 - kap^2.
    """
    if below:
        e2 = k * k + kap * kap
        g = math.exp(-kap * d)
        g2 = g * g
        half = 0.5 * (1.0 - g2)
        den = math.hypot(2.0 * k * kap * g, e2 * half)
        T = 2.0 * k * kap * g / den
        a_ref = math.atan((k * k - kap * kap) / (2.0 * k * kap) * math.tanh(kap * d))
    else:
        e2 = k * k - kap * kap
        s = math.sin(kap * d)
        den = math.hypot(2.0 * k * kap, e2 * s)
        T = 2.0 * k * kap / den
        a_ref = math.atan((k * k + kap * kap) / (2.0 * k * kap) * math.tan(kap * d)) \
            + math.pi * math.floor(kap * d / math.pi + 0.5)
    return T, a_ref


def larmor_times_kappa_derivative(params: SquareBarrierParams, k: float):
    """(tau_y, tau_z, tau_x) from the decay-constant derivative definitions.

    tau_z = -(m/hbar kappa) d ln|T|/d kappa and
    tau_y = -(m/hbar kappa) d alpha_ref/d kappa, the derivative taken at
    fixed k with (k, kappa) independent. Above the top both derivatives
    flip sign (d/d kappa -> -d/d kt under kappa^2 -> -kt^2).
    """
    if params.d == 0:
        return 0.0, 0.0, 0.0
    if _at_top(params, k):
        return _continue_through_top(larmor_times_kappa_derivative, params, k)
    u = params.units
    d = params.d
    kap, kt = _split_k(params, k)
    below = kap is not None
    kv = kap if below else kt
    h = 1e-6 * kv
    sign = -1.0 if below else 1.0

    def lnT(x):
        return math.log(_amp_phase_k_kappa(k, x, d, below)[0])

    def aref(x):
        return _amp_phase_k_kappa(k, x, d, below)[1]

    tau_z = sign * u.m_over_hbar / kv * _fd_richardson(lnT, kv, h)
    tau_y = sign * u.m_over_hbar / kv * _fd_richardson(aref, kv, h)
    return tau_y, tau_z, math.hypot(tau_y, tau_z)


def complex_time(params: SquareBarrierParams, k: float) -> complex:
    """tau_y + i tau_z; |.| equals tau_x."""
    tau_y, tau_z, _ = larmor_times(params, k)
    return complex(tau_y, tau_z)


# ---------------------------------------------------------------------------
# oscillating-barrier (sideband) times


def buttiker_landauer(params: SquareBarrierParams, k: float, omega: float = 0.0,
                      deltaV: float = 0.0) -> ButtikerLandauerResult:
    """Sideband crossing times and first-order sideband intensities.

    tau_BL_T = m d/(hbar kappa), tau_BL_R = hbar k/(V0 kappa).
    I_+- = (deltaV/(2 hbar omega))^2 (e^{+-omega tau_BL_T} - 1)^2, with the
    omega -> 0 limit (deltaV tau_BL_T / 2 hbar)^2 taken exactly at omega = 0.
    band_ratio = tanh(omega tau_BL_T).
    """
    u = params.units
    eps = params.eps
    if k >= eps * (1.0 - _TOP_REL_WINDOW):
        raise ValueError("sideband times undefined at or above the barrier top")
    E = float(u.E_of_k(k))
    tau_T, tau_R = _sideband_pair(params, k)
    if omega < 0:
        raise ValueError("omega must be >= 0")
    hw = u.hbar_eV_s * omega
    if hw > 0.1 * min(E, params.V0 - E):
        warnings.warn("hbar*omega not small compared to E and V0-E; "
                      "sideband formula outside its validity window")
    if deltaV > 0.1 * params.V0:
        warnings.warn("deltaV not small compared to V0; first-order sideband "
                      "formula outside its validity window")
    if omega == 0.0:
        base = (deltaV * tau_T / (2.0 * u.hbar_eV_s)) ** 2
        return ButtikerLandauerResult(tau_T, tau_R, base, base, 0.0)
    pref = (deltaV / (2.0 * u.hbar_eV_s * omega)) ** 2
    I_plus = pref * (math.expm1(omega * tau_T)) ** 2
    I_minus = pref * (math.expm1(-omega * tau_T)) ** 2
    return ButtikerLandauerResult(tau_T, tau_R, I_plus, I_minus,
                                  math.tanh(omega * tau_T))


# ---------------------------------------------------------------------------
# dwell decomposition and special barriers


def _phase_derivatives_closed(params: SquareBarrierParams, k: float):
    """(alpha_full', beta') by high-order differences on the closed phases."""
    h = 1e-6 * k

    def alpha_full(kv):
        return closed_form_square(params, kv)[2]

    def a_ref(kv):
        return transmission_phase_reference(params, kv)

    ap = _fd_richardson(alpha_full, k, h)
    bp = _fd_richardson(a_ref, k, h)   # beta = alpha_ref - pi/2 below the top
    return ap, bp


def self_interference_identity(params: SquareBarrierParams, k: float,
                               x1: float, x2: float | None = None) -> SelfInterferenceResult:
    """Decompose the (x1, x2) dwell time into channel times plus interference.

    residual = tau_dwell(x1,x2)
             - [T^2 tau_T + R^2 tau_R + (m R / hbar k^2) sin(beta - 2 k x1)]
    with tau_T = (x2 - x1 + alpha')/v and tau_R = (-2 x1 + beta')/v.
    The interference term enters with a plus sign; its k-average over a
    packet wide against 1/|x1| suppresses it.
    """
    if x1 > 0:
        raise ValueError("x1 must be <= 0")
    if x2 is None:
        x2 = params.d
    if x2 < params.d:
        raise ValueError("x2 must be >= d")
    if k >= params.eps * (1.0 - _TOP_REL_WINDOW):
        raise ValueError("decomposition implemented for the sub-barrier regime")
    u = params.units
    v = float(u.v_of_k(k))
    pot = params.potential()
    st = solve_transfer_matrix(pot, k, u)
    T2 = st.T ** 2
    R = st.R
    beta = st.beta
    # alpha_ref' = bracket/kappa exactly; below the top beta' = alpha_ref'
    kap = math.sqrt(params.eps ** 2 - k * k)
    a_ref_prime = hartman_bracket(params, k) / kap
    tau_T = (x2 - x1 + a_ref_prime - params.d) / v
    tau_R = (-2.0 * x1 + a_ref_prime) / v
    tau_self = u.m_over_hbar * R / (k * k) * math.sin(beta - 2.0 * k * x1)
    tau_d = dwell_time(pot, k, x1, x2, u)
    residual = tau_d - (T2 * tau_T + (R ** 2) * tau_R + tau_self)
    return SelfInterferenceResult(
        residual=residual, tau_dwell=tau_d, tau_phase_T=tau_T,
        tau_phase_R=tau_R, tau_self_interference=tau_self,
    )


def step_barrier_times(V0: float, k: float, units: UnitSystem = ELECTRON) -> StepBarrierTimes:
    """Closed step-barrier times: dwell, reflection delay, interference term.

    dtau_R = 2m/(hbar k kappa); tau_dwell = (E/V0) dtau_R;
    delta_tau_dwell = ((E-V0)/V0) dtau_R = (m/hbar k^2) sin(beta) at x1 = 0.
    """
    E = float(units.E_of_k(k))
    if E >= V0:
        raise ValueError("step relations are sub-barrier")
    kap = float(units.kappa_of(E, V0))
    dtau_R = 2.0 * units.m_over_hbar / (k * kap)
    return StepBarrierTimes(
        tau_dwell=(E / V0) * dtau_R,
        dtau_phase_R=dtau_R,
        delta_tau_dwell=((E - V0) / V0) * dtau_R,
    )


def step_dwell_numeric(V0: float, k: float, units: UnitSystem = ELECTRON) -> float:
    """Dwell content of the step interior (0, inf) over incident flux."""
    r = step_reflection(V0, k, units)
    E = float(units.E_of_k(k))
    kap = float(units.kappa_of(E, V0))
    t = 1.0 + r
    return abs(t) ** 2 / (2.0 * kap) / float(units.v_of_k(k))


# ---------------------------------------------------------------------------
# reshaping and centroid analysis


def reshaping_check(params: SquareBarrierParams, k0: float, dk: float,
                    n_grid: int = 4001) -> ReshapeResult:
    """Spectral-filter analysis of the transmitted weight T(k) f(k-k0).

    Reports the argmax shift, the k > k0 interval (if any) where
    T'(k) > T(k)(k-k0)/dk^2 (the filter outruns the spectral decay), and the
    fraction of |T f|^2 weight above the barrier-top wavenumber.
    """
    if dk <= 0:
        raise ValueError("dk must be positive")
    eps = params.eps
    lo = max(1e-4, k0 - 6.0 * dk)
    hi = k0 + 6.0 * dk
    ks = np.linspace(lo, hi, n_grid)
    T = np.array([closed_form_square(params, kk)[0] for kk in ks.tolist()])
    f = np.exp(-((ks - k0) ** 2) / (2.0 * dk * dk))
    prod = T * f
    peak_shift = float(ks[int(np.argmax(prod))] - k0)

    Tprime = np.gradient(T, ks)
    mask = (ks > k0) & (Tprime > T * (ks - k0) / (dk * dk))
    if np.any(mask):
        idx = np.nonzero(mask)[0]
        interval = (float(ks[idx[0]]), float(ks[idx[-1]]))
    else:
        interval = None

    w = prod ** 2
    denom = np.trapezoid(w, ks)
    above = float(np.trapezoid(np.where(ks > eps, w, 0.0), ks) / denom) if denom > 0 else 0.0
    return ReshapeResult(
        peak_shift=peak_shift, violation_interval=interval,
        weight_above_eps=above, k_grid=ks, transmission=T, weight=f, product=prod,
    )


def spectrum_summary(packet, params: SquareBarrierParams) -> PacketSpectrumSummary:
    """Weighted spectral means for a packet crossing the square barrier.

    ``packet`` provides k_nodes, weights (quadrature), amplitude (normalized
    spectral amplitude per node), k0, dk, x0.
    """
    u = params.units
    ks = np.asarray(packet.k_nodes, dtype=float)
    wq = np.asarray(packet.weights, dtype=float)
    f2 = np.asarray(packet.amplitude, dtype=float) ** 2
    T = np.empty_like(ks)
    ap = np.empty_like(ks)
    bp = np.empty_like(ks)
    for i, kk in enumerate(ks):
        T[i] = closed_form_square(params, kk)[0]
        ap[i], bp[i] = _phase_derivatives_closed(params, kk)
    R2 = np.maximum(1.0 - T ** 2, 0.0)
    w_in = wq * f2
    w_T = w_in * T ** 2
    w_R = w_in * R2
    s_in, s_T, s_R = w_in.sum(), w_T.sum(), w_R.sum()
    if s_T <= 0 or not np.isfinite(s_T):
        raise ValueError("transmitted weight vanishes; centroid means undefined")
    return PacketSpectrumSummary(
        k0=float(packet.k0), dk=float(packet.dk),
        mean_k_in=float((w_in * ks).sum() / s_in),
        mean_k_T=float((w_T * ks).sum() / s_T),
        mean_k_R=float((w_R * ks).sum() / s_R) if s_R > 0 else float("nan"),
        mean_alpha_prime_T=float((w_T * ap).sum() / s_T),
        mean_beta_prime_R=float((w_R * bp).sum() / s_R) if s_R > 0 else float("nan"),
        x0=float(getattr(packet, "x0", 0.0)),
    )


def centroid_times(summary: PacketSpectrumSummary, params: SquareBarrierParams):
    """(tau_C_T, tau_C_R): centroid transmission and reflection times.

    tau_C_T = (m/hbar)[(d - x0 + <alpha'>_T)/<k>_T + x0/<k>_in]
    tau_C_R = (m/hbar)[(-x0 + <beta'>_R)/<k>_R + x0/<k>_in]
    """
    m_h = params.units.m_over_hbar
    tau_T = m_h * ((params.d - summary.x0 + summary.mean_alpha_prime_T) / summary.mean_k_T
                   + summary.x0 / summary.mean_k_in)
    if np.isfinite(summary.mean_k_R):
        tau_R = m_h * ((-summary.x0 + summary.mean_beta_prime_R) / summary.mean_k_R
                      + summary.x0 / summary.mean_k_in)
    else:
        tau_R = float("nan")
    return tau_T, tau_R


# ---------------------------------------------------------------------------
# assembly


def time_report(params: SquareBarrierParams, k: float) -> TimeReport:
    """Evaluate the full catalogue at one wavenumber.

    Finite everywhere, including k = eps (one-sided continuation) and above
    the top (continued forms; sideband and semiclassical times then use the
    interior oscillatory wavenumber).
    """
    _check_k(k)
    dt_T, dt_R = extrapolated_phase_times(params, k)
    # tau_y is the (0, d) dwell time and the real part of the complex time
    tau_y, tau_z, tau_x = larmor_times(params, k)
    # tau_BL_T is the semiclassical time m d/(hbar kappa)
    bl_T, bl_R = _sideband_pair(params, k) if params.d > 0 else (0.0, 0.0)

    return TimeReport(
        k=k,
        tau_eq=tau_equivalent(params, k),
        dtau_phase_T=dt_T,
        dtau_phase_R=dt_R,
        tau_dwell=tau_y,
        tau_larmor_y=tau_y,
        tau_larmor_z=tau_z,
        tau_larmor_x=tau_x,
        tau_BL_T=bl_T,
        tau_BL_R=bl_R,
        tau_semiclassical=bl_T,
        tau_complex=complex(tau_y, tau_z),
    )
