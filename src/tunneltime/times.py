"""Stationary tunnelling-time catalogue for the square barrier.

Every definition keeps two independent code paths where one exists:
closed forms on one side, numerical derivatives or integrals of the
scattering solution on the other. Tests pin the two against each other;
nothing here collapses them into a single route. The derivatives are
Richardson differences of the transfer sweep's amplitudes
(scattering._richardson): in k for phase times, in eps^2 for Larmor times.

The closed forms are written through the entire functions S, G and H of
the signed s = (eps^2 - k^2) d^2 (scattering._entire): s = (kappa d)^2 below
the barrier top and -(kt d)^2 above it, kt^2 = k^2 - eps^2. One body holds on
both sides of the top and at k = eps itself, where no term cancels.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .scattering import (
    PiecewisePotential,
    ScatteringState,
    SquareBarrierParams,
    _SHIFTS,
    _check_count,
    _check_k,
    _entire,
    _gauss_legendre,
    _phase_slopes,
    _points,
    _richardson,
    _square_amplitudes,
    _step_kappa,
    _transfer_sweep,
    closed_form_square,  # noqa: F401  (callers also reach it as times.closed_form_square)
    solve_transfer_matrix,
    step_reflection,
)
from .units import ELECTRON, UnitSystem

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


class _Times(NamedTuple):
    """The closed-form times at every point of a broadcast (k, d), in seconds."""

    eq: np.ndarray      # m d/(hbar k)
    phase: np.ndarray   # extrapolated phase time, both channels
    dwell: np.ndarray   # (0, d) dwell time = Larmor tau_y
    tau_z: np.ndarray
    tau_x: np.ndarray
    bl_T: np.ndarray    # m d/(hbar |q|), the semiclassical time; inf at k = eps
    bl_R: np.ndarray    # hbar k/(V0 |q|)


# ---------------------------------------------------------------------------
# helpers


def _stationary_times(params: SquareBarrierParams, k, d) -> _Times:
    """The closed-form times at every point of k and d, broadcast and
    flattened: the one body behind this module's closed forms.

    params supplies V0, eps and the units; d replaces params.d. With
    D = 4 k^2 + eps^4 d^2 S^2 (S, G, H of scattering._entire), the forms
    dwell = (m/hbar) k d (4 + eps^2 d^2 G)/D,
    phase = (m/hbar) d (2 eps^2 + 4 k^2 + eps^4 d^2 G)/(k D) and
    tau_z = (m/hbar) eps^2 d^2 S (2 S + eps^2 d^2 H)/D hold on both sides of
    the top. Every term of D, dwell and phase is positive, so nothing cancels
    as q d -> 0; numerators and D carry the scale of _entire. The sideband
    times divide by the interior wavenumber |q|: +inf at k = eps, 0 at d = 0.
    """
    k, d = _points(k, d)
    eps, u = params.eps, params.units
    q, w, S, _, G, H = _entire(eps, k, d)
    e2d2 = (eps * d) ** 2
    den = 4.0 * k * k * w * w + (eps * eps * d * S) ** 2
    dwell = u.m_over_hbar * k * d * (4.0 * w * w + e2d2 * G) / den
    phase = u.m_over_hbar * d * ((2.0 * eps * eps + 4.0 * k * k) * w * w
                                 + eps * eps * e2d2 * G) / (k * den)
    tau_z = u.m_over_hbar * e2d2 * S * (2.0 * S + e2d2 * H) / den
    free = d == 0   # no barrier: no sideband times
    with np.errstate(divide="ignore", invalid="ignore"):   # q = 0: +inf, or 0/0 at d = 0
        bl_T = np.where(free, 0.0, u.m_over_hbar * d / q)
        bl_R = np.where(free, 0.0, u.hbar_eV_s * k / (params.V0 * q))
    return _Times(u.m_over_hbar * d / k, phase, dwell, tau_z, np.hypot(dwell, tau_z), bl_T, bl_R)


def _at(params: SquareBarrierParams, k: float) -> _Times:
    """_stationary_times at the one point (k, params.d), as floats."""
    return _Times(*(x.item() for x in _stationary_times(params, k, params.d)))


def tau_equivalent(params: SquareBarrierParams, k: float) -> float:
    """Free flight over the barrier width: m d/(hbar k)."""
    return _at(params, k).eq


def tau_semiclassical(params: SquareBarrierParams, k: float) -> float:
    """m d/(hbar kappa); interior-momentum crossing above the top."""
    return _at(params, k).bl_T


# ---------------------------------------------------------------------------
# phase times


def hartman_bracket(params: SquareBarrierParams, k: float) -> float:
    """Dimensionless factor of the extrapolated phase time (sub-barrier).

    [2 kappa d k^2 (kappa^2-k^2) + eps^4 sinh(2 kappa d)] / D with
    D = 4 k^2 kappa^2 + eps^4 sinh^2(kappa d); tends to 2 for opaque barriers.
    It is (hbar/m) k kappa times the closed phase time.
    """
    phase = _at(params, k).phase
    eps = params.eps
    if k >= eps:
        raise ValueError("bracket defined below the barrier top")
    return k * math.sqrt(eps * eps - k * k) * phase * params.units.hbar_over_m


def extrapolated_phase_times(params: SquareBarrierParams, k: float):
    """(dtau_T, dtau_R) from the closed phase-derivative form.

    Both channels coincide for the square barrier. One form holds below,
    at and above the top.
    """
    tau = _at(params, k).phase
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
    return _at(params, k).dwell


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
    Raises ValueError unless x1 and x2 are finite and x1 < x2.
    """
    if not (math.isfinite(x1) and math.isfinite(x2)):
        raise ValueError(f"x1 and x2 must be finite, got x1={x1}, x2={x2}")
    if x2 <= x1:
        raise ValueError("x1 < x2 required")
    state = solve_transfer_matrix(potential, k, units)
    v = float(units.v_of_k(k))
    nodes, weights = _gauss_legendre(_DWELL_NODES)
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
    t = _at(params, k)
    return t.dwell, t.tau_z, t.tau_x


def larmor_times_kappa_derivative(params: SquareBarrierParams, k: float):
    """(tau_y, tau_z, tau_x) from the decay-constant derivative definitions.

    tau_y = -(m/hbar kappa) d alpha/d kappa and tau_z = -(m/hbar kappa)
    d ln|t|/d kappa at fixed k (Buttiker, Phys. Rev. B 27, 6178 (1983)), that
    is -(2m/hbar) d/d eps^2, one derivative on both sides of the top: a
    Richardson difference of the transfer sweep's t over four barrier
    heights, independent of the closed forms. The eps^2 step is 1e-4 eps^2,
    at most 1e-3 max(q, 1/d)/d (q = |eps^2 - k^2|^(1/2)), the scale of t near
    the top of a thick barrier; its height step is a power of two, so that
    the heights are exact. Raises ValueError past total opacity 600.
    """
    _check_k(k)
    d = params.d
    if d == 0:
        return 0.0, 0.0, 0.0
    u = params.units
    e2 = params.eps ** 2
    q = math.sqrt(abs(e2 - k * k))
    to_V = u.hbar2_over_2m
    dV = 2.0 ** math.floor(math.log2(to_V * min(1e-4 * e2, 1e-3 * max(q, 1.0 / d) / d)))
    amp_T = _transfer_sweep(((0.0, d, params.V0 + dV * _SHIFTS),), k, u).amp_T
    tau_z, tau_y = (-2.0 * u.m_over_hbar * float(s) for s in _richardson(amp_T, dV / to_V))
    return tau_y, tau_z, math.hypot(tau_y, tau_z)


def complex_time(params: SquareBarrierParams, k: float) -> complex:
    """tau_y + i tau_z; |.| equals tau_x."""
    t = _at(params, k)
    return complex(t.dwell, t.tau_z)


# ---------------------------------------------------------------------------
# oscillating-barrier (sideband) times


def buttiker_landauer(params: SquareBarrierParams, k: float, omega: float = 0.0,
                      deltaV: float = 0.0) -> ButtikerLandauerResult:
    """Sideband crossing times and first-order sideband intensities.

    tau_BL_T = m d/(hbar kappa), tau_BL_R = hbar k/(V0 kappa); both diverge
    as k -> eps.
    I_+- = (deltaV/(2 hbar omega))^2 (e^{+-omega tau_BL_T} - 1)^2, with the
    omega -> 0 limit (deltaV tau_BL_T / 2 hbar)^2 taken exactly at omega = 0.
    band_ratio = tanh(omega tau_BL_T).
    """
    if not (math.isfinite(omega) and omega >= 0):
        raise ValueError(f"omega must be finite and >= 0, got {omega}")
    if not (math.isfinite(deltaV) and deltaV >= 0):
        raise ValueError(f"deltaV must be finite and >= 0, got {deltaV}")
    tau_T, tau_R = _at(params, k)[-2:]
    if k >= params.eps:
        raise ValueError("sideband times undefined at or above the barrier top")
    u = params.units
    E = float(u.E_of_k(k))
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
    try:
        I_plus = pref * (math.expm1(omega * tau_T)) ** 2
    except OverflowError:   # tau_BL_T grows without bound as k nears the top
        I_plus = math.inf if pref > 0 else 0.0
    I_minus = pref * (math.expm1(-omega * tau_T)) ** 2
    return ButtikerLandauerResult(tau_T, tau_R, I_plus, I_minus,
                                  math.tanh(omega * tau_T))


# ---------------------------------------------------------------------------
# dwell decomposition and special barriers


def self_interference_identity(params: SquareBarrierParams, k: float,
                               x1: float, x2: float | None = None) -> SelfInterferenceResult:
    """Decompose the (x1, x2) dwell time into channel times plus interference.

    residual = tau_dwell(x1,x2)
             - [T^2 tau_T + R^2 tau_R + (m R / hbar k^2) sin(beta - 2 k x1)]
    with tau_T = (x2 - x1 + alpha')/v and tau_R = (-2 x1 + beta')/v.
    The interference term enters with a plus sign; its k-average over a
    packet wide against 1/|x1| suppresses it.
    """
    if not (math.isfinite(x1) and x1 <= 0):
        raise ValueError(f"x1 must be finite and <= 0, got {x1}")
    if x2 is None:
        x2 = params.d
    if not (math.isfinite(x2) and x2 >= params.d):
        raise ValueError(f"x2 must be finite and >= d, got {x2}")
    if k >= params.eps:
        raise ValueError("decomposition implemented for the sub-barrier regime")
    u = params.units
    v = float(u.v_of_k(k))
    pot = params.potential()
    st = solve_transfer_matrix(pot, k, u)
    T2 = st.T ** 2
    R = st.R
    beta = st.beta
    # alpha_ref' = v dtau_phase exactly; below the top beta' = alpha_ref'
    a_ref_prime = v * _at(params, k).phase
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
    E, kap = _step_kappa(V0, k, units)
    dtau_R = 2.0 * units.m_over_hbar / (k * kap)
    return StepBarrierTimes(
        tau_dwell=(E / V0) * dtau_R,
        dtau_phase_R=dtau_R,
        delta_tau_dwell=((E - V0) / V0) * dtau_R,
    )


def step_dwell_numeric(V0: float, k: float, units: UnitSystem = ELECTRON) -> float:
    """Dwell content of the step interior (0, inf) over incident flux."""
    _, kap = _step_kappa(V0, k, units)
    t = 1.0 + step_reflection(V0, k, units)
    return abs(t) ** 2 / (2.0 * kap) / float(units.v_of_k(k))


# ---------------------------------------------------------------------------
# reshaping and centroid analysis


def reshaping_check(params: SquareBarrierParams, k0: float, dk: float,
                    n_grid: int = 4001) -> ReshapeResult:
    """Spectral-filter analysis of the transmitted weight T(k) f(k-k0).

    Reports the argmax shift, the k > k0 interval (if any) where
    T'(k) > T(k)(k-k0)/dk^2 (the filter outruns the spectral decay), and the
    fraction of |T f|^2 weight above the barrier-top wavenumber. Raises
    ValueError for a dk that is not finite and positive, or an n_grid that
    is not an integer of at least 2.
    """
    if not (math.isfinite(dk) and dk > 0):
        raise ValueError(f"dk must be finite and positive, got {dk}")
    _check_count("n_grid", n_grid, 2)
    eps = params.eps
    lo = max(1e-4, k0 - 6.0 * dk)
    hi = k0 + 6.0 * dk
    ks = np.linspace(lo, hi, n_grid)
    T = _square_amplitudes(params, ks, params.d)[0]
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
    spectral amplitude per node), k0 and dk; its free centroid crosses x = 0
    at t = 0, as every wavepacket.SpectralPacket's does. Raises ValueError
    when the transmitted weight vanishes.
    """
    u = params.units
    ks = np.asarray(packet.k_nodes, dtype=float)
    wq = np.asarray(packet.weights, dtype=float)
    f2 = np.asarray(packet.amplitude, dtype=float) ** 2
    T = _square_amplitudes(params, ks, params.d)[0]
    # the exact phase slopes: alpha_ref' = v dtau_phase, alpha' = alpha_ref' - d,
    # and beta' = alpha_ref' (beta = alpha_ref - pi/2 below the top)
    bp = u.v_of_k(ks) * _stationary_times(params, ks, params.d).phase
    ap = bp - params.d
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
    )


def centroid_times(summary: PacketSpectrumSummary, params: SquareBarrierParams):
    """(tau_C_T, tau_C_R): centroid transmission and reflection times of a
    packet whose free centroid crosses the entrance x = 0 at t = 0.

    tau_C_T = (m/hbar)(d + <alpha'>_T)/<k>_T
    tau_C_R = (m/hbar)<beta'>_R/<k>_R
    """
    m_h = params.units.m_over_hbar
    tau_T = m_h * ((params.d + summary.mean_alpha_prime_T) / summary.mean_k_T)
    if np.isfinite(summary.mean_k_R):
        tau_R = m_h * (summary.mean_beta_prime_R / summary.mean_k_R)
    else:
        tau_R = float("nan")
    return tau_T, tau_R


# ---------------------------------------------------------------------------
# assembly


def time_report(params: SquareBarrierParams, k: float) -> TimeReport:
    """Evaluate the full catalogue at one wavenumber.

    One body below, at and above the top. Above it the sideband and
    semiclassical times use the interior oscillatory wavenumber; at k = eps
    they are +inf, and every other time is finite.
    """
    t = _at(params, k)
    # tau_y is the (0, d) dwell time and the real part of the complex time;
    # tau_BL_T is the semiclassical time m d/(hbar kappa)
    return TimeReport(
        k=k,
        tau_eq=t.eq,
        dtau_phase_T=t.phase,
        dtau_phase_R=t.phase,
        tau_dwell=t.dwell,
        tau_larmor_y=t.dwell,
        tau_larmor_z=t.tau_z,
        tau_larmor_x=t.tau_x,
        tau_BL_T=t.bl_T,
        tau_BL_R=t.bl_R,
        tau_semiclassical=t.bl_T,
        tau_complex=complex(t.dwell, t.tau_z),
    )
