"""Stationary 1-D scattering on piecewise-constant potentials.

Two independent routes to the same physics:

* a general transfer-matrix solver (``solve_transfer_matrix``) that propagates
  (psi, psi') continuity data across segments, and
* closed forms for the single square barrier (``closed_form_square``).

Conventions: incident wave e^{ikx} from the left with unit amplitude,
psi_I = e^{ikx} + R e^{i beta} e^{-ikx},  psi_III = T e^{i alpha} e^{ikx}.
Inside segment j the solution is A_j e^{-kappa_j (x-xl_j)} + B_j e^{+kappa_j (x-xl_j)}
with kappa_j = sqrt(2m(V_j - E))/hbar taken real for E < V_j and -i*q_j
(pure imaginary) for E > V_j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .units import ELECTRON, UnitSystem

# total opacity guard: exp() stays in range well below this
_MAX_TOTAL_KAPPA_D = 600.0


@dataclass(frozen=True)
class SquareBarrierParams:
    """Square barrier of height V0 (eV) on [0, d] (A)."""

    V0: float
    d: float
    units: UnitSystem = ELECTRON

    def __post_init__(self):
        if not (math.isfinite(self.V0) and math.isfinite(self.d)):
            raise ValueError(f"V0 and d must be finite, got V0={self.V0}, d={self.d}")
        if self.V0 <= 0:
            raise ValueError("V0 must be positive")
        if self.d < 0:
            raise ValueError("d must be >= 0")
        # every closed form reads eps several times per k; convert once
        object.__setattr__(self, "_eps", float(self.units.k_of_E(self.V0)))

    @property
    def eps(self) -> float:
        """sqrt(2 m V0)/hbar in 1/A; eps^2 = k^2 + kappa^2 below the top."""
        return self._eps

    def potential(self) -> "PiecewisePotential":
        return PiecewisePotential.square(self.V0, self.d)


@dataclass(frozen=True)
class PiecewisePotential:
    """Ordered constant segments (x_left, x_right, V); zero potential outside.

    semi_infinite=True marks the last segment as extending to +infinity
    (its x_right is ignored for physics and used only as a frame anchor).
    """

    segments: tuple[tuple[float, float, float], ...]
    semi_infinite: bool = False

    def __post_init__(self):
        segs = []
        prev_r = None
        n = len(self.segments)
        for i, (xl, xr, V) in enumerate(self.segments):
            if not (math.isfinite(xl) and math.isfinite(xr) and math.isfinite(V)):
                raise ValueError(f"segment ({xl}, {xr}, {V}) is not finite")
            final_inf = self.semi_infinite and i == n - 1
            if xr < xl and not final_inf:
                raise ValueError("segment with x_right < x_left")
            if prev_r is not None and abs(xl - prev_r) > 1e-12:
                raise ValueError("segments must be contiguous")
            prev_r = xr
            if xr > xl or final_inf:
                segs.append((float(xl), float(xr), float(V)))
        object.__setattr__(self, "segments", tuple(segs))

    @classmethod
    def free(cls) -> "PiecewisePotential":
        return cls(segments=())

    @classmethod
    def square(cls, V0: float, d: float) -> "PiecewisePotential":
        if d == 0:
            return cls.free()
        return cls(segments=((0.0, float(d), float(V0)),))

    @classmethod
    def double_barrier(cls, V0: float, d: float, L_gap: float) -> "PiecewisePotential":
        if L_gap == 0:
            return cls(segments=((0.0, 2.0 * d, V0),))
        return cls(
            segments=(
                (0.0, d, V0),
                (d, d + L_gap, 0.0),
                (d + L_gap, 2.0 * d + L_gap, V0),
            )
        )

    @classmethod
    def step(cls, V0: float, x_edge: float = 0.0) -> "PiecewisePotential":
        # semi-infinite final segment; x_right only anchors the local frame
        return cls(segments=((x_edge, x_edge + 1.0, V0),), semi_infinite=True)

    @property
    def x_left(self) -> float:
        return self.segments[0][0] if self.segments else 0.0

    @property
    def x_right(self) -> float:
        return self.segments[-1][1] if self.segments else 0.0

    def reversed(self) -> "PiecewisePotential":
        """Mirror image x -> -x (for reciprocity checks)."""
        if self.semi_infinite:
            raise ValueError("cannot reverse a semi-infinite potential")
        segs = tuple((-xr, -xl, V) for (xl, xr, V) in reversed(self.segments))
        return PiecewisePotential(segments=segs)


def _seg_prop(psi, dpsi, q, w):
    """Propagate (psi, psi') across width w at local wavenumber q (complex).

    Series branch keeps the q -> 0 (E = V) segment exact instead of 0/0.
    """
    qw = q * w
    if abs(qw) < 1e-8:
        c = 1.0 - qw * qw / 2.0
        s_over_q = w * (1.0 - qw * qw / 6.0)
        q_s = -q * qw * (1.0 - qw * qw / 6.0)  # -q*sin(qw)
    else:
        c = np.cos(qw)
        s_over_q = np.sin(qw) / q
        q_s = -q * np.sin(qw)
    return c * psi + s_over_q * dpsi, q_s * psi + c * dpsi


@dataclass
class ScatteringState:
    """Full stationary solution at one wavenumber, unit incident amplitude."""

    k: float
    E: float
    amp_T: complex
    amp_R: complex
    kappas: np.ndarray          # per-segment decay constants (complex 1/A)
    A: np.ndarray               # per-segment coefficient of e^{-kappa (x-xl)}
    B: np.ndarray               # per-segment coefficient of e^{+kappa (x-xl)}
    potential: PiecewisePotential
    units: UnitSystem = ELECTRON
    # interface data for numerically stable interior evaluation
    _psi_l: np.ndarray = field(default=None, repr=False)
    _dpsi_l: np.ndarray = field(default=None, repr=False)
    _psi_r: np.ndarray = field(default=None, repr=False)
    _dpsi_r: np.ndarray = field(default=None, repr=False)
    _b_right: np.ndarray = field(default=None, repr=False)  # growing part anchored at xr

    @property
    def T(self) -> float:
        return abs(self.amp_T)

    @property
    def R(self) -> float:
        return abs(self.amp_R)

    @property
    def alpha(self) -> float:
        return float(np.angle(self.amp_T))

    @property
    def beta(self) -> float:
        return float(np.angle(self.amp_R))

    def psi_and_dpsi(self, x):
        return _interior(self, np.asarray(x, dtype=float))

    def psi(self, x):
        return self.psi_and_dpsi(x)[0]


def _local_q(E: float, V: float, units: UnitSystem) -> complex:
    """Local wavenumber sqrt(2m(E-V))/hbar, analytic +0j branch."""
    return complex(np.sqrt((2.0 * units.electron_rest_eV * (E - V) + 0j)) / units.hbarc_eV_A)


def _check_k(k) -> None:
    if not math.isfinite(k):
        raise ValueError(f"k must be finite, got {k}")
    if k <= 0:
        raise ValueError("k must be positive")


def solve_transfer_matrix(
    potential: PiecewisePotential, k: float, units: UnitSystem = ELECTRON
) -> ScatteringState:
    """Solve the stationary problem by right-to-left continuity propagation.

    Starting from the transmitted side and sweeping leftward keeps the
    growing exponential dominant in opaque segments, so no cancellation or
    rescaling is needed for total opacity up to ~600.
    """
    _check_k(k)
    E = float(units.E_of_k(k))
    segs = potential.segments

    if not segs:
        return ScatteringState(
            k=k, E=E, amp_T=1.0 + 0.0j, amp_R=0.0 + 0.0j,
            kappas=np.zeros(0, complex), A=np.zeros(0, complex), B=np.zeros(0, complex),
            potential=potential, units=units,
            _psi_l=np.zeros(0, complex), _dpsi_l=np.zeros(0, complex),
            _psi_r=np.zeros(0, complex), _dpsi_r=np.zeros(0, complex),
            _b_right=np.zeros(0, complex),
        )

    qs = [_local_q(E, V, units) for _, _, V in segs]
    total_opacity = 0.0
    for (xl, xr, _), q in zip(segs, qs):
        total_opacity += abs(q.imag) * (xr - xl)
    if total_opacity > _MAX_TOTAL_KAPPA_D:
        raise ValueError(f"total opacity kappa*d = {total_opacity:.1f} exceeds supported range")

    x_left = segs[0][0]
    x_right = segs[-1][1]

    if potential.semi_infinite:
        # final medium: psi = e^{i q_f (x - x_edge)} for E > V_f, or pure decay
        x_edge = segs[-1][0]
        psi, dpsi = 1.0 + 0.0j, 1j * qs[-1]
        sweep = segs[:-1]
        frame_right = x_edge
    else:
        psi, dpsi = 1.0 + 0.0j, 1j * k
        sweep = segs
        frame_right = x_right

    # interface values, rightmost first; element i belongs to the right edge
    # of sweep segment len(sweep)-1-i
    edge_vals = [(psi, dpsi)]
    for (xl, xr, _), q in zip(reversed(sweep), reversed(qs[:len(sweep)])):
        psi, dpsi = _seg_prop(psi, dpsi, q, -(xr - xl))
        edge_vals.append((psi, dpsi))

    a = 0.5 * (psi + dpsi / (1j * k))
    b = 0.5 * (psi - dpsi / (1j * k))
    a_g = a * np.exp(-1j * k * x_left)
    b_g = b * np.exp(1j * k * x_left)
    amp_R = b_g / a_g
    if potential.semi_infinite:
        amp_T = np.exp(0j) / a_g  # amplitude of the final-medium mode at x_edge
    else:
        amp_T = np.exp(-1j * k * frame_right) / a_g

    # normalize interior data to unit incident amplitude
    edge_vals = [(p / a_g, dp / a_g) for (p, dp) in edge_vals]
    edge_vals.reverse()  # now leftmost interface first

    n = len(segs)
    kappas = np.zeros(n, complex)
    A = np.zeros(n, complex)
    B = np.zeros(n, complex)
    psi_l = np.zeros(n, complex)
    dpsi_l = np.zeros(n, complex)
    psi_r = np.zeros(n, complex)
    dpsi_r = np.zeros(n, complex)
    b_right = np.zeros(n, complex)

    for j, ((xl, xr, _), q) in enumerate(zip(segs, qs)):
        kap = -1j * q  # real decay constant for E < V
        kappas[j] = kap
        if potential.semi_infinite and j == n - 1:
            pl, dl = complex(amp_T), complex(amp_T) * 1j * q
            pr, dr = pl, dl  # frame anchor only
            Aj, Bj, bR = complex(amp_T), 0.0 + 0.0j, 0.0 + 0.0j
        else:
            pl, dl = edge_vals[j]
            pr, dr = edge_vals[j + 1]
            w = xr - xl
            if abs(q * w) < 1e-12:
                # linear segment: exponential basis is degenerate bookkeeping
                Aj = Bj = 0.5 * pl
                bR = 0.5 * pr
            else:
                Aj = 0.5 * (pl - dl / kap)
                bR = 0.5 * (pr + dr / kap)  # exact growing-part value at xr
                Bj = bR * np.exp(-kap * w)
        A[j], B[j], b_right[j] = Aj, Bj, bR
        psi_l[j], dpsi_l[j] = pl, dl
        psi_r[j], dpsi_r[j] = pr, dr

    return ScatteringState(
        k=k, E=E, amp_T=complex(amp_T), amp_R=complex(amp_R),
        kappas=kappas, A=A, B=B, potential=potential, units=units,
        _psi_l=psi_l, _dpsi_l=dpsi_l, _psi_r=psi_r, _dpsi_r=dpsi_r,
        _b_right=b_right,
    )


def _phase_slopes(potential: PiecewisePotential, k: float, units: UnitSystem):
    """(dalpha/dk, dbeta/dk) of the transfer-matrix amplitudes at k.

    Centered differences with step 1e-6 k and one Richardson step. Branch
    cuts cancel in angle(t(k+h) conj(t(k-h))) for small h.
    """
    def slopes(h):
        sp = solve_transfer_matrix(potential, k + h, units)
        sm = solve_transfer_matrix(potential, k - h, units)
        return (float(np.angle(sp.amp_T * np.conj(sm.amp_T))) / (2.0 * h),
                float(np.angle(sp.amp_R * np.conj(sm.amp_R))) / (2.0 * h))

    h = 1e-6 * k
    a1, b1 = slopes(h)
    a2, b2 = slopes(0.5 * h)
    return (4.0 * a2 - a1) / 3.0, (4.0 * b2 - b1) / 3.0


def _interior(state: ScatteringState, x: np.ndarray):
    """psi and dpsi/dx at arbitrary points, stable for opaque segments.

    Evanescent segments combine the decaying component anchored at the left
    edge with the growing component anchored at the right edge, so both
    factors only ever decay.
    """
    scalar = x.ndim == 0
    xs = np.atleast_1d(x)
    psi = np.zeros(xs.shape, complex)
    dpsi = np.zeros(xs.shape, complex)
    pot = state.potential
    k = state.k
    xl0, xr0 = pot.x_left, pot.x_right

    left = xs < xl0
    if np.any(left):
        e_p = np.exp(1j * k * xs[left])
        e_m = np.exp(-1j * k * xs[left])
        psi[left] = e_p + state.amp_R * e_m
        dpsi[left] = 1j * k * (e_p - state.amp_R * e_m)

    if pot.semi_infinite and pot.segments:
        x_edge = pot.segments[-1][0]
        inside_final = xs >= x_edge
        if np.any(inside_final):
            q = 1j * state.kappas[-1]
            ph = np.exp(1j * q * (xs[inside_final] - x_edge))
            psi[inside_final] = state.amp_T * ph
            dpsi[inside_final] = state.amp_T * 1j * q * ph
        right_limit = x_edge
    else:
        right = xs >= xr0
        if np.any(right):
            e_p = np.exp(1j * k * xs[right])
            psi[right] = state.amp_T * e_p
            dpsi[right] = state.amp_T * 1j * k * e_p
        right_limit = xr0

    n = len(pot.segments)
    for j, (xl, xr, V) in enumerate(pot.segments):
        if pot.semi_infinite and j == n - 1:
            continue
        sel = (xs >= xl0) & (xs < right_limit) & (xs >= xl) & (xs < xr)
        if not np.any(sel):
            continue
        xj = xs[sel]
        kap = state.kappas[j]
        q = 1j * kap
        w = xr - xl
        if abs(q * w) < 1e-12:
            # E == V segment: psi linear in x
            psi[sel] = state._psi_l[j] + state._dpsi_l[j] * (xj - xl)
            dpsi[sel] = state._dpsi_l[j]
        elif kap.real > 0:
            dec = np.exp(-kap * (xj - xl))
            grow = np.exp(-kap * (xr - xj))
            psi[sel] = state.A[j] * dec + state._b_right[j] * grow
            dpsi[sel] = -kap * state.A[j] * dec + kap * state._b_right[j] * grow
        else:
            e_p = np.exp(-kap * (xj - xl))  # oscillatory: |e^{+-kap w}| = 1
            e_m = np.exp(kap * (xj - xl))
            psi[sel] = state.A[j] * e_p + state.B[j] * e_m
            dpsi[sel] = -kap * state.A[j] * e_p + kap * state.B[j] * e_m

    if scalar:
        return psi[0], dpsi[0]
    return psi, dpsi


def interior_wavefunction(state: ScatteringState, x):
    """psi(x) for the stationary state (unit incident amplitude)."""
    return state.psi(x)


def density_and_current(psi, dpsi_dx, units: UnitSystem = ELECTRON):
    """(rho, j) from a wavefunction value and its spatial derivative.

    j = (hbar/m) Im(psi* dpsi/dx); rho in 1/A, j in 1/s.
    """
    psi = np.asarray(psi)
    dpsi_dx = np.asarray(dpsi_dx)
    rho = np.abs(psi) ** 2
    j = units.hbar_over_m * np.imag(np.conj(psi) * dpsi_dx)
    return rho, j


def closed_form_square(params: SquareBarrierParams, k: float):
    """(T, R, alpha, beta) for the square barrier, all regimes.

    alpha is the full transmission phase (psi_III = T e^{i(kx+alpha)}),
    continuous in k and anchored at alpha = 0 for d = 0. beta is continuous
    below the top; above the top it jumps by pi only at exact reflection
    zeros, where the phase is undefined anyway.
    """
    _check_k(k)
    eps = params.eps
    d = params.d
    if d == 0:
        return 1.0, 0.0, 0.0, 0.0

    if abs(k - eps) < 1e-9 * eps:
        # barrier-top limit: interior is linear, T = 1/sqrt(1 + eps^2 d^2/4)
        T = 1.0 / math.sqrt(1.0 + (eps * d) ** 2 / 4.0)
        R = (eps * d / 2.0) * T
        a_ref = math.atan(k * d / 2.0)
    elif k < eps:
        kap = math.sqrt(eps * eps - k * k)
        g = math.exp(-kap * d)  # underflow -> honest T = 0
        half = 0.5 * (1.0 - g * g)  # sinh(kap d) * e^{-kap d}
        den = math.hypot(2.0 * k * kap * g, eps * eps * half)
        T = 2.0 * k * kap * g / den
        R = (k * k + kap * kap) * half / den
        a_ref = math.atan((k * k - kap * kap) / (2.0 * k * kap) * math.tanh(kap * d))
    else:
        kt = math.sqrt(k * k - eps * eps)
        s = math.sin(kt * d)
        den = math.hypot(2.0 * k * kt, eps * eps * s)
        T = 2.0 * k * kt / den
        R = eps * eps * abs(s) / den
        a_ref = math.atan((k * k + kt * kt) / (2.0 * k * kt) * math.tan(kt * d)) \
            + math.pi * math.floor(kt * d / math.pi + 0.5)
        alpha = a_ref - k * d
        sgn = 1.0 if s >= 0 else -1.0
        beta = a_ref - sgn * math.pi / 2.0
        return T, R, alpha, beta

    alpha = a_ref - k * d
    beta = a_ref - math.pi / 2.0
    return T, R, alpha, beta


def transmission_phase_reference(params: SquareBarrierParams, k: float) -> float:
    """Barrier-face phase alpha_ref = alpha + k d (continuous, unwrapped)."""
    T, R, alpha, beta = closed_form_square(params, k)
    return alpha + k * params.d


def step_reflection(V0: float, k: float, units: UnitSystem = ELECTRON) -> complex:
    """Reflection amplitude off a step of height V0 at x = 0 (E < V0)."""
    E = float(units.E_of_k(k))
    if E >= V0:
        raise ValueError("step_reflection covers the sub-barrier case only")
    kap = float(units.kappa_of(E, V0))
    return (k - 1j * kap) / (k + 1j * kap)


def delta_closed_form(strength: float, k: float, units: UnitSystem = ELECTRON):
    """(T, R, alpha, beta) for a Dirac-delta barrier of strength V0*d (eV*A).

    The opacity parameter is Omega = m*strength/(hbar^2 k); the
    dimension-restoring m/hbar^2 is fixed by the transfer-matrix limit
    (see delta_barrier_limit).
    """
    if k <= 0:
        raise ValueError("k must be positive")
    omega = units.electron_rest_eV * strength / (units.hbarc_eV_A ** 2 * k)
    t = 1.0 / (1.0 + 1j * omega)
    r = -1j * omega / (1.0 + 1j * omega)
    return abs(t), abs(r), float(np.angle(t)), float(np.angle(r))


def delta_barrier_limit(strength: float, k: float, units: UnitSystem = ELECTRON,
                        d0: float = 1e-4):
    """(T, R, alpha, beta) of the d -> 0 square-barrier family at fixed V0*d.

    Transfer-matrix amplitudes converge with error proportional to d, so one
    Richardson step on d0, d0/2 removes the leading term.
    """
    if strength == 0:
        return 1.0, 0.0, 0.0, 0.0
    vals = []
    for d in (d0, d0 / 2.0):
        st = solve_transfer_matrix(PiecewisePotential.square(strength / d, d), k, units)
        vals.append((st.amp_T, st.amp_R))
    t = 2.0 * vals[1][0] - vals[0][0]
    r = 2.0 * vals[1][1] - vals[0][1]
    return abs(t), abs(r), float(np.angle(t)), float(np.angle(r))
