"""Stationary 1-D scattering on piecewise-constant potentials.

Two independent routes to the same physics:

* a general transfer-matrix solver (``solve_transfer_matrix``) that propagates
  (psi, psi') continuity data across segments, and
* closed forms for the single square barrier (``closed_form_square``).

Conventions: incident wave e^{ikx} from the left with unit amplitude,
psi_I = e^{ikx} + R e^{i beta} e^{-ikx},  psi_III = T e^{i alpha} e^{ikx}.
Inside segment j the solution is A_j e^{-kappa_j (x-xl_j)} + b_j e^{-kappa_j (xr_j-x)},
the decaying part anchored at the left edge and the growing part at the right
edge, with kappa_j = sqrt(2m(V_j - E))/hbar taken real for E < V_j and -i*q_j
(pure imaginary) for E > V_j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .units import ELECTRON, UnitSystem

# total opacity guard: exp() stays in range well below this
_MAX_TOTAL_KAPPA_D = 600.0
# |q w| below this: an E = V segment, where psi is linear in x
_LINEAR_QW = 1e-12


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

    Takes scalars or broadcast arrays. Series branch keeps the q -> 0 (E = V)
    segment exact instead of 0/0; an array that mixes the two branches is
    propagated in two parts, each through its own branch.
    """
    qw = q * w
    series = abs(qw) < 1e-8
    if isinstance(series, np.ndarray):
        if series.any() and not series.all():
            parts = np.broadcast_arrays(psi, dpsi, q, w)
            psi_w, dpsi_w = np.empty(series.shape, complex), np.empty(series.shape, complex)
            for sel in (series, ~series):
                psi_w[sel], dpsi_w[sel] = _seg_prop(*(a[sel] for a in parts))
            return psi_w, dpsi_w
        series = series.all()
    if series:
        c = 1.0 - qw * qw / 2.0
        s_over_q = w * (1.0 - qw * qw / 6.0)
        q_s = -q * qw * (1.0 - qw * qw / 6.0)  # -q*sin(qw)
    else:
        s = np.sin(qw)
        c = np.cos(qw)
        s_over_q = s / q
        q_s = -q * s
    return c * psi + s_over_q * dpsi, q_s * psi + c * dpsi


class _Modes:
    """psi(x; k) and dpsi/dx over a row of stationary states of one potential.

    Positions fall into regions by the segment edges: region 0 lies left of
    the potential, region j + 1 inside segment j, and the last region right
    of it: free space, or a semi-infinite potential's final medium
    (wavenumber q_f, anchored at its edge x_out).
    """

    def __init__(self, states, potential: PiecewisePotential):
        self.k = np.array([s.k for s in states], dtype=float)
        self.ik = 1j * self.k
        self.amp_T = np.array([s.amp_T for s in states])
        self.amp_R = np.array([s.amp_R for s in states])
        segs = potential.segments
        if potential.semi_infinite:
            self.ik_out = -np.array([s.kappas[-1] for s in states])   # i q_f
            self.x_out = segs[-1][0]
            segs = segs[:-1]
        else:
            self.ik_out, self.x_out = self.ik, 0.0
        self.ik_amp_T = self.ik_out * self.amp_T
        self.edges = [potential.x_left] + [xr for _, xr, _ in segs] if potential.segments else []
        self.segs = []
        for j, (xl, xr, _) in enumerate(segs):
            kap = np.array([s.kappas[j] for s in states])
            A = np.array([s.A[j] for s in states])
            b_right = np.array([s._b_right[j] for s in states])
            # E = V nodes: the exponential basis is degenerate, psi is linear
            lin = np.flatnonzero(np.abs(kap * (xr - xl)) < _LINEAR_QW)
            psi_l = np.array([states[i]._psi_l[j] for i in lin], complex)
            dpsi_l = np.array([states[i]._dpsi_l[j] for i in lin], complex)
            self.segs.append((xl, xr, -kap, A, b_right, -kap * A, kap * b_right,
                              lin, psi_l, dpsi_l))

    def modes(self, region: int, x, e_p=None, derivative: bool = True):
        """(psi_j(x), dpsi_j(x)) over the k row for positions in one region.

        x is a float (rows of shape (nk,)) or a column of floats (shape
        (m, nk)); e_p, when given, holds exp(ikx) there for the free regions
        of a finite potential and is overwritten. dpsi is None when
        derivative is False. Inside a segment neither anchored factor grows,
        so the form is stable at any opacity; segments always take exp
        directly, since a recurrence offset of the growing factor could
        overflow.
        """
        if region == 0 or region > len(self.segs):
            if e_p is None:
                e_p = np.exp(self.ik * x if region == 0 else self.ik_out * (x - self.x_out))
            # products in place (a block's arrays are large), with the
            # operand order of the plain formula: SIMD complex products
            # round differently when the operands swap
            if region == 0:
                r_m = np.conj(e_p)
                np.multiply(self.amp_R, r_m, out=r_m)
                dpsi = self.ik * (e_p - r_m) if derivative else None
                r_m += e_p
                return r_m, dpsi
            dpsi = self.ik_amp_T * e_p if derivative else None
            np.multiply(self.amp_T, e_p, out=e_p)
            return e_p, dpsi
        xl, xr, nkap, A, b_right, nkap_A, kap_b, lin, psi_l, dpsi_l = self.segs[region - 1]
        dec = np.exp(nkap * (x - xl))
        grow = np.exp(nkap * (xr - x))
        psi = A * dec + b_right * grow
        dpsi = nkap_A * dec + kap_b * grow if derivative else None
        if lin.size:
            psi[..., lin] = psi_l + dpsi_l * (x - xl)
            if derivative:
                dpsi[..., lin] = dpsi_l
        return psi, dpsi

    def at(self, xs: np.ndarray, e_p=None, regions=None, derivative: bool = True):
        """(psi, dpsi) of shape (len(xs), nk) at positions xs in any regions.

        e_p is as in modes, one row per position; regions, when given, holds
        the region of each position.
        """
        if regions is None:
            regions = np.searchsorted(self.edges, xs, side="right")
        x = xs[:, None]
        if regions.size and (regions == regions[0]).all():
            return self.modes(int(regions[0]), x, e_p, derivative)
        psi = np.empty((len(xs), len(self.k)), complex)
        dpsi = np.empty_like(psi) if derivative else None
        for r in set(regions.tolist()):
            sel = regions == r
            p, d = self.modes(r, x[sel], None if e_p is None else e_p[sel], derivative)
            psi[sel] = p
            if derivative:
                dpsi[sel] = d
        return psi, dpsi


@dataclass
class ScatteringState:
    """Full stationary solution at one wavenumber, unit incident amplitude."""

    k: float
    E: float
    amp_T: complex
    amp_R: complex
    kappas: np.ndarray          # per-segment decay constants (complex 1/A)
    A: np.ndarray               # per-segment coefficient of e^{-kappa (x-xl)}
    potential: PiecewisePotential
    units: UnitSystem = ELECTRON
    # left-edge values (psi of an E = V segment is linear from them) and the
    # coefficient of the growing part e^{-kappa (xr-x)}
    _psi_l: np.ndarray = field(default=None, repr=False)
    _dpsi_l: np.ndarray = field(default=None, repr=False)
    _b_right: np.ndarray = field(default=None, repr=False)

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

    @cached_property
    def _modes(self) -> _Modes:
        return _Modes([self], self.potential)

    def psi_and_dpsi(self, x):
        """(psi, dpsi/dx) at x: scalars for a scalar x, else arrays of its shape."""
        x = np.asarray(x, dtype=float)
        psi, dpsi = self._modes.at(x.ravel())
        return psi.reshape(x.shape)[()], dpsi.reshape(x.shape)[()]

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
            kappas=np.zeros(0, complex), A=np.zeros(0, complex),
            potential=potential, units=units,
            _psi_l=np.zeros(0, complex), _dpsi_l=np.zeros(0, complex),
            _b_right=np.zeros(0, complex),
        )

    qs = [_local_q(E, V, units) for _, _, V in segs]
    total_opacity = 0.0
    for (xl, xr, _), q in zip(segs, qs):
        total_opacity += abs(q.imag) * (xr - xl)
    if total_opacity > _MAX_TOTAL_KAPPA_D:
        raise ValueError(f"total opacity kappa*d = {total_opacity:.1f} exceeds supported range")

    x_left = segs[0][0]
    if potential.semi_infinite:
        # final medium: psi = e^{i q_f (x - x_edge)} for E > V_f, or pure decay
        psi, dpsi, sweep = 1.0 + 0.0j, 1j * qs[-1], segs[:-1]
    else:
        psi, dpsi, sweep = 1.0 + 0.0j, 1j * k, segs

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
    # a semi-infinite potential's amp_T is its final-medium mode's at x_edge
    amp_T = (np.exp(0j) if potential.semi_infinite else np.exp(-1j * k * segs[-1][1])) / a_g

    # normalize interior data to unit incident amplitude
    edge_vals = [(p / a_g, dp / a_g) for (p, dp) in edge_vals]
    edge_vals.reverse()  # now leftmost interface first

    n = len(segs)
    kappas, A, psi_l, dpsi_l, b_right = (np.zeros(n, complex) for _ in range(5))

    for j, ((xl, xr, _), q) in enumerate(zip(segs, qs)):
        kap = -1j * q  # real decay constant for E < V
        kappas[j] = kap
        if potential.semi_infinite and j == n - 1:
            A[j] = psi_l[j] = complex(amp_T)
            dpsi_l[j] = complex(amp_T) * 1j * q
            continue
        pl, dl = edge_vals[j]
        pr, dr = edge_vals[j + 1]
        psi_l[j], dpsi_l[j] = pl, dl
        if abs(q * (xr - xl)) < _LINEAR_QW:
            # linear segment: exponential basis is degenerate bookkeeping
            A[j], b_right[j] = 0.5 * pl, 0.5 * pr
        else:
            A[j] = 0.5 * (pl - dl / kap)
            b_right[j] = 0.5 * (pr + dr / kap)  # exact growing-part value at xr

    return ScatteringState(
        k=k, E=E, amp_T=complex(amp_T), amp_R=complex(amp_R),
        kappas=kappas, A=A, potential=potential, units=units,
        _psi_l=psi_l, _dpsi_l=dpsi_l, _b_right=b_right,
    )


def _cmul(a, b):
    """a * b on arrays, rounded as CPython's complex product rounds.

    numpy's SIMD complex multiply may fuse the two products of a part into
    one rounding; with general complex operands that changes the last bit.
    """
    out = np.empty(np.broadcast(a, b).shape, complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _sweep_amplitudes(segments, k, units: UnitSystem):
    """(amp_T, amp_R) of solve_transfer_matrix over broadcast arrays.

    segments holds the contiguous (xl, xr, V) triples of a finite
    potential, leftmost first, with scalar V; the edges may be arrays,
    which broadcast with the array k to one potential per element. A
    segment of zero width in an element propagates as the identity there,
    as if PiecewisePotential had left it out. Every element rounds exactly
    as solve_transfer_matrix does on its potential: the propagation
    coefficients are real or pure imaginary, so their array products round
    as scalar ones; the general products go through _cmul.
    """
    # E and q element by element through the scalar solver's conversions:
    # numpy squares an array by multiplication but a scalar through pow, and
    # the two differ in the last bit for about one k in 1,300
    Es = [float(units.E_of_k(x)) for x in np.ravel(k)]
    qs = [np.reshape([_local_q(E, V, units) for E in Es], np.shape(k))
          for _, _, V in segments]
    total_opacity = 0.0
    for (xl, xr, _), q in zip(segments, qs):
        total_opacity = total_opacity + np.abs(q.imag) * (xr - xl)
    if np.any(total_opacity > _MAX_TOTAL_KAPPA_D):
        raise ValueError(f"total opacity kappa*d = {np.max(total_opacity):.1f} "
                         "exceeds supported range")

    psi, dpsi = 1.0 + 0.0j, 1j * k
    for (xl, xr, _), q in zip(reversed(segments), reversed(qs)):
        psi, dpsi = _seg_prop(psi, dpsi, q, -(xr - xl))

    a = 0.5 * (psi + dpsi / (1j * k))
    b = 0.5 * (psi - dpsi / (1j * k))
    x_left, x_right = segments[0][0], segments[-1][1]
    a_g = _cmul(a, np.exp(-1j * k * x_left))
    b_g = _cmul(b, np.exp(1j * k * x_left))
    return np.exp(-1j * k * x_right) / a_g, b_g / a_g


def _phase_slopes(segments, k: float, units: UnitSystem):
    """(dalpha/dk, dbeta/dk) of the transfer-matrix amplitudes at k.

    segments as in _sweep_amplitudes; the slopes take the broadcast shape of
    its edges. Centered differences with step 1e-6 k and one Richardson
    step, all four shifted k in one sweep. Branch cuts cancel in
    angle(t(k+h) conj(t(k-h))) for small h.
    """
    _check_k(k)
    h = 1e-6 * k
    ndim = max(np.ndim(x) for seg in segments for x in seg)
    ks = np.array([k + h, k - h, k + 0.5 * h, k - 0.5 * h]).reshape((4,) + (1,) * ndim)
    amp_T, amp_R = _sweep_amplitudes(segments, ks, units)

    def slopes(amp, i, h):
        return np.angle(_cmul(amp[i], np.conj(amp[i + 1]))) / (2.0 * h)

    a1, a2 = slopes(amp_T, 0, h), slopes(amp_T, 2, 0.5 * h)
    b1, b2 = slopes(amp_R, 0, h), slopes(amp_R, 2, 0.5 * h)
    return (4.0 * a2 - a1) / 3.0, (4.0 * b2 - b1) / 3.0


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
