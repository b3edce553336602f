"""Stationary 1-D scattering on piecewise-constant potentials.

Two independent routes to the same physics:

* a general transfer-matrix solver (``solve_transfer_matrix``, the scalar
  view of ``_transfer_sweep``) that propagates (psi, psi') continuity data
  across segments, for one k or an array of them, and
* closed forms for the single square barrier (``closed_form_square``).

Conventions: incident wave e^{ikx} from the left with unit amplitude,
psi_I = e^{ikx} + R e^{i beta} e^{-ikx},  psi_III = T e^{i alpha} e^{ikx}.
Inside segment j, with q_j^2 = 2m(E - V_j)/hbar^2 real, the solution is
psi(x) = C psi_r + a S psi'_r with a = x - xr_j, C = cos(q_j a) and
S = sin(q_j a)/(q_j a), stepped from the segment's right-edge values (psi_r,
psi'_r) by the same _seg_prop that the sweep takes; kappa_j = sqrt(2m(V_j -
E))/hbar is real for E < V_j and -i*q_j (pure imaginary) for E > V_j.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache

import numpy as np

from .units import ELECTRON, UnitSystem

# total opacity guard: exp() stays in range well below this
_MAX_TOTAL_KAPPA_D = 600.0
# Newton passes the Gauss-Legendre rule may take; Tricomi's guess needs 3-4
_NEWTON_PASSES = 10
# Taylor coefficients in s of _entire's S, C, G and H, highest power first:
# 1/(2n+1)!, 1/(2n)!, 2^(2n+3)/(2n+3)! and (2n+2)/(2n+3)! for n < 12, past
# rounding at |s| < 1
_TAYLOR = np.array([[1.0 / math.factorial(2 * n + 1), 1.0 / math.factorial(2 * n),
                     2.0 ** (2 * n + 3) / math.factorial(2 * n + 3),
                     (2.0 * n + 2.0) / math.factorial(2 * n + 3)] for n in range(11, -1, -1)])


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


def _seg_prop(psi, dpsi, q2, a):
    """Step (psi, psi') by a along a segment with squared local wavenumber q2.

    q2 = 2m(E - V)/hbar^2 is real. Returns psi = C psi + a S psi' and
    psi' = -q2 a S psi + C psi', where C = cos(q a) and S = sin(q a)/(q a) are
    entire in the real q2 a^2: cosh x and sinh(x)/x of x = |q a| below V,
    cos x and sin(x)/x above it, and S = 1 at x = 0, so E = V takes no
    branch. Below V, cosh x and sinh x are formed from one rounded m = e^x - 1
    (as (e + 1/e)/2 and (m + m/e)/2), so C - sinh x keeps e^-x where the sweep
    cancels near a resonance. a S is sinh(q a)/|q| and -q2 a S is
    |q| sinh(q a) (sin and -|q| sin above V), each one rounding from sinh;
    at x = 0, a S is a itself. Takes scalars or broadcast arrays, element
    by element.
    """
    q2, a = np.asarray(q2, dtype=float), np.asarray(a, dtype=float)
    q = np.sqrt(np.abs(q2))
    x = np.abs(a) * q
    below, zero = q2 < 0, x == 0
    C, S, r = (np.empty(np.shape(x)) for _ in range(3))
    np.expm1(np.where(below, x, 0.0), out=S)   # m = e^x - 1 below V
    np.add(S, 1.0, out=C)
    np.divide(1.0, C, out=r)                    # e^-x
    C += r
    C *= 0.5
    r *= S
    S += r
    S *= 0.5
    np.cos(x, out=C, where=~below)
    np.sin(x, out=S, where=~below)
    del x   # a block's arrays are large: free each once it is used
    S *= np.sign(a)     # sinh(q a), or sin(q a) above V
    aS = np.divide(S, q, out=r, where=~zero)
    np.copyto(aS, a, where=zero)
    psi_a = C * psi
    psi_a += aS * dpsi
    del aS, r
    S *= q
    np.negative(S, out=S, where=~below)   # -q2 a S
    dpsi_a = C * dpsi
    del C
    dpsi_a += S * psi
    return psi_a, dpsi_a


@dataclass(kw_only=True)
class _Solution:
    """Stationary states from _transfer_sweep: E has the shape of k, the
    amplitudes the broadcast shape S of k and the segment edges, kappas
    (n_seg, *k.shape), and the right-edge values (n_sweep, *S) of each
    segment the sweep crossed (all but a semi-infinite potential's final
    medium)."""

    k: float
    E: float
    amp_T: complex
    amp_R: complex
    kappas: np.ndarray          # per-segment decay constants (complex 1/A)
    _psi_r: np.ndarray = field(repr=False)    # psi at each segment's xr
    _dpsi_r: np.ndarray = field(repr=False)   # dpsi/dx there


class _Modes:
    """psi(x; k) and dpsi/dx over a row of stationary states of one potential.

    Positions fall into regions by the segment edges: region 0 lies left of
    the potential, region j + 1 inside segment j, and the last region right
    of it: free space, or a semi-infinite potential's final medium
    (wavenumber q_f, anchored at its edge x_out).
    """

    def __init__(self, potential: PiecewisePotential, sol: _Solution):
        self.k = sol.k
        self.ik = 1j * self.k
        self.amp_T, self.amp_R = sol.amp_T, sol.amp_R
        segs = potential.segments
        if potential.semi_infinite:
            self.ik_out = -sol.kappas[-1]   # i q_f
            self.x_out = segs[-1][0]
            segs = segs[:-1]
        else:
            self.ik_out, self.x_out = self.ik, 0.0
        self.ik_amp_T = self.ik_out * self.amp_T
        self.edges = [potential.x_left] + [xr for _, xr, _ in segs] if potential.segments else []
        q2 = -(sol.kappas * sol.kappas).real   # 2m(E - V)/hbar^2
        self.segs = [(xr, q2[j], sol._psi_r[j], sol._dpsi_r[j])
                     for j, (_, xr, _) in enumerate(segs)]

    def modes(self, region: int, x, e_p=None, derivative: bool = True):
        """(psi_j(x), dpsi_j(x)) over the k row for positions in one region.

        x is a float (rows of shape (nk,)) or a column of floats (shape
        (m, nk)); e_p, when given, holds exp(ikx) there for the free regions
        of a finite potential and is overwritten. dpsi is None when
        derivative is False. Inside a segment the mode is _seg_prop from the
        segment's right edge by a = x - xr <= 0: the sweep's own direction,
        stable at any opacity.
        """
        if region == 0 or region > len(self.segs):
            if e_p is None:
                e_p = self.ik * x if region == 0 else self.ik_out * (x - self.x_out)
                np.exp(e_p, out=e_p)
            # products in place: a block's arrays are large
            if region == 0:
                r_m = np.conj(e_p)
                np.multiply(self.amp_R, r_m, out=r_m)
                dpsi = self.ik * (e_p - r_m) if derivative else None
                r_m += e_p
                return r_m, dpsi
            dpsi = self.ik_amp_T * e_p if derivative else None
            np.multiply(self.amp_T, e_p, out=e_p)
            return e_p, dpsi
        xr, q2, psi_r, dpsi_r = self.segs[region - 1]
        psi, dpsi = _seg_prop(psi_r, dpsi_r, q2, x - xr)
        return psi, dpsi if derivative else None

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
class ScatteringState(_Solution):
    """Full stationary solution at one wavenumber, unit incident amplitude:
    row 0 of a one-element _transfer_sweep, on its potential."""

    potential: PiecewisePotential
    units: UnitSystem = ELECTRON

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
        # the evaluator takes a row of states: k of shape (1,)
        row = {f.name: np.asarray(getattr(self, f.name))[..., None] for f in fields(_Solution)}
        return _Modes(self.potential, _Solution(**row))

    def psi_and_dpsi(self, x):
        """(psi, dpsi/dx) at x: scalars for a scalar x, else arrays of its shape."""
        x = np.asarray(x, dtype=float)
        psi, dpsi = self._modes.at(x.ravel())
        return psi.reshape(x.shape)[()], dpsi.reshape(x.shape)[()]

    def psi(self, x):
        return self.psi_and_dpsi(x)[0]


def _local_q(E, V: float, units: UnitSystem):
    """Local wavenumber sqrt(2m(E-V))/hbar at every element of E, analytic
    +0j branch."""
    return np.sqrt(2.0 * units.electron_rest_eV * (E - V) + 0j) / units.hbarc_eV_A


def _check_k(k) -> None:
    k = np.asarray(k, dtype=float)
    if not (np.isfinite(k).all() and (k > 0).all()):
        raise ValueError(f"k must be finite and positive, got {k}")


def _check_count(name: str, n, least: int) -> None:
    """Raise ValueError unless n is an integer (not a bool) of at least least."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {n!r}")


def _points(k, d):
    """The points of the closed-form bodies: k and d broadcast, flattened, checked."""
    k, d = np.broadcast_arrays(np.asarray(k, dtype=float), np.asarray(d, dtype=float))
    _check_k(k)
    if not (np.isfinite(d).all() and (d >= 0).all()):
        raise ValueError(f"d must be finite and >= 0, got {d}")
    return k.ravel(), d.ravel()


def _transfer_sweep(segments, k, units: UnitSystem, semi_infinite: bool = False) -> _Solution:
    """Stationary states at every element of k, unit incident amplitude.

    segments holds the contiguous (xl, xr, V) triples of the potential,
    leftmost first; the edges and heights may be arrays, broadcast against
    k, one potential per element. A zero-width segment propagates
    as the identity. semi_infinite makes the last segment the final medium.
    Sweeping right to left from the transmitted side keeps the growing
    exponential dominant, so total opacity up to ~600 needs no rescaling.
    """
    k = np.asarray(k, dtype=float)
    _check_k(k)
    E = units.E_of_k(k)
    shape = np.broadcast_shapes(k.shape, *(x.shape for seg in segments for x in seg
                                           if isinstance(x, np.ndarray)))
    n = len(segments)
    if not n:
        none = np.zeros((0,) + shape, complex)
        return _Solution(k=k, E=E, amp_T=np.ones(shape, complex), amp_R=np.zeros(shape, complex),
                         kappas=none, _psi_r=none, _dpsi_r=none)

    qs = [_local_q(E, V, units) for _, _, V in segments]
    widths = [xr - xl for xl, xr, _ in segments]
    total_opacity = 0.0
    for q, w in zip(qs, widths):
        total_opacity = total_opacity + np.abs(q.imag) * w
    if np.any(total_opacity > _MAX_TOTAL_KAPPA_D):
        raise ValueError(f"total opacity kappa*d = {np.max(total_opacity):.1f} "
                         "exceeds supported range")
    kappas = -1j * np.array(qs)  # real decay constants for E < V
    q2 = -(kappas * kappas).real

    # the final medium: psi = e^{i q_f (x - x_edge)} for E > V_f, or pure decay
    n_sweep = n - 1 if semi_infinite else n
    ik = 1j * k
    psi, dpsi = 1.0 + 0.0j, 1j * qs[-1] if semi_infinite else ik
    psi_r, dpsi_r = (np.empty((n_sweep,) + shape, complex) for _ in range(2))
    for j in reversed(range(n_sweep)):
        psi_r[j], dpsi_r[j] = psi, dpsi
        psi, dpsi = _seg_prop(psi, dpsi, q2[j], -widths[j])

    ratio = dpsi / ik
    x_left = segments[0][0]
    a_g = 0.5 * (psi + ratio) * np.exp(-1j * k * x_left)
    amp_R = 0.5 * (psi - ratio) * np.exp(1j * k * x_left) / a_g
    # a semi-infinite potential's amp_T is its final-medium mode's at x_edge
    amp_T = (np.exp(0j) if semi_infinite else np.exp(-1j * k * segments[-1][1])) / a_g
    psi_r /= a_g   # interior data at unit incident amplitude
    dpsi_r /= a_g
    return _Solution(k=k, E=E, amp_T=amp_T, amp_R=amp_R, kappas=kappas, _psi_r=psi_r,
                     _dpsi_r=dpsi_r)


def solve_transfer_matrix(
    potential: PiecewisePotential, k: float, units: UnitSystem = ELECTRON
) -> ScatteringState:
    """Solve the stationary problem at one k: row 0 of a one-element
    _transfer_sweep, which rounds as every sweep element does (numpy rounds
    complex products of 0-d arrays apart); k, E and the amplitudes as scalars."""
    sol = _transfer_sweep(potential.segments, [k], units, potential.semi_infinite)
    return ScatteringState(potential, units, **{name: x[0].item() if x.ndim == 1 else x[:, 0]
                                                for name, x in vars(sol).items()})


_SHIFTS = np.array([1.0, -1.0, 0.5, -0.5])


def _richardson(rows, h):
    """(d ln|a|/dx, d arg a/dx) at x from rows = a(x + h _SHIFTS), stacked on
    the first axis: centred differences with one Richardson step, O(h^4).
    Each point's rows are first scaled by one exact power of two, so that
    a conj(b) stays normal for |a| down to e^-600 (unscaled, |t|^2
    underflows past opacity ~355); the phase differences are angle(a conj b),
    free of branch cuts for small h."""
    scale, rows = np.ldexp(1.0, -np.frexp(np.abs(rows[0]))[1]), rows.copy()
    rows.real *= scale   # by parts: a complex product would flip the sign of a zero
    rows.imag *= scale
    with np.errstate(divide="ignore", invalid="ignore"):   # ln 0 where a = 0
        ln = np.log(np.abs(rows))
        wide, narrow = ((ln[i] - ln[i + 1], np.angle(rows[i] * np.conj(rows[i + 1])))
                        for i in (0, 2))
        return tuple((4.0 * (n / h) - w / (2.0 * h)) / 3.0 for w, n in zip(wide, narrow))


def _phase_slopes(segments, k: float, units: UnitSystem):
    """(dalpha/dk, dbeta/dk) of the transfer-matrix amplitudes at k.

    segments as in _transfer_sweep; the slopes take the broadcast shape of
    its edges. _richardson with step h = 1e-6 k, the four shifted k in one
    sweep.
    """
    _check_k(k)
    h = 1e-6 * k
    ndim = max(np.ndim(x) for seg in segments for x in seg)
    sol = _transfer_sweep(segments, (k + h * _SHIFTS).reshape((4,) + (1,) * ndim), units)
    return _richardson(sol.amp_T, h)[1], _richardson(sol.amp_R, h)[1]


def _entire(eps, k, d):
    """(q, w, S, C, G, H) at every point of the 1-D arrays k and d.

    q = |eps^2 - k^2|^(1/2) is the interior wavenumber, kappa below the top
    and kt above it. S = sinh(z)/z, C = cosh z, G = (sinh 2z - 2z)/z^3 and
    H = (z cosh z - sinh z)/z^3 are entire functions of the signed
    s = z^2 = (eps^2 - k^2) d^2, so they continue to sin and cos of q d above
    the top (z = i q d). |s| < 1 takes their Taylor series. Below the top
    each carries the scale w = e^{-q d} (G carries w^2), which keeps them
    finite at any opacity; w = 1 at and above the top.
    """
    q = np.sqrt(np.abs(eps * eps - k * k))
    x = q * d
    below = k < eps
    w = np.exp(-np.where(below, x, 0.0))
    w2 = w * w
    # sinh x and cosh x times w below the top, sin x and cos x above it
    sh, ch = 0.5 * (1.0 - w2), 0.5 * (1.0 + w2)
    above = ~below
    if above.any():
        sh[above], ch[above] = np.sin(x[above]), np.cos(x[above])
    sign = np.where(below, -1.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):   # 0/0 at x = 0: series below
        x3 = x ** 3
        out = [sh / x, ch, 2.0 * sign * (x * w2 - sh * ch) / x3, sign * (sh - x * ch) / x3]
    series = np.flatnonzero(x < 1.0)   # |s| < 1
    if series.size:
        xs, ws = x[series], w[series]
        s, acc = np.where(below[series], xs * xs, -xs * xs), np.zeros((4, series.size))
        for c in _TAYLOR:
            acc *= s
            acc += c[:, None]
        for f, a, scale in zip(out, acc, (ws, ws, ws * ws, ws)):
            f[series] = a * scale
    return (q, w, *out)


def _square_amplitudes(params: SquareBarrierParams, k, d):
    """(T, R, alpha, beta) of closed_form_square at every point of k and d,
    broadcast and flattened (params.d is not read). One body holds on both
    sides of the top: with D = 4 k^2 + eps^4 d^2 S^2, T = 2k/sqrt(D),
    R = eps^2 d |S|/sqrt(D) and alpha_ref = arctan((2k^2 - eps^2) d S/(2k C)),
    unwrapped by pi above the top."""
    k, d = _points(k, d)
    eps = params.eps
    q, w, S, C, _, _ = _entire(eps, k, d)
    den = np.hypot(2.0 * k * w, eps * eps * d * S)
    T = 2.0 * k * w / den
    R = eps * eps * d * np.abs(S) / den
    with np.errstate(divide="ignore"):   # C = 0 at kt d = pi/2: arctan(inf)
        a_ref = np.arctan((2.0 * k * k - eps * eps) * d * S / (2.0 * k * C))
    a_ref += math.pi * np.floor(np.where(k > eps, q * d, 0.0) / math.pi + 0.5)
    alpha = a_ref - k * d
    # beta jumps by pi where S changes sign; R = 0 leaves it undefined at d = 0
    beta = np.where(d == 0, 0.0, a_ref - np.where(S >= 0, 0.5, -0.5) * math.pi)
    return T, R, alpha, beta


def closed_form_square(params: SquareBarrierParams, k: float):
    """(T, R, alpha, beta) for the square barrier, all regimes.

    alpha is the full transmission phase (psi_III = T e^{i(kx+alpha)}),
    continuous in k and anchored at alpha = 0 for d = 0. beta is continuous
    below the top; above the top it jumps by pi only at exact reflection
    zeros, where the phase is undefined anyway.
    """
    return tuple(x.item() for x in _square_amplitudes(params, k, params.d))


def _step_kappa(V0: float, k: float, units: UnitSystem):
    """(E, kappa) of k under a step of height V0. Raises ValueError for a
    non-finite V0, a k that is not finite and positive, or E >= V0."""
    if not math.isfinite(V0):
        raise ValueError(f"V0 must be finite, got {V0}")
    _check_k(k)
    E = float(units.E_of_k(k))
    if E >= V0:
        raise ValueError("step relations cover the sub-barrier case only")
    return E, float(units.kappa_of(E, V0))


def step_reflection(V0: float, k: float, units: UnitSystem = ELECTRON) -> complex:
    """Reflection amplitude off a step of height V0 at x = 0 (E < V0)."""
    _, kap = _step_kappa(V0, k, units)
    return (k - 1j * kap) / (k + 1j * kap)


def delta_closed_form(strength: float, k: float, units: UnitSystem = ELECTRON):
    """(T, R, alpha, beta) for a Dirac-delta barrier of strength V0*d (eV*A).

    The opacity parameter is Omega = m*strength/(hbar^2 k); the
    dimension-restoring m/hbar^2 is fixed by the transfer-matrix limit of
    square barriers of height strength/d as d -> 0 (the oracle in the tests).
    A negative strength is a delta well. Raises ValueError for a non-finite
    strength.
    """
    if not math.isfinite(strength):
        raise ValueError(f"strength must be finite, got {strength}")
    _check_k(k)
    omega = units.electron_rest_eV * strength / (units.hbarc_eV_A ** 2 * k)
    t = 1.0 / (1.0 + 1j * omega)
    r = -1j * omega / (1.0 + 1j * omega)
    return abs(t), abs(r), float(np.angle(t)), float(np.angle(r))


@lru_cache(maxsize=8)
def _gauss_legendre(n: int):
    """Read-only (nodes, weights) of the n-point Gauss-Legendre rule on [-1, 1].

    Newton on the three-term recurrence from Tricomi's guess, over the
    nonnegative half of the nodes, the rest mirrored exactly: O(n^2) with no
    eigen-solve (Hale & Townsend, SIAM J. Sci. Comput. 35, A652 (2013)).
    It stops once no step exceeds 2 eps, and raises if that never happens.
    The weights 2/((1 - x^2) P_n'(x)^2) are taken at the root to first order
    in the last step (P_n'' = 2x P_n'/(1 - x^2) there, by Legendre's equation),
    which keeps the rounding of the endpoint nodes out of them.
    """
    m = (n + 1) // 2
    x = np.cos(np.pi * (4.0 * np.arange(1, m + 1) - 1.0) / (4.0 * n + 2.0))
    x *= 1.0 - (n - 1.0) / (8.0 * n ** 3)
    if n % 2:
        x[-1] = 0.0
    t = np.empty_like(x)
    for _ in range(_NEWTON_PASSES):
        p0, p1 = np.ones_like(x), x.copy()     # P_{k-1}, P_k, up to k = n
        for k in range(2, n + 1):
            np.multiply(x, p1, out=t)
            p0 -= t
            p0 *= (1.0 - k) / k
            p0 += t
            p0, p1 = p1, p0
        s = (1.0 - x) * (1.0 + x)              # 1 - x^2, exact near the ends
        dp = n * (p0 - x * p1) / s             # P_n'
        dx = p1 / dp
        if np.max(np.abs(dx)) <= 2.0 * np.finfo(float).eps:
            break
        x -= dx
    else:
        raise ArithmeticError(f"Gauss-Legendre nodes for n = {n} did not converge")
    w = 2.0 * (1.0 + 2.0 * x * dx / s) / (s * dp * dp)
    x -= dx
    h = n // 2
    nodes = np.concatenate((-x[:h], x[::-1]))
    weights = np.concatenate((w[:h], w[::-1]))
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights
