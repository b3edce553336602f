"""Gaussian wavepacket evolution and current-flux time statistics.

A packet is a fixed spectral superposition of stationary scattering states,

    Psi(x,t) = (2 pi)^{-1/2} sum_j w_j g_j psi(x; k_j) e^{-i E_j t/hbar},

with Gauss-Legendre nodes k_j, weights w_j and normalized amplitudes g_j
(sum w g^2 = 1). That normalization makes the spatial norm and the
time-integrated incident flux through any point both equal 1 exactly in the
quadrature sense. The free-motion centroid crosses x = 0 at t = 0 (the
spectrum is real, so no linear spectral phase appears).

Flux statistics split the current J(x,t) by sign into J+ >= 0 and J- <= 0 and
build arrival-time means and variances from each part separately; points
whose split flux falls below a floor are flagged low-confidence, never
dropped.
"""

from __future__ import annotations

import bisect
import hashlib
import math
import warnings
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from .scattering import PiecewisePotential, _Modes, _transfer_sweep
from .units import ELECTRON, UnitSystem

T_SPAN = (-1e-13, 1e-13)       # scan interval for locating flux support, s
DT_COARSE = 1e-15              # support-location step, s
DT_FINE = 1e-17                # refined statistics step, s
FLUX_FLOOR = 1e-6              # of incident norm; below this: low confidence
SUPPORT_SIGMAS = 10.0          # refined window padding in packet time-widths
SUPPORT_THRESHOLD = 1e-8       # of max |J|; above this the flux is still flowing
PHASE_BLOCK = 64               # rows of the exp(-i omega t) matrix held at once
EVEN_GRID_TOL = 1e-12          # rad; max phase error the even-grid recurrence may add
ENSEMBLE_CACHE_SIZE = 8        # packet ensembles kept for reuse, least recent dropped


@dataclass(frozen=True)
class SpectralPacket:
    """Gaussian k-space packet on a Gauss-Legendre grid.

    amplitude holds C f(k-k0) with C fixed so sum(weights * amplitude^2) = 1.
    """

    k0: float
    dk: float
    k_nodes: np.ndarray
    weights: np.ndarray
    amplitude: np.ndarray
    x0: float = 0.0
    units: UnitSystem = ELECTRON
    _key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # the ensemble cache keys on the spectral content, hashed once here;
        # read-only copies keep that key true for the packet's lifetime
        digest = hashlib.blake2b(digest_size=16)
        for name in ("k_nodes", "weights", "amplitude"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
            digest.update(arr.tobytes())
        object.__setattr__(self, "_key", (self.units, len(self.k_nodes), digest.digest()))

    @classmethod
    def gaussian(cls, k0: float, dk: float, n_nodes: int = 513,
                 k_floor: float = 1e-4, units: UnitSystem = ELECTRON) -> "SpectralPacket":
        if not (math.isfinite(k0) and math.isfinite(dk)):
            raise ValueError(f"k0 and dk must be finite, got k0={k0}, dk={dk}")
        if k0 <= 0 or dk <= 0:
            raise ValueError("k0 and dk must be positive")
        lo = max(k_floor, k0 - 5.0 * dk)
        hi = k0 + 5.0 * dk
        xg, wg = leggauss(n_nodes)
        k = 0.5 * (hi - lo) * xg + 0.5 * (hi + lo)
        w = 0.5 * (hi - lo) * wg
        f = np.exp(-((k - k0) ** 2) / (2.0 * dk * dk))
        f = f / math.sqrt(float(np.sum(w * f * f)))
        return cls(k0=k0, dk=dk, k_nodes=k, weights=w, amplitude=f, units=units)

    def with_nodes(self, n_nodes: int) -> "SpectralPacket":
        """Same packet on a refined grid (for convergence checks)."""
        return SpectralPacket.gaussian(self.k0, self.dk, n_nodes=n_nodes, units=self.units)

    @property
    def sigma_t(self) -> float:
        """Nominal temporal width 1/(v(k0) dk) of the packet, s."""
        return 1.0 / (float(self.units.v_of_k(self.k0)) * self.dk)


class _Ensemble(_Modes):
    """Cached stationary modes of one potential on a packet's k grid, with
    the packet's spectral coefficients and frequencies."""

    def __init__(self, packet: SpectralPacket, potential: PiecewisePotential):
        if potential.semi_infinite:
            raise ValueError("packet evolution needs a finite-range potential")
        u = packet.units
        super().__init__(potential, _transfer_sweep(potential.segments, packet.k_nodes, u))
        self.coef = packet.weights * packet.amplitude / math.sqrt(2.0 * math.pi)
        self.omega = u.E_of_k(self.k) / u.hbar_eV_s

    def modes_at(self, x: float):
        """(psi_j(x), dpsi_j(x)) arrays over the k grid at one position."""
        return self.modes(bisect.bisect_right(self.edges, x), x)

    def mode_blocks(self, xs: np.ndarray, derivative: bool = True):
        """Yield (row slice, psi, dpsi) for xs, PHASE_BLOCK positions at a time.

        Blocks follow the order of xs; one block may span several regions.
        On an evenly spaced xs longer than one block, exp(ikx) on the free
        regions comes from the _phase_blocks recurrence (omega = -k);
        otherwise, and inside segments, from exp directly, so a list of at
        most PHASE_BLOCK points matches modes_at row for row, bit for bit.
        """
        B = PHASE_BLOCK
        n = len(xs)
        regions = np.searchsorted(self.edges, xs, side="right")
        if n > B and _is_even(xs, self.k):
            blocks = _phase_blocks(xs, -self.k)
        else:
            blocks = ((slice(s, s + B), None) for s in range(0, n, B))
        for rows, e_p in blocks:
            yield rows, *self.at(xs[rows], e_p, regions[rows], derivative)


# the most recently used ensembles, keyed on (potential, packet content)
_ENSEMBLES: OrderedDict = OrderedDict()


def _ensemble(packet: SpectralPacket, potential: PiecewisePotential) -> _Ensemble:
    key = (potential, packet._key)
    ens = _ENSEMBLES.get(key)
    if ens is None:
        ens = _Ensemble(packet, potential)
        _ENSEMBLES[key] = ens
        if len(_ENSEMBLES) > ENSEMBLE_CACHE_SIZE:
            _ENSEMBLES.popitem(last=False)
    else:
        _ENSEMBLES.move_to_end(key)
    return ens


def _is_even(ts: np.ndarray, omega: np.ndarray) -> bool:
    """True when ts is an arithmetic progression to within EVEN_GRID_TOL rad."""
    n = len(ts)
    step = (ts[-1] - ts[0]) / (n - 1)
    dev = float(np.max(np.abs(ts - (ts[0] + step * np.arange(n)))))
    return dev * float(np.max(np.abs(omega))) <= EVEN_GRID_TOL


def _phase(ts: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """The direct exp(-i omega t) matrix, shape (len(ts), len(omega))."""
    return np.exp(-1j * np.outer(ts, omega))


def _phase_blocks(ts: np.ndarray, omega: np.ndarray):
    """Yield (row slice, exp(-i omega t) rows) in blocks of PHASE_BLOCK rows.

    On an evenly spaced grid, row s + r is exp(-i omega (t_r - t_0)) *
    exp(-i omega t_s) for block start s: both factors come straight from exp,
    so rounding does not build up from block to block. Any other grid takes
    the direct exp block by block.
    """
    B = PHASE_BLOCK
    n = len(ts)
    if _is_even(ts, omega):
        offset = _phase(ts[:B] - ts[0], omega)
        for s in range(0, n, B):
            m = min(B, n - s)
            yield slice(s, s + m), offset[:m] * np.exp(-1j * ts[s] * omega)
    else:
        for s in range(0, n, B):
            yield slice(s, min(n, s + B)), _phase(ts[s:s + B], omega)


def evolve(packet: SpectralPacket, potential: PiecewisePotential, x, t):
    """(Psi, dPsi/dx) at position(s) x and time(s) t.

    Scalars give scalars; an array in one argument broadcasts; arrays in both
    return shape (len(t), len(x)). Both axes are blocked: one matmul per
    block of at most PHASE_BLOCK times and PHASE_BLOCK positions, so neither
    a len(x) x len(k) nor a len(t) x len(k) matrix is ever held. Raises
    ValueError for a non-finite x or t.
    """
    ens = _ensemble(packet, potential)
    if np.ndim(x) == 0 and np.ndim(t) == 0:
        return _point(ens, x, t)
    return _blocked(ens, x, t, derivative=True)


def _point(ens: _Ensemble, x, t):
    """(Psi, dPsi/dx) at one position and time: evolve's scalar case.

    Guidance integration calls this directly with an ensemble it resolved
    once, so a right-hand side pays neither the cache lookup nor evolve's
    dispatch, and no blocks are set up.
    """
    xv, tv = float(x), float(t)
    if not (math.isfinite(xv) and math.isfinite(tv)):
        raise ValueError("x and t must be finite")
    pj, dj = ens.modes_at(xv)
    phase = _phase(np.array([tv]), ens.omega)
    return ((phase @ (ens.coef * pj)[:, None])[0, 0],
            (phase @ (ens.coef * dj)[:, None])[0, 0])


def _blocked(ens: _Ensemble, x, t, derivative: bool):
    """evolve's block loop; dPsi/dx is None when derivative is False.

    Callers that need only Psi (densities over long position lists) skip
    the derivative's share of the work.
    """
    xs = np.asarray(x, dtype=float).ravel()
    ts = np.asarray(t, dtype=float).ravel()
    if not (np.isfinite(xs).all() and np.isfinite(ts).all()):
        raise ValueError("x and t must be finite")
    # one phase block serves every mode block; longer time lists are
    # formed again for each block of positions
    one_phase = [(slice(None), _phase(ts, ens.omega))] if len(ts) <= PHASE_BLOCK else None
    psi = np.empty((len(ts), len(xs)), complex)
    dpsi = np.empty_like(psi) if derivative else None
    for cols, pm, dm in ens.mode_blocks(xs, derivative):
        np.multiply(ens.coef, pm, out=pm)
        if derivative:
            np.multiply(ens.coef, dm, out=dm)
        for rows, phase in one_phase or _phase_blocks(ts, ens.omega):
            psi[rows, cols] = phase @ pm.T
            if derivative:
                dpsi[rows, cols] = phase @ dm.T
    if np.ndim(x) == 0:
        psi = psi[:, 0]
        dpsi = dpsi[:, 0] if derivative else None
    if np.ndim(t) == 0:
        return psi[0], dpsi[0] if derivative else None
    return psi, dpsi


def current(packet: SpectralPacket, potential: PiecewisePotential, x, t):
    """Probability current J(x,t) = (hbar/m) Im(Psi* dPsi/dx)."""
    psi, dpsi = evolve(packet, potential, x, t)
    return packet.units.hbar_over_m * np.imag(np.conj(psi) * dpsi)


@dataclass
class FluxRecord:
    """J(x, t) at fixed x on a time grid, sign-split with cumulants."""

    x: float
    t: np.ndarray
    J: np.ndarray
    J_plus: np.ndarray
    J_minus: np.ndarray
    N_gt: np.ndarray       # forward crossings accumulated up to t
    N_lt: np.ndarray       # backward crossings accumulated up to t (>= 0)


@dataclass
class ArrivalStats:
    mean_t_plus: float
    mean_t_minus: float
    var_t_plus: float
    var_t_minus: float
    total_plus_flux: float
    total_minus_flux: float
    low_confidence_plus: bool
    low_confidence_minus: bool


@dataclass
class MeanTimes:
    """Differences of sign-split arrival means between two probe points."""

    tau_T: float
    tau_R: float
    tau_Pen: float
    tau_Ret: float
    var_tau_T: float
    stats_i: ArrivalStats
    stats_f: ArrivalStats

    @property
    def low_confidence(self) -> bool:
        return (self.stats_i.low_confidence_plus or self.stats_f.low_confidence_plus
                or self.stats_f.low_confidence_minus)


def default_time_grid(packet: SpectralPacket, potential: PiecewisePotential,
                      x, dt_fine: float = DT_FINE) -> np.ndarray:
    """Two-stage grid: coarse scan locates |J| support, fine grid covers it.

    x is one probe or a sequence of probes. One coarse scan serves them all;
    a probe's support is where |J| exceeds SUPPORT_THRESHOLD of its own
    maximum, and the refined window covers the union of the supports, padded
    by SUPPORT_SIGMAS packet time-widths and clipped to the scan interval.
    Probes without any flux add no support; when no probe has flux the
    coarse scan grid itself is returned.
    """
    t_coarse = np.arange(T_SPAN[0], T_SPAN[1] + DT_COARSE / 2, DT_COARSE)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    J = np.abs(current(packet, potential, xs, t_coarse))   # (Nt, Nx)
    live = np.flatnonzero(np.any(J > SUPPORT_THRESHOLD * J.max(axis=0), axis=1))
    if live.size == 0:
        return t_coarse
    t_lo = t_coarse[live[0]] - SUPPORT_SIGMAS * packet.sigma_t
    t_hi = t_coarse[live[-1]] + SUPPORT_SIGMAS * packet.sigma_t
    t_lo = max(t_lo, T_SPAN[0])
    t_hi = min(t_hi, T_SPAN[1])
    return np.arange(t_lo, t_hi + dt_fine / 2, dt_fine)


def _cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of y over x, starting at 0 (the formula of
    scipy's cumulative_trapezoid with initial=0, bit for bit)."""
    return np.concatenate(([0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)))


def flux_records(packet: SpectralPacket, potential: PiecewisePotential, xs,
                 t_grid: np.ndarray | None = None,
                 dt_fine: float = DT_FINE) -> list[FluxRecord]:
    """Evaluate and sign-split the current at several probes on one time grid.

    Without t_grid every probe shares default_time_grid(xs): one coarse scan
    and one current evaluation serve all of them.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if t_grid is None:
        t_grid = default_time_grid(packet, potential, xs, dt_fine=dt_fine)
    J_all = np.ascontiguousarray(current(packet, potential, xs, t_grid).T)
    records = []
    for x, J in zip(xs, J_all):
        J_plus = np.clip(J, 0.0, None)
        J_minus = np.clip(J, None, 0.0)
        N_gt = _cumulative_trapezoid(J_plus, t_grid)
        N_lt = -_cumulative_trapezoid(J_minus, t_grid)
        records.append(FluxRecord(x=float(x), t=t_grid, J=J, J_plus=J_plus,
                                  J_minus=J_minus, N_gt=N_gt, N_lt=N_lt))
    return records


def flux_series(packet: SpectralPacket, potential: PiecewisePotential, x: float,
                t_grid: np.ndarray | None = None, dt_fine: float = DT_FINE) -> FluxRecord:
    """Evaluate and sign-split the current at probe x on a time grid."""
    return flux_records(packet, potential, [x], t_grid=t_grid, dt_fine=dt_fine)[0]


def arrival_stats(record: FluxRecord, floor: float = FLUX_FLOOR,
                  incident_norm: float = 1.0) -> ArrivalStats:
    """Sign-split arrival-time means and variances at one probe point.

    Both flags are raised when the time window cuts off flux that is still
    flowing: |J| at either end of record.t above SUPPORT_THRESHOLD of max |J|.
    """
    t = record.t
    absJ = np.abs(record.J)
    clipped = absJ.size > 0 and bool(max(absJ[0], absJ[-1]) > SUPPORT_THRESHOLD * absJ.max())

    def moments(Jpart):
        tot = np.trapezoid(Jpart, t)
        # below the floor the mean is still computed but flagged; only a
        # strictly-zero (roundoff level) flux leaves it undefined
        if abs(tot) < 1e-15 * incident_norm:
            return math.nan, math.nan, float(tot), True
        m1 = np.trapezoid(t * Jpart, t) / tot
        m2 = np.trapezoid((t - m1) ** 2 * Jpart, t) / tot
        return float(m1), float(m2), float(tot), abs(tot) < floor * incident_norm

    mp, vp, tp, lp = moments(record.J_plus)
    mm, vm, tm, lm = moments(record.J_minus)
    return ArrivalStats(mean_t_plus=mp, mean_t_minus=mm, var_t_plus=vp, var_t_minus=vm,
                        total_plus_flux=tp, total_minus_flux=abs(tm),
                        low_confidence_plus=lp or clipped,
                        low_confidence_minus=lm or clipped)


def mean_times(record_at_xi: FluxRecord, record_at_xf: FluxRecord,
               floor: float = FLUX_FLOOR) -> MeanTimes:
    """Flux transmission/reflection/penetration/return times between probes.

    tau_T (= tau_Pen when x_f is inside the barrier) is the forward-mean
    difference; tau_R uses backward minus forward at the entry probe;
    tau_Ret is backward minus forward at the far probe. Variance of tau_T is
    reported as the sum of the two forward variances (the underlying
    entry/exit independence assumption is not checked).
    """
    si = arrival_stats(record_at_xi, floor=floor)
    sf = arrival_stats(record_at_xf, floor=floor)
    tau_T = sf.mean_t_plus - si.mean_t_plus
    tau_R = si.mean_t_minus - si.mean_t_plus
    tau_Ret = sf.mean_t_minus - sf.mean_t_plus
    return MeanTimes(tau_T=tau_T, tau_R=tau_R, tau_Pen=tau_T, tau_Ret=tau_Ret,
                     var_tau_T=sf.var_t_plus + si.var_t_plus, stats_i=si, stats_f=sf)


def mean_times_separated_packets(record_at_xi: FluxRecord,
                                 record_at_xf: FluxRecord) -> float:
    """Diagnostic unsplit-flux transmission time.

    Valid only for separated packets: when incident and reflected parts
    overlap at a probe, the unsplit weight is not positive-definite and this
    number loses meaning.
    """

    def mean_full(rec):
        tot = np.trapezoid(rec.J, rec.t)
        return np.trapezoid(rec.t * rec.J, rec.t) / tot

    return float(mean_full(record_at_xf) - mean_full(record_at_xi))


def dwell_time_packet(packet: SpectralPacket, potential: PiecewisePotential,
                      x1: float, x2: float, dt_fine: float = DT_FINE) -> float:
    """Flux form of the packet dwell time over [x1, x2].

    [int t J(x2) dt - int t J(x1) dt] / int J_in dt; the incident norm is 1
    by packet normalization.
    """
    r1, r2 = flux_records(packet, potential, [x1, x2], dt_fine=dt_fine)
    return float(np.trapezoid(r2.t * r2.J, r2.t)) - float(np.trapezoid(r1.t * r1.J, r1.t))


def transmitted_norm(packet: SpectralPacket, potential: PiecewisePotential) -> float:
    """Total transmitted probability from the spectral weights."""
    ens = _ensemble(packet, potential)
    return float(np.sum(packet.weights * packet.amplitude ** 2 * np.abs(ens.amp_T) ** 2))


def norm_on_window(packet: SpectralPacket, potential: PiecewisePotential, t: float,
                   window: tuple[float, float], dx: float = 0.1) -> float:
    """Probability content of a spatial window at time t (trapezoid rule)."""
    xs = np.arange(window[0], window[1] + dx / 2, dx)
    psi, _ = _blocked(_ensemble(packet, potential), xs, t, derivative=False)
    return float(np.trapezoid(np.abs(psi) ** 2, xs))


def centroid_trajectory(packet: SpectralPacket, potential: PiecewisePotential, t,
                        window: tuple[float, float], dx: float = 0.1):
    """(xbar(t), mass(t)) center of mass restricted to a spatial window.

    mass is the window's probability content; results with small mass carry
    little meaning and should be treated as flagged.
    """
    xs = np.arange(window[0], window[1] + dx / 2, dx)
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    psi, _ = _blocked(_ensemble(packet, potential), xs, ts, derivative=False)
    rho = np.abs(psi) ** 2
    mass = np.trapezoid(rho, xs, axis=1)
    xbar = np.trapezoid(rho * xs, xs, axis=1) / np.where(mass > 0, mass, np.nan)
    if np.isscalar(t) or np.asarray(t).ndim == 0:
        return float(xbar[0]), float(mass[0])
    return xbar, mass


def continuity_residual(packet: SpectralPacket, potential: PiecewisePotential,
                        xs, ts, dx: float = 1e-3, dt: float = 1e-18) -> float:
    """max |d rho/dt + dJ/dx| / max |dJ/dx| by centered differences."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    nt, nx = len(ts), len(xs)
    psi, _ = evolve(packet, potential, xs, np.concatenate([ts + dt, ts - dt]))
    rho = np.abs(psi) ** 2
    drho_dt = (rho[:nt] - rho[nt:]) / (2.0 * dt)
    J = current(packet, potential, np.concatenate([xs + dx, xs - dx]), ts)
    dJ_dx = (J[:, :nx] - J[:, nx:]) / (2.0 * dx)
    scale = float(np.max(np.abs(dJ_dx)))
    return float(np.max(np.abs(drho_dt + dJ_dx))) / scale if scale > 0 else 0.0


# ---------------------------------------------------------------------------
# Bohm trajectories and the quantum potential


@dataclass
class BohmTrajectory:
    t: np.ndarray
    x: np.ndarray
    degenerate: bool = False
    barrier_entry: float = math.nan
    barrier_exit: float = math.nan

    @property
    def barrier_dwell(self) -> float:
        return self.barrier_exit - self.barrier_entry


def bohm_velocity(packet: SpectralPacket, potential: PiecewisePotential,
                  x: float, t: float, rho_floor: float = 0.0) -> float:
    """Guidance velocity J/rho in A/s; raises when rho is below the floor."""
    psi, dpsi = _point(_ensemble(packet, potential), x, t)
    rho = abs(psi) ** 2
    if rho <= rho_floor:
        raise ValueError("density below floor; velocity undefined near node")
    return float(packet.units.hbar_over_m * np.imag(np.conj(psi) * dpsi) / rho)


def seed_positions(packet: SpectralPacket, potential: PiecewisePotential,
                   t_start: float, n_seeds: int,
                   region: tuple[float, float], quantile_range: tuple[float, float] = (0.0, 1.0),
                   n_grid: int = 4001) -> np.ndarray:
    """Density-quantile seed points at t_start within a spatial region.

    quantile_range selects a slice of the region's own cumulative density,
    e.g. (1 - P_T, 1) picks the rightmost P_T fraction, which by the 1-D
    no-crossing property is exactly the transmitted subensemble.
    """
    xs = np.linspace(region[0], region[1], n_grid)
    psi, _ = _blocked(_ensemble(packet, potential), xs, t_start, derivative=False)
    rho = np.abs(psi) ** 2
    cdf = _cumulative_trapezoid(rho, xs)
    cdf /= cdf[-1]
    lo, hi = quantile_range
    qs = lo + (hi - lo) * (np.arange(n_seeds) + 0.5) / n_seeds
    return np.interp(qs, cdf, xs)


def bohm_trajectories(packet: SpectralPacket, potential: PiecewisePotential,
                      seeds, t_start: float, t_end: float,
                      rho_floor_rel: float = 1e-8, rtol: float = 1e-6,
                      n_out: int = 801) -> list[BohmTrajectory]:
    """Integrate guidance trajectories x' = J/rho from each seed.

    Adaptive Dormand-Prince 5(4) integration (_rk45, which reproduces scipy's
    solve_ivp RK45 bit for bit) with step control on |dx|, sampled on n_out
    evenly spaced times from t_start to t_end. A trajectory that meets
    density below rho_floor_rel * rho(seed maximum), or whose step size
    collapses, is marked degenerate, not silently continued; after a
    collapse its t and x stop at the last step that succeeded. Barrier
    entry/exit times are interpolated from the samples where applicable.
    Non-finite t_start, t_end or seeds raise ValueError before any
    integration.
    """
    seeds = np.atleast_1d(np.asarray(seeds, dtype=float))
    if not (math.isfinite(t_start) and math.isfinite(t_end) and np.isfinite(seeds).all()):
        raise ValueError(f"t_start, t_end and the seeds must be finite, got "
                         f"t_start={t_start}, t_end={t_end}, seeds={seeds}")
    ens = _ensemble(packet, potential)
    hbar_over_m = packet.units.hbar_over_m
    psi0, _ = evolve(packet, potential, seeds, t_start)
    rho_floor = rho_floor_rel * float(np.max(np.abs(psi0) ** 2))
    t_eval = np.linspace(t_start, t_end, n_out)
    x_scale = 1.0 / packet.dk  # packet spatial width, A

    out = []
    for x0 in seeds:
        hit_floor = False

        def guidance(t, x):
            nonlocal hit_floor
            psi, dpsi = _point(ens, x, t)
            rho = abs(psi) ** 2
            if rho < rho_floor:
                hit_floor = True
                return 0.0
            return hbar_over_m * float(np.imag(np.conj(psi) * dpsi)) / rho

        ts, xs, ok = _rk45(guidance, t_start, t_end, float(x0), t_eval,
                           rtol=rtol, atol=1e-4 * x_scale)
        traj = BohmTrajectory(t=ts, x=xs, degenerate=hit_floor or not ok)
        if potential.segments:
            traj.barrier_entry = _first_crossing(ts, xs, potential.x_left)
            traj.barrier_exit = _first_crossing(ts, xs, potential.x_right)
        out.append(traj)
    return out


# scipy 1.17.1's RK45 tableau, as scipy writes it: the Dormand-Prince 5(4)
# pair (Dormand & Prince, J. Comput. Appl. Math. 6, 19 (1980)) with the
# quartic dense output of Shampine, Math. Comp. 46, 135 (1986)
_RK_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_RK_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]
])
_RK_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_RK_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_RK_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])
_RK_EXPONENT = -1 / 5                  # -1 / (error estimator order + 1)
_RK_SAFETY, _RK_MIN_FACTOR, _RK_MAX_FACTOR = 0.9, 0.2, 10
_EPS = float(np.finfo(float).eps)


def _rk45(fun, t0: float, t1: float, y0: float, t_eval: np.ndarray,
          rtol: float, atol: float):
    """Solve y' = fun(t, y) for one scalar y from t0 to t1, sampled at t_eval.

    This is scipy 1.17.1's solve_ivp(fun, (t0, t1), [y0], method="RK45",
    t_eval=t_eval, rtol=rtol, atol=atol) for one equation, doing scipy's
    floating-point operations in scipy's order: elementwise steps on
    scalars, and every combination of stages through np.dot on the shapes
    scipy uses, since BLAS may sum in its own order. The two agree bit for
    bit, which keeps the chaotic guidance trajectories where they were.

    fun takes and returns floats. t_eval is ordered from t0 towards t1 and
    lies between them. Returns (t, y, success). When the step size falls
    below 10 ulps of t, success is False and t, y hold the samples up to
    the last step that succeeded.
    """
    t0, t1 = float(t0), float(t1)
    if rtol < 100 * _EPS:
        warnings.warn(f"rtol {rtol} is below 100 eps; using {100 * _EPS}", stacklevel=3)
        rtol = np.maximum(rtol, 100 * _EPS)
    y = float(y0)
    f = fun(t0, y)
    ts, ys = [], []
    if t1 == t0:
        return _rk45_out(ts, ys, True)
    # samples are looked up on an ascending grid, as scipy does
    direction = 1.0 if t1 > t0 else -1.0
    t_eval = np.asarray(t_eval, dtype=float)[::int(direction)]
    i_eval = 0 if direction > 0 else len(t_eval)

    # the initial step (Hairer, Norsett & Wanner, Sec. II.4), as scipy's
    # select_initial_step takes it; a one-element RMS norm is sqrt(v * v)
    span = abs(t1 - t0)
    scale = atol + abs(y) * rtol
    d0 = _rms1(y / scale)
    d1 = _rms1(f / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    f1 = fun(t0 + h0 * direction, y + h0 * direction * f)
    d2 = _rms1((f1 - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    h_abs = min(100 * h0, h1, span)

    K = np.empty((7, 1))
    t = t0
    while True:
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                return _rk45_out(ts, ys, False)
            t_new = t + h_abs * direction
            if direction * (t_new - t1) > 0:
                t_new = t1
            h = t_new - t
            h_abs = abs(h)
            K[0] = f
            for s in range(1, 6):
                dy = np.dot(K[:s].T, _RK_A[s, :s]) * h
                K[s] = fun(t + _RK_C[s] * h, y + dy[0])
            y_new = y + (h * np.dot(K[:-1].T, _RK_B))[0]
            f_new = fun(t + h, y_new)
            K[-1] = f_new
            scale = atol + np.maximum(abs(y), abs(y_new)) * rtol
            error_norm = _rms1((np.dot(K.T, _RK_E) * h / scale)[0])
            if error_norm < 1:
                if error_norm == 0:
                    factor = _RK_MAX_FACTOR
                else:
                    factor = min(_RK_MAX_FACTOR, _RK_SAFETY * error_norm ** _RK_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(_RK_MIN_FACTOR, _RK_SAFETY * error_norm ** _RK_EXPONENT)
            rejected = True
        t_old, y_old = t, y
        t, y, f = t_new, y_new, f_new

        # samples inside the step, from the step's quartic dense output
        if direction > 0:
            i_new = np.searchsorted(t_eval, t, side="right")
            t_step = t_eval[i_eval:i_new]
        else:
            i_new = np.searchsorted(t_eval, t, side="left")
            t_step = t_eval[i_new:i_eval][::-1]
        if t_step.size > 0:
            Q = K.T.dot(_RK_P)
            h = t - t_old
            p = np.cumprod(np.tile((t_step - t_old) / h, (4, 1)), axis=0)
            ts.append(t_step)
            ys.append((h * np.dot(Q, p))[0] + y_old)
            i_eval = i_new
        if direction * (t - t1) >= 0:
            return _rk45_out(ts, ys, True)


def _rms1(v: float) -> float:
    """scipy's RMS norm of a one-element vector, sqrt(v . v) / 1."""
    return math.sqrt(v * v)


def _rk45_out(ts: list, ys: list, success: bool):
    if not ts:
        return np.array([]), np.array([]), success
    return np.concatenate(ts), np.concatenate(ys), success


def _first_crossing(t: np.ndarray, x: np.ndarray, level: float) -> float:
    if x.size == 0:
        return math.nan
    above = x >= level
    idx = np.nonzero(above[1:] & ~above[:-1])[0]
    if above[0]:
        return float(t[0])
    if len(idx) == 0:
        return math.nan
    i = idx[0]
    frac = (level - x[i]) / (x[i + 1] - x[i])
    return float(t[i] + frac * (t[i + 1] - t[i]))


def quantum_potential(packet: SpectralPacket, potential: PiecewisePotential,
                      x: float, t: float, h: float = 1e-3,
                      amp_floor: float = 1e-12) -> float:
    """-(hbar^2/2m) (d^2|Psi|/dx^2)/|Psi| in eV, three-point stencil.

    Returns nan near amplitude nodes (|Psi| below amp_floor at any stencil
    point), where the quotient is undefined.
    """
    u = packet.units
    xs = np.array([x - h, x, x + h])
    psi, _ = evolve(packet, potential, xs, t)
    a = np.abs(psi)
    if np.any(a < amp_floor):
        return math.nan
    second = (a[0] - 2.0 * a[1] + a[2]) / (h * h)
    hbar2_over_2m = u.hbarc_eV_A ** 2 / (2.0 * u.electron_rest_eV)  # eV A^2
    return float(-hbar2_over_2m * second / a[1])
