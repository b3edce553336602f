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
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .scattering import PiecewisePotential, _check_count, _gauss_legendre, _Modes, _transfer_sweep
from .units import ELECTRON, UnitSystem

T_SPAN = (-1e-13, 1e-13)       # scan interval for locating flux support, s
DT_COARSE = 1e-15              # support-location step, s
DT_FINE = 1e-17                # refined statistics step, s
FLUX_FLOOR = 1e-6              # of incident norm; below this: low confidence
SUPPORT_SIGMAS = 10.0          # refined window padding in packet time-widths
SUPPORT_THRESHOLD = 1e-8       # of max |J|; above this the flux is still flowing
PHASE_BLOCK = 64               # rows of the exp(-i omega t) matrix held at once
FOLD_ELEMS = 32 * (513 + 2 * PHASE_BLOCK)   # complex elements of a fold's buffers (_fold)
EVEN_GRID_TOL = 1e-12          # rad; max phase error the even-grid recurrence may add
BOHM_ROUTE_TOL = 0.05          # largest relative gap between the two Bohm crossing routes
K_FLOOR = 1e-4                 # 1/A; lowest node of a packet, whatever k0 - 5 dk


def _check_positive(name: str, value) -> None:
    """Raise ValueError unless value is finite and positive."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


@dataclass(frozen=True)
class SpectralPacket:
    """Gaussian k-space packet on a Gauss-Legendre grid.

    amplitude holds C f(k-k0) with C fixed so sum(weights * amplitude^2) = 1,
    and the free centroid crosses x = 0 at t = 0, the one frame in which
    evolve and the packet times are defined. _last holds (potential,
    ensemble) for the last potential the packet was evolved in (see
    _ensemble); it is freed with the packet.
    """

    k0: float
    dk: float
    k_nodes: np.ndarray
    weights: np.ndarray
    amplitude: np.ndarray
    units: UnitSystem = ELECTRON
    _last: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_positive("k0", self.k0)
        _check_positive("dk", self.dk)
        # read-only copies keep a kept ensemble true to the packet's content
        for name in ("k_nodes", "weights", "amplitude"):
            arr = np.array(getattr(self, name), dtype=float)
            if arr.ndim != 1 or not np.isfinite(arr).all():
                raise ValueError(f"{name} must be a finite 1-D array")
            if len(arr) != len(self.k_nodes):
                raise ValueError("k_nodes, weights and amplitude must have one length")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def gaussian(cls, k0: float, dk: float, n_nodes: int = 513,
                 units: UnitSystem = ELECTRON) -> "SpectralPacket":
        """The Gaussian f(k - k0) = exp(-(k - k0)^2 / (2 dk^2)) on n_nodes
        Gauss-Legendre nodes over [max(K_FLOOR, k0 - 5 dk), k0 + 5 dk]; that
        interval must not be empty."""
        _check_positive("k0", k0)
        _check_positive("dk", dk)
        if isinstance(n_nodes, bool) or not isinstance(n_nodes, numbers.Integral) or n_nodes < 1:
            raise ValueError(f"n_nodes must be a positive integer, got {n_nodes!r}")
        lo = max(K_FLOOR, k0 - 5.0 * dk)
        hi = k0 + 5.0 * dk
        if hi <= K_FLOOR:
            raise ValueError(f"k0 + 5 dk = {hi!r} 1/A must exceed K_FLOOR = {K_FLOOR!r} 1/A")
        xg, wg = _gauss_legendre(int(n_nodes))
        k = 0.5 * (hi - lo) * xg + 0.5 * (hi + lo)
        w = 0.5 * (hi - lo) * wg
        f = np.exp(-((k - k0) ** 2) / (2.0 * dk * dk))
        f = f / math.sqrt(float(np.sum(w * f * f)))
        return cls(k0=k0, dk=dk, k_nodes=k, weights=w, amplitude=f, units=units)

    def with_nodes(self, n_nodes: int) -> "SpectralPacket":
        """The same (k0, dk, units) packet on n_nodes nodes (for convergence
        checks). Raises ValueError unless the packet is gaussian(k0, dk,
        len(k_nodes), units) byte for byte, which it would not rebuild."""
        own = SpectralPacket.gaussian(self.k0, self.dk, len(self.k_nodes), self.units)
        if any(getattr(own, name).tobytes() != getattr(self, name).tobytes()
               for name in ("k_nodes", "weights", "amplitude")):
            raise ValueError("with_nodes needs a packet built by SpectralPacket.gaussian")
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
        sol = _transfer_sweep(potential.segments, packet.k_nodes, u)
        super().__init__(potential, sol)
        self.coef = packet.weights * packet.amplitude / math.sqrt(2.0 * math.pi)
        self.omega = sol.E / u.hbar_eV_s   # each node's state and frequency share one E

    def modes_at(self, x: float):
        """(psi_j(x), dpsi_j(x)) arrays over the k grid at one position."""
        return self.modes(bisect.bisect_right(self.edges, x), x)

    def runs(self, xs: np.ndarray):
        """(regions, spans): the region of each of xs, and (start, stop, even)
        spans that cover xs in order. even marks each run of more than
        PHASE_BLOCK consecutive positions in one free region that is evenly
        spaced, so a piecewise grid such as _bohm_grid's has one on each
        free piece; evenness is decided here, once per run."""
        n = len(xs)
        regions = np.searchsorted(self.edges, xs, side="right")
        starts = np.flatnonzero(np.diff(regions, prepend=-1))   # runs of one region
        stops = np.append(starts[1:], n)
        long = stops - starts > PHASE_BLOCK
        spans, done = [], 0
        for a, b in zip(starts[long], stops[long]):
            r = regions[a]
            if (r == 0 or r > len(self.segs)) and _is_even(xs[a:b], self.k):
                spans += [(done, a, False), (a, b, True)]
                done = b
        spans.append((done, n, False))
        return regions, spans

    def mode_blocks(self, xs: np.ndarray, derivative: bool = True, runs=None):
        """Yield (row slice, psi, dpsi) for xs, at most PHASE_BLOCK positions at a time.

        Blocks follow the order of xs over the spans of runs (by default
        self.runs(xs)). An even span takes exp(ikx) from the _phase_blocks
        recurrence (omega = -k), anchored at its first position. Everything
        else, and every position inside a segment, takes exp directly, in
        blocks that may span several regions; so a list of at most
        PHASE_BLOCK points matches modes_at row for row, bit for bit.
        """
        B = PHASE_BLOCK
        regions, spans = self.runs(xs) if runs is None else runs
        for a, b, even in spans:
            if even:
                blocks = _phase_blocks(xs[a:b], -self.k)
            else:
                blocks = ((slice(s, min(s + B, b - a)), None) for s in range(0, b - a, B))
            for rows, e_p in blocks:
                rows = slice(a + rows.start, a + rows.stop)
                tiles = self.at(xs[rows], e_p, regions[rows], derivative)
                del e_p   # hold no tile while the next block's are formed
                yield rows, *tiles
                del tiles


def _ensemble(packet: SpectralPacket, potential: PiecewisePotential) -> _Ensemble:
    """The packet's ensemble in potential: the one the packet keeps when its
    last potential == this one (every edge, height and semi_infinite), else a
    new one, which the packet then keeps in its place."""
    last = packet._last
    if last is None or last[0] != potential:
        last = (potential, _Ensemble(packet, potential))
        object.__setattr__(packet, "_last", last)
    return last[1]


def _is_even(ts: np.ndarray, omega: np.ndarray) -> bool:
    """True when ts is an arithmetic progression to within EVEN_GRID_TOL rad."""
    n = len(ts)
    step = (ts[-1] - ts[0]) / (n - 1)
    dev = float(np.max(np.abs(ts - (ts[0] + step * np.arange(n)))))
    return dev * float(np.max(np.abs(omega))) <= EVEN_GRID_TOL


def _phase(ts: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """The direct exp(-i omega t) matrix, shape (len(ts), len(omega))."""
    phase = -1j * np.outer(ts, omega)
    return np.exp(phase, out=phase)


def _phase_blocks(ts: np.ndarray, omega: np.ndarray):
    """Yield (row slice, exp(-i omega t) rows) in blocks of PHASE_BLOCK rows
    of an evenly spaced ts (the caller decides that with _is_even).

    Row s + r is exp(-i omega (t_r - t_0)) * exp(-i omega t_s) for block
    start s: both factors come straight from exp, so rounding does not build
    up from block to block.
    """
    B = PHASE_BLOCK
    n = len(ts)
    offset = _phase(ts[:B] - ts[0], omega)
    for s in range(0, n, B):
        m = min(B, n - s)
        yield slice(s, s + m), offset[:m] * np.exp(-1j * ts[s] * omega)


def _fold(offset: np.ndarray, anchors, shorts, n_long: int):
    """Yield (long rows, short rows, tiles) of sums folded onto one offset tile.

    On a long, evenly spaced axis a term of the sum at row s + r, for block
    start s and r < PHASE_BLOCK, factors into offset[r], shared by every
    block, an anchor of s and a short factor. offset has shape
    (PHASE_BLOCK, Nk); anchors(starts, out) writes the anchors of the blocks
    that start at rows starts, a slice, into the rows of out. shorts yields
    (short rows, *parts): each part an (n, Nk) array, or None to skip it.
    Column (i, j) of a part is part[i] times the anchor of block j; a
    product is offset against width = FOLD_ELEMS // (Nk + 2 PHASE_BLOCK)
    columns at most (n when n is larger), and yields one tile per part,
    shape (n, long rows): row i holds sum_k offset[r, k] anchor_j[k]
    part[i, k] at row s_j + r.

    A part's layout, and so its rounding, does not depend on the other
    parts: width counts two. One column buffer and one product buffer,
    FOLD_ELEMS elements together, serve the call, grown when a short block
    has more rows than width; the tiles are views into the product,
    overwritten by the next.
    """
    B, nk = offset.shape
    cols = prod = None
    for short, *parts in shorts:
        parts = [p for p in parts if p is not None]
        n = len(parts[0])
        width = max(FOLD_ELEMS // (nk + 2 * B), n)
        if cols is None or width > len(cols):   # grow for a longer block, old buffers freed first
            cols = prod = None
            cols = np.empty((width, nk), complex)
            prod = np.empty((len(parts), width, B), complex)
        per = width // n   # long blocks per product
        a = np.empty((per, nk), complex)
        for s0 in range(0, n_long, per * B):
            stop = min(s0 + per * B, n_long)
            k = len(range(s0, stop, B))
            anchors(slice(s0, stop, B), a[:k])
            c = cols[:n * k]
            for part, t in zip(parts, prod):
                np.multiply(part[:, None], a[:k], out=c.reshape(n, k, nk))
                np.matmul(c, offset.T, out=t[:n * k])
            yield slice(s0, stop), short, [t[:n * k].reshape(n, k * B)[:, :stop - s0]
                                           for t in prod]
        del parts, a   # before the next short block's tiles are formed


def evolve(packet: SpectralPacket, potential: PiecewisePotential, x, t):
    """(Psi, dPsi/dx) at position(s) x and time(s) t.

    Scalars give scalars; an array in one argument broadcasts; arrays in both
    return shape (len(t), len(x)). Both axes are blocked (_blocks), so
    neither a len(x) x len(k) nor a len(t) x len(k) matrix is ever held.
    Raises ValueError for a non-finite x or t.
    """
    psi, dpsi = _tabulate(_ensemble(packet, potential), x, t, True,
                          lambda p, _: p, lambda _, d: d, dtype=complex)
    return psi, dpsi


def _blocks(ens: _Ensemble, xs: np.ndarray, ts: np.ndarray, derivative: bool):
    """Yield (rows, cols, Psi, dPsi/dx) tiles that cover the (len(ts),
    len(xs)) table once; dPsi/dx is None when derivative is False. Raises
    ValueError for a non-finite x or t.

    The long axis, when evenly spaced, is folded (_fold) onto one offset
    tile: with more than PHASE_BLOCK times, exp(-i omega (t_q - t_0)) times
    columns coef psi(x) exp(-i omega t_s); with fewer, on each even free run
    of positions (ens.runs), exp(ik (x_r - x_0)) times columns coef exp(-i
    omega t) exp(ik x_s) (_position_fold). Everything else takes a direct
    exp(-i omega t) tile per block of times and a mode tile per block of
    positions.
    """
    if not (np.isfinite(xs).all() and np.isfinite(ts).all()):
        raise ValueError("x and t must be finite")
    if not (len(xs) and len(ts)):
        return   # an empty table
    B = PHASE_BLOCK
    if len(ts) > B and _is_even(ts, ens.omega):
        w = -1j * ens.omega

        def anchors(starts, out):   # coef exp(-i omega t_s)
            np.exp(np.multiply(ts[starts, None], w, out=out), out=out)
            np.multiply(out, ens.coef, out=out)

        offset = _phase(ts[:B] - ts[0], ens.omega)
        for rows, cols, (p, *d) in _fold(offset, anchors, ens.mode_blocks(xs, derivative),
                                         len(ts)):
            yield rows, cols, p.T, d[0].T if derivative else None
        return
    # at most PHASE_BLOCK times: one phase tile, formed at the first block
    # that needs it, serves every block of positions; longer time lists are
    # formed again for each
    short, phase = len(ts) <= B, None
    regions, spans = ens.runs(xs)
    for a, b, even in spans:
        if even and short:
            left = regions[a] == 0 and len(ens.edges) > 0   # no reflected wave in free space
            yield from _position_fold(ens, xs[a:b], a, left, ts, derivative)
            continue
        for cols, pm, dm in ens.mode_blocks(xs, derivative, (regions, [(a, b, even)])):
            np.multiply(ens.coef, pm, out=pm)
            if derivative:
                np.multiply(ens.coef, dm, out=dm)
            if short and phase is None:
                phase = _phase(ts, ens.omega)
            for rows, tile in ([(slice(None), phase)] if short else
                               ((slice(s, s + B), _phase(ts[s:s + B], ens.omega))
                                for s in range(0, len(ts), B))):
                yield rows, cols, tile @ pm.T, tile @ dm.T if derivative else None
            del pm, dm   # before the next block's modes are formed


def _position_fold(ens: _Ensemble, run: np.ndarray, start: int, left: bool,
                   ts: np.ndarray, derivative: bool):
    """_blocks' fold over an even free run of positions, xs[start:] onward,
    at the times ts (at most PHASE_BLOCK of them).

    The anchor is exp(ik x_s) and the offset exp(ik (x_r - x_0)). Right of
    the potential psi = T exp(ikx). Left of it the reflected wave R
    exp(-ikx) sums as the conjugate of a sum over exp(ikx), of the
    conjugate of its short factor, in the rows under the incident wave's.
    """
    B = PHASE_BLOCK
    n = len(ts)

    def anchors(starts, out):
        np.exp(np.multiply(run[starts, None], ens.ik, out=out), out=out)

    phase = _phase(ts, ens.omega)
    c = ens.coef if left else ens.coef * ens.amp_T
    shorts = [np.concatenate([f * phase, np.conj(f * ens.amp_R * phase)]) if left else f * phase
              for f in ([c, c * ens.ik] if derivative else [c])]
    del phase
    offset = _phase(run[:B] - run[0], -ens.k)
    for cols, _, tiles in _fold(offset, anchors, [(None, *shorts)], len(run)):
        if left:   # psi = e + R conj(e), dpsi = ik (e - R conj(e))
            tiles = [t[:n] + sign * np.conj(t[n:]) for t, sign in zip(tiles, (1, -1))]
        yield slice(None), slice(start + cols.start, start + cols.stop), tiles[0], \
            tiles[1] if derivative else None


def _tabulate(ens: _Ensemble, x, t, derivative: bool, *cells, dtype=float) -> list:
    """One table per cell(Psi, dPsi/dx), shaped as evolve shapes Psi and
    filled block by block (dPsi/dx is None when derivative is False)."""
    xs = np.asarray(x, dtype=float).ravel()
    ts = np.asarray(t, dtype=float).ravel()
    tables = [np.empty((len(ts), len(xs)), dtype) for _ in cells]
    for rows, cols, p, d in _blocks(ens, xs, ts, derivative):
        for table, cell in zip(tables, cells):
            table[rows, cols] = cell(p, d)
        del p, d
    if np.ndim(x) == 0:
        tables = [table[:, 0] for table in tables]
    return [table[0] for table in tables] if np.ndim(t) == 0 else tables


def _density(ens: _Ensemble, x, t) -> np.ndarray:
    """|Psi|^2, shaped as evolve shapes Psi, with no complex table held."""
    return _tabulate(ens, x, t, False, lambda p, _: np.abs(p) ** 2)[0]


def _current_cell(units: UnitSystem):
    """The cell J = (hbar/m) Im(Psi* dPsi/dx) of a (Psi, dPsi/dx) tile, into
    out when given; Psi* dPsi/dx is formed in place of the Psi tile."""
    hbar_over_m = units.hbar_over_m
    return lambda p, d, out=None: np.multiply(
        hbar_over_m, np.multiply(np.conj(p, out=p), d, out=p).imag, out=out)


def current(packet: SpectralPacket, potential: PiecewisePotential, x, t):
    """Probability current J(x,t) = (hbar/m) Im(Psi* dPsi/dx)."""
    return _tabulate(_ensemble(packet, potential), x, t, True, _current_cell(packet.units))[0]


@dataclass
class FluxRecord:
    """J(x, t) at fixed x on a time grid. The sign split and its cumulants
    are computed from J and t each time they are read, so a record holds no
    array derived from J."""

    x: float
    t: np.ndarray
    J: np.ndarray

    @property
    def J_plus(self) -> np.ndarray:
        return np.clip(self.J, 0.0, None)

    @property
    def J_minus(self) -> np.ndarray:
        return np.clip(self.J, None, 0.0)

    @property
    def N_gt(self) -> np.ndarray:
        """Forward crossings accumulated up to t."""
        return _cumulative_trapezoid(self.J_plus, self.t)

    @property
    def N_lt(self) -> np.ndarray:
        """Backward crossings accumulated up to t (>= 0)."""
        return -_cumulative_trapezoid(self.J_minus, self.t)


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
        """A flag on an input of tau_T: either probe's forward flux (a clipped
        window raises both sides' flags)."""
        return self.stats_i.low_confidence_plus or self.stats_f.low_confidence_plus


def default_time_grid(packet: SpectralPacket, potential: PiecewisePotential,
                      x, dt_fine: float = DT_FINE) -> np.ndarray:
    """Two-stage grid: coarse scan locates |J| support, fine grid covers it.

    x is one probe or a sequence of probes. One coarse scan serves them all;
    a probe's support is where |J| exceeds SUPPORT_THRESHOLD of its own
    maximum, and the refined window covers the union of the supports, padded
    by SUPPORT_SIGMAS packet time-widths and clipped to the scan interval.
    Probes without any flux add no support; when no probe has flux the
    coarse scan grid itself is returned. Raises ValueError for a dt_fine
    that is not finite and positive.
    """
    _check_positive("dt_fine", dt_fine)
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
    """Evaluate the current at several probes on one time grid.

    Without t_grid every probe shares default_time_grid(xs): one coarse scan
    and one current evaluation serve all of them. The records' J are the
    rows of one (probe, time) table; each tile's J is formed on its Psi tile
    and written into the table's slice. Raises ValueError
    for a dt_fine that is not finite and positive, or a t_grid that is not a
    strictly increasing 1-D array.
    """
    _check_positive("dt_fine", dt_fine)
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if t_grid is None:
        t_grid = default_time_grid(packet, potential, xs, dt_fine=dt_fine)
    elif not (np.ndim(t_grid) == 1 and (np.diff(t_grid) > 0).all()):
        raise ValueError("t_grid must be a strictly increasing 1-D array")
    ts = np.asarray(t_grid, dtype=float)
    J = np.empty((len(xs), len(ts)))
    cell = _current_cell(packet.units)
    for rows, cols, p, d in _blocks(_ensemble(packet, potential), xs, ts, True):
        cell(p, d, J[cols, rows].T)
        del p, d
    return [FluxRecord(x=float(x), t=ts, J=row) for x, row in zip(xs, J)]


def flux_series(packet: SpectralPacket, potential: PiecewisePotential, x: float,
                t_grid: np.ndarray | None = None, dt_fine: float = DT_FINE) -> FluxRecord:
    """Evaluate the current at probe x on a time grid."""
    return flux_records(packet, potential, [x], t_grid=t_grid, dt_fine=dt_fine)[0]


def arrival_stats(record: FluxRecord, floor: float = FLUX_FLOOR) -> ArrivalStats:
    """Sign-split arrival-time means and variances at one probe point.

    floor is a fraction of the packet's unit incident norm: a side whose
    total flux falls below it is flagged low-confidence. Both flags are also
    raised when the time window cuts off flux that is still flowing: |J| at
    either end of record.t above SUPPORT_THRESHOLD of max |J|. The
    trapezoids are np.trapezoid's, bit for bit, formed in place in one
    scratch buffer. Raises ValueError unless floor is finite and positive.
    """
    _check_positive("floor", floor)
    t, J = record.t, record.J
    part, work = np.empty(len(J)), np.empty(len(J))
    absJ = np.abs(J, out=work)
    clipped = absJ.size > 0 and bool(max(absJ[0], absJ[-1]) > SUPPORT_THRESHOLD * absJ.max())
    dt, buf = np.diff(t), np.empty(max(len(t) - 1, 0))

    def trapezoid(y):   # np.trapezoid(y, t)
        np.add(y[1:], y[:-1], out=buf)
        np.multiply(dt, buf, out=buf)
        return np.divide(buf, 2.0, out=buf).sum()

    def moments(lo, hi):   # of the side np.clip(J, lo, hi)
        tot = trapezoid(np.clip(J, lo, hi, out=part))
        # below the floor the mean is still computed but flagged; only a
        # strictly-zero (roundoff level) flux leaves it undefined
        if abs(tot) < 1e-15:
            return math.nan, math.nan, float(tot), True
        m1 = trapezoid(np.multiply(t, part, out=work)) / tot
        np.square(np.subtract(t, m1, out=work), out=work)
        m2 = trapezoid(np.multiply(work, part, out=work)) / tot
        return float(m1), float(m2), float(tot), abs(tot) < floor

    mp, vp, tp, lp = moments(0.0, None)
    mm, vm, tm, lm = moments(None, 0.0)
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
    return _mean_times(arrival_stats(record_at_xi, floor=floor),
                       arrival_stats(record_at_xf, floor=floor))


def _mean_times(si: ArrivalStats, sf: ArrivalStats) -> MeanTimes:
    """mean_times from the entry and far probes' arrival statistics."""
    tau_T = sf.mean_t_plus - si.mean_t_plus
    tau_R = si.mean_t_minus - si.mean_t_plus
    tau_Ret = sf.mean_t_minus - sf.mean_t_plus
    return MeanTimes(tau_T=tau_T, tau_R=tau_R, tau_Pen=tau_T, tau_Ret=tau_Ret,
                     var_tau_T=sf.var_t_plus + si.var_t_plus, stats_i=si, stats_f=sf)


def dwell_time_packet(packet: SpectralPacket, potential: PiecewisePotential,
                      x1: float, x2: float) -> float:
    """Flux form of the packet dwell time over [x1, x2].

    [int t J(x2) dt - int t J(x1) dt] / int J_in dt on the default time
    grid; the incident norm is 1 by packet normalization.
    """
    r1, r2 = flux_records(packet, potential, [x1, x2])
    return float(np.trapezoid(r2.t * r2.J, r2.t)) - float(np.trapezoid(r1.t * r1.J, r1.t))


def transmitted_norm(packet: SpectralPacket, potential: PiecewisePotential) -> float:
    """Total transmitted probability from the spectral weights."""
    ens = _ensemble(packet, potential)
    return float(np.sum(packet.weights * packet.amplitude ** 2 * np.abs(ens.amp_T) ** 2))


def _window_grid(window: tuple[float, float], dx: float) -> np.ndarray:
    """Evenly spaced positions from window[0] to window[1], both ends
    included, at most dx apart: m = (window[1] - window[0])/dx steps when m
    is within rounding of an integer, its ceiling otherwise. Raises
    ValueError for a window that is not finite or does not run from low to
    high, or a dx that is not finite and positive."""
    lo, hi = window
    if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
        raise ValueError(f"window must be finite and run from low to high, got {window}")
    _check_positive("dx", dx)
    m = (hi - lo) / dx
    steps = round(m) if math.isclose(m, round(m), rel_tol=1e-9) else math.ceil(m)
    return np.linspace(lo, hi, steps + 1)


def norm_on_window(packet: SpectralPacket, potential: PiecewisePotential, t: float,
                   window: tuple[float, float], dx: float = 0.1) -> float:
    """Probability content of a spatial window at time t (trapezoid rule).
    Raises ValueError for a bad window or dx (_window_grid)."""
    xs = _window_grid(window, dx)
    return float(np.trapezoid(_density(_ensemble(packet, potential), xs, t), xs))


def centroid_trajectory(packet: SpectralPacket, potential: PiecewisePotential, t,
                        window: tuple[float, float], dx: float = 0.1):
    """(xbar(t), mass(t)) center of mass restricted to a spatial window.

    mass is the window's probability content; results with small mass carry
    little meaning and should be treated as flagged. Raises ValueError for a
    bad window or dx (_window_grid).
    """
    xs = _window_grid(window, dx)
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    rho = _density(_ensemble(packet, potential), xs, ts)
    mass = np.trapezoid(rho, xs, axis=1)
    xbar = np.trapezoid(rho * xs, xs, axis=1) / np.where(mass > 0, mass, np.nan)
    if np.isscalar(t) or np.asarray(t).ndim == 0:
        return float(xbar[0]), float(mass[0])
    return xbar, mass


def continuity_residual(packet: SpectralPacket, potential: PiecewisePotential,
                        xs, ts) -> float:
    """max |d rho/dt + dJ/dx| / max |dJ/dx| by centered differences."""
    dx, dt = 1e-3, 1e-18   # steps, A and s
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
# Bohm trajectories


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


def seed_positions(packet: SpectralPacket, potential: PiecewisePotential,
                   t_start: float, n_seeds: int,
                   region: tuple[float, float],
                   quantile_range: tuple[float, float] = (0.0, 1.0)) -> np.ndarray:
    """Density-quantile seed points at t_start within a spatial region.

    quantile_range selects a slice of the region's own cumulative density,
    e.g. (1 - P_T, 1) picks the rightmost P_T fraction, which by the 1-D
    no-crossing property is exactly the transmitted subensemble. The density
    is sampled at 4001 evenly spaced points. Raises ValueError for an n_seeds
    that is not an integer of at least 1, a region whose upper end does not
    exceed its lower one, or a quantile_range (lo, hi) outside
    0 <= lo < hi <= 1.
    """
    _check_count("n_seeds", n_seeds, 1)
    if not region[1] > region[0]:
        raise ValueError(f"region must run from low to high, got {region}")
    lo, hi = quantile_range
    if not 0.0 <= lo < hi <= 1.0:   # nan fails every comparison
        raise ValueError(f"quantile_range must satisfy 0 <= lo < hi <= 1, got {quantile_range}")
    xs = np.linspace(region[0], region[1], 4001)
    rho = _density(_ensemble(packet, potential), xs, t_start)
    cdf = _cumulative_trapezoid(rho, xs)
    cdf /= cdf[-1]
    qs = lo + (hi - lo) * (np.arange(n_seeds) + 0.5) / n_seeds
    return np.interp(qs, cdf, xs)


def bohm_trajectories(packet: SpectralPacket, potential: PiecewisePotential,
                      seeds, t_start: float, t_end: float,
                      n_out: int = 801) -> list[BohmTrajectory]:
    """Guidance trajectories from the 1-D no-crossing property, with no ODE.

    Trajectories cannot cross in 1-D, so the probability mass m to the right
    of each one is conserved (Leavens, Solid State Commun. 74, 923 (1990)).
    A seed's m is the mass M(x, t_start) to the right of it; at each of n_out
    evenly spaced times from t_start to t_end, the trajectory x_m(t) solves
    M(x, t) = m. M is a reverse cumulative trapezoid of |Psi|^2 on a graded
    grid (_bohm_grid). Each block of PHASE_BLOCK output times sums it from
    its own packet front leftward until its masses are reached; one sweep
    over the grid serves every block, so each position's modes are formed
    once per call (_quantile_sweep). A trajectory whose mass the window does
    not bracket on some row (a seed off the packet's grid) is marked
    degenerate; every trajectory spans the full output grid.

    Barrier entry and exit are the first times at which the mass that has
    crossed x_left or x_right, M(x_p, t_start) + int J(x_p, t) dt on a
    DT_FINE grid, reaches m: a second route that integrates the flux over t
    at fixed x, where the samples integrate the density over x at fixed t
    (bohm_route_disagreement compares them). Raises ValueError for
    non-finite or no seeds, non-finite times, t_end <= t_start or an n_out
    that is not an integer of at least 1, before any evaluation.
    """
    seeds = np.atleast_1d(np.asarray(seeds, dtype=float))
    if not (math.isfinite(t_start) and math.isfinite(t_end) and np.isfinite(seeds).all()):
        raise ValueError(f"t_start, t_end and the seeds must be finite, got "
                         f"t_start={t_start}, t_end={t_end}, seeds={seeds}")
    if seeds.size == 0:
        raise ValueError("bohm_trajectories needs at least one seed")
    if not t_end > t_start:
        raise ValueError(f"t_end must exceed t_start, got t_start={t_start}, t_end={t_end}")
    _check_count("n_out", n_out, 1)
    ens = _ensemble(packet, potential)
    t_eval = np.linspace(t_start, t_end, n_out)
    # every free component k sits near v(k) t (mirrored about x_left once
    # reflected, advanced by at most the potential's width once transmitted),
    # and a Gaussian packet's density is below 2e-11 of its peak 5/dk away
    v = packet.units.v_of_k(packet.k_nodes)
    v_lo, v_hi = float(v.min()), float(v.max())
    reach = 5.0 / packet.dk
    width = potential.x_right - potential.x_left

    def front(t: float) -> float:
        return max(v_lo * t, v_hi * t) + width + reach

    back = min(v_lo * t_start, v_hi * t_start, 2.0 * potential.x_left - v_hi * t_end - width)
    grid = _bohm_grid(packet, potential, min(back - reach, potential.x_left),
                      max(front(t_start), front(t_end), potential.x_right))

    def window_end(ts: np.ndarray) -> int:
        """Grid index just past the front over the times ts."""
        return min(int(np.searchsorted(grid, max(front(ts[0]), front(ts[-1])))) + 1, grid.size)

    # the masses right of the seeds, and of the barrier faces, at t_start
    xs = grid[max(int(np.searchsorted(grid, seeds.min(), side="right")) - 1, 0):
              window_end(t_eval[:1])]
    M0 = -_cumulative_trapezoid(_density(ens, xs, t_start)[::-1], xs[::-1])[::-1]
    mass = np.interp(seeds, xs, M0)
    probe_mass = np.interp([potential.x_left, potential.x_right], xs, M0)
    degenerate = (seeds < xs[0]) | (seeds > xs[-1])
    ends = [window_end(t_eval[s:s + PHASE_BLOCK]) for s in range(0, n_out, PHASE_BLOCK)]
    xq, missed = _quantile_sweep(ens, grid, t_eval, ends, mass)
    x = np.ascontiguousarray(xq.T)
    degenerate |= missed.any(axis=0)

    entry = exit_ = np.full(seeds.size, math.nan)   # no barrier to cross
    if potential.segments:
        probes = [potential.x_left, potential.x_right]
        t_fine = np.linspace(t_start, t_end, math.ceil((t_end - t_start) / DT_FINE) + 1)
        entry, exit_ = (_flux_crossings(t_fine, m0 + rec.N_gt - rec.N_lt, mass)
                        for rec, m0 in zip(flux_records(packet, potential, probes, t_grid=t_fine),
                                           probe_mass))
    return [BohmTrajectory(t=t_eval, x=x[i], degenerate=bool(degenerate[i]),
                           barrier_entry=float(entry[i]), barrier_exit=float(exit_[i]))
            for i in range(seeds.size)]


def _bohm_grid(packet: SpectralPacket, potential: PiecewisePotential,
               lo: float, hi: float) -> np.ndarray:
    """Positions from lo to hi with a node on every segment edge.

    Outside the potential the spacing is 1/k_max for the packet's largest
    k_max; inside a segment it is 1/(20 q_max), q_max the largest local
    wavenumber |q| = sqrt(|k^2 - 2 m V/hbar^2|) over the packet's nodes: the
    decay constant kappa under the top, the oscillation wavenumber above it.
    """
    u = packet.units
    k2 = packet.k_nodes ** 2
    h_out = 1.0 / math.sqrt(float(k2.max()))
    edges = [lo]
    steps = []
    if potential.segments:
        edges.append(potential.x_left)
        steps.append(h_out)
        for xl, xr, V in potential.segments:
            q = math.sqrt(float(np.abs(k2 - 2.0 * u.electron_rest_eV * V / u.hbarc_eV_A ** 2).max()))
            edges.append(xr)
            steps.append(1.0 / (20.0 * q) if q > 0 else h_out)
    edges.append(hi)
    steps.append(h_out)
    pieces = [np.linspace(a, b, max(math.ceil((b - a) / h), 1) + 1)[:-1]
              for a, b, h in zip(edges, edges[1:], steps) if b > a]
    return np.concatenate(pieces + [[hi]])


def _quantile_sweep(ens: _Ensemble, xs: np.ndarray, ts: np.ndarray, ends: list[int],
                    mass: np.ndarray):
    """Where the mass to the right reaches each of mass, at each of the times ts.

    ts is evenly spaced. Time block b, rows b PHASE_BLOCK onward, takes
    M(x, t) as the trapezoid mass of |Psi(t)|^2 from x to xs[ends[b] - 1].
    Returns (x, missed): x[r, i] solves M(x, ts[r]) = mass[i], linear
    between positions; missed[r, i] is True, and x[r, i] is xs[0], where
    all of its block's window holds less than mass[i].

    One sweep walks xs leftward from xs[max(ends) - 1], PHASE_BLOCK
    positions at a time, and forms each position's modes once, with coef
    folded in. Each block of positions serves every time block whose window
    has begun and whose masses are not all reached, in order: the phase
    rows come from the even-time recurrence, and the density extends that
    time block's running mass, carried from one block of positions to the
    next by each row's last density and M. The sweep stops once every time
    block has reached all of its masses.
    """
    B = PHASE_BLOCK
    top = max(ends)
    xd = xs[:top][::-1]
    begin = [top - end for end in ends]   # column of xd where each window begins
    x = np.full((len(ts), mass.size), xs[0])
    missed = np.ones(x.shape, bool)
    rho_end, M_end = np.empty(len(ts)), np.empty(len(ts))   # at the last column summed
    open_ = list(range(len(ends)))
    # phase row s + r is offset[r] exp(-i omega t_s); the factor of t_s is
    # multiplied into the mode tile, so no phase tile is held
    offset = _phase(ts[:B] - ts[0], ens.omega)
    for cols, p, _ in ens.mode_blocks(xd, derivative=False):
        np.multiply(ens.coef, p, out=p)
        t_p = 0.0   # p holds coef psi exp(-i omega t_p)
        for b in [b for b in open_ if begin[b] < cols.stop]:
            s = b * B
            rows = slice(s, min(s + B, len(ts)))
            np.multiply(p, np.exp(-1j * (ts[s] - t_p) * ens.omega), out=p)
            t_p = ts[s]
            c = max(cols.start, begin[b])
            rho = np.abs(offset[:rows.stop - s] @ p[c - cols.start:].T) ** 2
            if c > begin[b]:   # carry on from the last column summed
                rho = np.concatenate([rho_end[rows, None], rho], axis=1)
                M = np.repeat(M_end[rows, None], rho.shape[1], axis=1)
                c -= 1
            else:
                M = np.zeros_like(rho)
            pos = xd[c:cols.stop]
            M[:, 1:] += np.cumsum((rho[:, 1:] + rho[:, :-1]) * ((pos[:-1] - pos[1:]) / 2.0),
                                  axis=1)
            # M rises along pos: a mass is reached in this block when the last
            # column reaches it, first at the column after all that fall short
            r, i = np.nonzero(missed[rows] & (M[:, -1:] >= mass))
            if r.size:
                j = np.sum(M[r] < mass[i, None], axis=1)
                lo = np.maximum(j - 1, 0)   # j = 0 only for a mass of 0, reached at pos[0]
                step = M[r, j] - M[r, lo]
                frac = np.divide(mass[i] - M[r, lo], step, out=np.zeros_like(step),
                                 where=step > 0)
                x[s + r, i] = pos[lo] + frac * (pos[j] - pos[lo])
                missed[s + r, i] = False
            if missed[rows].any():
                rho_end[rows], M_end[rows] = rho[:, -1], M[:, -1]
            else:
                open_.remove(b)
        del p   # before the next block's modes are formed
        if not open_:
            break
    return x, missed


def _flux_crossings(t: np.ndarray, crossed: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """First times at which crossed, sampled on the time grid t (the mass
    right of a probe, or a trajectory's position), reaches each of mass; nan
    where it never does within t. Linear between grid times; t[0] for a mass
    that crossed[0] already reaches."""
    i = np.searchsorted(np.maximum.accumulate(crossed), mass)
    out = np.full(mass.size, math.nan)
    out[i == 0] = t[0]
    mid = (i > 0) & (i < t.size)
    a, b = i[mid] - 1, i[mid]
    out[mid] = t[a] + (mass[mid] - crossed[a]) / (crossed[b] - crossed[a]) * (t[b] - t[a])
    return out


def bohm_route_disagreement(trajectories: list[BohmTrajectory],
                            potential: PiecewisePotential) -> float:
    """Largest gap between the two routes to the barrier crossings.

    For each non-degenerate trajectory, the flux crossings (barrier_entry,
    barrier_exit) against the crossings of its samples at x_left and
    x_right, relative to the flux route's time in the barrier (to the end of
    the window for a trajectory that has not left it). A crossing that only
    one route finds counts as inf. 0.0 without a potential or without a
    comparable trajectory. Both routes take _flux_crossings' first passage.
    """
    worst = 0.0
    if not potential.segments:
        return worst
    faces = np.array([potential.x_left, potential.x_right])
    for tr in trajectories:
        if tr.degenerate:
            continue
        end = tr.t[-1] if math.isnan(tr.barrier_exit) else tr.barrier_exit
        stay = end - tr.barrier_entry   # nan for a trajectory that never enters
        for flux_t, sample_t in zip((tr.barrier_entry, tr.barrier_exit),
                                    _flux_crossings(tr.t, tr.x, faces).tolist()):
            if math.isnan(flux_t) != math.isnan(sample_t):
                return math.inf
            gap = abs(flux_t - sample_t)
            if gap > 0:   # nan where neither route crosses
                worst = max(worst, gap / stay if stay > 0 else math.inf)
    return worst
