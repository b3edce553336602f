"""Command line front end: sweeps, packet runs, CSV and SVG export.

Subcommands map onto the library modules: ``times`` sweeps the stationary
catalogue, ``evolve`` traces flux penetration and return curves, ``hartman``
puts width sweeps next to the analytic saturation value, ``reshape`` emits
the spectral-filter diagnostics, ``optical`` tabulates the waveguide
equivalence, ``bohm`` traces guidance-trajectory ensembles.

Config files are flat ``key = value`` text with ``#`` comments; ``--set``
overrides individual keys. Exit codes: 0 success, 2 config or I/O error,
3 when ``--strict`` is set and a run raised a low-confidence flag.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from . import optical
from . import times as tms
from . import wavepacket as wp
from .scattering import PiecewisePotential, SquareBarrierParams, _square_amplitudes
from .units import ELECTRON, E_of_k, k_of_E, v_of_k


class ConfigError(Exception):
    """Bad config file, bad --set item, or invalid parameter combination."""


_REQUIRED = object()

_TRUE = {"true", "yes", "on", "1"}
_FALSE = {"false", "no", "off", "0"}


def _parse_scalar(key: str, raw: str, typ):
    try:
        if typ is bool:
            low = raw.lower()
            if low in _TRUE:
                return True
            if low in _FALSE:
                return False
            raise ValueError(raw)
        return typ(raw)
    except ValueError:
        raise ConfigError(
            f"key '{key}': cannot parse {raw!r} as {typ.__name__}") from None


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Flat key = value lines; # starts a comment; later keys must be new."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value'")
        key, _, value = body.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{source}:{lineno}: empty key")
        if key in out:
            raise ConfigError(f"{source}:{lineno}: duplicate key '{key}'")
        out[key] = value
    return out


def load_config(path, sets, schema: dict, command: str) -> dict:
    raw: dict[str, str] = {}
    if path is not None:
        raw = parse_config_text(Path(path).read_text(), source=str(path))
    for item in sets:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        raw[key.strip()] = value.strip()

    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise ConfigError(
            f"unknown config keys for '{command}': {', '.join(unknown)}")

    cfg = {}
    for key, (typ, default) in schema.items():
        if key in raw:
            cfg[key] = _parse_scalar(key, raw[key], typ)
        elif default is _REQUIRED:
            raise ConfigError(f"missing required config key '{key}'")
        else:
            cfg[key] = default
    return cfg


@dataclass
class RunConfig:
    command: str
    values: dict
    out_dir: Path
    strict: bool = False


def _positive(cfg: dict, *keys: str):
    for key in keys:
        v = cfg[key]
        if v is not None and not (math.isfinite(v) and v > 0):
            raise ConfigError(f"'{key}' must be finite and positive, got {v}")


def _pick_one(cfg: dict, *keys: str) -> str:
    """Exactly one of the keys must be set; returns its name."""
    given = [k for k in keys if cfg[k] is not None]
    if len(given) != 1:
        raise ConfigError(f"set exactly one of {', '.join(keys)}")
    return given[0]


def _wavenumber(cfg: dict, key: str) -> float:
    """The wavenumber set by exactly one of key (1/A) and E (eV)."""
    return cfg[key] if _pick_one(cfg, key, "E") == key else float(k_of_E(cfg["E"]))


def _sweep(cfg: dict, prefix: str) -> np.ndarray:
    lo = cfg[prefix + "_min"]
    hi = cfg[prefix + "_max"]
    n = cfg[prefix + "_points"]
    if lo is None or hi is None:
        raise ConfigError(f"{prefix}_points given without {prefix}_min/{prefix}_max")
    if n < 1:
        raise ConfigError(f"{prefix}_points must be >= 1")
    if hi < lo:
        raise ConfigError(f"{prefix}_max must be >= {prefix}_min")
    return np.linspace(lo, hi, n)


# ---------------------------------------------------------------- output

def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return "%.17e" % float(v)
    return str(v)


# The float kernel below writes exactly what "%.17e" % v writes: the
# correctly rounded (half-even) 18-digit significand, an exponent of at
# least two digits, and nan / inf / -inf.
_CELL = 26              # "-d.ddddddddddddddddde-ddd" plus its separator
_BLOCK_CELLS = 2048     # cells formatted per numpy pass; bounds the buffers
_TIE_WINDOW = 1e-9      # the tail is off by < 1e-12; nearer halves go to "%"
_SPLIT = 134217729.0    # 2**27 + 1, Dekker's splitter


def _double_double(num: int, den: int) -> tuple[float, float, float, float]:
    """num/den as a head double, the head's Dekker halves and a tail double
    (int/int true division rounds correctly)."""
    hi = num / den
    a, b = hi.as_integer_ratio()
    c = _SPLIT * hi
    hh = c - (c - hi)
    return hi, hh, hi - hh, (num * b - a * den) / (den * b)


@functools.cache
def _decimal_scale(e: int) -> tuple:
    """For the np.frexp exponent e, the k with 2**(e-1) * 10**k in [1e17, 1e18),
    then 2**e * 10**k and 2**e * 10**(k-1) as `_double_double`s, the second for
    significands that round up to 1e18."""
    def ratio(k):
        num, den = (1 << e, 1) if e >= 0 else (1, 1 << -e)
        return (num * 10 ** k, den) if k >= 0 else (num, den * 10 ** -k)

    k = 17 - math.floor((e - 1) * math.log10(2.0))
    while True:
        num, den = ratio(k)
        if num < 2 * 10 ** 17 * den:
            k += 1
        elif num >= 2 * 10 ** 18 * den:
            k -= 1
        else:
            return (k, *_double_double(num, den), *_double_double(*ratio(k - 1)))


@functools.cache
def _ascii_tables() -> tuple[np.ndarray, np.ndarray, dict]:
    """The 3-digit groups "000".."999"; the exponent fields of exponents -400
    to 399 ("+05", "-123": a sign and two or three digits, NUL-padded in
    front), indexed by exponent + 400; and the cells of the values that have
    no significand (nan, inf, zeros)."""
    digits = np.frombuffer("".join(f"{i:03d}" for i in range(1000)).encode(),
                           dtype="S3")
    exps = np.frombuffer(b"".join(f"{i:+03d}".encode().rjust(4, b"\0")
                                  for i in range(-400, 400)), dtype="S4")
    cell = {s: np.frombuffer(s.encode().ljust(_CELL - 1, b"\0"), dtype=np.uint8)
            for s in ("nan", "inf", "-inf",
                      "0.00000000000000000e+00", "-0.00000000000000000e+00")}
    return digits, exps, cell


def _scaled_significand(f, hi, hh, hl, lo):
    """round(f * (hi + lo)) as int64 for f in [0.5, 1), and where the
    rounding is too near a half to decide from the double-double product."""
    p = f * hi
    c = _SPLIT * f
    fh = c - (c - f)
    fl = f - fh
    # Dekker's two-product: p + err == f * hi exactly; p is integer-valued
    tail = (((fh * hh - p) + fh * hl + fl * hh) + fl * hl) + f * lo
    r = np.rint(tail)
    return p.astype(np.int64) + r.astype(np.int64), np.abs(tail - r) > 0.5 - _TIE_WINDOW


def _format_e17(block: np.ndarray) -> bytes:
    """The bytes of ",".join("%.17e" % v for v in row) + "\\n" for each row of
    a 2-D float64 block."""
    digits, exps, special_cell = _ascii_tables()
    v = block.ravel()
    m = v.size
    regular = np.isfinite(v) & (v != 0.0)
    # |v| = f * 2**e; the significand is round(|v| * 10**k), the exponent 17 - k
    f, e = np.frexp(np.where(regular, np.abs(v), 1.0))
    e0 = int(e.min())
    scale = np.array([_decimal_scale(x) for x in range(e0, int(e.max()) + 1)])
    scale = scale.T.take(e - e0, axis=1)
    k = scale[0].astype(np.int64)
    n, near_half = _scaled_significand(f, *scale[1:5])
    up = np.flatnonzero(n >= 10 ** 18)
    if up.size:
        n[up], near_half[up] = _scaled_significand(f[up], *scale[5:9, up])
        k[up] -= 1
    # the 18 digits in six 3-digit groups; the first digit moves left of the "."
    groups = np.empty((m, 6), dtype=np.intp)
    for j in range(5, 0, -1):
        q = n // 1000
        groups[:, j] = n - 1000 * q
        n = q
    groups[:, 0] = n

    out = np.empty((m, _CELL), dtype=np.uint8)
    out[:, 0] = np.where(np.signbit(v), ord("-"), 0)
    out[:, 2:20] = digits.take(groups).view(np.uint8).reshape(m, 18)
    out[:, 1] = out[:, 2]
    out[:, 2] = ord(".")
    out[:, 20] = ord("e")
    out[:, 21:25] = exps.take(417 - k).view(np.uint8).reshape(m, 4)
    out.reshape(block.shape + (_CELL,))[:, :, -1] = ord(",")
    out.reshape(block.shape + (_CELL,))[:, -1, -1] = ord("\n")
    if not regular.all():
        out[np.isnan(v), :-1] = special_cell["nan"]
        out[v == np.inf, :-1] = special_cell["inf"]
        out[v == -np.inf, :-1] = special_cell["-inf"]
        zero = v == 0.0
        out[zero, :-1] = special_cell["0.00000000000000000e+00"]
        out[zero & np.signbit(v), :-1] = special_cell["-0.00000000000000000e+00"]
    # what the double-double cannot decide goes to Python
    for i in np.flatnonzero(near_half & regular):
        out[i, :-1] = np.frombuffer(
            ("%.17e" % v[i]).encode().ljust(_CELL - 1, b"\0"), dtype=np.uint8)
    return out.tobytes().replace(b"\0", b"")


def write_csv(path: Path, run: RunConfig, columns, rows, meta: dict | None = None):
    """CSV with a # header block: version, config, constants, run metadata.

    ``rows`` is a 2-D float64 array, which the float kernel writes, or a
    sequence of rows of mixed cells, each written by _fmt. The header carries
    everything needed to reproduce the table; the single timestamp line is
    the only part that varies between identical runs.
    """
    u = ELECTRON
    lines = [
        f"# tunneltime {__version__}",
        f"# command: {run.command}",
        f"# timestamp: {datetime.datetime.now(datetime.timezone.utc).isoformat()}",
        ("# constants: hbarc_eV_A=%r electron_rest_eV=%r c_A_per_s=%r"
         % (u.hbarc_eV_A, u.electron_rest_eV, u.c_A_per_s)),
    ]
    for key in sorted(run.values):
        lines.append(f"# config: {key} = {run.values[key]!r}")
    for key in sorted(meta or {}):
        lines.append(f"# meta: {key} = {_fmt(meta[key])}")
    lines.append(",".join(columns))
    with path.open("wb") as out:
        out.write(("\n".join(lines) + "\n").encode())
        if isinstance(rows, np.ndarray) and rows.dtype == np.float64:
            step = max(1, _BLOCK_CELLS // rows.shape[1])
            for i in range(0, rows.shape[0], step):
                out.write(_format_e17(rows[i:i + step]))
        else:
            out.write("".join(",".join(_fmt(v) for v in row) + "\n"
                              for row in rows).encode())


SVG_MIN_REL_SPAN = 1e-5   # least y span over max |y|; a 4e-9 spread draws within 0.2 px
_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
               "#ff7f0e", "#8c564b", "#17becf", "#e377c2")


def write_svg(path: Path, title: str, xlabel: str, ylabel: str, series):
    """Static line chart: axes, ticks, legend, one polyline per series.

    ``series`` is a list of (label, x, y); non-finite points split the line.
    """
    W, H = 800, 520
    ml, mr, mt, mb = 90, 30, 45, 60

    xs = np.concatenate([np.asarray(x, dtype=float) for _, x, _ in series])
    ys = np.concatenate([np.asarray(y, dtype=float) for _, _, y in series])
    fx = xs[np.isfinite(xs)]
    fy = ys[np.isfinite(ys)]
    if fx.size == 0 or fy.size == 0:
        fx, fy = np.array([0.0, 1.0]), np.array([0.0, 1.0])
    x0, x1 = float(fx.min()), float(fx.max())
    y0, y1 = float(fy.min()), float(fy.max())
    if x1 == x0:
        x0, x1 = x0 - 1.0, x1 + 1.0
    # a series flat to rounding draws flat: the y span is at least
    # SVG_MIN_REL_SPAN of the data's magnitude (2 for a constant), centred on the data
    y_floor = 2.0 if y1 == y0 else SVG_MIN_REL_SPAN * max(abs(y0), abs(y1))
    if y1 - y0 < y_floor:
        y0, y1 = 0.5 * (y0 + y1 - y_floor), 0.5 * (y0 + y1 + y_floor)
    padx, pady = 0.04 * (x1 - x0), 0.06 * (y1 - y0)
    x0, x1 = x0 - padx, x1 + padx
    y0, y1 = y0 - pady, y1 + pady

    def sx(x):
        return ml + (x - x0) / (x1 - x0) * (W - ml - mr)

    def sy(y):
        return H - mb - (y - y0) / (y1 - y0) * (H - mt - mb)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<text x="{W / 2:.0f}" y="22" text-anchor="middle" font-size="15">{title}</text>',
        f'<rect x="{ml}" y="{mt}" width="{W - ml - mr}" height="{H - mt - mb}" '
        f'fill="none" stroke="black"/>',
    ]
    for tick in np.linspace(x0 + padx, x1 - padx, 5):
        px = sx(tick)
        parts.append(f'<line x1="{px:.1f}" y1="{H - mb}" x2="{px:.1f}" '
                     f'y2="{H - mb + 5}" stroke="black"/>')
        parts.append(f'<text x="{px:.1f}" y="{H - mb + 20}" '
                     f'text-anchor="middle">{tick:.3g}</text>')
    for tick in np.linspace(y0 + pady, y1 - pady, 5):
        py = sy(tick)
        parts.append(f'<line x1="{ml - 5}" y1="{py:.1f}" x2="{ml}" '
                     f'y2="{py:.1f}" stroke="black"/>')
        parts.append(f'<text x="{ml - 8}" y="{py + 4:.1f}" '
                     f'text-anchor="end">{tick:.3g}</text>')
    parts.append(f'<text x="{W / 2:.0f}" y="{H - 15}" '
                 f'text-anchor="middle">{xlabel}</text>')
    parts.append(f'<text x="20" y="{(H - mb + mt) / 2:.0f}" text-anchor="middle" '
                 f'transform="rotate(-90 20 {(H - mb + mt) / 2:.0f})">{ylabel}</text>')

    for i, (label, x, y) in enumerate(series):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        # sx and sy over the arrays: the same IEEE operations in the same order
        with np.errstate(all="ignore"):
            xy = np.column_stack((sx(x), sy(y)))
        # break the polyline at non-finite points instead of bridging them
        ok = np.concatenate(([False], np.isfinite(x) & np.isfinite(y), [False]))
        for a, b in np.flatnonzero(ok[1:] != ok[:-1]).reshape(-1, 2).tolist():
            points = " ".join(["%.2f,%.2f"] * (b - a)) % tuple(xy[a:b].ravel().tolist())
            parts.append(f'<polyline points="{points}" fill="none" '
                         f'stroke="{color}" stroke-width="1.5"/>')
        ly = mt + 18 + 16 * i
        parts.append(f'<line x1="{W - mr - 150}" y1="{ly - 4}" x2="{W - mr - 120}" '
                     f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{W - mr - 114}" y="{ly}">{label}</text>')
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")


# ---------------------------------------------------------------- times

TIMES_SCHEMA = {
    "V0": (float, _REQUIRED),
    "d": (float, None),
    "k": (float, None),
    "E": (float, None),
    "k_min": (float, None), "k_max": (float, None), "k_points": (int, None),
    "E_min": (float, None), "E_max": (float, None), "E_points": (int, None),
    "d_min": (float, None), "d_max": (float, None), "d_points": (int, None),
}

TIMES_COLUMNS = [
    "k", "E_eV", "T", "R", "alpha", "beta",
    "tau_eq_s", "dtau_phase_T_s", "dtau_phase_R_s", "tau_dwell_s",
    "tau_larmor_y_s", "tau_larmor_z_s", "tau_larmor_x_s",
    "tau_BL_T_s", "tau_BL_R_s", "tau_complex_re_s", "tau_complex_im_s",
]


def cmd_times(run: RunConfig) -> int:
    cfg = run.values
    _positive(cfg, "V0", "d", "k", "E", "k_min", "E_min", "d_min")
    sweeps = [p for p in ("k", "E", "d") if cfg[p + "_points"] is not None]
    if len(sweeps) > 1:
        raise ConfigError("at most one sweep (k, E or d) per run")

    if sweeps == ["d"]:
        k, d = _wavenumber(cfg, "k"), _sweep(cfg, "d")
    elif cfg["d"] is None:
        raise ConfigError("missing required config key 'd'")
    elif not sweeps:
        k, d = _wavenumber(cfg, "k"), cfg["d"]
    else:
        if cfg["k"] is not None or cfg["E"] is not None:
            raise ConfigError("fixed k/E conflicts with a k/E sweep")
        vals = _sweep(cfg, sweeps[0])
        k, d = (vals if sweeps[0] == "k" else np.asarray(k_of_E(vals))), cfg["d"]

    params = SquareBarrierParams(cfg["V0"], 0.0)   # the widths are d
    T, R, alpha, beta = _square_amplitudes(params, k, d)
    t = tms._stationary_times(params, k, d)
    table = np.column_stack(np.broadcast_arrays(
        k, E_of_k(k), T, R, alpha, beta, t.eq, t.phase, t.phase, t.dwell,
        t.dwell, t.tau_z, t.tau_x, t.bl_T, t.bl_R, t.dwell, t.tau_z))
    write_csv(run.out_dir / "times.csv", run, TIMES_COLUMNS, table)
    return 0


# ---------------------------------------------------------------- evolve

EVOLVE_SCHEMA = {
    "V0": (float, _REQUIRED),
    "d": (float, _REQUIRED),
    "E": (float, None),
    "k0": (float, None),
    "dk": (float, _REQUIRED),
    "x_points": (int, 21),
    "n_nodes": (int, 513),
    "dt_fine": (float, wp.DT_FINE),
    "flux_floor": (float, wp.FLUX_FLOOR),
    "svg": (bool, False),
}


def _packet_from(cfg) -> wp.SpectralPacket:
    return wp.SpectralPacket.gaussian(_wavenumber(cfg, "k0"), cfg["dk"], n_nodes=cfg["n_nodes"])


def cmd_evolve(run: RunConfig) -> int:
    cfg = run.values
    _positive(cfg, "V0", "d", "E", "k0", "dk", "n_nodes", "dt_fine", "flux_floor")
    if cfg["x_points"] < 20:
        raise ConfigError("x_points must be >= 20")
    packet = _packet_from(cfg)
    pot = PiecewisePotential.square(cfg["V0"], cfg["d"])

    xs = np.linspace(0.0, cfg["d"], cfg["x_points"])
    recs = wp.flux_records(packet, pot, xs, dt_fine=cfg["dt_fine"])
    rec0 = recs[0]   # the entry probe, x = 0
    # one ArrivalStats per probe; each row pairs the entry probe's with its own
    stats = [wp.arrival_stats(rec, floor=cfg["flux_floor"]) for rec in recs]
    rows = []
    flagged = False
    for x, sf in zip(xs, stats):
        mt = wp._mean_times(stats[0], sf)
        # tau_ret also reads the far probe's backward flux
        flag = sf.low_confidence_plus or sf.low_confidence_minus
        flagged = flagged or mt.low_confidence or flag
        rows.append((float(x), mt.tau_Pen, mt.tau_Ret, sf.total_plus_flux,
                     sf.total_minus_flux, int(flag)))

    meta = {
        "spectral_nodes": packet.k_nodes.size,
        "dt_fine_s": cfg["dt_fine"],
        "flux_floor": cfg["flux_floor"],
        "entry_time_points": rec0.t.size,
        "entry_window_lo_s": float(rec0.t[0]),
        "entry_window_hi_s": float(rec0.t[-1]),
        "entry_flag": int(stats[0].low_confidence_plus),
    }
    write_csv(run.out_dir / "evolve.csv", run,
              ["x_A", "tau_pen_s", "tau_ret_s", "flux_plus", "flux_minus", "flag"],
              rows, meta=meta)
    if cfg["svg"]:
        arr = np.asarray([r[:3] for r in rows], dtype=float)
        write_svg(run.out_dir / "evolve.svg", "flux penetration and return times",
                  "x (A)", "time (s)",
                  [("tau_pen(0,x)", arr[:, 0], arr[:, 1]),
                   ("tau_ret(x,x)", arr[:, 0], arr[:, 2])])
    return 3 if run.strict and flagged else 0


# ---------------------------------------------------------------- hartman

HARTMAN_SCHEMA = {
    "V0": (float, _REQUIRED),
    "E": (float, None),
    "k": (float, None),
    "dk": (float, 0.02),
    "d_min": (float, 2.0),
    "d_max": (float, 12.0),
    "d_points": (int, 6),
    "n_nodes": (int, 513),
    "dt_fine": (float, wp.DT_FINE),
    "flux_floor": (float, wp.FLUX_FLOOR),
    "svg": (bool, False),
}


def cmd_hartman(run: RunConfig) -> int:
    cfg = run.values
    _positive(cfg, "V0", "E", "k", "dk", "n_nodes", "d_min", "dt_fine", "flux_floor")
    k = _wavenumber(cfg, "k")
    E = float(E_of_k(k))
    if E >= cfg["V0"]:
        raise ConfigError("hartman sweep needs E < V0 (tunnelling regime)")
    u = ELECTRON
    kap = float(u.kappa_of(E, cfg["V0"]))
    saturation = 2.0 / (u.hbar_over_m * k * kap)
    packet = wp.SpectralPacket.gaussian(k, cfg["dk"], n_nodes=cfg["n_nodes"])

    ds = _sweep(cfg, "d")
    t = tms._stationary_times(SquareBarrierParams(cfg["V0"], 0.0), k, ds)
    rows = []
    flagged = False
    for d, phase, dwell, bl_T in zip(ds.tolist(), t.phase.tolist(), t.dwell.tolist(),
                                     t.bl_T.tolist()):
        pot = PiecewisePotential.square(cfg["V0"], d)
        rec0, recd = wp.flux_records(packet, pot, [0.0, d], dt_fine=cfg["dt_fine"])
        mt = wp.mean_times(rec0, recd, floor=cfg["flux_floor"])
        flagged = flagged or mt.low_confidence
        rows.append((d, kap * d, phase, dwell, bl_T, mt.tau_T, saturation,
                     int(mt.low_confidence)))

    write_csv(run.out_dir / "hartman.csv", run,
              ["d_A", "kappa_d", "dtau_phase_T_s", "tau_dwell_s", "tau_BL_T_s",
               "tau_flux_tun_s", "tau_saturation_s", "flag"],
              rows, meta={"spectral_nodes": packet.k_nodes.size,
                          "dt_fine_s": cfg["dt_fine"],
                          "flux_floor": cfg["flux_floor"]})
    if cfg["svg"]:
        arr = np.asarray([r[:6] for r in rows], dtype=float)
        write_svg(run.out_dir / "hartman.svg", "times vs barrier width",
                  "d (A)", "time (s)",
                  [("phase", arr[:, 0], arr[:, 2]),
                   ("dwell", arr[:, 0], arr[:, 3]),
                   ("sideband", arr[:, 0], arr[:, 4]),
                   ("flux", arr[:, 0], arr[:, 5]),
                   ("saturation", arr[:, 0], np.full(arr.shape[0], saturation))])
    return 3 if run.strict and flagged else 0


# ---------------------------------------------------------------- reshape

RESHAPE_SCHEMA = {
    "V0": (float, _REQUIRED),
    "d": (float, _REQUIRED),
    "k0": (float, None),
    "E": (float, None),
    "k0_ratio": (float, None),   # k0 as a fraction of the top wavenumber
    "dk": (float, _REQUIRED),
    "n_grid": (int, 4001),
    "svg": (bool, False),
}


def cmd_reshape(run: RunConfig) -> int:
    cfg = run.values
    _positive(cfg, "V0", "k0", "E", "k0_ratio", "dk", "n_grid")
    if cfg["d"] < 0:
        raise ConfigError("'d' must be >= 0")  # d = 0 is the free case
    params = SquareBarrierParams(cfg["V0"], cfg["d"])
    which = _pick_one(cfg, "k0", "E", "k0_ratio")
    if which == "k0":
        k0 = cfg["k0"]
    elif which == "E":
        k0 = float(k_of_E(cfg["E"]))
    else:
        k0 = cfg["k0_ratio"] * params.eps
    res = tms.reshaping_check(params, k0, cfg["dk"], n_grid=cfg["n_grid"])

    meta = {
        "k0": k0,
        "eps": params.eps,
        "peak_shift": res.peak_shift,
        "k_peak": k0 + res.peak_shift,
        "weight_above_eps": res.weight_above_eps,
        "violation_lo": res.violation_interval[0] if res.violation_interval else "none",
        "violation_hi": res.violation_interval[1] if res.violation_interval else "none",
    }
    table = np.column_stack([res.k_grid, res.transmission, res.weight, res.product])
    write_csv(run.out_dir / "reshape.csv", run,
              ["k", "T", "f", "product"], table, meta=meta)
    if cfg["svg"]:
        write_svg(run.out_dir / "reshape.svg", "spectral filtering",
                  "k (1/A)", "value",
                  [("T(k)", res.k_grid, res.transmission),
                   ("f(k-k0)", res.k_grid, res.weight),
                   ("T*f", res.k_grid, res.product)])
    return 0


# ---------------------------------------------------------------- optical

OPTICAL_SCHEMA = {
    "b": (float, 0.02),             # guide width, m
    "omega_ratio": (float, 0.8),    # omega/omega_c for the traversal table
    "ratio_min": (float, 0.5),
    "ratio_max": (float, 1.5),
    "ratio_points": (int, 21),
    "kapL_min": (float, 0.5),
    "kapL_max": (float, 15.0),
    "kapL_points": (int, 8),
    "gap_V0": (float, 10.0),
    "gap_E": (float, 5.0),
    "gap_d": (float, None),         # default: opacity 15 at (gap_V0, gap_E)
    "gap_min": (float, 1.0),
    "gap_max": (float, 20.0),
    "gap_points": (int, 9),
    "svg": (bool, False),
}


def cmd_optical(run: RunConfig) -> int:
    cfg = run.values
    _positive(cfg, "b", "omega_ratio", "ratio_min", "kapL_min",
              "gap_V0", "gap_E", "gap_d", "gap_min")
    if not cfg["omega_ratio"] < 1.0:
        raise ConfigError("omega_ratio must lie below 1 (evanescent traversal)")
    if cfg["gap_E"] >= cfg["gap_V0"]:
        raise ConfigError("gap sweep needs gap_E < gap_V0")

    # all three tables first: a failing gap sweep must leave none behind
    omega_c = math.pi * optical.C_M_S / cfg["b"]
    spec = optical.WaveguideSpec(b=cfg["b"], omega=cfg["omega_ratio"] * omega_c)
    ratios = _sweep(cfg, "ratio")
    omegas = ratios * omega_c
    kappa, v_g = optical._dispersion(spec.b, omegas)
    disp = np.column_stack([ratios, omegas, kappa.real, kappa.imag, v_g])
    kap = abs(optical.waveguide_dispersion(spec)[0].imag)
    kapL = _sweep(cfg, "kapL")
    L = kapL / kap
    # the guide-variable route stays scalar: it is the mapped route's oracle
    t_dir = np.array([optical.traversal_time_direct(spec, x) for x in L.tolist()])
    trav = np.column_stack([kapL, L, t_dir, optical.traversal_time_mapped(spec, L),
                            L / (optical.C_M_S * t_dir)])
    trav_meta = {"kappa_1_m": kap,
                 "superluminal_kapL": optical.superluminal_threshold(cfg["omega_ratio"])}

    u = ELECTRON
    k = float(k_of_E(cfg["gap_E"]))
    d = cfg["gap_d"]
    if d is None:
        d = 15.0 / float(u.kappa_of(cfg["gap_E"], cfg["gap_V0"]))
    gaps = _sweep(cfg, "gap")
    swept = np.array(optical.gap_sweep(d, cfg["gap_V0"], k, gaps))

    write_csv(run.out_dir / "optical_dispersion.csv", run,
              ["omega_ratio", "omega_rad_s", "kappa_re_1_m", "kappa_im_1_m",
               "v_group_m_s"], disp, meta={"omega_c_rad_s": omega_c})
    write_csv(run.out_dir / "optical_traversal.csv", run,
              ["kapL", "L_m", "tau_direct_s", "tau_mapped_s", "speed_over_c"],
              trav, meta=trav_meta)
    write_csv(run.out_dir / "optical_gap.csv", run,
              ["L_gap_A", "time_s", "margin"], swept,
              meta={"gap_d_A": d, "gap_k": k})
    if cfg["svg"]:
        write_svg(run.out_dir / "optical_gap.svg", "double barrier gap sweep",
                  "gap (A)", "time (s)", [("crossing time", swept[:, 0], swept[:, 1])])
    return 0


# ---------------------------------------------------------------- bohm

BOHM_SCHEMA = {
    "V0": (float, _REQUIRED),
    "d": (float, _REQUIRED),
    "E": (float, None),
    "k0": (float, None),
    "dk": (float, _REQUIRED),
    "n_nodes": (int, 513),
    "n_traj": (int, 8),
    "t_start": (float, -3e-14),
    "t_end": (float, 1.5e-14),
    "n_out": (int, 401),
    "transmitted_only": (bool, True),
    "with_flux": (bool, True),
    "svg": (bool, False),
}


def cmd_bohm(run: RunConfig) -> int:
    cfg = run.values
    _positive(cfg, "V0", "d", "E", "k0", "dk", "n_nodes", "n_traj", "n_out")
    if not (math.isfinite(cfg["t_start"]) and math.isfinite(cfg["t_end"])):
        raise ConfigError(f"'t_start' and 't_end' must be finite, got "
                          f"{cfg['t_start']} and {cfg['t_end']}")
    if cfg["t_end"] <= cfg["t_start"]:
        raise ConfigError("t_end must exceed t_start")
    packet = _packet_from(cfg)
    pot = PiecewisePotential.square(cfg["V0"], cfg["d"])

    xc = float(v_of_k(packet.k0)) * cfg["t_start"]
    lo = xc - 6.0 / packet.dk
    hi = min(xc + 8.0 / packet.dk, pot.x_left)
    if hi <= lo:
        raise ConfigError("t_start leaves no seeding room left of the barrier")
    P_T = wp.transmitted_norm(packet, pot)
    qrange = (1.0 - P_T, 1.0) if cfg["transmitted_only"] else (0.0, 1.0)
    if qrange[0] == 1.0:
        raise ConfigError(f"P_T = {P_T:.3g} leaves no transmitted slice to seed; "
                          "set transmitted_only=false")
    seeds = wp.seed_positions(packet, pot, cfg["t_start"], cfg["n_traj"],
                              (lo, hi), quantile_range=qrange)
    trajs = wp.bohm_trajectories(packet, pot, seeds, cfg["t_start"], cfg["t_end"],
                                 n_out=cfg["n_out"])

    rows = []
    dwells = []
    flagged = False
    for i, (seed, traj) in enumerate(zip(seeds, trajs)):
        transmitted = bool(traj.x[-1] > pot.x_right)
        flagged = flagged or traj.degenerate
        dwell = traj.barrier_dwell
        if transmitted and not traj.degenerate and math.isfinite(dwell):
            dwells.append(dwell)
        rows.append((i, float(seed), int(transmitted), int(traj.degenerate),
                     traj.barrier_entry, traj.barrier_exit, dwell))

    disagreement = wp.bohm_route_disagreement(trajs, pot)
    flagged = flagged or disagreement > wp.BOHM_ROUTE_TOL
    meta = {"P_T": P_T, "n_transmitted_used": len(dwells),
            "bohm_route_disagreement": disagreement}
    if dwells:
        meta["bohm_mean_transmission_s"] = float(np.mean(dwells))
    if cfg["with_flux"]:
        mt = wp.mean_times(*wp.flux_records(packet, pot, [0.0, cfg["d"]]))
        meta["flux_tau_T_s"] = mt.tau_T
        flagged = flagged or mt.low_confidence
        if dwells and mt.tau_T:
            meta["rel_diff"] = abs(float(np.mean(dwells)) - mt.tau_T) / abs(mt.tau_T)
    write_csv(run.out_dir / "bohm_summary.csv", run,
              ["traj_id", "seed_x_A", "transmitted", "degenerate",
               "entry_t_s", "exit_t_s", "dwell_s"], rows, meta=meta)

    bohm_traj = np.column_stack([trajs[0].t] + [tr.x for tr in trajs])
    write_csv(run.out_dir / "bohm_traj.csv", run,
              ["t_s"] + [f"x_{i}" for i in range(len(trajs))], bohm_traj)
    if cfg["svg"]:
        write_svg(run.out_dir / "bohm_traj.svg", "guidance trajectories",
                  "t (s)", "x (A)",
                  [(f"traj {i}", tr.t, tr.x) for i, tr in enumerate(trajs)])
    return 3 if run.strict and flagged else 0


# ---------------------------------------------------------------- driver

SCHEMAS = {
    "times": TIMES_SCHEMA,
    "evolve": EVOLVE_SCHEMA,
    "hartman": HARTMAN_SCHEMA,
    "reshape": RESHAPE_SCHEMA,
    "optical": OPTICAL_SCHEMA,
    "bohm": BOHM_SCHEMA,
}

COMMANDS = {
    "times": cmd_times,
    "evolve": cmd_evolve,
    "hartman": cmd_hartman,
    "reshape": cmd_reshape,
    "optical": cmd_optical,
    "bohm": cmd_bohm,
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="tunneltime",
        description="Tunnelling-time tables for 1-D piecewise-constant barriers.")
    ap.add_argument("command", choices=sorted(SCHEMAS))
    ap.add_argument("--config", default=None, help="flat key = value file")
    ap.add_argument("--out", default=".", help="output directory")
    ap.add_argument("--set", dest="sets", action="append", default=[],
                    metavar="KEY=VALUE", help="override a config key")
    ap.add_argument("--strict", action="store_true",
                    help="exit 3 when any low-confidence flag is raised")
    ns = ap.parse_args(argv)

    try:
        cfg = load_config(ns.config, ns.sets, SCHEMAS[ns.command], ns.command)
        run = RunConfig(ns.command, cfg, Path(ns.out), strict=ns.strict)
        run.out_dir.mkdir(parents=True, exist_ok=True)
        return COMMANDS[ns.command](run)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
