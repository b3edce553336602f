"""Stationary path: outputs that match the earlier per-call code, each
quantity computed once per row, and inputs validated in the library.

The ``_parent_*`` helpers are verbatim copies of the code the stationary path
replaced: ``time_report``'s composition (three dwell evaluations, two Larmor
evaluations and a private ``bl_pair``, continued through the barrier top by
``_continue_through_top``), the ``_fmt`` row join of
``write_csv``, ``write_svg`` with its np.float64 point loop, and the
per-k phase slopes and per-gap time that the batched transfer sweep
replaced (``_parent_phase_slopes``, ``_parent_gap_time``). The
closed forms and transfer-matrix routes are pinned against the frozen copy
of the package that the benchmark keeps in ``bench/baseline/tunneltime``
(the ``frozen`` fixture of conftest.py), whose ``units``, ``scattering``,
``times`` and ``optical`` modules are the per-k scalar code before the
shared helpers were folded out and the closed forms became array bodies.
That copy reproduced CPython's and libm's rounding; the current code lets
numpy round, so the tests pin it to the frozen copy within the measured
bounds of conftest.py, and to the verbatim copies of code that shares its
rounding bit for bit. Inside the frozen copy's top window |k - eps| <
1e-9 eps, where that copy and ``_parent_time_report`` continue through the
top, the closed forms meet the independent routes instead
(conftest.check_top_oracle). The decay-constant Larmor route no longer
shares the frozen copy's numerics: at every point it meets the closed forms
(conftest.assert_larmor_routes_agree).
"""

import math
import tracemalloc
from dataclasses import astuple, fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    EPS_MACH,
    HBAR_RATIO,
    INTERIOR_REL,
    PHASE_EPS,
    SLOPE_EPS,
    SWEEP_REL,
    amplitude_rel,
    assert_close,
    assert_larmor_routes_agree,
    at_top,
    check_top_oracle,
    gap_conds,
    interior_qd,
    parent_psi_and_dpsi,
    parent_solve_transfer_matrix,
    phase_scale,
    sweep_cond,
    time_rel,
)
from hypothesis import assume, example, given, settings, strategies as st

from tunneltime import cli, optical
from tunneltime import scattering as sc
from tunneltime import times as tms
from tunneltime.scattering import PiecewisePotential, SquareBarrierParams
from tunneltime.times import (
    TimeReport,
    complex_time,
    dwell_time_closed,
    extrapolated_phase_times,
    larmor_times,
    tau_equivalent,
    tau_semiclassical,
)
from tunneltime.units import ELECTRON, UnitSystem, k_of_E
from tunneltime.wavepacket import SpectralPacket, _ensemble

V0 = 10.0
EPS = float(k_of_E(V0))
BAD = [math.nan, math.inf, -math.inf]

_SVG_COLORS = cli._SVG_COLORS


# ---------------------------------------------------------------------------
# verbatim copies of the replaced code


def _continue_through_top(f, params: SquareBarrierParams, k: float):
    """Average of f at k = eps(1 -+ offset); used only in the k = eps window."""
    eps = params.eps
    lo = f(params, eps * (1.0 - 1e-7))
    hi = f(params, eps * (1.0 + 1e-7))
    if isinstance(lo, tuple):
        return tuple(0.5 * (a + b) for a, b in zip(lo, hi))
    return 0.5 * (lo + hi)


def _parent_time_report(params: SquareBarrierParams, k: float) -> TimeReport:
    if k <= 0:
        raise ValueError("k must be positive")
    u = params.units
    dt_T, dt_R = extrapolated_phase_times(params, k)
    tau_y, tau_z, tau_x = larmor_times(params, k)
    tau_d = dwell_time_closed(params, k)

    def bl_pair(p: SquareBarrierParams, kv: float):
        eps = p.eps
        if kv < eps:
            kap = math.sqrt(eps * eps - kv * kv)
        else:
            kap = math.sqrt(kv * kv - eps * eps)
        return (u.m_over_hbar * p.d / kap, u.hbar_eV_s * kv / (p.V0 * kap))

    if at_top(params.eps, k) or params.d == 0:
        if params.d == 0:
            bl_T = bl_R = 0.0
        else:
            bl_T, bl_R = _continue_through_top(bl_pair, params, k)
    else:
        bl_T, bl_R = bl_pair(params, k)

    return TimeReport(
        k=k,
        tau_eq=tau_equivalent(params, k),
        dtau_phase_T=dt_T,
        dtau_phase_R=dt_R,
        tau_dwell=tau_d,
        tau_larmor_y=tau_y,
        tau_larmor_z=tau_z,
        tau_larmor_x=tau_x,
        tau_BL_T=bl_T,
        tau_BL_R=bl_R,
        tau_semiclassical=tau_semiclassical(params, k) if params.d > 0 else 0.0,
        tau_complex=complex_time(params, k),
    )


def _parent_fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return "%.17e" % float(v)
    return str(v)


def _parent_row_join(row) -> str:
    return ",".join(_parent_fmt(v) for v in row)


def _parent_write_svg(path: Path, title: str, xlabel: str, ylabel: str, series):
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
    if y1 == y0:
        y0, y1 = y0 - 1.0, y1 + 1.0
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
        ok = np.isfinite(x) & np.isfinite(y)
        # break the polyline at non-finite points instead of bridging them
        run_pts: list[str] = []
        for j in range(x.size):
            if ok[j]:
                run_pts.append(f"{sx(x[j]):.2f},{sy(y[j]):.2f}")
            elif run_pts:
                parts.append(f'<polyline points="{" ".join(run_pts)}" fill="none" '
                             f'stroke="{color}" stroke-width="1.5"/>')
                run_pts = []
        if run_pts:
            parts.append(f'<polyline points="{" ".join(run_pts)}" fill="none" '
                         f'stroke="{color}" stroke-width="1.5"/>')
        ly = mt + 18 + 16 * i
        parts.append(f'<line x1="{W - mr - 150}" y1="{ly - 4}" x2="{W - mr - 120}" '
                     f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{W - mr - 114}" y="{ly}">{label}</text>')
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# bit identity


def _values(value) -> np.ndarray:
    """A number, a tuple of numbers or a dataclass of them, as a complex array."""
    if is_dataclass(value):
        value = astuple(value)
    return np.array(value, dtype=complex)


def _bytes(value) -> bytes:
    """Exact bytes of a number, a tuple of numbers or a dataclass of them."""
    return _values(value).tobytes()


@pytest.mark.parametrize("kind, bound, step", [
    ("ulp", 4.0, lambda w, b: b * np.spacing(np.abs(w))),
    ("rel", 2.5e-15, lambda w, b: b * np.abs(w)),
    ("absolute", 1e-9, lambda w, b: b),
])
def test_assert_close_fails_at_twice_the_bound(kind, bound, step):
    want = np.array([3.0, -2.5e-15, 7e8 + 1j, 0.5j, np.nan, -np.inf])
    finite = np.isfinite(want)
    for part in (1.0, 1j):
        for factor in (0.9, 2.0):
            moved = want.copy()
            moved[finite] += factor * part * step(want[finite], bound)
            if factor < 1.0:
                assert assert_close(moved, want, **{kind: bound}) <= 1.0
            else:
                with pytest.raises(AssertionError, match="drift"):
                    assert_close(moved, want, **{kind: bound})


TOP_KS = [0.3 * EPS, 0.9 * EPS, EPS * (1.0 - 5e-10), EPS, EPS * (1.0 + 5e-10),
          1.2 * EPS, 2.5 * EPS]


@pytest.mark.parametrize("d", [0.0, 0.4, 5.0, 12.0])
@pytest.mark.parametrize("k", TOP_KS)
def test_time_report_bit_identical(d, k):
    params = SquareBarrierParams(V0, d)
    new = tms.time_report(params, k)
    old = _parent_time_report(params, k)
    if at_top(EPS, k) and d > 0:
        # the copy continues the sideband times through its top window; the
        # body gives m d/(hbar |q|) and hbar k/(V0 |q|) at k itself, +inf at
        # q = 0
        q = math.sqrt(abs(EPS * EPS - k * k))
        with np.errstate(divide="ignore"):
            want = np.divide([ELECTRON.m_over_hbar * d, ELECTRON.hbar_eV_s * k / V0], q)
        assert_close([new.tau_BL_T, new.tau_BL_R], want, ulp=4.0, what=f"tau_BL at {k}")
        old = replace(old, tau_BL_T=new.tau_BL_T, tau_BL_R=new.tau_BL_R)
    assert np.array_equal(np.array(astuple(new), dtype=complex),
                          np.array(astuple(old), dtype=complex))
    assert _bytes(new) == _bytes(old)


def test_time_report_bit_identical_d_sweep():
    k = float(k_of_E(0.55 * V0))
    for d in np.linspace(0.3, 18.0, 41).tolist():
        params = SquareBarrierParams(V0, d)
        assert _bytes(tms.time_report(params, k)) == \
            _bytes(_parent_time_report(params, k))


CSV_ROWS = [
    (0.1, np.float64(1.0) / 3.0, math.nan, math.inf, -math.inf),
    (-0.0, 5e-324, 1.7976931348623157e308, np.float64("nan"), np.float64("-inf")),
    (True, 1, np.int64(3), 2.5, np.float64(2.5)),
    (np.bool_(False), np.float32(0.1), "none", math.nan, -math.inf),
    [1.0, 2.0, 3.0, 4.0, 5.0],
    (1.0, 2.0, 3.0),
    (1.0, 2.0, 3.0, 4.0, 5.0, 6.0),
    (0, 1, 2, 3, 4),
]


def test_write_csv_rows_match_fmt_join(tmp_path):
    run = cli.RunConfig("times", {"V0": 10.0}, tmp_path)
    cols = ["a", "b", "c", "d", "e"]
    grid = np.linspace(0.0, 1.0, 7)
    rows = CSV_ROWS + list(zip(grid, grid ** 2, -grid, grid / 3.0, np.sqrt(grid)))
    path = tmp_path / "rows.csv"
    cli.write_csv(path, run, cols, rows)
    body = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    assert body[0] == ",".join(cols)
    assert body[1:] == [_parent_row_join(r) for r in rows]


def _percent_rows(block) -> bytes:
    """The reference the float kernel must reproduce: one "%" per cell."""
    return "".join(",".join("%.17e" % v for v in row) + "\n"
                   for row in np.asarray(block).tolist()).encode()


def _assert_e17(values):
    v = np.asarray(values, dtype=float)
    for block in (v.reshape(-1, 1), v.reshape(1, -1)):
        assert cli._format_e17(block) == _percent_rows(block)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=40),
       st.lists(st.floats(width=64, allow_nan=True, allow_infinity=True,
                          allow_subnormal=True), min_size=1, max_size=40))
def test_format_e17_matches_percent(bits, floats):
    _assert_e17(np.array(bits, dtype=np.uint64).view(np.float64))
    _assert_e17(floats)


def _with_neighbours(v):
    v = np.asarray(v, dtype=float)
    return np.concatenate([v, np.nextafter(v, -np.inf), np.nextafter(v, np.inf)])


E17_EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    -1.7976931348623157e308, math.nan, -math.nan, math.inf, -math.inf,
    # exact halves at the 18th digit (round half to even)
    1000000000000000.125, 1000000000000000.375, 1125899906842623.875,
    # integers above 1e17
    1e17, 1e17 + 16.0, 2.0 ** 57, 999999999999999872.0, 1e18, 2.0 ** 60, 1e19,
    9007199254740993.0 * 2 ** 10,
]


def test_format_e17_edges():
    _assert_e17(E17_EDGES)
    _assert_e17(_with_neighbours(2.0 ** np.arange(-1074, 1024)))
    _assert_e17(_with_neighbours(10.0 ** np.arange(-323, 309)))
    _assert_e17(-_with_neighbours(10.0 ** np.arange(-323, 309)))


def test_format_e17_python_fallback_gives_same_bytes(monkeypatch):
    # a window wider than any rounding tail sends every cell through "%"
    rng = np.random.default_rng(7)
    block = np.concatenate([rng.standard_normal(500) * 10.0 ** rng.integers(-300, 300, 500),
                            E17_EDGES]).reshape(-1, 2)
    fast = cli._format_e17(block)
    monkeypatch.setattr(cli, "_TIE_WINDOW", 1.0)
    assert cli._format_e17(block) == fast == _percent_rows(block)


def _body(path: Path) -> bytes:
    return b"".join(ln for ln in path.read_bytes().splitlines(keepends=True)
                    if not ln.startswith(b"#"))


@pytest.mark.parametrize("nrow,ncol", [(0, 3), (1, 3), (1, 1)]
                         + [(cli._BLOCK_CELLS // 7 + d, 7) for d in (-1, 0, 1)]
                         + [(3, cli._BLOCK_CELLS + 5)])
def test_write_csv_float_table_shapes(tmp_path, nrow, ncol):
    run = cli.RunConfig("times", {"V0": 10.0}, tmp_path)
    cols = [f"c{j}" for j in range(ncol)]
    rng = np.random.default_rng(nrow * 131 + ncol)
    table = rng.standard_normal((nrow, ncol)) * 10.0 ** rng.integers(-20, 20, (nrow, ncol))
    expect = (",".join(cols) + "\n").encode() + _percent_rows(table)
    cli.write_csv(tmp_path / "array.csv", run, cols, table)
    cli.write_csv(tmp_path / "rows.csv", run, cols, [tuple(r) for r in table.tolist()])
    assert _body(tmp_path / "array.csv") == expect
    assert _body(tmp_path / "rows.csv") == expect


def test_write_csv_mixed_rows_skip_the_float_kernel(tmp_path, monkeypatch):
    def refuse(block):
        raise AssertionError("a table with a non-float cell reached the float kernel")

    monkeypatch.setattr(cli, "_format_e17", refuse)
    run = cli.RunConfig("times", {"V0": 10.0}, tmp_path)
    for i, row in enumerate(CSV_ROWS[2:4] + CSV_ROWS[5:]):
        cli.write_csv(tmp_path / f"{i}.csv", run, list("abcde"), [(1.0,) * 5, row])
        assert _body(tmp_path / f"{i}.csv").decode().splitlines()[2] == _parent_row_join(row)


E17_SPECIALS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
                2.2250738585072009e-308, -2.5e-320]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 9),
       st.lists(st.tuples(st.integers(-1140, 964), st.integers(0, 60)), min_size=2, max_size=4),
       st.integers(0, 2 ** 32 - 1),
       st.lists(st.tuples(st.integers(0, 10 ** 6), st.sampled_from(E17_SPECIALS)), max_size=40))
def test_write_csv_matches_percent_across_blocks(tmp_path_factory, ncol, spans, seed, specials):
    # one scale table serves the whole table: each block of rows draws its
    # binary exponents from its own span, down into the subnormals
    shape = (max(1, cli._BLOCK_CELLS // ncol), ncol)
    rng = np.random.default_rng(seed)
    table = np.vstack([np.ldexp(rng.uniform(0.5, 1.0, shape) * rng.choice([-1.0, 1.0], shape),
                                rng.integers(lo, lo + span + 1, shape))
                       for lo, span in spans])
    for at, value in specials:
        table.flat[at % table.size] = value
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    run = cli.RunConfig("times", {}, path.parent)
    cli.write_csv(path, run, [f"c{j}" for j in range(ncol)], table)
    assert _body(path).split(b"\n", 1)[1] == _percent_rows(table)


def _svg_series():
    x = np.linspace(-2.0, 3.0, 41)
    y = np.sin(x) * 1e-15
    y_gap = y.copy()
    y_gap[[0, 7, 8, 20, 40]] = [np.nan, np.inf, np.nan, -np.inf, np.nan]
    x_gap = x.copy()
    x_gap[13] = np.nan
    return [("plain", x, y), ("nan breaks", x, y_gap), ("x breaks", x_gap, y),
            ("flat", x.tolist(), [2.0] * x.size), ("all nan", x, np.full(x.size, np.nan))]


@pytest.mark.parametrize("pick", [slice(None), slice(0, 1), slice(3, 4), slice(4, 5)])
def test_write_svg_bytes_match_parent(tmp_path, pick):
    series = _svg_series()[pick]
    cli.write_svg(tmp_path / "new.svg", "t", "x", "y", series)
    _parent_write_svg(tmp_path / "old.svg", "t", "x", "y", series)
    assert (tmp_path / "new.svg").read_bytes() == (tmp_path / "old.svg").read_bytes()


def _svg_reference(xy) -> str:
    return " ".join("%.2f,%.2f" % tuple(p) for p in np.asarray(xy).tolist())


_NEAR_TIES = st.integers(-99999, 99999).map(lambda i: (i + 0.5) / 100).flatmap(
    lambda t: st.sampled_from([t, math.nextafter(t, -math.inf), math.nextafter(t, math.inf)]))
_POINT_VALUES = st.one_of(
    st.floats(-1000.0, 1000.0),
    st.integers(-8000, 8000).map(lambda i: i / 8),      # binary halves: 0.125, 2.375
    st.floats(-0.005, 0.0),                              # "-0.00"
    st.floats(1e15, 1e300), st.floats(-1e300, -1e15),
    _NEAR_TIES,
    st.floats(allow_nan=True, allow_infinity=True))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_POINT_VALUES, _POINT_VALUES), min_size=1, max_size=50))
@example([(0.125, 2.375), (-0.001, -0.0), (1e15, -1e16), (69.56499999, 69.565),
          (998.995, -998.995), (999.0, 1e300), (math.nan, math.inf)])
def test_svg_points_match_percent(points):
    xy = np.array(points, dtype=float)
    assert cli._svg_points(xy) == _svg_reference(xy)


def test_writers_hold_a_few_blocks(tmp_path):
    # transient bytes of each writer above what it was given, in units of
    # 2,048 cells of 28 bytes, one block as the kernel formats it; blocks of
    # twice the cells read 15.7 for the CSV, and formatting all points of a
    # polyline at once reads 50.1 for the SVG
    unit = 2048 * 28
    rng = np.random.default_rng(3)
    table = rng.standard_normal((10001, 5)) * 10.0 ** rng.integers(-20, 20, (10001, 5))
    x = np.linspace(0.0, 1.0, 10001)
    series = [(f"s{i}", x, np.sin(7.0 * (i + 1) * x)) for i in range(3)]
    run = cli.RunConfig("times", {"V0": 10.0}, tmp_path)
    cli.write_csv(tmp_path / "warm.csv", run, list("abcde"), table[:10])   # tables on first use
    cli.write_svg(tmp_path / "warm.svg", "t", "x", "y", series[:1])
    tracemalloc.start()
    try:
        peaks = []
        for write in (lambda: cli.write_csv(tmp_path / "t.csv", run, list("abcde"), table),
                      lambda: cli.write_svg(tmp_path / "t.svg", "t", "x", "y", series)):
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            write()
            peaks.append((tracemalloc.get_traced_memory()[1] - held) / unit)
    finally:
        tracemalloc.stop()
    # the CSV reads 8.1: a block's float temporaries, its words, and the
    # cells as a copy, as bytes and without NULs
    assert peaks[0] <= 9.0
    # the SVG reads 44.0, nearly all of it the writer's copies of the series
    # and its text, joined and encoded; a block's formatting takes 2.4
    assert peaks[1] <= 46.0


def _assert_amplitudes_close(got, want, eps, k, d, what=""):
    """(T, R, alpha, beta) in the last axis of got and want, at points (k, d)."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    rel = amplitude_rel(interior_qd(eps, k, d))[..., None]
    assert_close(got[..., :2], want[..., :2], rel=rel, what=f"{what} T, R")
    scale = phase_scale(want[..., 2], k, d)[..., None]
    assert_close(got[..., 2:], want[..., 2:], rel=PHASE_EPS * EPS_MACH, scale=scale,
                 what=f"{what} alpha, beta")


def _slope_bound(k: float) -> float:
    """Absolute bound on a Richardson phase slope at k, step h = 1e-6 k."""
    return SLOPE_EPS * EPS_MACH / (1e-6 * k)


CLOSED = ["extrapolated_phase_times", "dwell_time_closed", "larmor_times",
          "tau_semiclassical", "complex_time", "time_report"]


def _hbar_scale(cls, powers: dict) -> np.ndarray:
    """HBAR_RATIO^p for each field of a frozen result, p from powers (else 0)."""
    return np.array([HBAR_RATIO ** powers.get(f.name, 0) for f in fields(cls)])


# the frozen values that read hbar: tau_BL_R = hbar k/(V0 kappa) and the
# sideband intensities (deltaV/(2 hbar omega))^2 (e^{+-omega tau_BL_T} - 1)^2
HBAR_POWERS = {"time_report": _hbar_scale(TimeReport, {"tau_BL_R": 1}),
               "buttiker_landauer": _hbar_scale(tms.ButtikerLandauerResult,
                                                {"tau_BL_R": 1, "I_plus": -2, "I_minus": -2})}


@pytest.mark.parametrize("V0_, d", [(3.0, 0.0), (3.0, 7.0), (V0, 0.4), (V0, 5.0),
                                    (V0, 12.0)])
def test_stationary_forms_match_frozen_copy(frozen, V0_, d):
    eps = float(k_of_E(V0_))
    new_p = SquareBarrierParams(V0_, d)
    old_p = frozen["scattering"].SquareBarrierParams(V0_, d)
    fs, ft = frozen["scattering"], frozen["times"]
    for k in [r * eps for r in (0.05, 0.3, 0.9, 1.0 - 5e-10, 1.0, 1.0 + 5e-10, 1.2, 2.5)]:
        top = at_top(eps, k) and d > 0
        if top:
            check_top_oracle(V0_, k, d, _row_columns(_array_rows(new_p, k, d)[0]))
        else:
            _assert_amplitudes_close(sc.closed_form_square(new_p, k),
                                     fs.closed_form_square(old_p, k), eps, k, d,
                                     what=f"closed_form_square at {k}")
        rel = time_rel(interior_qd(eps, k, d))
        for name in [] if top else CLOSED:
            assert_close(_values(getattr(tms, name)(new_p, k)),
                         _values(getattr(ft, name)(old_p, k)) * HBAR_POWERS.get(name, 1.0),
                         rel=rel, what=f"{name} at {k}")
        # the decay-constant route meets the closed forms instead of the copy
        assert_larmor_routes_agree(new_p, k)
        assert_close(tms.phase_times_fd(new_p, k), ft.phase_times_fd(old_p, k),
                     absolute=_slope_bound(k) / float(ELECTRON.v_of_k(k)),
                     what=f"phase_times_fd at {k}")
        if k < eps * (1.0 - 1e-9) and d > 0:
            assert_close(tms.hartman_bracket(new_p, k), ft.hartman_bracket(old_p, k), rel=rel)
            new_bl = tms.buttiker_landauer(new_p, k, omega=1e12, deltaV=0.01 * V0_)
            old_bl = ft.buttiker_landauer(old_p, k, omega=1e12, deltaV=0.01 * V0_)
            assert_close(_values(new_bl), _values(old_bl) * HBAR_POWERS["buttiker_landauer"],
                         rel=rel, what=f"sidebands at {k}")


def _array_rows(params: SquareBarrierParams, k, d) -> np.ndarray:
    """Each point's closed form and time report from one call of each array
    body, one row of (T, R, alpha, beta, *astuple(time_report)) per point."""
    amps = sc._square_amplitudes(params, k, d)
    t = tms._stationary_times(params, k, d)
    k = np.broadcast_to(k, t.eq.shape)
    return np.column_stack(list(amps) + [
        k, t.eq, t.phase, t.phase, t.dwell, t.dwell, t.tau_z, t.tau_x, t.bl_T, t.bl_R, t.bl_T,
        t.dwell + 1j * t.tau_z])


def _frozen_rows(frozen, V0_: float, k, d) -> np.ndarray:
    rows = []
    for kk, dd in zip(*(x.tolist() for x in np.broadcast_arrays(k, d))):
        p = frozen["scattering"].SquareBarrierParams(V0_, dd)
        rows.append(frozen["scattering"].closed_form_square(p, kk)
                    + astuple(frozen["times"].time_report(p, kk)))
    rows = np.array(rows, dtype=complex)
    rows[:, 4:] *= HBAR_POWERS["time_report"]
    return rows


# a row of _array_rows by the times table's column names; the row's k and
# tau_semiclassical (= tau_BL_T) are left out
_ROW_COLUMNS = {"T": 0, "R": 1, "alpha": 2, "beta": 3, "tau_eq_s": 5, "dtau_phase_T_s": 6,
                "dtau_phase_R_s": 7, "tau_dwell_s": 8, "tau_larmor_y_s": 9,
                "tau_larmor_z_s": 10, "tau_larmor_x_s": 11, "tau_BL_T_s": 12, "tau_BL_R_s": 13}


def _row_columns(row) -> dict:
    got = {name: row[i].real for name, i in _ROW_COLUMNS.items()}
    got.update(tau_complex_re_s=row[15].real, tau_complex_im_s=row[15].imag)
    return got


# |tau_z| / tau_x below which tau_z's drift is measured against this share
# of tau_x. Over 40,000 random points the drift exceeded time_rel |tau_z| at
# 117, all near a zero of tau_z (|tau_z| < 5.1e-4 tau_x), and was at most
# 8.6e-4 tau_x times time_rel there
TAU_Z_FLOOR = 5e-3


def _assert_rows_close(got, want, V0_, k, d):
    """Rows of _array_rows against the frozen copy's, except at the points
    of its top window with d > 0, which meet the independent routes."""
    eps = float(k_of_E(V0_))
    k, d = np.broadcast_arrays(k, d)
    top = at_top(eps, k) & (d > 0)
    for i in np.flatnonzero(top):
        check_top_oracle(V0_, k[i], d[i], _row_columns(got[i]))
    got, want, k, d = got[~top], want[~top], k[~top], d[~top]
    _assert_amplitudes_close(got[:, :4].real, want[:, :4].real, eps, k, d)
    # near the zeros of tau_z above the top both copies carry the same
    # conditioning error, a small part of tau_x: there tau_z's bound is
    # relative to TAU_Z_FLOOR tau_x instead of |tau_z|
    scale = np.abs(want[:, 4:])
    scale[:, 6] = np.maximum(scale[:, 6], TAU_Z_FLOOR * scale[:, 7])
    assert_close(got[:, 4:], want[:, 4:], rel=time_rel(interior_qd(eps, k, d))[:, None],
                 scale=scale, what="times")


# k / eps below the top, in the top window (on it and 5e-10 either side)
# and above it
K_RATIOS = st.one_of(st.floats(0.02, 0.999), st.sampled_from([1.0 - 5e-10, 1.0, 1.0 + 5e-10]),
                     st.floats(1.001, 3.0))


@settings(max_examples=40, deadline=None)
@given(V0_=st.floats(0.5, 15.0), d=st.one_of(st.just(0.0), st.floats(0.01, 20.0)),
       ratios=st.lists(K_RATIOS, min_size=1, max_size=12), ratio=K_RATIOS,
       seed=st.integers(0, 2 ** 32 - 1))
def test_array_rows_match_frozen_scalar_forms(frozen, V0_, d, ratios, ratio, seed):
    # the drawn points, and 100 more from the seed: a last-bit slip shows in
    # only a few rows in a hundred
    rng = np.random.default_rng(seed)
    params = SquareBarrierParams(V0_, d)
    ks = np.concatenate([ratios, rng.uniform(0.02, 3.0, 100)]) * params.eps
    _assert_rows_close(_array_rows(params, ks, d), _frozen_rows(frozen, V0_, ks, d),
                       V0_, ks, d)   # k sweep
    k = ratio * params.eps
    ds = np.concatenate([[0.0], rng.uniform(0.01, 20.0, 100)])
    _assert_rows_close(_array_rows(params, k, ds), _frozen_rows(frozen, V0_, k, ds),
                       V0_, k, ds)   # d sweep


def test_transfer_routes_match_frozen_copy(frozen):
    k = float(k_of_E(5.0))
    fs = frozen["scattering"]
    for new_pot, old_pot in [
        (PiecewisePotential.square(V0, 5.0), fs.PiecewisePotential.square(V0, 5.0)),
        (PiecewisePotential.double_barrier(V0, 2.0, 3.0),
         fs.PiecewisePotential.double_barrier(V0, 2.0, 3.0)),
        (PiecewisePotential.step(V0), fs.PiecewisePotential.step(V0)),
    ]:
        xs = _interior_points(new_pot)
        for kk in (0.3 * k, k, 1.7 * EPS):
            got, want = sc.solve_transfer_matrix(new_pot, kk), fs.solve_transfer_matrix(old_pot, kk)
            _assert_state_close(got, got.psi_and_dpsi(xs), want, want.psi_and_dpsi(xs),
                                what=f"k = {kk}")
    gaps = [0.0, 1.0, 4.0, 9.5]
    for d, V0_ in [(2.0, V0), (0.0, V0), (3.0, 4.0)]:
        _assert_gaps_close(optical.gap_sweep(d, V0_, k, gaps),
                           frozen["optical"].gap_sweep(d, V0_, k, gaps), k, d, V0_)


# ---------------------------------------------------------------------------
# each quantity once per row


def _count(monkeypatch, owner, name, tally, key=None):
    orig = getattr(owner, name)
    key = key or name

    def counted(*args, **kwargs):
        tally[key] = tally.get(key, 0) + 1
        return orig(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_time_report_off_top_runs_dwell_and_larmor_once(monkeypatch):
    # every time of the report comes from one call of the shared body, which
    # forms the entire functions behind dwell and Larmor times once
    tally = {}
    _count(monkeypatch, tms, "_stationary_times", tally)
    _count(monkeypatch, tms, "_entire", tally)
    tms.time_report(SquareBarrierParams(V0, 5.0), 0.7 * EPS)
    assert tally == {"_stationary_times": 1, "_entire": 1}


def test_eps_converts_once_per_instance(monkeypatch):
    tally = {}
    _count(monkeypatch, UnitSystem, "k_of_E", tally)
    p = SquareBarrierParams(V0, 5.0)
    for _ in range(3):
        assert p.eps == EPS
    assert tally == {"k_of_E": 1}
    SquareBarrierParams(V0, 6.0).eps
    assert tally == {"k_of_E": 2}


@pytest.mark.parametrize("n", [2, 5])
def test_gap_sweep_solves_single_barrier_once(monkeypatch, n):
    tally = {}
    # both bindings, so the count holds wherever the solver is looked up
    for mod in (sc, optical):
        _count(monkeypatch, mod, "solve_transfer_matrix", tally, key="solve")
    optical.gap_sweep(2.0, V0, float(k_of_E(5.0)), np.linspace(1.0, 9.0, n))
    assert tally == {"solve": 1}


def test_gap_sweep_batches_every_gap_in_one_sweep(monkeypatch):
    # the single barrier's one-row solve is a sweep of its own
    tally, seen = {}, []
    _count(monkeypatch, sc, "_transfer_sweep", tally, key="sweep")
    _count(monkeypatch, optical, "solve_transfer_matrix", tally, key="solve")
    for n in (2, 2001):
        tally.clear()
        optical.gap_sweep(2.0, V0, float(k_of_E(5.0)), np.linspace(1.0, 9.0, n))
        seen.append(dict(tally))
    assert seen == [{"sweep": 2, "solve": 1}, {"sweep": 2, "solve": 1}]


@pytest.mark.parametrize("pot, n_seg", [
    (PiecewisePotential.square(V0, 5.0), 1),
    (PiecewisePotential.double_barrier(V0, 2.0, 3.0), 3),
    (PiecewisePotential.step(V0), 1),
])
def test_transfer_solve_takes_local_q_once_per_segment(monkeypatch, pot, n_seg):
    tally = {}
    _count(monkeypatch, sc, "_local_q", tally)
    sc.solve_transfer_matrix(pot, 0.6 * EPS)
    assert tally == {"_local_q": n_seg}


# ---------------------------------------------------------------------------
# library-level validation


@pytest.mark.parametrize("bad", BAD)
def test_square_barrier_rejects_non_finite(monkeypatch, bad):
    tally = {}
    _count(monkeypatch, UnitSystem, "k_of_E", tally)
    with pytest.raises(ValueError):
        SquareBarrierParams(bad, 5.0)
    with pytest.raises(ValueError):
        SquareBarrierParams(V0, bad)
    assert tally == {}   # rejected before eps is computed


@pytest.mark.parametrize("bad", BAD)
def test_k_must_be_finite(bad):
    params = SquareBarrierParams(V0, 5.0)
    with pytest.raises(ValueError):
        sc.closed_form_square(params, bad)
    with pytest.raises(ValueError):
        sc.solve_transfer_matrix(params.potential(), bad)
    with pytest.raises(ValueError):
        tms.time_report(params, bad)


@pytest.mark.parametrize("bad", BAD)
def test_potential_rejects_non_finite(bad):
    for seg in ((bad, 5.0, V0), (0.0, bad, V0), (0.0, 5.0, bad)):
        with pytest.raises(ValueError):
            PiecewisePotential(segments=(seg,))
    with pytest.raises(ValueError):
        PiecewisePotential.double_barrier(bad, 2.0, 3.0)


@pytest.mark.parametrize("bad", BAD)
def test_waveguide_spec_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        optical.WaveguideSpec(b=bad, omega=1e10)
    with pytest.raises(ValueError):
        optical.WaveguideSpec(b=0.02, omega=bad)


@pytest.mark.parametrize("args", [
    ["times", "--set", "V0=10", "--set", "d=nan", "--set", "E=5"],
    ["times", "--set", "V0=nan", "--set", "d=5", "--set", "E=5"],
    ["times", "--set", "V0=inf", "--set", "d=5", "--set", "E=5"],
    ["times", "--set", "V0=10", "--set", "d=inf", "--set", "k_min=0.5",
     "--set", "k_max=2", "--set", "k_points=5"],
    ["optical", "--set", "b=nan"],
    ["optical", "--set", "b=inf"],
    ["evolve", "--set", "V0=10", "--set", "d=5", "--set", "E=5", "--set", "dk=0.02",
     "--set", "n_nodes=65", "--set", "x_points=20", "--set", "flux_floor=nan"],
])
def test_cli_non_finite_exits_2_without_csv(tmp_path, capsys, args):
    assert cli.main(args + ["--out", str(tmp_path)]) == 2
    assert "finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cli_optical_gap_height_nan_exits_2(tmp_path, capsys):
    # a NaN barrier height must stop the run, not fill the gap table with NaN
    assert cli.main(["optical", "--set", "gap_V0=nan", "--out", str(tmp_path)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "optical_gap.csv").exists()


@pytest.mark.parametrize("args", [
    ["--set", "gap_min=5", "--set", "gap_max=1"],
    ["--set", "gap_d=1000"],
])
def test_cli_optical_bad_gap_sweep_writes_no_table(tmp_path, args):
    # the gap sweep fails after the other two tables are computed; none of
    # the three may be written
    assert cli.main(["optical"] + args + ["--out", str(tmp_path)]) == 2
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# batched transfer sweep: the gap sweep and the phase slopes against verbatim
# copies of the per-k, per-gap code they replaced


def _parent_phase_slopes(potential: PiecewisePotential, k: float, units: UnitSystem):
    """(dalpha/dk, dbeta/dk) of the transfer-matrix amplitudes at k.

    Centered differences with step 1e-6 k and one Richardson step. Branch
    cuts cancel in angle(t(k+h) conj(t(k-h))) for small h.
    """
    def slopes(h):
        sp = sc.solve_transfer_matrix(potential, k + h, units)
        sm = sc.solve_transfer_matrix(potential, k - h, units)
        return (float(np.angle(sp.amp_T * np.conj(sm.amp_T))) / (2.0 * h),
                float(np.angle(sp.amp_R * np.conj(sm.amp_R))) / (2.0 * h))

    h = 1e-6 * k
    a1, b1 = slopes(h)
    a2, b2 = slopes(0.5 * h)
    return (4.0 * a2 - a1) / 3.0, (4.0 * b2 - b1) / 3.0


def _parent_gap_time(d: float, L_gap: float, V0: float, k: float, units: UnitSystem,
                     beta_single):
    if d < 0 or L_gap < 0:
        raise ValueError("widths must be >= 0")
    total = 2.0 * d + L_gap
    if L_gap == 0:
        pot = PiecewisePotential.square(V0, 2.0 * d)
    else:
        pot = PiecewisePotential.double_barrier(V0, d, L_gap)
    deriv = _parent_phase_slopes(pot, k, units)[0]
    v = float(units.v_of_k(k))
    time = (total + deriv) / v
    margin = 1.0 if beta_single is None else abs(math.sin(k * L_gap + beta_single))
    return time, margin


def _parent_gap_sweep(d, V0_, k, gaps, units=sc.ELECTRON):
    beta_single = optical._single_beta(d, V0_, k, units)
    return [(float(L), *_parent_gap_time(d, float(L), V0_, k, units, beta_single))
            for L in gaps]


def _assert_gaps_close(got, want, k: float, d: float, V0_: float):
    """[(L_gap, time, margin)] rows: the gaps equal; a time moves by its
    phase slope's drift over v, scaled by the sweep's cancellation at that
    gap (gap_conds), and a margin by at most its phase's drift."""
    got, want = np.array(got), np.array(want)
    assert_close(got[:, 0], want[:, 0], ulp=0, what="gaps")
    conds = gap_conds(d, V0_, k, want[:, 0])
    assert_close(got[:, 1], want[:, 1], what="times",
                 absolute=_slope_bound(k) / float(ELECTRON.v_of_k(k)) * conds)
    assert_close(got[:, 2], want[:, 2], absolute=PHASE_EPS * EPS_MACH * 1.5 * math.pi,
                 what="margins")


# k on both sides of the barrier top, at it (the E = V series branch) and
# within 5e-10 of it
SLOPE_KS = [0.05, 0.6, 1.0 - 5e-10, 1.0, 1.0 + 5e-10, 1.3, 2.5]


@pytest.mark.parametrize("pot", [
    PiecewisePotential.square(V0, 5.0),
    PiecewisePotential.square(3.0, 0.4),
    PiecewisePotential.double_barrier(V0, 2.0, 3.0),
    # off the origin, with unequal heights: the general complex products
    PiecewisePotential(((-3.1, 0.5, 2.4), (0.5, 6.1, 0.0), (6.1, 9.7, 1.7))),
])
@pytest.mark.parametrize("r", SLOPE_KS)
def test_phase_slopes_match_per_k_copy(pot, r):
    k = r * float(k_of_E(pot.segments[0][2]))
    want = _parent_phase_slopes(pot, k, sc.ELECTRON)
    assert_close(sc._phase_slopes(pot.segments, k, sc.ELECTRON), want,
                 absolute=_slope_bound(k))


def _unscaled_phase_slopes(segments, k: float, units: UnitSystem):
    """The sweep's phase slopes as they were before the shared Richardson
    helper, verbatim: unscaled rows, no log-moduli."""
    h = 1e-6 * k
    ndim = max(np.ndim(x) for seg in segments for x in seg)
    ks = np.array([k + h, k - h, k + 0.5 * h, k - 0.5 * h]).reshape((4,) + (1,) * ndim)
    sol = sc._transfer_sweep(segments, ks, units)

    def slopes(amp, i, h):
        return np.angle(amp[i] * np.conj(amp[i + 1])) / (2.0 * h)

    a1, a2 = slopes(sol.amp_T, 0, h), slopes(sol.amp_T, 2, 0.5 * h)
    b1, b2 = slopes(sol.amp_R, 0, h), slopes(sol.amp_R, 2, 0.5 * h)
    return (4.0 * a2 - a1) / 3.0, (4.0 * b2 - b1) / 3.0


@settings(max_examples=150, deadline=None)
@given(pot=st.deferred(lambda: _finite_potentials()), k=st.floats(0.05, 3.0))
def test_phase_slopes_keep_the_unscaled_bits(pot, k):
    # total opacity <= ~50: nothing underflows, so scaling the rows by a
    # power of two leaves every bit of the k-slopes
    assume(pot.segments)
    assert _bytes(sc._phase_slopes(pot.segments, k, sc.ELECTRON)) == \
        _bytes(_unscaled_phase_slopes(pot.segments, k, sc.ELECTRON))


def test_seg_prop_array_matches_scalar_calls():
    # one array mixing E = V (q2 = 0), both sides of it within rounding,
    # decaying and oscillating segments, and a zero width
    q2 = np.array([0.0, 9e-18, -1.69, 0.49, -4e-24, -1.21])
    a = np.array([-3.0, -2.0, -1.5, -0.4, -1.0, -0.0])
    psi = np.array([1 + 0.5j, -0.2 + 2j, 0.3 - 0.1j, 1j, 2.0 + 0j, -1.5 + 0.25j])
    dpsi = np.array([0.4j, 1.2 - 0.3j, -0.7 + 0.9j, 0.5 + 0j, 1 - 1j, 0.125 - 3j])
    got = sc._seg_prop(psi, dpsi, q2, a)
    for i in range(len(q2)):
        want = sc._seg_prop(complex(psi[i]), complex(dpsi[i]), float(q2[i]), float(a[i]))
        assert _bytes((got[0][i], got[1][i])) == _bytes(want), i
    # E = V is the straight line from the edge, and a zero width the identity
    assert got[0][0] == psi[0] + a[0] * dpsi[0] and got[1][0] == dpsi[0]
    assert got[0][5] == psi[5] and got[1][5] == dpsi[5]


@settings(max_examples=60, deadline=None)
@given(V0_=st.floats(1.0, 12.0), erel=st.floats(0.05, 0.95), d=st.floats(0.05, 20.0),
       gaps=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e-8), st.floats(0.0, 30.0)),
                     min_size=1, max_size=12))
def test_gap_sweep_matches_per_gap_copy(V0_, erel, d, gaps):
    k = float(k_of_E(erel * V0_))
    _assert_gaps_close(optical.gap_sweep(d, V0_, k, gaps), _parent_gap_sweep(d, V0_, k, gaps),
                       k, d, V0_)


def test_cli_size_gap_sweep_matches_frozen_copy(frozen):
    # the optical command's sweep: 2,001 gaps, barriers of opacity 15 each;
    # the slopes keep the bits of the unscaled sweep's
    for V0_, E in [(10.0, 5.0), (7.3, 2.6)]:
        k = float(k_of_E(E))
        d = 15.0 / float(sc.ELECTRON.kappa_of(E, V0_))
        gaps = np.linspace(0.0, 20.0, 2001)
        _assert_gaps_close(optical.gap_sweep(d, V0_, k, gaps),
                           frozen["optical"].gap_sweep(d, V0_, k, gaps), k, d, V0_)
        segs = ((0.0, np.where(gaps == 0, 2.0 * d, d), V0_),
                (np.where(gaps == 0, 2.0 * d, d), np.where(gaps == 0, 2.0 * d, d + gaps), 0.0),
                (np.where(gaps == 0, 2.0 * d, d + gaps), 2.0 * d + gaps, V0_))
        assert _bytes(sc._phase_slopes(segs, k, sc.ELECTRON)) == \
            _bytes(_unscaled_phase_slopes(segs, k, sc.ELECTRON))


@pytest.mark.parametrize("gaps", [[1.0, math.nan], [math.inf], [2.0, -math.inf],
                                  [3.0, -1.0], [-1e-300]])
def test_gap_sweep_rejects_bad_gaps(gaps):
    with pytest.raises(ValueError):
        optical.gap_sweep(2.0, V0, float(k_of_E(5.0)), gaps)


@pytest.mark.parametrize("bad", BAD)
def test_gap_sweep_rejects_non_finite_barrier(bad):
    k = float(k_of_E(5.0))
    with pytest.raises(ValueError):
        optical.gap_sweep(bad, V0, k, [1.0, 2.0])
    with pytest.raises(ValueError):
        optical.gap_sweep(2.0, bad, k, [1.0, 2.0])
    with pytest.raises(ValueError):
        optical.double_barrier_time(2.0, 1.0, V0, bad)


def test_gap_sweep_rejects_opacity_past_limit():
    k = float(k_of_E(5.0))
    kap = float(sc.ELECTRON.kappa_of(5.0, V0))
    d = 0.6 * sc._MAX_TOTAL_KAPPA_D / kap      # one barrier solves, two do not
    optical.gap_sweep(0.8 * d, V0, k, [1.0])
    with pytest.raises(ValueError, match="opacity"):
        optical.gap_sweep(d, V0, k, [0.0, 1.0])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(1e-4, 10.0), min_size=1, max_size=20), st.integers(0, 2 ** 32 - 1))
def test_E_of_k_rounds_scalars_and_arrays_alike(ks, seed):
    # one product on every path: a Python float, an np.float64, a 0-d and a
    # 1-element array give the same bits. pow and multiplication split about
    # one k in 1,000, so each example also draws 300 k from its seed.
    ks = ks + np.random.default_rng(seed).uniform(1e-4, 10.0, 300).tolist()
    u = sc.ELECTRON
    arr = u.E_of_k(np.array(ks))
    for i, k in enumerate(ks):
        forms = [u.E_of_k(k), u.E_of_k(np.float64(k)), u.E_of_k(np.array(k)),
                 u.E_of_k(np.array([k]))[0], arr[i]]
        assert len({float(e).hex() for e in forms}) == 1, (k, forms)


def test_ensemble_states_and_frequencies_share_one_energy():
    packet = SpectralPacket.gaussian(float(k_of_E(5.0)), 0.02, n_nodes=129)
    pot = PiecewisePotential.double_barrier(V0, 2.0, 3.0)
    E = ELECTRON.E_of_k(packet.k_nodes)
    assert sc._transfer_sweep(pot.segments, packet.k_nodes, ELECTRON).E.tobytes() == E.tobytes()
    assert _ensemble(packet, pot).omega.tobytes() == (E / ELECTRON.hbar_eV_s).tobytes()
    for k, e in zip(packet.k_nodes.tolist(), E.tolist()):
        assert sc.solve_transfer_matrix(pot, k).E == e


# ---------------------------------------------------------------------------
# one transfer solver: every element of the array sweep, and the scalar view,
# against a verbatim copy of the scalar solver it replaced


def _interior_points(pot):
    """The left edge and the points 0.3 and 0.7 across each segment that the
    sweep crosses (not a semi-infinite potential's final medium)."""
    segs = pot.segments[:-1] if pot.semi_infinite else pot.segments
    return np.array([xl + f * (xr - xl) for xl, xr, _ in segs for f in (0.0, 0.3, 0.7)])


def _assert_state_close(got, got_modes, want, want_modes, i=(), what=""):
    """got (element i of a sweep, or a scalar solve) and its (psi, dpsi) at
    _interior_points against want's: a parent or frozen anchored state.

    E and kappas match per element within SWEEP_REL. The amplitudes and the
    modes are sums of the sweep's terms, so their rounding grows with its
    cancellation sweep_cond: amp_T within SWEEP_REL cond of |amp_T|, and
    amp_R of |amp_R| + |amp_T|, the size of amp_R's own rounding (measured
    drift at most 2.7 eps cond for both). Near full transmission amp_R is
    the difference of two terms of size |amp_T|: a 40-digit sweep finds the
    anchored amp_R itself up to 1.5e6 eps of |amp_R| off there, so no second
    formula can hold it relative to |amp_R|; where |amp_R| >= |amp_T| the
    scale is within 2 |amp_R|. At cond > 10 the 40-digit sweep finds the new
    amp_T the closer one more often than the anchored one (CHANGES.md).
    psi is within INTERIOR_REL cond (1 + 1/(|q| w)) of the local size
    |psi| + |dpsi|/m, m = max(|q|, 1/w), and dpsi within m times that; the
    1/(|q| w) is the anchored form's own loss near the top, where its
    A = (psi_l - psi'_l/kappa)/2 cancels (measured within 1.2 eps/(|q| w)),
    and a 50-digit sweep finds the new modes the closer ones there.
    """
    for name in ("E", "kappas"):
        g, w = np.asarray(getattr(got, name))[(..., *i)], np.asarray(getattr(want, name))
        assert_close(g, w, rel=SWEEP_REL, what=f"{what} {name}")
    cond = sweep_cond(want)
    g_T, g_R = (np.asarray(getattr(got, name))[i] for name in ("amp_T", "amp_R"))
    assert_close(g_T, want.amp_T, rel=SWEEP_REL * cond, what=f"{what} amp_T")
    assert_close(g_R, want.amp_R, rel=SWEEP_REL * cond, scale=abs(want.amp_R) + abs(want.amp_T),
                 what=f"{what} amp_R")
    n = len(want_modes[0]) // 3   # the segments that _interior_points covers
    w = np.repeat([xr - xl for xl, xr, _ in want.potential.segments[:n]], 3)
    q = np.repeat(np.abs(want.kappas[:n]), 3)
    m = np.maximum(q, 1.0 / w)
    size = np.abs(want_modes[0]) + np.abs(want_modes[1]) / m
    # the anchored form's linear branch, below |q| w = 1e-12, has no such loss
    loss = np.divide(1.0, q * w, out=np.zeros_like(w), where=q * w >= 1e-12)
    rel = INTERIOR_REL * cond * (1.0 + loss)
    assert_close(got_modes[0], want_modes[0], rel=rel, scale=size, what=f"{what} psi")
    assert_close(got_modes[1], want_modes[1], rel=rel, scale=m * size, what=f"{what} dpsi")


def _assert_matches_parent(pot, ks):
    """Every element of one sweep over ks, and the scalar solve at each k,
    with their interior modes, match the parent's scalar solve."""
    sol = sc._transfer_sweep(pot.segments, np.array(ks), sc.ELECTRON, pot.semi_infinite)
    xs = _interior_points(pot)
    psi, dpsi = sc._Modes(pot, sol).at(xs)
    for i, k in enumerate(ks):
        want = parent_solve_transfer_matrix(pot, k)
        want_modes = parent_psi_and_dpsi(want, xs)
        state = sc.solve_transfer_matrix(pot, k)
        _assert_state_close(state, state.psi_and_dpsi(xs), want, want_modes, what=f"k = {k}")
        _assert_state_close(sol, (psi[:, i], dpsi[:, i]), want, want_modes, (i,),
                            what=f"element {i}, k = {k}")
    return sol


@st.composite
def _finite_potentials(draw):
    """1-4 contiguous segments: heights from 0 to 12 eV, widths from 0 to 7 A
    (total opacity up to ~50); zero-width segments drop out."""
    x = draw(st.floats(-5.0, 5.0))
    segs = []
    for _ in range(draw(st.integers(1, 4))):
        w = draw(st.one_of(st.just(0.0), st.floats(0.01, 7.0)))
        V = draw(st.one_of(st.just(0.0), st.floats(0.5, 12.0)))
        segs.append((x, x + w, V))
        x += w
    return PiecewisePotential(tuple(segs))


@settings(max_examples=150, deadline=None)
@given(pot=_finite_potentials(), data=st.data())
def test_transfer_sweep_matches_parent_scalar_solver(pot, data):
    # k anywhere on both sides of each barrier top, and exactly at E = V
    tops = [float(k_of_E(V)) for _, _, V in pot.segments if V > 0]
    k_el = st.floats(0.05, 3.0)
    if tops:
        k_el = st.one_of(k_el, st.sampled_from(tops))
    _assert_matches_parent(pot, data.draw(st.lists(k_el, min_size=1, max_size=8)))


@pytest.mark.parametrize("pot", [PiecewisePotential.step(V0), PiecewisePotential.step(3.0, 1.5),
                                 PiecewisePotential(((-2.0, 1.0, 4.0), (1.0, 2.0, 3.0)),
                                                    semi_infinite=True)])
def test_transfer_sweep_matches_parent_on_steps(pot):
    _assert_matches_parent(pot, [0.2 * EPS, 0.7 * EPS, float(k_of_E(3.0)), float(k_of_E(4.0)),
                                 EPS, 1.3 * EPS, 2.5 * EPS])


@settings(max_examples=150, deadline=None)
@given(pot=_finite_potentials(), ks=st.lists(st.floats(0.05, 3.0), min_size=1, max_size=8))
def test_scalar_solve_is_a_sweep_row(pot, ks):
    # the scalar solve rounds as every sweep element does, off the origin
    # (x_left != 0) too: its amplitudes are the sweep row's bits, its public
    # fields scalars
    sol = sc._transfer_sweep(pot.segments, np.array(ks), sc.ELECTRON)
    for i, k in enumerate(ks):
        state = sc.solve_transfer_matrix(pot, k)
        assert _bytes((state.amp_T, state.amp_R)) == _bytes((sol.amp_T[i], sol.amp_R[i])), k
        assert type(state.amp_T) is complex and type(state.amp_R) is complex
        assert type(state.E) is float and state.k == k


def test_transfer_sweep_matches_parent_on_the_e_equals_v_node():
    # node 32 of the 65-node 5 eV packet sits within rounding of the
    # barriers' top: kappa d ~ 3e-8, where the exponential basis nearly
    # degenerates
    pot = PiecewisePotential.double_barrier(5.0, 2.0, 3.0)
    ks = SpectralPacket.gaussian(float(k_of_E(5.0)), 0.02, n_nodes=65).k_nodes.tolist()
    sol = _assert_matches_parent(pot, ks)
    assert np.abs(sol.kappas[[0, 2], 32] * 2.0).max() < 1e-7
