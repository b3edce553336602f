"""Per-criterion summary lines for the acceptance suite, the frozen
package fixture with the ratio of its hbar to this package's, the tolerance
assertion the frozen-copy tests share, the independent routes that stand in
for the frozen copy in its top window, and the anchored transfer solver with
its interior evaluator, kept as the frozen reference of the sweep and the
modes, and the np.trapezoid arrival statistics, the frozen reference of
wavepacket.arrival_stats.

Every test named test_criterion_* is tracked and reported as a single
PASS/FAIL line in the terminal summary, so the acceptance state is visible
at a glance even inside a long pytest run.
"""

import importlib
import importlib.util
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from tunneltime import times as tms
from tunneltime.scattering import (
    _MAX_TOTAL_KAPPA_D,
    PiecewisePotential,
    SquareBarrierParams,
    _check_k,
    _local_q,
    solve_transfer_matrix,
)
from tunneltime.units import ELECTRON
from tunneltime.wavepacket import SUPPORT_THRESHOLD, ArrivalStats

FROZEN = Path(__file__).resolve().parent.parent / "bench" / "baseline" / "tunneltime"

# The frozen package stores hbar = 6.582119569e-16 eV s beside hbarc and c;
# this package derives hbar = hbarc/c, 2.23e-10 below it. A frozen value
# proportional to hbar^p is scaled by HBAR_RATIO^p before it is compared, so
# each comparison keeps the bound of its formula.
HBAR_RATIO = ELECTRON.hbar_eV_s / 6.582119569e-16


@pytest.fixture(scope="session")
def frozen():
    """The frozen package that the benchmark keeps in bench/baseline,
    imported once as ``tunneltime_frozen`` (its imports are relative, so it
    loads under any name): its modules by short name."""
    name = "tunneltime_frozen"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            name, FROZEN / "__init__.py", submodule_search_locations=[str(FROZEN)])
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return {m: importlib.import_module(f"{name}.{m}")
            for m in ("scattering", "times", "optical", "cli")}


def assert_close(got, want, *, ulp=None, rel=None, absolute=None, scale=None,
                 what="") -> float:
    """Assert that got matches want element by element within one kind of
    bound: ulp (units in the last place of |want|), rel (|got - want| /
    |want|) or absolute. A bound is a number or an array with want's shape;
    scale, when given, replaces |want| in the ulp and relative bounds.
    Complex elements compare their real and imaginary parts separately, each
    against the element's modulus, and a non-finite part of want must be
    matched exactly. The message names the worst element, its drift and its
    bound. Returns the largest drift over bound, a number in [0, 1]."""
    (kind, bound), = [(k, b) for k, b in (("ulp", ulp), ("rel", rel), ("absolute", absolute))
                      if b is not None]
    g, w = (np.asarray(x, dtype=complex).ravel() for x in (got, want))
    assert g.shape == w.shape, f"{what}: shape {g.shape} != {w.shape}"
    if not g.size:
        return 0.0
    size = np.abs(w) if scale is None else np.broadcast_to(scale, np.shape(want)).ravel()
    bound = np.broadcast_to(np.asarray(bound, dtype=float), np.shape(want)).ravel()
    size, bound = np.tile(size, 2), np.tile(bound, 2)
    g, w = np.concatenate([g.real, g.imag]), np.concatenate([w.real, w.imag])
    same = (g == w) | (np.isnan(g) & np.isnan(w))
    unit = {"ulp": np.spacing(size), "rel": size, "absolute": 1.0}[kind]
    with np.errstate(divide="ignore", invalid="ignore"):
        drift = np.where(same, 0.0, np.abs(g - w) / unit)
        ratio = np.where(same, 0.0, drift / bound)
    ratio[np.isnan(ratio) | (~np.isfinite(w) & ~same)] = np.inf
    i = int(np.argmax(ratio))
    n = g.size // 2
    assert ratio[i] <= 1.0, (f"{what}: element {i % n} ({'re' if i < n else 'im'}) is "
                             f"{g[i]!r}, want {w[i]!r}: drift {drift[i]:.3g} {kind} "
                             f"> {bound[i]:.3g}")
    return float(ratio[i])


# Bounds of the numpy-rounded code against the frozen copies of the code that
# copied CPython's and libm's rounding, each a small factor above the largest
# drift measured over thousands of random points (listed in CHANGES.md).
EPS_MACH = np.finfo(float).eps
SWEEP_REL = 2.5e-15   # transfer-sweep fields, per element; measured 6.6e-16
INTERIOR_REL = 4e-15  # interior modes against the anchored form; measured 9.5 eps
SLOPE_EPS = 6.0       # phase slopes: |drift| <= 6 eps / h at step h; measured 3.0
PHASE_EPS = 4.0       # alpha, beta: |drift| <= 4 eps (|alpha_ref| + k d + pi/2); measured 1.0
# gap-sweep times drift from the anchored solver's by at most 0.73 sweep_cond
# slope bounds, and by at most 1.4e3 bounds at any cond (318,000 random gaps;
# 105 on the CLI's scenes)
GAP_COND_CAP = 1e4


def sweep_cond(state) -> float:
    """The transfer sweep's cancellation at one state: the size e^{opacity}
    its terms reach from unit amplitude at the right edge, over the size
    1/|T| of its result, and at least 1. Rounding moves the amplitudes, the
    interior modes and the phase slopes by about this many times their size
    (measured); it exceeds 1 near the resonances of opaque multi-barriers."""
    pot = state.potential
    segs = pot.segments[:-1] if pot.semi_infinite else pot.segments
    opacity = sum(float(np.real(kap)) * (xr - xl) for kap, (xl, xr, _) in zip(state.kappas, segs))
    return max(1.0, math.exp(opacity) * abs(state.amp_T))


def gap_conds(d: float, V0: float, k: float, gaps) -> np.ndarray:
    """sweep_cond of the parent solver's state on each gap of optical's
    double barrier (two barriers of height V0 and width d), capped at
    GAP_COND_CAP so that the check keeps its teeth at an exact resonance,
    where the cond of the CLI's opacity-30 double barriers reaches 1e13."""
    return np.minimum(GAP_COND_CAP, [sweep_cond(parent_solve_transfer_matrix(
        PiecewisePotential.double_barrier(V0, d, float(L)), k)) for L in gaps])


def at_top(eps, k):
    """True inside the frozen copy's top window |k - eps| < 1e-9 eps, where
    that copy gives the mean of its values at eps (1 -+ 1e-7) for its value
    at k. Neither the closed forms nor the decay-constant route have such a
    window; there the closed forms are checked against the independent
    routes (check_top_oracle)."""
    return np.abs(np.asarray(k, dtype=float) - eps) < 1e-9 * eps


def interior_qd(eps, k, d):
    """q d at the points where the frozen copy's closed forms evaluate
    (k, d), which set the size of its cancellation error: q is the interior
    wavenumber |eps^2 - k^2|^(1/2), and eps (2e-7)^(1/2) in its top window,
    whose continuation points are eps (1 -+ 1e-7)."""
    k, d = np.broadcast_arrays(np.asarray(k, dtype=float), np.asarray(d, dtype=float))
    return np.where(at_top(eps, k), eps * math.sqrt(2e-7), np.sqrt(np.abs(eps * eps - k * k))) * d


def amplitude_rel(qd):
    """Relative bound on T and R. As q d -> 0 the forms lose 1/(q d) to
    cancellation (1 - e^{-2 kappa d}); measured within 1.5 eps (1 + 1/(q d))."""
    with np.errstate(divide="ignore"):
        return 4.0 * EPS_MACH * (1.0 + 1.0 / np.asarray(qd))


def time_rel(qd):
    """Relative bound on the closed-form times (phase, dwell, Larmor). Their
    leading terms cancel as q d -> 0, which amplifies a last-bit change by
    about 1/(q d)^2; measured within 2 eps + 3,200 eps / (q d)^2."""
    with np.errstate(divide="ignore"):
        return EPS_MACH * (8.0 + 8000.0 / np.asarray(qd) ** 2)


def phase_scale(alpha, k, d):
    """The size of the operands that form alpha and beta: |alpha_ref| + k d + pi/2."""
    return np.abs(np.asarray(alpha) + np.asarray(k) * d) + np.asarray(k) * d + math.pi / 2


# the decay-constant route (times.larmor_times_kappa_derivative) against the
# closed Larmor times: |tau_y| and |tau_z| drift within this share of tau_x,
# V0 0.5-15 eV, d 0.01-300 A, total opacity <= 590; measured 1.1e-9
LARMOR_ROUTE_REL = 5e-9


def assert_larmor_routes_agree(params, k, rel=LARMOR_ROUTE_REL):
    """tau_y and tau_z of the decay-constant route within rel tau_x of the
    closed forms, and its tau_x within twice that; all three 0 at d = 0."""
    got = tms.larmor_times_kappa_derivative(params, k)
    want = tms.larmor_times(params, k)
    where = f"at V0 = {params.V0!r}, d = {params.d!r}, k = {k!r}"
    assert_close(got[:2], want[:2], absolute=rel * want[2], what=f"tau_y, tau_z {where}")
    assert_close(got[2], want[2], absolute=2.0 * rel * want[2], what=f"tau_x {where}")


def check_top_oracle(V0, k, d, got):
    """Assert the closed forms at one point (k, d > 0) of the frozen copy's
    top window against routes that are independent of them. got maps the
    times table's columns (cli.TIMES_COLUMNS from "T" on) to values.

    - T and R within 1e-12, alpha and beta within 1e-10 rad of the transfer
      matrix;
    - the phase times within 1e-9 of phase_times_fd (its Richardson noise);
    - the dwell time, tau_y and Re tau_complex within 1e-10 of the
      quadrature dwell_time, k = eps exactly included;
    - tau_z and Im tau_complex within 1e-7 plus 100 eps hbar/h of
      -hbar d ln|t|/dV0 (Buttiker, Phys. Rev. B 27, 6178 (1983)): a centred
      difference in V0 with step h = 1e-4 V0 and one Richardson step on the
      scalar transfer solve, kept apart from the decay-constant route's
      difference on the sweep; tau_x within the sum of the two bounds;
    - tau_eq = m d/(hbar k) and the sideband times m d/(hbar |q|) and
      hbar k/(V0 |q|), +inf at q = 0, within 4 ulp.
    """
    u = ELECTRON
    where = f"at V0 = {V0!r}, k = {k!r}, d = {d!r}"
    p = SquareBarrierParams(V0, d)
    st = solve_transfer_matrix(p.potential(), k)
    assert_close([got["T"], got["R"]], [st.T, st.R], absolute=1e-12, what=f"T, R {where}")
    turn = [(got[name] - want + math.pi) % (2.0 * math.pi) - math.pi
            for name, want in (("alpha", st.alpha), ("beta", st.beta))]
    assert_close(turn, [0.0, 0.0], absolute=1e-10, what=f"alpha, beta {where}")

    phase = tms.phase_times_fd(p, k)[0]
    dwell = tms.dwell_time(p.potential(), k, 0.0, d)
    h = 1e-4 * V0
    lnT = [math.log(solve_transfer_matrix(PiecewisePotential.square(V, d), k).T)
           for V in (V0 + h, V0 - h, V0 + 0.5 * h, V0 - 0.5 * h)]
    tau_z = -u.hbar_eV_s * (4.0 * (lnT[2] - lnT[3]) / h - (lnT[0] - lnT[1]) / (2.0 * h)) / 3.0
    dwell_bound = 1e-10 * dwell
    z_bound = 1e-7 * abs(tau_z) + 100.0 * EPS_MACH * u.hbar_eV_s / h
    want = {"dtau_phase_T_s": (phase, 1e-9 * phase), "dtau_phase_R_s": (phase, 1e-9 * phase),
            "tau_dwell_s": (dwell, dwell_bound), "tau_larmor_y_s": (dwell, dwell_bound),
            "tau_complex_re_s": (dwell, dwell_bound), "tau_larmor_z_s": (tau_z, z_bound),
            "tau_complex_im_s": (tau_z, z_bound),
            "tau_larmor_x_s": (math.hypot(dwell, tau_z), dwell_bound + z_bound)}
    for name, (value, bound) in want.items():
        assert_close(got[name], value, absolute=bound, what=f"{name} {where}")

    q = math.sqrt(abs(p.eps * p.eps - k * k))
    with np.errstate(divide="ignore"):
        exact = np.divide([u.m_over_hbar * d, u.hbar_eV_s * k / V0], q)
    assert_close([got["tau_eq_s"], got["tau_BL_T_s"], got["tau_BL_R_s"]],
                 [u.m_over_hbar * d / k, *exact], ulp=4.0, what=f"tau_eq, tau_BL {where}")


# ---------------------------------------------------------------------------
# the anchored transfer solver that the one-point segment body replaced: the
# frozen reference of the sweep's amplitudes and of the interior modes


def parent_seg_prop(psi, dpsi, q, w):
    """The scalar branch of the anchored solver's _seg_prop, verbatim."""
    qw = q * w
    series = abs(qw) < 1e-8
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


def parent_solve_transfer_matrix(potential, k: float, units=ELECTRON):
    """The scalar anchored solver, verbatim but for its result: a namespace
    with the fields of its ScatteringState. Inside segment j psi is
    A_j e^{-kappa_j (x - xl_j)} + b_j e^{-kappa_j (xr_j - x)} (_b_right),
    and linear from the left-edge values where |q w| < 1e-12."""
    _check_k(k)
    E = float(units.E_of_k(k))
    segs = potential.segments

    if not segs:
        return SimpleNamespace(
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
        psi, dpsi = parent_seg_prop(psi, dpsi, q, -(xr - xl))
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
        if abs(q * (xr - xl)) < 1e-12:
            # linear segment: exponential basis is degenerate bookkeeping
            A[j], b_right[j] = 0.5 * pl, 0.5 * pr
        else:
            A[j] = 0.5 * (pl - dl / kap)
            b_right[j] = 0.5 * (pr + dr / kap)  # exact growing-part value at xr

    return SimpleNamespace(
        k=k, E=E, amp_T=complex(amp_T), amp_R=complex(amp_R),
        kappas=kappas, A=A, potential=potential, units=units,
        _psi_l=psi_l, _dpsi_l=dpsi_l, _b_right=b_right,
    )


# The per-state evaluator of the anchored solver, kept verbatim as the
# independent oracle of the shared mode evaluator.
def parent_interior(state, x: np.ndarray):
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


def with_left_anchored_B(state):
    """The state with the coefficient B of e^{+kappa (x-xl)} that
    parent_interior reads, formed as the earlier solver formed it."""
    B = np.zeros(len(state.kappas), complex)
    pot = state.potential
    for j, (xl, xr, _) in enumerate(pot.segments):
        if pot.semi_infinite and j == len(B) - 1:
            continue
        kap, w = state.kappas[j], xr - xl
        if abs(1j * kap * w) < 1e-12:
            B[j] = 0.5 * state._psi_l[j]
        else:
            B[j] = state._b_right[j] * np.exp(-kap * w)
    return SimpleNamespace(**vars(state), B=B)


def parent_psi_and_dpsi(state, x):
    """(psi, dpsi/dx) of a parent_solve_transfer_matrix state at the points x."""
    return parent_interior(with_left_anchored_B(state), np.asarray(x, dtype=float))


def parent_arrival_stats(record, floor: float):
    """wavepacket.arrival_stats as it was with np.trapezoid and a fresh array
    per weighted moment."""
    t = record.t
    absJ = np.abs(record.J)
    clipped = absJ.size > 0 and bool(max(absJ[0], absJ[-1]) > SUPPORT_THRESHOLD * absJ.max())

    def moments(Jpart):
        tot = np.trapezoid(Jpart, t)
        if abs(tot) < 1e-15:
            return math.nan, math.nan, float(tot), True
        m1 = np.trapezoid(t * Jpart, t) / tot
        m2 = np.trapezoid((t - m1) ** 2 * Jpart, t) / tot
        return float(m1), float(m2), float(tot), abs(tot) < floor

    mp, vp, tp, lp = moments(record.J_plus)
    mm, vm, tm, lm = moments(record.J_minus)
    return ArrivalStats(mean_t_plus=mp, mean_t_minus=mm, var_t_plus=vp, var_t_minus=vm,
                        total_plus_flux=tp, total_minus_flux=abs(tm),
                        low_confidence_plus=lp or clipped,
                        low_confidence_minus=lm or clipped)


_RESULTS: dict[str, str] = {}

_WORDS = {"passed": "PASS", "failed": "FAIL", "skipped": "SKIP"}


def pytest_runtest_logreport(report):
    name = report.nodeid.split("::")[-1]
    if not name.startswith("test_criterion_"):
        return
    if report.when == "call":
        _RESULTS[name] = _WORDS.get(report.outcome, report.outcome.upper())
    elif report.when == "setup" and report.outcome != "passed":
        _RESULTS[name] = "SKIP" if report.outcome == "skipped" else "ERROR"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name in sorted(_RESULTS):
        label = name[len("test_criterion_"):]
        terminalreporter.write_line(f"criterion {label}: {_RESULTS[name]}")
