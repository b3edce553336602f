"""Per-criterion summary lines for the acceptance suite, the frozen
package fixture, the tolerance assertion the frozen-copy tests share, and
the independent routes that stand in for the frozen copy in its top window.

Every test named test_criterion_* is tracked and reported as a single
PASS/FAIL line in the terminal summary, so the acceptance state is visible
at a glance even inside a long pytest run.
"""

import importlib
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from tunneltime import times as tms
from tunneltime.scattering import PiecewisePotential, SquareBarrierParams, solve_transfer_matrix
from tunneltime.units import ELECTRON

FROZEN = Path(__file__).resolve().parent.parent / "bench" / "baseline" / "tunneltime"


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
SLOPE_EPS = 6.0       # phase slopes: |drift| <= 6 eps / h at step h; measured 3.0
PHASE_EPS = 4.0       # alpha, beta: |drift| <= 4 eps (|alpha_ref| + k d + pi/2); measured 1.0


def at_top(eps, k):
    """True inside the frozen copy's top window |k - eps| < 1e-9 eps, where
    that copy gives the mean of its values at eps (1 -+ 1e-7) for its value
    at k. The closed forms have no such window; there they are checked
    against the independent routes (check_top_oracle)."""
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


def check_top_oracle(V0, k, d, got):
    """Assert the closed forms at one point (k, d > 0) of the frozen copy's
    top window against routes that are independent of them. got maps the
    times table's columns (cli.TIMES_COLUMNS from "T" on) to values.

    - T and R within 1e-12, alpha and beta within 1e-10 rad of the transfer
      matrix;
    - the phase times within 1e-9 of phase_times_fd (its Richardson noise);
    - the dwell time, tau_y and Re tau_complex within 1e-10 of the
      quadrature dwell_time; 5e-8 at k = eps exactly, where the transfer
      sweep's exponential basis at |kappa| w near 1e-12 costs the quadrature
      digits (measured 1.5e-8);
    - tau_z and Im tau_complex within 1e-7 plus 100 eps hbar/h of
      -hbar d ln|t|/dV0 (Buttiker, Phys. Rev. B 27, 6178 (1983)): a centred
      difference in V0 with step h = 1e-4 V0 and one Richardson step on the
      transfer matrix (the decay-constant route carries noise of order one
      this close to the top); tau_x within the sum of the two bounds;
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
    dwell_bound = (5e-8 if k == p.eps else 1e-10) * dwell
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
