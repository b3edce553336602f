"""Per-criterion summary lines for the acceptance suite, the frozen
package fixture, and the tolerance assertion the frozen-copy tests share.

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


def interior_qd(eps, k, d):
    """q d at the points where the closed forms evaluate (k, d): q is the
    interior wavenumber |eps^2 - k^2|^(1/2), and eps (2e-7)^(1/2) in the top
    window, whose continuation points are eps (1 -+ 1e-7)."""
    k, d = np.broadcast_arrays(np.asarray(k, dtype=float), np.asarray(d, dtype=float))
    top = np.abs(k - eps) < 1e-9 * eps
    return np.where(top, eps * math.sqrt(2e-7), np.sqrt(np.abs(eps * eps - k * k))) * d


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
