"""Per-criterion summary lines for the acceptance suite, and the frozen
package fixture.

Every test named test_criterion_* is tracked and reported as a single
PASS/FAIL line in the terminal summary, so the acceptance state is visible
at a glance even inside a long pytest run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

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
