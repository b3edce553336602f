"""The README's Library API section names the whole public library surface."""

import importlib
import inspect
import re
from pathlib import Path

import pytest

MODULES = ["units", "scattering", "times", "wavepacket", "optical"]


def _api_section() -> str:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    start = readme.index("\n## Library API\n")
    end = readme.index("\n## ", start + 1)
    return readme[start:end]


@pytest.mark.parametrize("module", MODULES)
def test_readme_names_every_public_function_and_class(module):
    # a public function or class that no table row names is surface that
    # grew unseen; a row whose name is gone is a stale row
    mod = importlib.import_module(f"tunneltime.{module}")
    defined = {name for name, value in vars(mod).items()
               if not name.startswith("_")
               and (inspect.isfunction(value) or inspect.isclass(value))
               and value.__module__ == mod.__name__}
    rows = "\n".join(line for line in _api_section().splitlines() if line.startswith("| `"))
    listed = set(re.findall(rf"`{module}\.(\w+)`", rows))
    assert sorted(defined - listed) == []
    assert sorted(listed - defined) == []
