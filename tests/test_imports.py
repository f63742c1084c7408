"""Every ``repro`` module imports with only the stdlib and the declared
dependencies installed.

A clean ``pip install repro-noc`` provides exactly the ``dependencies`` of
``pyproject.toml``; a module-level import of anything else breaks
``import repro`` for every user.  The check runs in a fresh interpreter
behind an import guard that refuses every top-level module outside the
stdlib and those dependencies, so packages that happen to be installed
here (test tools, optional extras) cannot hide such an import.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(repro.__file__).resolve().parent.parent

GUARDED_IMPORT = r"""
import importlib
import pkgutil
import sys

allowed = set(sys.argv[1:]) | set(sys.stdlib_module_names) | {"repro"}


class DeclaredOnly:
    def find_spec(self, name, path=None, target=None):
        top = name.partition(".")[0]
        if top not in allowed:
            raise ModuleNotFoundError(f"undeclared dependency {name!r}", name=name)
        return None


sys.meta_path.insert(0, DeclaredOnly())
import repro

failures = []
for module in pkgutil.walk_packages(repro.__path__, "repro."):
    try:
        importlib.import_module(module.name)
    except ImportError as error:
        failures.append(f"{module.name}: {error}")
print("\n".join(failures))
sys.exit(1 if failures else 0)
"""


def declared_dependencies() -> list[str]:
    """Import names of ``[project] dependencies`` in ``pyproject.toml``."""
    text = (ROOT / "pyproject.toml").read_text()
    block = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.MULTILINE | re.DOTALL)
    assert block is not None, "pyproject.toml declares no dependencies list"
    requirements = re.findall(r"[\"']([^\"']+)[\"']", block.group(1))
    return [
        re.match(r"[A-Za-z0-9_.-]+", requirement).group(0).lower().replace("-", "_")
        for requirement in requirements
    ]


def test_declared_dependencies_are_parsed():
    assert declared_dependencies() == ["numpy"]


def test_every_module_imports_with_declared_dependencies_only():
    result = subprocess.run(
        [sys.executable, "-c", GUARDED_IMPORT, *declared_dependencies()],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
