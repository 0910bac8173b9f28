"""Every ``repro`` package and module imports as a process's *first* import.

Import cycles hide behind import order: ``import repro.sparse`` used to
raise ``ImportError: cannot import name 'SketchFamily' from partially
initialized module`` unless something else had imported ``repro.core``
first (``sparse/__init__`` -> ``sketch_exchange`` -> ``core.sketch`` ->
``core/__init__`` -> ``core.similarity`` -> ``sparse.sketch_exchange``),
and the test suite — one long-lived interpreter — could never see it.
One fresh interpreter per module can.
"""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent

MODULES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if not info.name.endswith("__main__")
)


def test_the_walk_found_the_packages():
    assert {"repro.sparse", "repro.sparse.bitmatrix", "repro.core.similarity",
            "repro.util.arrays", "repro.service.store"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_imports_first_in_a_fresh_interpreter(module):
    proc = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_core_runs_without_networkx():
    """``setup.py`` installs NumPy only: with networkx blocked, the
    genomics pipeline and the serving layer import and run, and the
    tree functions that need networkx say so (``tools/check_core_only.py``,
    which CI also runs against a no-extras install)."""
    script = SRC.parent / "tools" / "check_core_only.py"
    proc = subprocess.run(
        [sys.executable, str(script)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "core-only ok"
