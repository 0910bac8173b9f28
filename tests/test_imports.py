"""Every ``repro`` package and module imports as a process's *first* import,
and every name a package exports is used by the program.

Import cycles hide behind import order: ``import repro.sparse`` used to
raise ``ImportError: cannot import name 'SketchFamily' from partially
initialized module`` unless something else had imported ``repro.core``
first (``sparse/__init__`` -> ``sketch_exchange`` -> ``core.sketch`` ->
``core/__init__`` -> ``core.similarity`` -> ``sparse.sketch_exchange``),
and the test suite — one long-lived interpreter — could never see it.
One fresh interpreter per module can.
"""

import ast
import importlib
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


# ---- every export is used -------------------------------------------------

#: Where the program lives: a name referenced only by tests is not used.
PROGRAM_DIRS = ("src", "bench", "benchmarks", "tools", "examples")

#: Exported names that nothing outside their own module references, and
#: why each stays.  (a) the program runs it, but only inside its own
#: module: a type or table of what that module hands out; (b) a test
#: uses it to check other code; (c) a paper artifact kept on purpose.
UNREFERENCED_EXPORTS = {
    "repro.analytics": dict.fromkeys(
        ["hierarchical_clusters", "jaccard_kmedoids", "proximity_outliers",
         "shingle_set", "box_iou", "iou_matrix", "match_boxes"],
        "(c) the paper's §II applications; the whole package is parked",
    ),
    "repro.baselines": {
        "jaccard_pairwise_sets": "(b) the brute-force pairwise reference",
    },
    "repro.genomics": {
        "read_fastq": "(c) FASTQ reads, the raw-read input of §V-A2",
        "decode_kmer": "(b) inverts encode_kmers in the k-mer tests",
        "bigsi_like": "(c) the BIGSI-regime cohort of §V-A2",
        "GenomeAtScaleResult": "(a) what GenomeAtScale.run_* return",
        "CohortSpec": "(a) the parameters simulate_cohort takes",
    },
    "repro.runtime": {"CacheModel": "(a) the type of MachineSpec.cache"},
    "repro.semantics": {
        "MEASURES": "(a) the registry get_measure reads",
        "intersection_union_mass": "(a) the weighted Jaccard's kernel",
    },
    "repro.service": {
        "ServiceError": "(a) the root every service error derives from",
        "collision_probability": "(a) the LSH band planner's recall formula",
        "PlanStage": "(a) the type of QueryPlan.stages",
        "QueryMatch": "(a) the type of QueryResult.matches",
        "ShardedEntry": "(a) a sharded manifest's genome entry",
        "plan_size_bands": "(a) the sharded store's band planner",
    },
    "repro.sparse": {
        "GRAM_KERNELS": "(a) the table resolve_kernel reads",
        "ExchangeOutcome": "(a) what exchange_and_estimate returns",
    },
}


def _references(path: Path) -> set[str]:
    """Identifiers a file uses: names, attributes, imported names and
    string constants (``getattr(module, "name")``).  An ``__init__``
    only re-exports through its imports, ``__all__`` and lazy-import
    table, so there only names and attributes count."""
    init = path.name == "__init__.py"
    out = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif init:
            continue
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def _defines(path: Path) -> set[str]:
    """Top-level names a file defines."""
    out = set()
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return out


def unreferenced_exports(repo: Path) -> dict[str, set[str]]:
    """Per package, the ``__all__`` names that no program file references
    outside the module defining them."""
    refs = {
        path: _references(path)
        for top in PROGRAM_DIRS
        for path in (repo / top).rglob("*.py")
    }
    defined = {path: _defines(path) for path in refs if path.is_relative_to(repo / "src")}
    out = {}
    for package in MODULES:
        module = importlib.import_module(package)
        if not hasattr(module, "__path__"):
            continue
        pkg_dir = Path(module.__file__).resolve().parent
        for name in module.__all__:
            definers = [f for f, names in defined.items() if f.is_relative_to(pkg_dir) and name in names]
            definers = [f for f in definers if f.name != "__init__.py"] or definers
            if not any(name in r for f, r in refs.items() if f not in definers):
                out.setdefault(package, set()).add(name)
    return out


def test_every_export_is_used_or_kept_for_a_reason():
    found = unreferenced_exports(SRC.parent)
    allowed = {pkg: set(names) for pkg, names in UNREFERENCED_EXPORTS.items()}
    unused = {pkg: sorted(names - allowed.get(pkg, set())) for pkg, names in found.items()}
    assert not {pkg: names for pkg, names in unused.items() if names}, (
        "exported, but only tests use them: delete them, or list them in "
        "UNREFERENCED_EXPORTS with the reason they stay"
    )
    stale = {pkg: sorted(names - found.get(pkg, set())) for pkg, names in allowed.items()}
    assert not {pkg: names for pkg, names in stale.items() if names}, (
        "allowlisted, but now used (or gone): drop them from UNREFERENCED_EXPORTS"
    )
