"""The modelled report end to end: a harness smoke run through the gate.

``benchmarks/harness.py --smoke --out-dir <dir>`` writes one
``BENCH_<section>.json`` per section; ``tools/check_bench.py`` gates the
same directory.  A change that moves a modelled floor, drops a section
or brings back a stopwatch field fails here, not only in CI's harness
step.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "tools") not in sys.path:
    sys.path.insert(0, str(ROOT / "tools"))

import check_bench  # noqa: E402

if str(ROOT / "benchmarks") not in sys.path:
    sys.path.insert(0, str(ROOT / "benchmarks"))

import harness  # noqa: E402

#: Single-shot timings the report must not carry: ``bench/`` measures
#: each of them over alternating pairs and medians.
STOPWATCH_KEYS = {
    "real_seconds",
    "serial_real_seconds",
    "flat_real_seconds",
    "mean_query_seconds_cascade",
    "mean_query_seconds_bruteforce",
    "latency_speedup_vs_bruteforce",
    "mean_query_seconds",
}


def all_keys(node):
    if isinstance(node, dict):
        for key, value in node.items():
            yield key
            yield from all_keys(value)
    elif isinstance(node, list):
        for value in node:
            yield from all_keys(value)


@pytest.fixture(scope="module")
def smoke_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench_smoke")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "harness.py"), "--smoke", "--out-dir", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return out


def test_smoke_report_passes_the_gate(smoke_dir):
    assert check_bench.run_gate("smoke", smoke_dir) == []


def test_writes_exactly_the_gated_sections(smoke_dir):
    doc = json.loads(check_bench.DEFAULT_THRESHOLDS.read_text())
    written = {p.name[len("BENCH_") : -len(".json")] for p in smoke_dir.glob("BENCH_*.json")}
    assert written == set(doc["labels"]["smoke"])


def test_no_stopwatch_field(smoke_dir):
    for path in sorted(smoke_dir.glob("BENCH_*.json")):
        (run,) = json.loads(path.read_text())["runs"]
        assert run["label"] == "smoke"
        assert STOPWATCH_KEYS.isdisjoint(all_keys(run)), path.name


def test_entries_carry_the_trajectory_fields(smoke_dir):
    doc = json.loads(check_bench.DEFAULT_THRESHOLDS.read_text())
    for section, floors in doc["labels"]["smoke"].items():
        (run,) = json.loads((smoke_dir / f"BENCH_{section}.json").read_text())["runs"]
        assert set(run) == {"label", "timestamp", "numpy", "workloads"}
        assert set(floors) <= set(run["workloads"]), section


def test_registry_order():
    # ``wire`` must run before ``sketch``: it hands over its exact runs.
    assert list(harness.SECTIONS) == [
        "kernels", "pipeline", "wire", "sketch", "query",
        "service", "lsh", "shards", "semantics",
    ]


def test_registry_is_what_the_gate_checks():
    doc = json.loads(check_bench.DEFAULT_THRESHOLDS.read_text())
    for label in ("full", "smoke"):
        assert set(doc["labels"][label]) == set(harness.SECTIONS), label


@pytest.fixture
def fake_sections(monkeypatch, tmp_path):
    """Two instant sections, and a repo root under ``tmp_path``."""
    calls = []

    def runner(name):
        def run(smoke):
            calls.append((name, smoke))
            return {"wl": {"summary": {"smoke": smoke}}}

        return run

    monkeypatch.setattr(harness, "SECTIONS", {"a": runner("a"), "b": runner("b")})
    root = tmp_path / "root"
    root.mkdir()
    monkeypatch.setattr(harness, "REPO_ROOT", root)
    return root, calls


def test_smoke_run_without_out_dir_writes_nothing(fake_sections, capsys):
    root, calls = fake_sections
    assert harness.main(["--smoke"]) == 0
    assert calls == [("a", True), ("b", True)]
    assert list(root.iterdir()) == []


def test_full_run_defaults_to_the_repo_root(fake_sections, capsys):
    root, calls = fake_sections
    assert harness.main([]) == 0
    assert calls == [("a", False), ("b", False)]
    assert sorted(p.name for p in root.iterdir()) == ["BENCH_a.json", "BENCH_b.json"]
    (run,) = json.loads((root / "BENCH_a.json").read_text())["runs"]
    assert run["label"] == "full"
    assert run["workloads"] == {"wl": {"summary": {"smoke": False}}}


def test_runs_append_to_a_created_out_dir(fake_sections, tmp_path, capsys):
    root, _ = fake_sections
    out = tmp_path / "nested" / "out"
    for _ in range(2):
        assert harness.main(["--smoke", "--out-dir", str(out)]) == 0
    doc = json.loads((out / "BENCH_b.json").read_text())
    assert doc["schema"] == 1
    assert [r["label"] for r in doc["runs"]] == ["smoke", "smoke"]
    assert list(root.iterdir()) == []


def test_section_output_flags_are_gone(fake_sections, tmp_path):
    # ``--out-dir`` replaces the per-section output flags.
    with pytest.raises(SystemExit):
        harness.main(["--smoke", "--kernels-output", str(tmp_path / "k.json")])
