"""Smoke test of the wall-clock benchmark (tier-1, a few seconds).

Runs all four workloads at ``--smoke`` sizes, untraced and traced, and
checks the contract the later performance issues rely on: the names in
``BENCHMARK.json``, deterministic inputs and exact counts, a reference
that can actually fail an answer, and probes that degrade instead of
crashing.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
for _p in (ROOT / "src", BENCH_DIR):
    if str(_p) not in sys.path:
        sys.path.insert(0, str(_p))

from jaccbench import cli, reference, spec, workloads  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SECONDS = 0.05


def run(name, tmp_path, trace, seed=7):
    return cli.run_workload(
        name, seed, SECONDS, trace, smoke=True,
        out_dir=tmp_path / "out", work_root=tmp_path / "work",
    )


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bench")
    return {
        name: (run(name, tmp, False), run(name, tmp, True))
        for name in spec.WORKLOADS
    }


def test_manifest_carries_the_spec():
    assert MANIFEST["paths"] == ["bench"]
    assert MANIFEST["command"] == ["python3", "bench/run.py"]
    assert {w["name"]: w["why"] for w in MANIFEST["workloads"]} == spec.WORKLOADS
    assert MANIFEST["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in spec.END_TO_END
    ]
    assert MANIFEST["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in spec.PER_LAYER
    ]
    names = [m["name"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]]
    names += [w["name"] for w in MANIFEST["workloads"]]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(n) for n in names)
    assert set(spec.EXACT_COUNTS) <= {m.name for m in spec.WORKLOAD_METRICS} | set(
        spec.PER_LAYER_NAMES
    )


def test_every_workload_reports_exactly_the_manifest_names(records, tmp_path):
    for name, (plain, traced) in records.items():
        assert tuple(plain["metrics"]) == spec.END_TO_END_NAMES
        assert tuple(traced["metrics"]) == spec.PER_LAYER_NAMES
        assert plain["failed"] == 0 and plain["attempted"] >= 1, name
        assert plain["named"]["error_rate"] == 0.0
        assert all(v > 0 for v in plain["metrics"].values()), plain["metrics"]
        assert not traced["reasons"], traced["reasons"]
        assert Path(traced["trace_file"]).is_file()
        applies = {m.name for m in spec.WORKLOAD_METRICS if name in m.where}
        assert set(plain["named"]) == applies


def test_layers_are_zero_where_the_workload_bypasses_them(records):
    dense_reads = records[spec.SERVE_DENSE_READS][1]["metrics"]
    churn = records[spec.SERVE_SPARSE_CHURN][1]["metrics"]
    for bypassed in ("lsh.probe_us", "query.stage_ms.lsh", "cache.hit_rate",
                     "sharded.merge_us", "query.after_lsh"):
        assert dense_reads[bypassed] == 0.0
        assert churn[bypassed] > 0.0
    dense = records[spec.ALLPAIRS_DENSE][1]["metrics"]
    assert dense["genomics.ingest_s"] == 0.0 and dense["query.candidates"] == 0.0
    assert records[spec.ALLPAIRS_GENOMES][1]["metrics"]["genomics.ingest_s"] > 0


def test_same_seed_same_inputs_and_exact_counts(records, tmp_path):
    for name in (spec.ALLPAIRS_GENOMES, spec.SERVE_SPARSE_CHURN):
        again = run(name, tmp_path, True)
        first = records[name][1]
        assert again["digest"] == first["digest"]
        for metric in spec.EXACT_COUNTS:
            if metric in first["metrics"]:
                assert again["metrics"][metric] == first["metrics"][metric], metric
    other = workloads.gen_serve_sparse_churn(
        8, workloads.SMOKE[spec.SERVE_SPARSE_CHURN]
    )
    assert other.digest != records[spec.SERVE_SPARSE_CHURN][0]["digest"]


def test_a_wrong_reference_fails_operations(monkeypatch, tmp_path):
    monkeypatch.setattr(
        reference, "dense_allpairs_reference",
        lambda sets, m: np.zeros((len(sets), len(sets))),
    )
    assert run(spec.ALLPAIRS_DENSE, tmp_path, False)["named"]["error_rate"] > 0
    monkeypatch.setattr(
        reference.SetModel, "threshold_matches", lambda self, *args: False
    )
    record = run(spec.SERVE_DENSE_READS, tmp_path, False)
    assert record["failed"] > 0 and record["named"]["error_rate"] > 0


def test_a_missing_probe_target_degrades_to_null(monkeypatch, tmp_path, capsys):
    import repro.sparse.spgemm as spgemm

    monkeypatch.delattr(spgemm, "gram_outer_pair")
    record = run(spec.ALLPAIRS_DENSE, tmp_path, True)
    assert record["metrics"]["sparse.gram_outer_s"] is None
    assert "gram_outer_pair" in record["reasons"]["sparse.gram_outer_s"]
    assert record["metrics"]["core.filter_s"] > 0
    cli.print_record(record)
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["metrics"]["sparse.gram_outer_s"]["value"] == 0.0


def test_command_line_contract(tmp_path):
    cmd = [sys.executable, "bench/run.py", "--workload", spec.ALLPAIRS_DENSE,
           "--seed", "3", "--seconds", "0.05", "--trace", "0", "--smoke"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert set(last["metrics"]) == set(spec.END_TO_END_NAMES)
    assert all(set(v) == {"value", "unit"} for v in last["metrics"].values())

    # Without the program there is nothing to measure: no result, exit != 0.
    bare = tmp_path / "bare"
    shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns(
        ".work", "out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = subprocess.run(cmd, cwd=bare, capture_output=True, text=True)
    assert done.returncode != 0 and not done.stdout.strip()
