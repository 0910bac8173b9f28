"""Tests for the benchmark regression gate (tools/check_bench.py)."""

import json
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
if str(TOOLS) not in sys.path:
    sys.path.insert(0, str(TOOLS))

import check_bench  # noqa: E402


def write_trajectory(path: Path, label: str, summary: dict) -> None:
    path.write_text(
        json.dumps(
            {
                "schema": 1,
                "runs": [
                    {
                        "label": label,
                        "workloads": {"wl": {"summary": summary}},
                    }
                ],
            }
        )
    )


def write_thresholds(path: Path, label: str, floors: dict) -> None:
    path.write_text(
        json.dumps({"labels": {label: {"kernels": {"wl": floors}}}})
    )


@pytest.fixture
def tmp_gate(tmp_path):
    def run(summary: dict, floors: dict, label: str = "smoke") -> list[str]:
        thresholds = tmp_path / "thresholds.json"
        write_trajectory(tmp_path / "BENCH_kernels.json", label, summary)
        write_thresholds(thresholds, label, floors)
        return check_bench.run_gate(label, tmp_path, thresholds_path=thresholds)

    return run


class TestGateLogic:
    def test_floor_pass(self, tmp_gate):
        assert tmp_gate({"speedup": 2.0}, {"speedup": 1.5}) == []

    def test_floor_fail(self, tmp_gate):
        problems = tmp_gate({"speedup": 1.2}, {"speedup": 1.5})
        assert len(problems) == 1
        assert "violates" in problems[0]

    def test_ceiling_via_max_suffix(self, tmp_gate):
        assert tmp_gate({"error": 0.01}, {"error_max": 0.02}) == []
        assert tmp_gate({"error": 0.03}, {"error_max": 0.02})

    def test_bool_must_match(self, tmp_gate):
        assert tmp_gate({"exact": True}, {"exact": True}) == []
        assert tmp_gate({"exact": False}, {"exact": True})

    def test_missing_metric_fails(self, tmp_gate):
        problems = tmp_gate({"other": 1.0}, {"speedup": 1.5})
        assert any("missing" in p for p in problems)

    def test_equal_value_passes_floor(self, tmp_gate):
        assert tmp_gate({"speedup": 1.5}, {"speedup": 1.5}) == []


class TestFileHandling:
    def test_missing_file(self, tmp_path):
        thresholds = tmp_path / "thresholds.json"
        write_thresholds(thresholds, "smoke", {"speedup": 1.0})
        problems = check_bench.run_gate("smoke", tmp_path, thresholds_path=thresholds)
        assert any("BENCH_kernels.json does not exist" in p for p in problems)

    def test_missing_label(self, tmp_path):
        thresholds = tmp_path / "thresholds.json"
        write_trajectory(tmp_path / "BENCH_kernels.json", "full", {"speedup": 9.0})
        write_thresholds(thresholds, "smoke", {"speedup": 1.0})
        problems = check_bench.run_gate("smoke", tmp_path, thresholds_path=thresholds)
        assert any("no run labelled" in p for p in problems)

    def test_missing_workload(self, tmp_path):
        thresholds = tmp_path / "thresholds.json"
        (tmp_path / "BENCH_kernels.json").write_text(
            json.dumps({"runs": [{"label": "smoke", "workloads": {}}]})
        )
        write_thresholds(thresholds, "smoke", {"speedup": 1.0})
        problems = check_bench.run_gate("smoke", tmp_path, thresholds_path=thresholds)
        assert any("workload missing" in p for p in problems)

    def test_latest_labelled_run_wins(self, tmp_path):
        thresholds = tmp_path / "thresholds.json"
        (tmp_path / "BENCH_kernels.json").write_text(
            json.dumps(
                {
                    "runs": [
                        {
                            "label": "smoke",
                            "workloads": {
                                "wl": {"summary": {"speedup": 0.5}}
                            },
                        },
                        {
                            "label": "smoke",
                            "workloads": {
                                "wl": {"summary": {"speedup": 3.0}}
                            },
                        },
                    ]
                }
            )
        )
        write_thresholds(thresholds, "smoke", {"speedup": 1.0})
        assert check_bench.run_gate("smoke", tmp_path, thresholds_path=thresholds) == []

    def test_no_thresholds_for_label(self, tmp_path):
        thresholds = tmp_path / "thresholds.json"
        thresholds.write_text(json.dumps({"labels": {}}))
        problems = check_bench.run_gate("smoke", tmp_path, thresholds_path=thresholds)
        assert any("no thresholds" in p for p in problems)

    def test_only_the_labelled_sections_are_read(self, tmp_path):
        # The thresholds name the sections; other BENCH files are ignored.
        thresholds = tmp_path / "thresholds.json"
        write_trajectory(tmp_path / "BENCH_kernels.json", "smoke", {"speedup": 2.0})
        (tmp_path / "BENCH_other.json").write_text("not json")
        write_thresholds(thresholds, "smoke", {"speedup": 1.0})
        assert check_bench.run_gate("smoke", tmp_path, thresholds_path=thresholds) == []

    def test_each_missing_section_is_named(self, tmp_path):
        thresholds = tmp_path / "thresholds.json"
        write_trajectory(tmp_path / "BENCH_kernels.json", "smoke", {"speedup": 2.0})
        thresholds.write_text(
            json.dumps(
                {
                    "labels": {
                        "smoke": {
                            "kernels": {"wl": {"speedup": 1.0}},
                            "wire": {"wl": {"ratio": 1.0}},
                        }
                    }
                }
            )
        )
        problems = check_bench.run_gate("smoke", tmp_path, thresholds_path=thresholds)
        assert len(problems) == 1
        assert "BENCH_wire.json does not exist" in problems[0]

    def test_invalid_trajectory_json(self, tmp_path):
        thresholds = tmp_path / "thresholds.json"
        (tmp_path / "BENCH_kernels.json").write_text("{truncated")
        write_thresholds(thresholds, "smoke", {"speedup": 1.0})
        problems = check_bench.run_gate("smoke", tmp_path, thresholds_path=thresholds)
        assert any("not valid JSON" in p for p in problems)

    def test_missing_thresholds_file(self, tmp_path):
        problems = check_bench.run_gate(
            "smoke", tmp_path, thresholds_path=tmp_path / "nope.json"
        )
        assert len(problems) == 1
        assert "does not exist" in problems[0]


class TestCli:
    def _args(self, tmp_path, summary):
        thresholds = tmp_path / "thresholds.json"
        write_trajectory(tmp_path / "BENCH_kernels.json", "smoke", summary)
        write_thresholds(thresholds, "smoke", {"speedup": 1.5})
        return ["--label", "smoke", "--dir", str(tmp_path), "--thresholds", str(thresholds)]

    def test_exit_zero_when_the_dir_passes(self, tmp_path, capsys):
        assert check_bench.main(self._args(tmp_path, {"speedup": 2.0})) == 0
        assert "bench gate ok" in capsys.readouterr().out

    def test_exit_one_on_a_regression(self, tmp_path, capsys):
        assert check_bench.main(self._args(tmp_path, {"speedup": 1.0})) == 1
        assert "violates" in capsys.readouterr().out

    def test_section_flags_are_gone(self, tmp_path):
        # One --dir replaces the per-section file flags.
        with pytest.raises(SystemExit):
            check_bench.main(["--kernels", str(tmp_path / "BENCH_kernels.json")])


class TestCommittedState:
    """The repo's own trajectories must satisfy the committed floors."""

    def test_full_gate_passes_on_committed_trajectories(self):
        assert check_bench.run_gate("full") == []

    def test_thresholds_file_well_formed(self):
        doc = json.loads(check_bench.DEFAULT_THRESHOLDS.read_text())
        assert set(doc["labels"]) == {"full", "smoke"}
        # Both labels gate the same sections, each with a committed file.
        assert set(doc["labels"]["full"]) == set(doc["labels"]["smoke"])
        for section in doc["labels"]["full"]:
            assert (check_bench.REPO_ROOT / f"BENCH_{section}.json").exists()
