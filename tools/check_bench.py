#!/usr/bin/env python3
"""Benchmark regression gate: compare BENCH_*.json against floors.

``benchmarks/harness.py`` appends one run per section to
``<dir>/BENCH_<section>.json``.  For every section the requested label
names in ``benchmarks/thresholds.json``, this gate reads that file, takes
the *latest* run with the label (``full`` for the committed trajectories
at the repo root, ``smoke`` for the CI harness run) and checks every
metric named in the thresholds against its committed floor:

* plain numeric thresholds are **floors** — the measured value must be
  greater than or equal (speedups, compression ratios);
* thresholds whose key ends in ``_max`` are **ceilings** for the metric
  without the suffix (error budgets);
* boolean thresholds must match exactly (bit-exactness flags).

A missing file, run label, workload, or metric is a failure: the gate
exists so a refactor cannot silently drop a benchmark section.

Run:  python tools/check_bench.py --label full   # committed trajectories
      python benchmarks/harness.py --smoke --out-dir /tmp/bench_smoke
      python tools/check_bench.py --label smoke --dir /tmp/bench_smoke
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

DEFAULT_THRESHOLDS = REPO_ROOT / "benchmarks" / "thresholds.json"


def latest_run(data: dict, label: str) -> dict | None:
    """The most recent run entry with the given label, if any."""
    runs = [r for r in data.get("runs", []) if r.get("label") == label]
    return runs[-1] if runs else None


def check_workload(
    section: str,
    workload: str,
    summary: dict,
    floors: dict,
    problems: list[str],
    verbose: bool = False,
) -> None:
    """Compare one workload summary against its thresholds."""
    for key, floor in floors.items():
        ceiling = key.endswith("_max")
        metric = key[:-4] if ceiling else key
        if metric not in summary:
            problems.append(f"{section}/{workload}: metric {metric!r} missing from the run summary")
            continue
        value = summary[metric]
        if isinstance(floor, bool):
            ok = value == floor
            relation = f"== {floor}"
        elif ceiling:
            ok = value <= floor
            relation = f"<= {floor}"
        else:
            ok = value >= floor
            relation = f">= {floor}"
        if not ok:
            problems.append(
                f"{section}/{workload}: {metric} = {value} "
                f"violates the committed floor ({relation})"
            )
        elif verbose:
            print(f"  ok: {section}/{workload}: {metric} = {value} {relation}")


def check_section(
    section: str,
    path: Path,
    label: str,
    floors_by_workload: dict,
    problems: list[str],
    verbose: bool = False,
) -> None:
    """Gate one trajectory file against one thresholds section."""
    if not path.exists():
        problems.append(f"{section}: trajectory file {path} does not exist")
        return
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        problems.append(f"{section}: {path} is not valid JSON ({exc})")
        return
    run = latest_run(data, label)
    if run is None:
        problems.append(f"{section}: {path} holds no run labelled {label!r}")
        return
    for workload, floors in floors_by_workload.items():
        wl = run.get("workloads", {}).get(workload)
        if wl is None or "summary" not in wl:
            problems.append(f"{section}/{workload}: workload missing from the latest {label!r} run")
            continue
        check_workload(section, workload, wl["summary"], floors, problems, verbose)


def run_gate(
    label: str,
    bench_dir: Path = REPO_ROOT,
    thresholds_path: Path = DEFAULT_THRESHOLDS,
    verbose: bool = False,
) -> list[str]:
    """Gate every section of ``label`` in ``bench_dir``; returns the regressions."""
    try:
        thresholds_doc = json.loads(thresholds_path.read_text())
    except FileNotFoundError:
        return [f"thresholds file {thresholds_path} does not exist"]
    except json.JSONDecodeError as exc:
        return [f"{thresholds_path} is not valid JSON ({exc})"]
    thresholds = thresholds_doc.get("labels", {}).get(label)
    if thresholds is None:
        return [f"{thresholds_path} commits no thresholds for label {label!r}"]
    problems: list[str] = []
    for section, floors_by_workload in thresholds.items():
        path = Path(bench_dir) / f"BENCH_{section}.json"
        check_section(section, path, label, floors_by_workload, problems, verbose)
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--label",
        choices=["full", "smoke"],
        default="full",
        help="which run label to gate (default: full, the committed runs)",
    )
    parser.add_argument(
        "--thresholds",
        type=Path,
        default=DEFAULT_THRESHOLDS,
        help=f"thresholds file (default {DEFAULT_THRESHOLDS})",
    )
    parser.add_argument(
        "--dir",
        type=Path,
        default=REPO_ROOT,
        help=f"directory holding the BENCH_<section>.json files (default {REPO_ROOT})",
    )
    parser.add_argument("--verbose", action="store_true", help="list every passing check")
    args = parser.parse_args(argv)
    problems = run_gate(args.label, args.dir, thresholds_path=args.thresholds, verbose=args.verbose)
    if problems:
        print(f"\n{len(problems)} benchmark regression(s) [{args.label}]:")
        for p in problems:
            print(f"- {p}")
        return 1
    print(f"bench gate ok: label={args.label}, dir={args.dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
