"""Command line of the benchmark (entry point: ``bench/run.py``).

Three modes:

* ``--workload W --seed S --seconds T --trace 0|1`` — one workload in
  this process; the last line of standard output is one JSON object
  ``{"correct", "attempted", "failed", "metrics"}`` carrying every
  end-to-end metric (``--trace 0``) or every per-layer metric
  (``--trace 1``).  This is what the driver of ``BENCHMARK.json`` runs.
* no ``--workload`` — every workload, each in its own process (so
  ``peak_rss_mb`` is per workload), printed as one table; ``--trace``
  adds the traced pass.
* ``--check-repeat`` — the whole benchmark twice on the same code; fails
  if an end-to-end metric disagrees by more than its bound or an exact
  count differs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median

from jaccbench import spec
from jaccbench.stats import Probes, clock, peak_rss_mib, timed_section

BENCH_DIR = Path(__file__).resolve().parent.parent

#: Set-ups per untraced run: ``setup_s`` is their median, and each is
#: followed by its share of the timed rounds.
SETUPS = 3
#: Fewest timed rounds per run, whatever ``--seconds`` says.
MIN_ROUNDS = 3


def _workload_class(name: str):
    from jaccbench import allpairs, serve

    return {**allpairs.WORKLOADS, **serve.WORKLOADS}[name]


def _sizes(name: str, smoke: bool):
    from jaccbench import workloads

    return (workloads.SMOKE if smoke else workloads.FULL)[name]


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "threads": os.environ.get("OMP_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool = False,
    out_dir: Path | None = None,
    work_root: Path | None = None,
) -> dict:
    """One workload in this process; returns the full result record."""
    work_root = work_root or BENCH_DIR / ".work"
    workdir = work_root / f"{os.getpid()}-{name}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        t0 = clock()
        import repro  # noqa: F401  (the import is part of the set-up)
        import repro.genomics.pipeline  # noqa: F401
        import repro.service  # noqa: F401
        import_s = clock() - t0
        wl = _workload_class(name)(_sizes(name, smoke), workdir)
        if trace:
            return _traced(wl, seed, seconds, out_dir or BENCH_DIR / "out")
        return _untraced(wl, seed, seconds, import_s, 1 if smoke else SETUPS)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _untraced(wl, seed, seconds, import_s, setups) -> dict:
    """``setups`` x (set-up, then a share of the timed rounds).

    The timed windows are spread over the whole invocation on purpose:
    this box slows by ~10% for 10-20 s at a time, and a median over
    rounds from three separated windows sees a calm majority far more
    often than one contiguous window does.
    """
    setup_times, rounds = [], []
    for _ in range(setups):
        t0 = clock()
        wl.setup(seed)
        setup_times.append(clock() - t0)
        with timed_section():
            rounds += wl.timed_rounds(seconds / setups, MIN_ROUNDS // setups)
    rss = peak_rss_mib()
    attempted = sum(r.n_ops for r in rounds)
    failed = sum(r.failed for r in rounds) + wl.final_failures()
    named = wl.summarize(rounds)
    named["error_rate"] = failed / attempted
    applicable = {m.name for m in spec.WORKLOAD_METRICS if wl.name in m.where}
    return {
        "workload": wl.name,
        "digest": wl.digest,
        "attempted": attempted,
        "failed": failed,
        "samples": sum(
            len(r.latencies[wl.primary_kind]) for r in rounds
        ),
        "metrics": {
            "setup_s": import_s + median(setup_times),
            "op_p50_ms": median(r.p50_ms(wl.primary_kind) for r in rounds),
            "ops_per_s": median(r.n_ops / r.wall for r in rounds if r.wall),
            "peak_rss_mb": rss,
        },
        "named": {k: v for k, v in named.items() if k in applicable},
    }


def _traced(wl, seed, seconds, out_dir: Path) -> dict:
    from jaccbench.spans import SpanRecorder

    wl.setup(seed)
    rec, probes = SpanRecorder(), Probes()
    with timed_section():
        wl.trace(rec, probes, seconds)
    values = {n: probes.values.get(n, 0.0) for n in spec.PER_LAYER_NAMES}
    for m in spec.PER_LAYER:
        if wl.name not in m.where and values[m.name] is None:
            # A layer this workload bypasses has nothing to be missing.
            values[m.name] = 0.0
    trace_path = out_dir / f"trace-{wl.name}.json"
    rec.write(trace_path, workload=wl.name, seed=seed, digest=wl.digest)
    attempted = sum(1 for s in rec.spans if s.parent is None)
    return {
        "workload": wl.name,
        "digest": wl.digest,
        "attempted": max(attempted, 1),
        "failed": 0,
        "metrics": values,
        "reasons": {
            n: r for n, r in probes.reasons.items() if values.get(n) is None
        },
        "trace_file": str(trace_path),
    }


# ---- printing ----------------------------------------------------------------


def _fmt(value) -> str:
    return "null" if value is None else f"{value:.6g}"


def print_metrics(record: dict) -> None:
    """Every metric of one run by name, with its unit."""
    w = record["workload"]
    print(f"# workload {w} input_digest {record['digest']} "
          f"attempted {record['attempted']} failed {record['failed']}")
    if "samples" in record:
        print(f"# primary-operation samples {record['samples']}")
    for section in ("named", "metrics"):
        for name, value in record.get(section, {}).items():
            note = record.get("reasons", {}).get(name)
            tail = f"   # {note}" if note else ""
            print(f"{w} {name} {_fmt(value)} {spec.UNITS[name]}{tail}")
    if "trace_file" in record:
        print(f"# spans written to {record['trace_file']}")


def print_record(record: dict) -> None:
    """The metrics, then the driver's JSON line as the last line."""
    print_metrics(record)
    line = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            # The driver's contract wants a number for every metric: a
            # probe that degraded to null (reason printed above) reads 0.
            name: {
                "value": 0.0 if value is None else value,
                "unit": spec.UNITS[name],
            }
            for name, value in record["metrics"].items()
        },
    }
    print(json.dumps(line))


# ---- every workload, one process each ------------------------------------------


def _child(args, name: str, trace: bool) -> dict:
    cmd = [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(int(trace)), "--json-record",
    ]
    if args.smoke:
        cmd.append("--smoke")
    if args.out:
        cmd += ["--out", args.out]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"workload {name} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_all(args) -> dict:
    """``{workload: {"end_to_end": record, "trace": record | None}}``."""
    results = {}
    for name in spec.WORKLOADS:
        results[name] = {
            "end_to_end": _child(args, name, False),
            "trace": _child(args, name, True) if args.trace else None,
        }
    return results


def print_all(results: dict) -> bool:
    ok = True
    for name, pair in results.items():
        for record in (pair["end_to_end"], pair["trace"]):
            if record is None:
                continue
            ok &= record["failed"] == 0
            print_metrics(record)
    return ok


def _flat(results: dict) -> dict[tuple[str, str], float]:
    out = {}
    for name, pair in results.items():
        for record in (pair["end_to_end"], pair["trace"]):
            if record is None:
                continue
            for section in ("named", "metrics"):
                for metric, value in record.get(section, {}).items():
                    out[(name, metric)] = value
    return out


def check_repeat(args) -> bool:
    """Two full passes on the same code must agree within the bounds."""
    first, second = _flat(run_all(args)), _flat(run_all(args))
    bounds = {m.name: m.bound for m in spec.END_TO_END}
    ok = True
    for key in first:
        name, metric = key
        a, b = first[key], second.get(key)
        if metric in spec.EXACT_COUNTS:
            verdict = "exact" if a == b else "DIFFERS"
            ok &= a == b
            print(f"{name} {metric} {_fmt(a)} {_fmt(b)} {verdict}")
        elif metric in bounds:
            rel = abs(a - b) / abs(a) if a else float(b != 0)
            verdict = "ok" if rel <= bounds[metric] else "OUT OF BOUND"
            ok &= rel <= bounds[metric]
            print(f"{name} {metric} {_fmt(a)} {_fmt(b)} "
                  f"diff {100 * rel:.2f}% bound {100 * bounds[metric]:.0f}% "
                  f"{verdict}")
        elif metric == "error_rate":
            ok &= a == 0 and b == 0
            print(f"{name} {metric} {_fmt(a)} {_fmt(b)}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="how long one run measures")
    parser.add_argument("--trace", nargs="?", const=1, type=int, default=0,
                        choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes (the tier-1 smoke test)")
    parser.add_argument("--out", help="directory for trace-<workload>.json "
                        "(default bench/out)")
    parser.add_argument("--check-repeat", action="store_true")
    parser.add_argument("--json-record", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.check_repeat:
        args.trace = 1
        return 0 if check_repeat(args) else 1
    if args.workload is None:
        print(f"# environment {json.dumps(environment())}")
        return 0 if print_all(run_all(args)) else 1

    record = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        smoke=args.smoke, out_dir=Path(args.out) if args.out else None,
    )
    if args.json_record:
        print(json.dumps(record))
    else:
        print(f"# environment {json.dumps(environment())}")
        print_record(record)
    # A printed result exits 0 even when wrong: the JSON line says so
    # (``correct``), and the all-workloads modes turn it into exit 1.
    return 0
