"""The two serve workloads: ``serve_dense_reads`` and ``serve_sparse_churn``.

Timed through ``repro.service.SimilarityService`` only.  Every answer is
recorded during a round and checked afterwards, outside the timer,
against the dict-of-sets model of :mod:`jaccbench.reference`, which
follows the round's adds, removes and compacts.
"""

from __future__ import annotations

import gc
import shutil
from dataclasses import dataclass, replace
from pathlib import Path
from statistics import median

import numpy as np

from jaccbench import spec, workloads
from jaccbench.reference import SetModel
from jaccbench.spans import SpanRecorder
from jaccbench.stats import Probes, Round, clock, percentile, time_call

QUERY_KINDS = ("threshold", "topk", "batch1", "batch", "open_first")
MUTATION_KINDS = ("add", "remove")


@dataclass
class _Context:
    root: Path
    svc: object = None


class ServeWorkload:
    name: str
    #: The operation kind ``op_p50_ms`` is the latency of.
    primary_kind = "threshold"

    def __init__(self, sizes, workdir: Path):
        self.sizes = sizes
        self.workdir = workdir
        self.digest = ""
        self.build_seconds: list[float] = []
        self._scores: dict[tuple[int, int], np.ndarray] = {}

    # -- hooks: generate / config / warm_up / begin_round / round_ops
    # -- are the subclass's.

    # -- set-up ------------------------------------------------------------
    def create(self, root: Path, config=None):
        from repro.service import SimilarityService

        shutil.rmtree(root, ignore_errors=True)
        sizes = np.array([v.size for _, v in self.inputs.corpus])
        return SimilarityService.create(
            root, m=self.sizes.m, config=config or self.config(),
            size_hint=sizes,
        )

    def build(self, svc) -> None:
        corpus, step = self.inputs.corpus, self.sizes.add_step
        for i in range(0, len(corpus), step):
            svc.add(corpus[i:i + step])

    def open(self, root: Path, **overrides):
        from repro.service import SimilarityService

        executor = overrides.pop("executor", None)
        config = replace(self.config(), **overrides)
        return SimilarityService.open(root, config=config, executor=executor)

    def setup(self, seed: int) -> None:
        """Generate, bulk-build (timed as the build), reopen, warm up."""
        self.inputs = self.generate(seed)
        self.digest = self.inputs.digest
        self._scores.clear()
        self.root = self.workdir / "store"
        svc = self.create(self.root)
        self.build_seconds.append(time_call(self.build, svc)[0])
        self.bytes_per_value = (
            svc.stats()["total_bytes"] / self.inputs.n_values
        )
        self.warm_up()

    # -- one operation -------------------------------------------------------
    def _callable(self, ctx: _Context, kind: str, payload):
        pool, t, k = self.inputs.pool, self.sizes.threshold, self.sizes.top_k
        svc = ctx.svc
        if kind == "threshold":
            return lambda: svc.query(values=pool[payload], threshold=t)
        if kind == "topk":
            return lambda: svc.query(values=pool[payload], top_k=k)
        if kind == "batch1":
            return lambda: svc.query_batch([pool[payload]], threshold=t)
        if kind == "batch":
            queries = [pool[i] for i in payload]
            return lambda: svc.query_batch(queries, threshold=t)
        if kind == "open_first":
            def open_first():
                opened = self.open(ctx.root)
                return opened, opened.query(values=pool[payload], threshold=t)
            return open_first
        if kind == "add":
            return lambda: svc.add(payload)
        if kind == "remove":
            return lambda: svc.remove(payload)
        if kind == "compact":
            return lambda: svc.compact()
        raise ValueError(f"unknown operation kind {kind!r}")

    def play(self, ctx: _Context, ops, rec: SpanRecorder | None = None):
        """Replay ``ops`` closed-loop; returns ``(Round, answers)``."""
        log = Round()
        answers = []
        for kind, payload in ops:
            call = self._callable(ctx, kind, payload)
            try:
                if rec is None:
                    dt, answer = time_call(call)
                else:
                    with rec.operation(f"serve.{kind}") as span:
                        answer = call()
                    dt = span.duration
            except Exception as exc:  # a raising operation is a failed one
                dt, answer = None, exc
            if kind == "open_first" and dt is not None:
                opened, answer = answer
                if self.adopt_opened:
                    ctx.svc = opened
            log.add(kind, dt, len(payload) if kind == "batch" else 1)
            answers.append(answer)
        return log.close(), answers

    #: Whether the round continues on the service an ``open_first`` opened.
    adopt_opened = False

    # -- verification --------------------------------------------------------
    def _score(self, model: SetModel, state: int, idx: int) -> np.ndarray:
        # Every round replays the same operations from the same store, so
        # (mutations so far, pool index) identifies a reference answer.
        key = (state, idx)
        if key not in self._scores:
            self._scores[key] = model.scores(self.inputs.pool[idx])
        return self._scores[key]

    def verify_round(self, ops, answers) -> int:
        """Number of operations whose answer differs from the model."""
        model = SetModel(self.inputs.corpus)
        t, k = self.sizes.threshold, self.sizes.top_k
        state = bad = 0
        for (kind, payload), answer in zip(ops, answers):
            if isinstance(answer, Exception):
                continue
            if kind in ("threshold", "open_first"):
                ok = model.threshold_matches(
                    answer.matches, self._score(model, state, payload), t
                )
            elif kind == "topk":
                ok = model.topk_matches(
                    answer.matches, self._score(model, state, payload), k
                )
            elif kind in ("batch1", "batch"):
                idxs = [payload] if kind == "batch1" else payload
                ok = len(answer) == len(idxs) and all(
                    model.threshold_matches(
                        a.matches, self._score(model, state, i), t
                    )
                    for a, i in zip(answer, idxs)
                )
            else:
                if kind == "add":
                    model.add(payload)
                elif kind == "remove":
                    model.remove(payload)
                else:
                    model.compact()
                state += kind != "compact"
                ok = True
            bad += not ok
        return bad

    # -- the timed phase -------------------------------------------------------
    def timed_rounds(self, seconds: float, min_rounds: int):
        ops = self.round_ops()
        rounds = []
        deadline = clock() + seconds
        # Another round starts only while at least half of it still fits.
        while len(rounds) < min_rounds or (
            clock() + 0.5 * rounds[-1].wall < deadline
        ):
            gc.collect()  # between rounds, so peak RSS does not grow with them
            log, answers = self.play(self.begin_round(), ops)
            log.failed += self.verify_round(ops, answers)
            rounds.append(log)
        return rounds

    def final_failures(self) -> int:
        """Every answer was already checked after its round."""
        return 0

    def summarize(self, rounds: list[Round]) -> dict[str, float]:
        pooled = [x for r in rounds for x in r.latencies.get("threshold", ())]
        opens = [x for r in rounds for x in r.latencies.get("open_first", ())]
        batch = [x for r in rounds for x in r.latencies.get("batch", ())]
        n_batch = getattr(self.sizes, "batch", 0)
        return {
            "build_genomes_per_s": (
                len(self.inputs.corpus) / median(self.build_seconds)
            ),
            "open_first_query_ms": 1e3 * median(opens),
            "query_p50_ms": median(r.p50_ms("threshold") for r in rounds),
            "query_p95_ms": 1e3 * percentile(pooled, 95),
            "topk_p50_ms": median(r.p50_ms("topk") for r in rounds),
            "batch1_p50_ms": median(r.p50_ms("batch1") for r in rounds),
            "batch_qps": n_batch / median(batch) if batch else 0.0,
            "mutation_p50_ms": median(
                r.p50_ms(*MUTATION_KINDS) for r in rounds
            ),
            "churn_ops_per_s": median(r.n_ops / r.wall for r in rounds),
            "store_bytes_per_value": self.bytes_per_value,
        }

    # -- the traced run ----------------------------------------------------------
    def trace(self, rec: SpanRecorder, probes: Probes, seconds: float) -> None:
        from jaccbench import serve_probes

        ops = self.round_ops()
        plain, _ = self.play(self.begin_round(), ops)
        ctx = self.begin_round()
        traced, answers = self.play(ctx, ops, rec)
        probes.values["trace.overhead_pct"] = 100.0 * (
            traced.p50_ms("threshold") / plain.p50_ms("threshold") - 1.0
        )
        serve_probes.run_all(self, rec, probes, ctx, ops, answers)


class ServeDenseReads(ServeWorkload):
    name = spec.SERVE_DENSE_READS

    def generate(self, seed):
        return workloads.gen_serve_dense_reads(seed, self.sizes)

    def config(self):
        from repro import SimilarityConfig

        # Flat store, default config, cache off.
        return SimilarityConfig(query_cache_size=0)

    def warm_up(self) -> None:
        self.svc = self.open(self.root)
        seen: dict[str, int] = {}
        warm = []
        for kind, payload in self.inputs.ops:
            if kind == "batch":
                # Same code path as the full batch at a sixteenth the cost.
                warm.append((kind, payload[:4]))
            elif seen.setdefault(kind, 0) < 2:
                seen[kind] += 1
                warm.append((kind, payload))
        self.play(_Context(self.root, self.svc), warm)

    def begin_round(self) -> _Context:
        return _Context(self.root, self.svc)

    def round_ops(self):
        return self.inputs.ops


class ServeSparseChurn(ServeWorkload):
    name = spec.SERVE_SPARSE_CHURN
    adopt_opened = True

    def generate(self, seed):
        return workloads.gen_serve_sparse_churn(seed, self.sizes)

    def config(self):
        from repro import SimilarityConfig

        # The `index build` CLI defaults: adaptive codec, default cache.
        return SimilarityConfig(
            store_shards=self.sizes.bands, shard_band_policy="quantile",
            query_candidates="lsh_exact", wire_codec="adaptive",
        )

    def warm_up(self) -> None:
        queries = [op for op in self.round_ops() if op[0] in QUERY_KINDS]
        self.play(self.begin_round(), queries[:8])

    def begin_round(self) -> _Context:
        """A fresh copy of the built store; the round's first operation
        opens it."""
        target = self.workdir / "round"
        shutil.rmtree(target, ignore_errors=True)
        shutil.copytree(self.root, target)
        return _Context(target)

    def round_ops(self):
        return [("open_first", 0)] + self.inputs.ops


WORKLOADS = {
    spec.SERVE_DENSE_READS: ServeDenseReads,
    spec.SERVE_SPARSE_CHURN: ServeSparseChurn,
}
