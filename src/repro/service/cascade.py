"""The query cascade: one executor behind every query path.

A threshold / top-``k`` query is answered by a cascade whose stages
discard candidates strictly before the expensive exact verification
(the all-pairs-threshold literature — Özkural & Aykanat, Bayardo et
al. — frames each as a batch operation, one query being the degenerate
batch):

0. **lsh** — the banded LSH bucket probe (sub-linear).  Under
   ``candidates="lsh"`` the probe narrows the candidates (approximate,
   with the analytic recall bound); under ``"lsh_exact"`` it is only
   measured and the full scan proceeds — exact, for recall auditing.
1. **window** — the measure's exact extent bound (never wrong):
   ``J(A, B) >= t  =>  t |A| <= |B| <= |A| / t`` for Jaccard, one-sided
   for containment, over total mass for weighted Jaccard.  A scan
   searches the snapshot's extent-sorted order (sorted once per store
   version, two binary searches per request); an LSH-narrowed candidate
   set is masked directly.
2. **sketch** — the conservative prefilter: a stored-sketch estimate
   with an analytic 95% bound prunes a candidate only when its upper
   score bound is below the threshold (or below the ``k``-th best lower
   bound).  Plain families estimate ``J`` and the measure transforms the
   band; the weighted-MinHash family estimates ``J_w`` directly.
3. **verify** — exact scores of the survivors, by one of two kernels
   picked from the batch itself: per-pair sorted intersections (the
   only kernel weighted Jaccard can use, and the cheaper one when a
   single request is computed) or one rectangular popcount block over
   the merged survivors of a multi-request set-measure batch.

:func:`run_cascade` is the single implementation: a function of
``(plan, snapshot, requests)``.  The :class:`~repro.service.plan.QueryPlan`
says which stages run and which ledger kernel each one charges; the
:class:`~repro.service.store.StoreSnapshot` is the one store version
every read goes to (and the per-version memo of everything loaded from
it); the requests come from :func:`validate_request`.  The flat engine,
the batcher and the sharded band router in :mod:`repro.service.query` /
:mod:`repro.service.batch` all end here, so serial, batched and sharded
answers are equal by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.baselines.exact import intersection_size_sorted
from repro.core.sketch import estimate_rows, stack_payloads
from repro.semantics.measures import SimilarityMeasure, get_measure
from repro.semantics.weighted import coerce_counts
from repro.service.errors import QueryError
from repro.service.plan import QueryPlan
from repro.service.store import LSH_FAMILY, StoreSnapshot, _int_array, sketch_row
from repro.sparse.bitmatrix import BitMatrix
from repro.sparse.spgemm import gram_popcount_blocked
from repro.util.arrays import sorted_unique

#: Tolerance of the threshold comparisons: protects the exact-equality
#: guarantee against float rounding in ``t * |A|``-style products, far
#: below any meaningful similarity difference.
_EPS = 1e-12


# ---- requests -------------------------------------------------------------


@dataclass(frozen=True)
class Request:
    """One validated query: sorted unique values plus its parameters."""

    vals: np.ndarray
    counts: np.ndarray | None = None
    threshold: float | None = None
    top_k: int | None = None
    exclude_name: str | None = None
    #: Sketch rows already built for this request, by ``(family, size,
    #: bits, seed)``: a sharded fan-out hands the same request to every
    #: consulted band.  A row is a pure function of the request, so
    #: bands racing on a threaded executor at worst build it twice.
    _rows: dict = field(default_factory=dict, compare=False, repr=False)

    def sketch_row(self, family: str, size: int, bits: int, seed: int) -> np.ndarray:
        """This request's row of ``family``'s kernel block
        (:func:`repro.service.store.sketch_row`), built once."""
        key = (family, size, bits, seed)
        if key not in self._rows:
            self._rows[key] = sketch_row(family, self.vals, self.counts, size, bits, seed)
        return self._rows[key]


def validate_request(
    m: int,
    values,
    threshold: float | None = None,
    top_k: int | None = None,
    counts=None,
    exclude_name: str | None = None,
) -> Request:
    """Coerce and check one query against an attribute space of size ``m``.

    The one place a query is validated, whichever entry point it came
    through; raises :class:`~repro.service.errors.QueryError`.
    """
    vals = _int_array(values, "query values", QueryError)
    if counts is not None:
        counts = _int_array(counts, "query counts", QueryError)
        try:
            vals, counts = coerce_counts(vals, counts)
        except ValueError as exc:  # misaligned or non-positive counts
            raise QueryError(f"query {exc}") from None
    else:
        vals = sorted_unique(vals)
        # A request can wait in the batcher's admission queue: it owns
        # its values, so an already-clean caller array is copied.
        if isinstance(values, np.ndarray) and np.may_share_memory(vals, values):
            vals = vals.copy()
    if vals.size and (vals[0] < 0 or vals[-1] >= m):
        raise QueryError(f"query values outside [0, {m})")
    if threshold is None and top_k is None:
        raise QueryError("pass threshold, top_k, or both")
    if threshold is not None and not 0.0 <= threshold <= 1.0:
        raise QueryError(f"threshold must be in [0, 1], got {threshold}")
    if top_k is not None and top_k <= 0:
        raise QueryError(f"top_k must be positive, got {top_k}")
    return Request(vals, counts, threshold, top_k, exclude_name)


# ---- the executor ---------------------------------------------------------


class Outcome(NamedTuple):
    """What the cascade computed for one request.

    ``positions`` / ``sims`` are the matches in answer order (descending
    score, ties by ascending store position); the ``n_*`` counters are
    the funnel (``n_after_lsh`` is ``None`` when no probe ran).
    """

    positions: np.ndarray
    sims: np.ndarray
    n_candidates: int
    n_after_lsh: int | None
    n_after_size: int
    n_after_sketch: int


def run_cascade(
    plan: QueryPlan, snapshot: StoreSnapshot, requests: list[Request], serving
) -> list[Outcome]:
    """Run ``plan`` for ``requests`` against one store version.

    ``serving`` is the communicator (one serving rank) whose ledger the
    stages charge, each under the kernel label the plan carries.  Every
    read goes to ``snapshot``, so the answers are exact for
    ``snapshot.version`` whatever the live store does meanwhile.
    """
    measure = get_measure(plan.measure)
    excluded = [snapshot.positions.get(req.exclude_name, -1) for req in requests]
    probes = _probe_lsh(plan, snapshot, requests, excluded, serving)
    cands = _apply_window(plan, snapshot, measure, requests, excluded, probes, serving)
    n_after_size = [int(cand.size) for cand in cands]
    cands = _prune_by_sketch(plan, snapshot, measure, requests, cands, serving)
    if measure.weighted or len(requests) == 1:
        sims = _verify_pairs(plan, snapshot, measure, requests, cands, serving)
    else:
        sims = _verify_block(plan, snapshot, measure, requests, cands, serving)
    outcomes = []
    for i, (req, cand, sim) in enumerate(zip(requests, cands, sims)):
        n_after_sketch = int(cand.size)
        if req.threshold is not None:
            keep = sim >= req.threshold
            cand, sim = cand[keep], sim[keep]
        order = np.lexsort((cand, -sim))
        cand, sim = cand[order], sim[order]
        if req.top_k is not None:
            cand, sim = cand[: req.top_k], sim[: req.top_k]
        outcomes.append(
            Outcome(
                positions=cand,
                sims=sim,
                n_candidates=snapshot.n_genomes - (excluded[i] >= 0),
                n_after_lsh=None if probes[i] is None else int(probes[i].size),
                n_after_size=n_after_size[i],
                n_after_sketch=n_after_sketch,
            )
        )
    return outcomes


# ---- stages ---------------------------------------------------------------


def _probe_lsh(plan, snapshot, requests, excluded, serving) -> list[np.ndarray | None]:
    """Per request, the probed positions (self-match dropped), or ``None``
    when the plan has no ``lsh`` stage or there is nothing to probe."""
    probes: list[np.ndarray | None] = [None] * len(requests)
    if plan.stage("lsh") is None:
        return probes
    table = snapshot.lsh
    flops = 0.0
    for i, (req, excl) in enumerate(zip(requests, excluded)):
        if snapshot.n_genomes - (excl >= 0) == 0:
            continue
        fingerprints = req.sketch_row(
            LSH_FAMILY, snapshot.sketch_size, snapshot.sketch_bits, snapshot.sketch_seed
        )
        probed, retrieved = table.probe(fingerprints)
        flops += table.probe_cost(retrieved)
        probes[i] = probed[probed != excl]
    if flops:
        serving.charge_compute(flops, kernel=plan.kernel("lsh"))
    return probes


def _apply_window(
    plan, snapshot, measure: SimilarityMeasure, requests, excluded, probes, serving
) -> list[np.ndarray]:
    """Per request, the sorted candidate positions inside its extent window.

    The extent is the measure's: support sizes for the set measures,
    total masses for weighted Jaccard.  A request without a threshold
    (or a plan without a ``window`` stage) keeps every candidate.
    """
    n = snapshot.n_genomes
    log_n = max(math.log2(max(n, 2)), 1.0)
    extents = snapshot.masses() if measure.weighted else snapshot.sizes()
    windowed = plan.stage("window") is not None and n > 0
    cands = []
    flops = 0.0
    for req, excl, probed in zip(requests, excluded, probes):
        window = None
        if windowed and req.threshold is not None:
            window = measure.window(measure.extent(req.vals, req.counts), req.threshold)
        if plan.candidates == "lsh" and probed is not None:
            cand = probed
            if window is not None and cand.size:
                flops += float(cand.size)
                ext = extents[cand]
                cand = cand[(ext >= window[0]) & (ext <= window[1])]
        elif window is not None:
            order, sorted_ext, built = snapshot.extent_order(measure.weighted)
            # The sort is paid once per store version, then every
            # request pays two binary searches.
            flops += (n * log_n if built else 0.0) + 2.0 * log_n
            left = np.searchsorted(sorted_ext, window[0], side="left")
            right = np.searchsorted(sorted_ext, window[1], side="right")
            cand = np.sort(order[left:right])
            cand = cand[cand != excl]
        else:
            cand = np.arange(n, dtype=np.int64)
            cand = cand[cand != excl]
        cands.append(cand.astype(np.int64, copy=False))
    if flops:
        serving.charge_compute(flops, kernel=plan.kernel("window"))
    return cands


def _prune_by_sketch(
    plan, snapshot, measure: SimilarityMeasure, requests, cands, serving
) -> list[np.ndarray]:
    """Per request, the candidates the stored sketches cannot rule out."""
    family = plan.family
    if family is None:
        return cands
    sizes = snapshot.sizes()
    size, bits, seed = snapshot.sketch_size, snapshot.sketch_bits, snapshot.sketch_seed
    survivors = []
    pairs = 0
    for req, cand in zip(requests, cands):
        if cand.size:
            rows, lengths = snapshot.family_payloads(family)
            est = estimate_rows(
                family,
                req.sketch_row(family, size, bits, seed),
                int(req.vals.size),
                rows[cand],
                sizes[cand],
                lengths[cand],
                bits,
            )
            pairs += int(cand.size)
            s_lo, s_hi = measure.sketch_score_bounds(
                est, plan.error_bound, int(req.vals.size), sizes[cand]
            )
            if req.threshold is not None:
                keep = s_hi >= req.threshold - _EPS
                cand, s_lo, s_hi = cand[keep], s_lo[keep], s_hi[keep]
            if req.top_k is not None and cand.size > req.top_k:
                kth = np.partition(s_lo, -req.top_k)[-req.top_k]
                cand = cand[s_hi >= kth - _EPS]
        survivors.append(cand)
    if pairs:
        serving.charge_compute(float(pairs) * snapshot.sketch_size, kernel=plan.kernel("sketch"))
    return survivors


def _verify_pairs(
    plan, snapshot, measure: SimilarityMeasure, requests, cands, serving
) -> list[np.ndarray]:
    """Exact scores, one sorted intersection per (request, survivor) pair.

    Weighted Jaccard needs min/max mass accumulations over aligned
    counts, which the popcount block cannot produce; the set measures
    score the exact intersection counts through the same
    ``score_from_stats`` the block kernel uses.
    """
    sizes = snapshot.sizes()
    sims = []
    flops = 0.0
    for req, cand in zip(requests, cands):
        names = [snapshot.names[int(i)] for i in cand]
        if measure.weighted:
            q_counts = req.counts
            if q_counts is None:
                q_counts = np.ones(req.vals.size, dtype=np.int64)
            sim = np.array(
                [
                    measure.exact_pair(
                        req.vals, snapshot.load_values(g), q_counts, snapshot.load_counts(g)
                    )
                    for g in names
                ],
                dtype=np.float64,
            )
        else:
            inter = np.array(
                [intersection_size_sorted(req.vals, snapshot.load_values(g)) for g in names],
                dtype=np.int64,
            )
            sim = np.asarray(
                measure.score_from_stats(inter, int(req.vals.size), sizes[cand]),
                dtype=np.float64,
            )
        sims.append(sim)
        if cand.size:
            flops += float(req.vals.size * cand.size + sizes[cand].sum())
    if flops:
        serving.charge_compute(flops, kernel=plan.kernel("verify"))
    return sims


def _verify_block(
    plan, snapshot, measure: SimilarityMeasure, requests, cands, serving
) -> list[np.ndarray]:
    """Exact scores via one rectangular popcount block (set measures).

    One query column per request against the union of every request's
    survivors, over a bit universe restricted to the union of the
    *query* values — candidate bits outside it cannot contribute to an
    intersection, so the word-row count tracks the queries, not ``m``
    (a hypersparse store packs into a few word rows, not millions).
    """
    sizes = snapshot.sizes()
    queries = [req.vals for req in requests]
    cand_union = sorted_unique(np.concatenate(cands))
    universe = sorted_unique(np.concatenate(queries))
    nq, nc, w = len(queries), int(cand_union.size), int(universe.size)
    if nc and w:
        q_rows = np.concatenate([np.searchsorted(universe, v) for v in queries])
        q_cols = np.concatenate(
            [np.full(v.size, col, dtype=np.int64) for col, v in enumerate(queries)]
        )
        c_rows, c_cols = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
        mapped = 0
        for col, c in enumerate(cand_union):
            cvals = snapshot.load_values(snapshot.names[int(c)])
            mapped += int(cvals.size)
            pos = np.searchsorted(universe, cvals)
            hit = universe[np.minimum(pos, w - 1)] == cvals
            c_rows.append(pos[hit])
            c_cols.append(np.full(int(hit.sum()), col, dtype=np.int64))
        q_mat = BitMatrix.from_coo(q_rows, q_cols, w, nq)
        c_mat = BitMatrix.from_coo(np.concatenate(c_rows), np.concatenate(c_cols), w, nc)
        kr = gram_popcount_blocked(q_mat, c_mat)
        inter = kr.value
        # Modelled cost: like spgemm's gram_popcount, a tuned
        # implementation picks between the dense word sweep (w * pairs,
        # what gram_popcount_blocked reports) and a Gustavson-style
        # input-sparse kernel touching only word pairs where both
        # operands are nonzero — decisive in the hypersparse regime,
        # where a candidate's universe-restricted column is almost
        # entirely empty words.  Packing is one pass over each
        # operand's values, paid once per union candidate rather than
        # once per (query, candidate) pair — where batching wins.
        cx = (q_mat.words != 0).sum(axis=1, dtype=np.float64)
        cy = (c_mat.words != 0).sum(axis=1, dtype=np.float64)
        rect_flops = min(kr.flops, 2.0 * float((cx * cy).sum()))
        serving.charge_compute(
            rect_flops + float(mapped + sum(v.size for v in queries)),
            kernel=plan.kernel("verify"),
        )
    else:
        inter = np.zeros((nq, max(nc, 1)), dtype=np.int64)
    return [
        np.asarray(
            measure.score_from_stats(
                inter[row, np.searchsorted(cand_union, cand)], int(req.vals.size), sizes[cand]
            ),
            dtype=np.float64,
        )
        for row, (req, cand) in enumerate(zip(requests, cands))
    ]


# ---- sketch estimation ----------------------------------------------------


def sketch_estimates(
    vals: np.ndarray,
    cand: np.ndarray,
    sizes: np.ndarray,
    payloads: list[np.ndarray],
    family: str,
    sketch_size: int,
    sketch_bits: int,
    sketch_seed: int,
) -> np.ndarray:
    """Per-candidate J estimates of one query from a *list* of stored payloads.

    ``payloads`` is indexed by store position (one stored payload per
    live genome, as :meth:`IndexStore.load_sketch_payload` returns
    them); ``cand`` selects the candidates to estimate.  The cascade
    itself runs the same row kernel on the snapshot's stacked block.
    """
    rows, lengths = stack_payloads(
        family, [payloads[int(i)] for i in cand], sketch_size, sketch_bits
    )
    return estimate_rows(
        family,
        sketch_row(family, vals, None, sketch_size, sketch_bits, sketch_seed),
        int(vals.size),
        rows,
        sizes[cand],
        lengths,
        sketch_bits,
    )
