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
   band; the weighted-MinHash family estimates ``J_w`` directly.  The
   bottom-``s`` families read the snapshot's posting index (built once
   per store version), touching only the postings of the query's own
   hashes; the ledger still charges the row sweep, ``pairs x s``.
3. **verify** — exact scores of the survivors, for every measure and
   batch shape by one kernel: the query scattered into the rank space
   of the snapshot's filtered indicator matrix, the survivors' rank
   slices gathered from it and summed per candidate.

:func:`run_cascade` is the single implementation: a function of
``(plan, snapshot, requests)``.  The :class:`~repro.service.plan.QueryPlan`
says which stages run and which ledger kernel each one charges; the
:class:`~repro.service.store.StoreSnapshot` is the one store version
every read goes to (and the per-version memo of everything loaded from
it); the requests come from :func:`validate_request`.  The flat engine
and the sharded band router in :mod:`repro.service.query` both end here,
for one query or a batch, so single, batched and sharded answers are
equal by construction.
"""

from __future__ import annotations

import math
import numbers
import threading
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.core.sketch import estimate_rows, stack_payloads
from repro.semantics.measures import SimilarityMeasure, get_measure
from repro.semantics.weighted import coerce_counts
from repro.service.errors import QueryError
from repro.service.lsh import BandPlan, band_keys
from repro.service.plan import QueryPlan
from repro.service.store import LSH_FAMILY, StoreSnapshot, _int_array, sketch_row
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
    #: Sketch rows (by ``(family, size, bits, seed)``) and LSH band keys
    #: (by ``(plan, size, bits, seed)``) already built for this request:
    #: a sharded fan-out hands the same request to every consulted band,
    #: and bands racing on a threaded executor wait on ``_lock`` for the
    #: one build.
    _built: dict = field(default_factory=dict, compare=False, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, compare=False, repr=False)

    def _once(self, key: tuple, build) -> np.ndarray:
        with self._lock:
            if key not in self._built:
                self._built[key] = build()
            return self._built[key]

    def sketch_row(self, family: str, size: int, bits: int, seed: int) -> np.ndarray:
        """This request's row of ``family``'s kernel block
        (:func:`repro.service.store.sketch_row`), built once."""
        return self._once(
            (family, size, bits, seed),
            lambda: sketch_row(family, self.vals, self.counts, size, bits, seed),
        )

    def band_keys(self, plan: BandPlan, size: int, bits: int, seed: int) -> np.ndarray:
        """This request's bucket keys under ``plan``
        (:func:`repro.service.lsh.band_keys` of its :data:`LSH_FAMILY`
        row), hashed once: the bands of a sharded store share one plan."""
        fingerprints = self.sketch_row(LSH_FAMILY, size, bits, seed)
        return self._once((plan, size, bits, seed), lambda: band_keys(fingerprints, plan, seed))


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
    if vals.size and (vals[0] < 0 or vals[-1] >= m):
        raise QueryError(f"query values outside [0, {m})")
    if threshold is None and top_k is None:
        raise QueryError("pass threshold, top_k, or both")
    # A bool is an int to Python; as a cutoff or a count it is a mistake.
    if threshold is not None:
        if isinstance(threshold, bool) or not isinstance(threshold, numbers.Real):
            raise QueryError(f"threshold must be a real number, got {threshold!r}")
        if not 0.0 <= threshold <= 1.0:
            raise QueryError(f"threshold must be in [0, 1], got {threshold}")
    if top_k is not None:
        if isinstance(top_k, bool) or not isinstance(top_k, numbers.Integral):
            raise QueryError(f"top_k must be an integer, got {top_k!r}")
        if top_k <= 0:
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
    sims = _verify(plan, snapshot, measure, requests, cands, serving)
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
        keys = req.band_keys(
            table.plan, snapshot.sketch_size, snapshot.sketch_bits, snapshot.sketch_seed
        )
        probed, retrieved = table.probe_keys(keys)
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
            q_size = int(req.vals.size)
            est = snapshot.sketch_estimates(
                family, req.sketch_row(family, size, bits, seed), q_size, cand
            )
            pairs += int(cand.size)
            s_lo, s_hi = measure.sketch_score_bounds(est, plan.error_bound, q_size, sizes[cand])
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


def _verify(
    plan, snapshot, measure: SimilarityMeasure, requests, cands, serving
) -> list[np.ndarray]:
    """Exact scores of the survivors, one rank-space gather per request.

    The snapshot's :class:`~repro.service.store.RankSpace` yields the
    exact intersections (``Σ min`` of the abundances for weighted
    Jaccard), which the measure scores from the query's and the
    candidates' extents — ``Σ max = mass_q + mass_c - Σ min``.  The
    ledger pays the query's scatter plus the candidates' gathered
    values per request, and the rank-space build once per store version.
    """
    extents = snapshot.masses() if measure.weighted else snapshot.sizes()
    sizes = snapshot.sizes()
    sims = []
    flops = 0.0
    for req, cand in zip(requests, cands):
        if not cand.size:
            sims.append(np.empty(0, dtype=np.float64))
            continue
        space, built = snapshot.rank_space()
        if built:
            flops += space.build_flops
        inter = space.intersections(req.vals, req.counts if measure.weighted else None, cand)
        q_extent = measure.extent(req.vals, req.counts)
        sim = measure.score_from_stats(inter, q_extent, extents[cand])
        sims.append(np.asarray(sim, dtype=np.float64))
        flops += float(req.vals.size + sizes[cand].sum())
    if flops:
        serving.charge_compute(flops, kernel=plan.kernel("verify"))
    return sims


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
    itself gets the same estimates from
    :meth:`~repro.service.store.StoreSnapshot.sketch_estimates`.
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
