"""Explicit query plans: the stage pipeline every query path compiles to.

A :class:`QueryPlan` reifies the cascade (lsh -> window -> sketch ->
verify) as pure data: which stages run, which sketch family estimates,
what the analytic bound is, and which ledger kernel each stage
charges.  :func:`compile_plan` builds it from a config and a store;
the one executor (:func:`repro.service.cascade.run_cascade`) owns the
loop and runs whatever plan it is handed — for one query or for many,
which are more columns of the same product and charge the same
``query:lsh`` / ``query:size`` / ``query:sketch`` / ``query:verify``
kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import QUERY_CANDIDATES, QUERY_PREFILTERS
from repro.core.sketch import SKETCH_ESTIMATORS, sketch_error_bound
from repro.semantics.measures import get_measure
from repro.semantics.wminhash import WEIGHTED_MINHASH_FAMILY
from repro.service.errors import ConfigError
from repro.service.store import LSH_FAMILY, StoreError

#: Stage names in execution order (not every plan runs every stage).
PLAN_STAGES = ("lsh", "window", "sketch", "verify")

#: The ledger kernel label each stage charges (kept stable so the
#: committed ``BENCH_query.json`` trajectory stays comparable).
STAGE_KERNELS = {
    "lsh": "query:lsh",
    "window": "query:size",
    "sketch": "query:sketch",
    "verify": "query:verify",
}


@dataclass(frozen=True)
class PlanStage:
    """One cascade stage and the ledger kernel it charges."""

    name: str
    kernel: str


@dataclass(frozen=True)
class QueryPlan:
    """The compiled stage pipeline of a query batch (one query included).

    ``candidates`` names the candidate generator (a
    :data:`~repro.core.config.QUERY_CANDIDATES` value): plans compiled
    with ``"lsh"`` / ``"lsh_exact"`` open with an ``lsh`` stage that
    probes the store's banded bucket tables before the window runs.

    ``fanout`` is the shard count of the store the plan was compiled
    against (1 for a flat store): a plan with ``fanout > 1`` runs its
    ``window`` stage first as a *band selector* (which shards does the
    size-ratio window overlap?) and then executes the remaining cascade
    once per selected shard.

    ``measure`` names the similarity semantics the plan scores under (a
    :data:`~repro.core.config.SIMILARITY_MEASURES` value).  The measure
    owns the window arithmetic, the sketch score bounds, and the exact
    verification formula, so two plans differing only in ``measure``
    run the same stage *names* with different stage *math*.
    """

    prefilter: str
    family: str | None
    error_bound: float | None
    stages: tuple[PlanStage, ...]
    candidates: str = "scan"
    fanout: int = 1
    measure: str = "jaccard"

    def stage(self, name: str) -> PlanStage | None:
        """The stage record for ``name``, or ``None`` if it is not run."""
        for st in self.stages:
            if st.name == name:
                return st
        return None

    def kernel(self, name: str) -> str:
        """The ledger kernel label of stage ``name`` (must be planned)."""
        st = self.stage(name)
        if st is None:
            raise KeyError(f"plan has no stage {name!r}")
        return st.kernel

    @property
    def estimator(self) -> str:
        """What ``QueryResult.estimator`` reports for this plan."""
        return self.family if self.family is not None else "exact"

    @property
    def bound_type(self) -> str:
        """The pruning-bound shape of the plan's measure.

        ``"symmetric_window"`` (jaccard, cosine), ``"one_sided_window"``
        (containment), or ``"mass_window"`` (weighted_jaccard).
        """
        return get_measure(self.measure).bound_type

    def describe(self) -> str:
        """A one-line human rendering of the stage pipeline.

        >>> from repro.service.plan import STAGE_KERNELS, PlanStage, QueryPlan
        >>> plan = QueryPlan(
        ...     prefilter="size", family=None, error_bound=None,
        ...     stages=(
        ...         PlanStage("window", STAGE_KERNELS["window"]),
        ...         PlanStage("verify", STAGE_KERNELS["verify"]),
        ...     ),
        ... )
        >>> plan.describe()
        'window[query:size] -> verify[query:verify]'
        """
        parts = []
        for st in self.stages:
            label = st.name
            if st.name == "lsh" and self.candidates == "lsh_exact":
                label = "lsh:audit"
            parts.append(f"{label}[{st.kernel}]")
        described = " -> ".join(parts)
        if self.measure != "jaccard":
            described = f"[{self.measure}] {described}"
        if self.fanout > 1:
            described += f" (x{self.fanout} shard fan-out)"
        return described


def resolve_family(estimator: str, families: tuple[str, ...]) -> str:
    """The stored sketch family an ``estimator`` config selects.

    A sketch-estimator name must be stored; ``"exact"`` (or any
    non-sketch estimator) falls back to the store's first family.
    """
    if estimator in SKETCH_ESTIMATORS:
        if estimator not in families:
            raise StoreError(
                f"estimator {estimator!r} is not stored in this index "
                f"(stored families: {families})"
            )
        return estimator
    return families[0]


def compile_plan(config, store, shards: int = 1) -> QueryPlan:
    """Compile a config + store (or snapshot) into a :class:`QueryPlan`.

    ``store`` only needs ``families`` / ``sketch_size`` / ``sketch_bits``
    / ``sketch_seed`` — fixed at store creation, so a plan compiled
    against the live store is valid for any snapshot of it.

    Compilation is where sketch-consuming plans are validated: LSH
    candidate generation requires the stored ``bbit_minhash`` family,
    and any plan that consults stored sketches (the cascade prefilter
    or an LSH probe) rejects a config whose ``sketch_seed`` differs
    from the seed the store's sketches were built under — estimates
    across seeds are meaningless and would silently violate their
    analytic bounds.
    """
    prefilter = config.query_prefilter
    if prefilter not in QUERY_PREFILTERS:
        raise ConfigError(
            f"query_prefilter must be one of {QUERY_PREFILTERS}, "
            f"got {prefilter!r}"
        )
    candidates = config.query_candidates
    if candidates not in QUERY_CANDIDATES:
        raise ConfigError(
            f"query_candidates must be one of {QUERY_CANDIDATES}, "
            f"got {candidates!r}"
        )
    if candidates != "scan" and LSH_FAMILY not in store.families:
        raise StoreError(
            f"query_candidates={candidates!r} needs the {LSH_FAMILY!r} "
            f"sketch family, but the store holds {tuple(store.families)}"
        )
    measure = config.similarity
    if candidates == "lsh" and measure != "jaccard":
        raise ConfigError(
            "query_candidates='lsh' trusts the banded probe's recall, "
            "which is calibrated for plain Jaccard collisions only; use "
            "query_candidates='lsh_exact' (audited probe) or 'scan' with "
            f"similarity={measure!r}"
        )
    wants_sketch = prefilter == "cascade"
    if wants_sketch and measure == "weighted_jaccard":
        # The plain families estimate unweighted J, which bounds nothing
        # about J_w (no ordering either way) — a weighted cascade has a
        # sketch stage only when the store holds the weighted-MinHash
        # family.
        wants_sketch = WEIGHTED_MINHASH_FAMILY in store.families
    uses_sketches = wants_sketch or candidates != "scan"
    if uses_sketches and config.sketch_seed != store.sketch_seed:
        raise StoreError(
            f"sketch_seed mismatch: the config says {config.sketch_seed} "
            f"but the store's sketches were built under seed "
            f"{store.sketch_seed} — estimates against them would violate "
            f"their error bounds.  Re-add the genomes under the new seed "
            f"or query with sketch_seed={store.sketch_seed}."
        )
    stages: list[PlanStage] = []
    if candidates != "scan":
        stages.append(PlanStage("lsh", STAGE_KERNELS["lsh"]))
    if prefilter in ("size", "cascade"):
        stages.append(PlanStage("window", STAGE_KERNELS["window"]))
    family: str | None = None
    bound: float | None = None
    if wants_sketch:
        if measure == "weighted_jaccard":
            family = WEIGHTED_MINHASH_FAMILY
        else:
            plain = tuple(
                f for f in store.families if f != WEIGHTED_MINHASH_FAMILY
            )
            if not plain:
                raise StoreError(
                    "the cascade prefilter needs a plain sketch family, "
                    f"but the store holds only {tuple(store.families)}"
                )
            family = resolve_family(config.estimator, plain)
        bound = sketch_error_bound(
            family, store.sketch_size, store.sketch_bits
        )
        stages.append(PlanStage("sketch", STAGE_KERNELS["sketch"]))
    stages.append(PlanStage("verify", STAGE_KERNELS["verify"]))
    return QueryPlan(
        prefilter=prefilter,
        family=family,
        error_bound=bound,
        stages=tuple(stages),
        candidates=candidates,
        fanout=int(shards),
        measure=measure,
    )
