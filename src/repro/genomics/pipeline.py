"""GenomeAtScale: the end-to-end tool (paper §IV and Fig. 1).

Connects the genomics front end (FASTA -> cleaned canonical k-mer sets
-> sorted numeric sample files) to the SimilarityAtScale back end
(batched distributed Jaccard) and the downstream analyses (distance
export, phylogenies).

The index methods (:meth:`GenomeAtScale.build_index`,
:meth:`~GenomeAtScale.extend_index`, :meth:`~GenomeAtScale.query_index`)
bridge the same front end to the persistent serving layer
(:mod:`repro.service`): build once, add genomes incrementally, answer
threshold/top-k queries without recomputing all pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.core.config import SimilarityConfig
from repro.core.indicator import IndicatorSource, SetSource
from repro.core.result import SimilarityResult
from repro.core.similarity import SimilarityAtScale
from repro.genomics.counting import (
    CleaningReport,
    clean_sample,
    clean_sample_counts,
)
from repro.genomics.fasta import read_fasta, sample_name
from repro.genomics.kmer import kmer_space_size
from repro.genomics.phylogeny import jaccard_tree
from repro.genomics.samples import SampleStore
from repro.runtime.engine import Machine

if TYPE_CHECKING:
    import networkx as nx


@dataclass
class GenomeAtScaleResult:
    """Genetic distances plus everything needed to interpret them."""

    names: list[str]
    k: int
    similarity_result: SimilarityResult
    cleaning: list[CleaningReport]

    @property
    def similarity(self) -> np.ndarray:
        return self.similarity_result.similarity

    @property
    def distance(self) -> np.ndarray:
        return self.similarity_result.distance

    @property
    def n_samples(self) -> int:
        return len(self.names)

    def tree(self, method: str = "nj") -> nx.Graph:
        """Phylogeny from the Jaccard distances (Fig. 1 part ¼/Ł)."""
        return jaccard_tree(self.distance, self.names, method=method)

    def to_phylip(self, path: str | Path) -> None:
        """Write the distance matrix in PHYLIP format for external tools."""
        d = self.distance
        lines = [f"{self.n_samples}"]
        for name, row in zip(self.names, d):
            label = name[:10].ljust(10)
            lines.append(label + " ".join(f"{v:.6f}" for v in row))
        Path(path).write_text("\n".join(lines) + "\n")

    def most_similar_pairs(self, top: int = 10) -> list[tuple[str, str, float]]:
        """Highest-similarity sample pairs (similar-sample discovery, Ł)."""
        s = self.similarity
        n = self.n_samples
        pairs = [
            (s[i, j], i, j) for i in range(n) for j in range(i + 1, n)
        ]
        pairs.sort(reverse=True)
        return [
            (self.names[i], self.names[j], float(v))
            for v, i, j in pairs[:top]
        ]


class GenomeAtScale:
    """Distributed genetic-distance tool.

    Parameters
    ----------
    machine:
        The simulated machine to run the distributed phase on.
    config:
        SimilarityAtScale tuning knobs.
    k:
        k-mer length; must be odd (§V-A2).  Paper values: 19 (Kingsford),
        31 (BIGSI).
    canonical:
        Use canonical (strand-independent) k-mers.
    min_count:
        k-mer abundance threshold for noise cleaning.  ``None`` applies
        the size-based Kingsford rule; 1 keeps everything (appropriate
        for assembled genomes).
    """

    def __init__(
        self,
        machine: Machine | None = None,
        config: SimilarityConfig | None = None,
        k: int = 31,
        canonical: bool = True,
        min_count: int | None = 1,
    ):
        if k % 2 == 0:
            raise ValueError(f"k must be odd (paper §V-A2), got {k}")
        self.machine = machine
        self.config = config
        self.k = k
        self.canonical = canonical
        self.min_count = min_count

    # ---- part I: building the sample representation --------------------

    def _inputs(
        self, fasta_paths: list[str | Path], names: list[str] | None
    ) -> list[tuple[str, Path]]:
        """The ``(name, path)`` samples to ingest, checked up front.

        Names default to each file's
        :func:`~repro.genomics.fasta.sample_name`.
        """
        paths = [Path(p) for p in fasta_paths]
        if not paths:
            raise ValueError("need at least one FASTA file")
        if names is None:
            names = [sample_name(p) for p in paths]
        if len(names) != len(paths):
            raise ValueError(
                f"{len(names)} names for {len(paths)} FASTA files"
            )
        return list(zip(names, paths))

    def _clean(
        self,
        inputs: list[tuple[str, Path]],
        reports: list[CleaningReport],
        weighted: bool = False,
    ) -> Iterator[tuple]:
        """The one Part I loop: each sample read, cleaned and yielded in
        turn, its report appended to ``reports``.

        Items are ``(name, codes)`` pairs (a fresh :func:`clean_sample`
        result, sorted and distinct); when ``weighted`` the surviving
        abundances are kept and the items are ``(name, codes, counts)``
        triples, which every store-layer entry point
        (:meth:`IndexStore.append_many` and friends) accepts directly.
        """
        for name, path in inputs:
            if weighted:
                codes, counts, report = clean_sample_counts(
                    read_fasta(path), self.k, min_count=self.min_count,
                    canonical=self.canonical,
                )
                item = (name, codes, counts)
            else:
                codes, report = clean_sample(
                    read_fasta(path), self.k, min_count=self.min_count,
                    canonical=self.canonical,
                )
                item = (name, codes)
            reports.append(report)
            yield item

    def build_store(
        self,
        fasta_paths: list[str | Path],
        store_dir: str | Path,
        names: list[str] | None = None,
    ) -> tuple[SampleStore, list[CleaningReport]]:
        """FASTA files -> sorted numeric sample store (Fig. 1, ¹)."""
        store, reports, _ = self._write_store(fasta_paths, store_dir, names)
        return store, reports

    def _write_store(
        self,
        fasta_paths: list[str | Path],
        store_dir: str | Path,
        names: list[str] | None,
    ) -> tuple[SampleStore, list[CleaningReport], list[np.ndarray]]:
        """:meth:`build_store`, also returning the stored code arrays.

        Each array is this method's own and is exactly what
        :meth:`SampleStore.add_samples` saved for it.
        """
        reports: list[CleaningReport] = []
        items = list(self._clean(self._inputs(fasta_paths, names), reports))
        store = SampleStore.create(store_dir, k=self.k, canonical=self.canonical)
        store.add_samples(items)
        return store, reports, [codes for _, codes in items]

    # ---- parts II + III: distributed distances -------------------------

    def run_store(
        self, store: SampleStore, cleaning: list[CleaningReport] | None = None
    ) -> GenomeAtScaleResult:
        """Compute all-pairs genetic distances over a sample store."""
        return self._run(store.as_source(), store.names, store.k, cleaning)

    def _run(
        self,
        source: IndicatorSource,
        names: list[str],
        k: int,
        cleaning: list[CleaningReport] | None,
    ) -> GenomeAtScaleResult:
        engine = SimilarityAtScale(machine=self.machine, config=self.config)
        result = engine.run(source)
        return GenomeAtScaleResult(
            names=list(names),
            k=k,
            similarity_result=result,
            cleaning=cleaning if cleaning is not None else [],
        )

    def run_fasta(
        self,
        fasta_paths: list[str | Path],
        workdir: str | Path,
        names: list[str] | None = None,
    ) -> GenomeAtScaleResult:
        """End to end: FASTA files -> distance matrix.

        The samples are written to ``workdir/samples`` as by
        :meth:`build_store`, and Part II starts from the arrays just
        written instead of reading the files back.
        """
        store, reports, samples = self._write_store(
            fasta_paths, Path(workdir) / "samples", names
        )
        return self._run(
            store.as_source(contents=samples), store.names, store.k, reports
        )

    def run_streaming(
        self, fasta_paths: list[str | Path]
    ) -> GenomeAtScaleResult:
        """:meth:`run_fasta` without the sample store: nothing is written.

        The samples are cleaned by the same loop, at any ``min_count``,
        and Part II runs over their arrays in memory, so the result
        equals :meth:`run_fasta`'s bit for bit.  Every cleaned array is
        held until the run ends, as on the store path.
        """
        inputs = self._inputs(fasta_paths, None)
        reports: list[CleaningReport] = []
        source = SetSource(
            (codes for _, codes in self._clean(inputs, reports)),
            m=kmer_space_size(self.k),
        )
        return self._run(source, [name for name, _ in inputs], self.k, reports)

    # ---- the persistent index (repro.service) --------------------------

    @property
    def _weighted(self) -> bool:
        """Whether the configured measure consumes k-mer abundances."""
        return (
            self.config is not None
            and self.config.similarity == "weighted_jaccard"
        )

    def _clean_inputs(
        self, fasta_paths: list[str | Path], names: list[str] | None
    ) -> list[tuple]:
        """FASTA files -> cleaned index items (see :meth:`_clean`),
        weighted as the configured measure asks."""
        return list(
            self._clean(self._inputs(fasta_paths, names), [], self._weighted)
        )

    def build_index(
        self,
        fasta_paths: list[str | Path],
        index_dir: str | Path,
        names: list[str] | None = None,
    ):
        """FASTA files -> a persistent, query-ready similarity index.

        Routes through the :class:`~repro.service.api.SimilarityService`
        facade: ``config.store_shards`` picks the layout (a flat
        :class:`~repro.service.store.IndexStore` or a size-banded
        :class:`~repro.service.sharded.ShardedStore`, banded over the
        cleaned sample sizes) and every sample is appended in one
        commit.  No similarity is computed: the all-pairs matrix is an
        on-demand read (``SimilarityService.all_pairs``).  Returns the
        store.
        """
        from repro.service import SimilarityService

        config = self.config if self.config is not None else SimilarityConfig()
        cleaned = self._clean_inputs(fasta_paths, names)
        service = SimilarityService.create(
            index_dir,
            m=kmer_space_size(self.k),
            machine=self.machine,
            config=config,
            metadata={
                "k": self.k,
                "canonical": self.canonical,
                "min_count": self.min_count,
            },
            size_hint=np.array(
                [item[1].size for item in cleaned], dtype=np.int64
            ),
        )
        service.add(cleaned)
        return service.store

    def _open_index(self, index_dir: str | Path):
        from repro.service import open_store

        store = open_store(index_dir)
        if store.metadata.get("k") != self.k:
            raise ValueError(
                f"index at {index_dir} was built with k="
                f"{store.metadata.get('k')}, tool is configured for "
                f"k={self.k}"
            )
        if store.metadata.get("canonical") != self.canonical:
            # A canonical-mode mismatch puts queries and adds on a
            # different k-mer code space — similarities would be
            # silently wrong, and an add would mix the two spaces.
            raise ValueError(
                f"index at {index_dir} was built with canonical="
                f"{store.metadata.get('canonical')}, tool is configured "
                f"for canonical={self.canonical}"
            )
        if store.metadata.get("min_count") != self.min_count:
            # Same cleaning threshold everywhere, or new genomes keep
            # k-mers the indexed ones were stripped of.
            raise ValueError(
                f"index at {index_dir} was built with min_count="
                f"{store.metadata.get('min_count')}, tool is configured "
                f"for min_count={self.min_count}"
            )
        return store

    def extend_index(
        self,
        index_dir: str | Path,
        fasta_paths: list[str | Path],
        names: list[str] | None = None,
    ):
        """Add samples to an existing index.

        One ``SimilarityService.add``: the new genomes' records, sketch
        rows and LSH rows land in one commit, and nothing already stored
        is read back.  Returns their
        :class:`~repro.service.store.GenomeEntry` list.
        """
        return self._service(index_dir).add(
            self._clean_inputs(fasta_paths, names)
        )

    def _service(self, index_dir: str | Path):
        """The metadata-validated service facade over an index dir."""
        from repro.service import SimilarityService

        return SimilarityService(
            self._open_index(index_dir),
            machine=self.machine, config=self.config,
        )

    def query_index(
        self,
        index_dir: str | Path,
        fasta_path: str | Path,
        threshold: float | None = None,
        top_k: int | None = None,
    ):
        """Threshold/top-k query of one FASTA sample against an index.

        Returns the :class:`~repro.service.query.QueryResult` of the
        cascade (size bound -> sketch prefilter -> exact verify); on a
        sharded index only the overlapping size bands are consulted.
        """
        item, = self._clean_inputs([fasta_path], None)
        counts = item[2] if len(item) == 3 else None
        return self._service(index_dir).query(
            values=item[1], threshold=threshold, top_k=top_k, counts=counts,
        )

    def query_index_batch(
        self,
        index_dir: str | Path,
        fasta_paths: list[str | Path],
        threshold: float | None = None,
        top_k: int | None = None,
    ):
        """Batched threshold/top-k queries of many samples at once.

        One ``SimilarityService.query_batch``: every sample is answered
        against one store snapshot; results come back in input order and
        match :meth:`query_index` exactly — on a sharded index each query
        is batched per overlapping band.
        """
        from repro.service import BatchQuery

        cleaned = self._clean_inputs(fasta_paths, None)
        if self._weighted:
            queries = [
                BatchQuery(codes, threshold=threshold, top_k=top_k,
                           counts=counts)
                for _, codes, counts in cleaned
            ]
        else:
            queries = [codes for _, codes in cleaned]
        return self._service(index_dir).query_batch(
            queries, threshold=threshold, top_k=top_k,
        )
