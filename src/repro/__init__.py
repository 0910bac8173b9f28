"""repro — reproduction of *Communication-Efficient Jaccard Similarity for
High-Performance Distributed Genome Comparisons* (Besta et al., IPDPS 2020).

Top-level layout:

* :mod:`repro.runtime`  — simulated BSP distributed-memory machine
  (the MPI + Cyclops substitute).
* :mod:`repro.sparse`   — sparse / bit-packed matrix substrate with
  semiring SpGEMM (local kernels, SUMMA, 2.5D replication).
* :mod:`repro.core`     — the SimilarityAtScale algorithm: batched,
  filtered, bitmask-compressed distributed Jaccard similarity.
* :mod:`repro.genomics` — the GenomeAtScale tool: FASTA/k-mer pipeline,
  synthetic cohort generators, phylogenetics.
* :mod:`repro.service`  — the serving layer: persistent on-disk
  similarity index, O(delta) adds and removes, the threshold/top-k
  query cascade, LRU query caching, all-pairs as an on-demand read.
* :mod:`repro.baselines`— exact, MinHash/Mash, cosine/Libra and
  MapReduce-style comparators.
* :mod:`repro.analytics`— the paper's §II framings (graphs, documents,
  clustering, object IoU) expressed through the same core.

Quickstart::

    from repro import jaccard_similarity
    from repro.runtime import Machine, laptop

    sets = [{1, 2, 3}, {2, 3, 4}, {9}]
    result = jaccard_similarity(sets, machine=Machine(laptop(4)))
    print(result.similarity)      # dense n x n Jaccard matrix
    print(result.cost.report())   # modelled BSP cost breakdown
"""

__version__ = "1.0.0"

__all__ = [
    "SimilarityAtScale",
    "jaccard_similarity",
    "SimilarityConfig",
    "SimilarityResult",
    "__version__",
]

_LAZY = {
    "SimilarityAtScale": ("repro.core.similarity", "SimilarityAtScale"),
    "jaccard_similarity": ("repro.core.similarity", "jaccard_similarity"),
    "SimilarityConfig": ("repro.core.config", "SimilarityConfig"),
    "SimilarityResult": ("repro.core.result", "SimilarityResult"),
}


def __getattr__(name: str):
    """Lazily resolve the public API to keep ``import repro`` light."""
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None
    import importlib

    module = importlib.import_module(module_name)
    value = getattr(module, attr)
    globals()[name] = value
    return value
