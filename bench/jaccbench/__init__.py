"""The repo's wall-clock benchmark (see ``bench/README.md``).

Everything here lives outside the program under test: inputs are
generated from a seed (:mod:`jaccbench.workloads`), the program is
driven only through its public entry points
(``repro.jaccard_similarity``, ``repro.genomics.pipeline.GenomeAtScale``,
``repro.service.SimilarityService``), every answer is checked against
the benchmark's own brute-force reference (:mod:`jaccbench.reference`),
and the per-layer numbers come from spans recorded *here*, around calls
into each layer's public functions (:mod:`jaccbench.spans`).
"""
