"""Applications of the algebraic Jaccard framework beyond genomics.

§II and Table III of the paper stress that SimilarityAtScale is generic:
anything expressible as "data samples containing attribute values" maps
onto the indicator matrix.  This package provides those framings:

* :mod:`~repro.analytics.graphs` — vertex similarity from adjacency
  (one row per vertex-as-neighbor, one column per vertex), Jarvis–
  Patrick clustering, link prediction (§II-F);
* :mod:`~repro.analytics.documents` — document similarity over word or
  shingle sets, plagiarism detection (§II-G);
* :mod:`~repro.analytics.clustering` — Jaccard k-medoids for
  categorical data, hierarchical clustering, threshold clustering as
  an exact rank-space self-join (the query engine's window and verify
  kernel), proximity-based outlier detection (§II-C, §II-D);
* :mod:`~repro.analytics.iou` — bounding-box intersection-over-union as
  a Jaccard instance (§II-E).
"""

from repro.analytics.clustering import (
    hierarchical_clusters,
    jaccard_kmedoids,
    proximity_outliers,
    threshold_clusters,
)
from repro.analytics.documents import (
    document_similarity,
    plagiarism_candidates,
    shingle_set,
    word_set,
)
from repro.analytics.graphs import (
    adjacency_sets,
    jarvis_patrick_clusters,
    predict_links,
    vertex_similarity,
)
from repro.analytics.iou import box_iou, iou_matrix, match_boxes
from repro.analytics.overlap import (
    detect_overlaps,
    overlap_graph,
    true_overlaps,
)

__all__ = [
    "detect_overlaps",
    "overlap_graph",
    "true_overlaps",
    "hierarchical_clusters",
    "jaccard_kmedoids",
    "proximity_outliers",
    "threshold_clusters",
    "document_similarity",
    "plagiarism_candidates",
    "shingle_set",
    "word_set",
    "adjacency_sets",
    "jarvis_patrick_clusters",
    "predict_links",
    "vertex_similarity",
    "box_iou",
    "iou_matrix",
    "match_boxes",
]
