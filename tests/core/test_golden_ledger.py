"""A golden ledger table: same program, fewer seconds.

Recorded at the commit before the pre-Gram pipeline became sort/scan
based (PR 19) and asserted with ``==``: the rewrite of read, filter,
redistribution, packing and the popcount tile may change how long a run
takes on the stopwatch, never what it computes or what the BSP model is
charged — message matrices, codec frame sizes (which depend on element
order within a message), supersteps and modelled seconds included.
"""

import hashlib

import numpy as np
import pytest

from repro import SimilarityConfig, jaccard_similarity
from repro.core.indicator import SetSource, SyntheticSource
from repro.runtime import Machine, stampede2_knl


def _source(kind: str):
    if kind == "synthetic":
        return SyntheticSource(m=4096, n=10, density=0.03, seed=7)
    rng = np.random.default_rng(19)
    sets = [
        rng.choice(3000, size=int(s), replace=False)
        for s in rng.integers(0, 400, size=12)
    ]
    return SetSource(sets, m=3000)


#: (wire codec, Gram algorithm, filter strategy, source) ->
#: (simulated_seconds as float.hex, total_bytes, supersteps,
#:  wire_encoded_bytes, sha256[:16] of the similarity matrix)
GOLDEN = {
    ("raw", "summa", "allgather", "set"): (
        "0x1.3871345fc84adp-12", 191984.0, 18, 0.0, "321a486aa4396134",
    ),
    ("raw", "summa", "allgather", "synthetic"): (
        "0x1.2709556031b92p-12", 105056.0, 18, 0.0, "6aac3fc02240a62f",
    ),
    ("raw", "summa", "transpose", "set"): (
        "0x1.955ff3ace717bp-12", 105104.0, 24, 0.0, "321a486aa4396134",
    ),
    ("raw", "summa", "transpose", "synthetic"): (
        "0x1.848167ba91e5ap-12", 62008.0, 24, 0.0, "6aac3fc02240a62f",
    ),
    ("raw", "1d_allreduce", "allgather", "set"): (
        "0x1.f68a5397c5a72p-12", 251888.0, 30, 0.0, "321a486aa4396134",
    ),
    ("raw", "1d_allreduce", "allgather", "synthetic"): (
        "0x1.e4970e1cb0981p-12", 147296.0, 30, 0.0, "6aac3fc02240a62f",
    ),
    ("raw", "1d_allreduce", "transpose", "set"): (
        "0x1.29bc8972723a4p-11", 165008.0, 36, 0.0, "321a486aa4396134",
    ),
    ("raw", "1d_allreduce", "transpose", "synthetic"): (
        "0x1.2107903b88625p-11", 104248.0, 36, 0.0, "6aac3fc02240a62f",
    ),
    ("varint", "summa", "allgather", "set"): (
        "0x1.3914b1f8b157ap-12", 144671.0, 18, 12575.0, "321a486aa4396134",
    ),
    ("varint", "summa", "allgather", "synthetic"): (
        "0x1.277d91d3505eap-12", 76812.0, 18, 8780.0, "6aac3fc02240a62f",
    ),
    ("varint", "summa", "transpose", "set"): (
        "0x1.96037145d024ap-12", 57791.0, 24, 12575.0, "321a486aa4396134",
    ),
    ("varint", "summa", "transpose", "synthetic"): (
        "0x1.84f5a42db08b2p-12", 33764.0, 24, 8780.0, "6aac3fc02240a62f",
    ),
    ("varint", "1d_allreduce", "allgather", "set"): (
        "0x1.f7239c047cdf9p-12", 154632.0, 30, 22536.0, "321a486aa4396134",
    ),
    ("varint", "1d_allreduce", "allgather", "synthetic"): (
        "0x1.e50c644fc5b66p-12", 84601.0, 30, 16569.0, "6aac3fc02240a62f",
    ),
    ("varint", "1d_allreduce", "transpose", "set"): (
        "0x1.2a092da8cdd66p-11", 67752.0, 36, 22536.0, "321a486aa4396134",
    ),
    ("varint", "1d_allreduce", "transpose", "synthetic"): (
        "0x1.21423b5512f18p-11", 41553.0, 36, 16569.0, "6aac3fc02240a62f",
    ),
    ("rle", "summa", "allgather", "set"): (
        "0x1.3afbf72b48efcp-12", 189409.0, 18, 57313.0, "321a486aa4396134",
    ),
    ("rle", "summa", "allgather", "synthetic"): (
        "0x1.284a994dbbc1fp-12", 102249.0, 18, 34217.0, "6aac3fc02240a62f",
    ),
    ("rle", "summa", "transpose", "set"): (
        "0x1.97eab67867bcbp-12", 102529.0, 24, 57313.0, "321a486aa4396134",
    ),
    ("rle", "summa", "transpose", "synthetic"): (
        "0x1.85c2aba81bee8p-12", 59201.0, 24, 34217.0, "6aac3fc02240a62f",
    ),
    ("rle", "1d_allreduce", "allgather", "set"): (
        "0x1.f95995896336bp-12", 221243.0, 30, 89147.0, "321a486aa4396134",
    ),
    ("rle", "1d_allreduce", "allgather", "synthetic"): (
        "0x1.e5fe880745960p-12", 118157.0, 30, 50125.0, "6aac3fc02240a62f",
    ),
    ("rle", "1d_allreduce", "transpose", "set"): (
        "0x1.2b242a6b4101fp-11", 134363.0, 36, 89147.0, "321a486aa4396134",
    ),
    ("rle", "1d_allreduce", "transpose", "synthetic"): (
        "0x1.21bb4d30d2e14p-11", 75109.0, 36, 50125.0, "6aac3fc02240a62f",
    ),
    ("adaptive", "summa", "allgather", "set"): (
        "0x1.3914b1f8b157ap-12", 144671.0, 18, 12575.0, "321a486aa4396134",
    ),
    ("adaptive", "summa", "allgather", "synthetic"): (
        "0x1.277d91d3505eap-12", 76812.0, 18, 8780.0, "6aac3fc02240a62f",
    ),
    ("adaptive", "summa", "transpose", "set"): (
        "0x1.96037145d024ap-12", 57791.0, 24, 12575.0, "321a486aa4396134",
    ),
    ("adaptive", "summa", "transpose", "synthetic"): (
        "0x1.84f5a42db08b2p-12", 33764.0, 24, 8780.0, "6aac3fc02240a62f",
    ),
    ("adaptive", "1d_allreduce", "allgather", "set"): (
        "0x1.f7239c047cdf9p-12", 154632.0, 30, 22536.0, "321a486aa4396134",
    ),
    ("adaptive", "1d_allreduce", "allgather", "synthetic"): (
        "0x1.e50c644fc5b66p-12", 84601.0, 30, 16569.0, "6aac3fc02240a62f",
    ),
    ("adaptive", "1d_allreduce", "transpose", "set"): (
        "0x1.2a092da8cdd66p-11", 67752.0, 36, 22536.0, "321a486aa4396134",
    ),
    ("adaptive", "1d_allreduce", "transpose", "synthetic"): (
        "0x1.21423b5512f18p-11", 41553.0, 36, 16569.0, "6aac3fc02240a62f",
    ),
}


@pytest.mark.parametrize("key", sorted(GOLDEN), ids="-".join)
def test_ledger_and_result_are_bit_identical_to_the_recording(key):
    codec, algorithm, strategy, kind = key
    result = jaccard_similarity(
        _source(kind),
        Machine(stampede2_knl(2, ranks_per_node=4)),
        SimilarityConfig(
            batch_count=3, wire_codec=codec, gram_algorithm=algorithm,
            filter_strategy=strategy,
        ),
    )
    total = result.cost.total
    digest = hashlib.sha256(
        np.ascontiguousarray(result.similarity).tobytes()
    ).hexdigest()[:16]
    got = (
        float(result.cost.simulated_seconds).hex(),
        float(total.total_bytes),
        int(total.supersteps),
        float(total.wire_encoded_bytes),
        digest,
    )
    assert got == GOLDEN[key]
