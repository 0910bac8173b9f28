"""A golden ledger table: same program, fewer seconds.

Recorded at the commit before the pre-Gram pipeline became sort/scan
based (PR 19) and asserted with ``==``: the rewrite of read, filter,
redistribution, packing and the popcount tile may change how long a run
takes on the stopwatch, never what it computes or what the BSP model is
charged — message matrices, codec frame sizes (which depend on element
order within a message), supersteps and modelled seconds included.

The ``1d_allreduce`` rows run the 1-D all-reduce strawman as the
``c = p`` corner of the one exact driver (``replication=8,
reduce_every_batch=True``) and were recorded later, when that corner
became the strawman's only form.
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


#: Grid layout -> the config knobs that pin it.  ``1d_allreduce`` is the
#: strawman: a 1 x 1 face, B all-reduced after every batch.
LAYOUTS = {
    "summa": {},
    "1d_allreduce": {"replication": 8, "reduce_every_batch": True},
}

#: (wire codec, grid layout, filter strategy, source) ->
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
        "0x1.f6d13188e3475p-12", 251888.0, 30, 0.0, "321a486aa4396134",
    ),
    ("raw", "1d_allreduce", "allgather", "synthetic"): (
        "0x1.e4af36dd6f0eap-12", 147296.0, 30, 0.0, "6aac3fc02240a62f",
    ),
    ("raw", "1d_allreduce", "transpose", "set"): (
        "0x1.29dff86b010a4p-11", 165008.0, 36, 0.0, "321a486aa4396134",
    ),
    ("raw", "1d_allreduce", "transpose", "synthetic"): (
        "0x1.2113a49be79dap-11", 104248.0, 36, 0.0, "6aac3fc02240a62f",
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
        "0x1.f76957f694125p-12", 154367.0, 30, 22271.0, "321a486aa4396134",
    ),
    ("varint", "1d_allreduce", "allgather", "synthetic"): (
        "0x1.e5234cd4ede99p-12", 84396.0, 30, 16364.0, "6aac3fc02240a62f",
    ),
    ("varint", "1d_allreduce", "transpose", "set"): (
        "0x1.2a2c0ba1d96fbp-11", 67487.0, 36, 22271.0, "321a486aa4396134",
    ),
    ("varint", "1d_allreduce", "transpose", "synthetic"): (
        "0x1.214daf97a70b1p-11", 41348.0, 36, 16364.0, "6aac3fc02240a62f",
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
        "0x1.f99d31395d5cfp-12", 221041.0, 30, 88945.0, "321a486aa4396134",
    ),
    ("rle", "1d_allreduce", "allgather", "synthetic"): (
        "0x1.e615a9d09579ap-12", 118041.0, 30, 50009.0, "6aac3fc02240a62f",
    ),
    ("rle", "1d_allreduce", "transpose", "set"): (
        "0x1.2b45f8433e14fp-11", 134161.0, 36, 88945.0, "321a486aa4396134",
    ),
    ("rle", "1d_allreduce", "transpose", "synthetic"): (
        "0x1.21c6de157ad32p-11", 74993.0, 36, 50009.0, "6aac3fc02240a62f",
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
        "0x1.f76957f694125p-12", 154367.0, 30, 22271.0, "321a486aa4396134",
    ),
    ("adaptive", "1d_allreduce", "allgather", "synthetic"): (
        "0x1.e5234cd4ede99p-12", 84396.0, 30, 16364.0, "6aac3fc02240a62f",
    ),
    ("adaptive", "1d_allreduce", "transpose", "set"): (
        "0x1.2a2c0ba1d96fbp-11", 67487.0, 36, 22271.0, "321a486aa4396134",
    ),
    ("adaptive", "1d_allreduce", "transpose", "synthetic"): (
        "0x1.214daf97a70b1p-11", 41348.0, 36, 16364.0, "6aac3fc02240a62f",
    ),
}


@pytest.mark.parametrize("key", sorted(GOLDEN), ids="-".join)
def test_ledger_and_result_are_bit_identical_to_the_recording(key):
    codec, layout, strategy, kind = key
    result = jaccard_similarity(
        _source(kind),
        Machine(stampede2_knl(2, ranks_per_node=4)),
        SimilarityConfig(
            batch_count=3, wire_codec=codec, filter_strategy=strategy,
            **LAYOUTS[layout],
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


#: Recorded at the commit before the blocked kernel became a float32 GEMM
#: and ``from_coo`` a boolean scatter + ``np.packbits``: what the kernels
#: execute changed, what the ledger is charged must not.  The SUMMA rows
#: run a 2 x 2 x 2 grid (``replication=2`` on 8 ranks: pair-form blocks,
#: off-diagonal panels and a fiber reduction); the ``1d_allreduce`` rows
#: a 1 x 1 x 8 one.
#: (grid layout, kernel policy) -> (kernel_totals as
#: {kernel: (seconds as float.hex, flops)}, total flops, raw wire bytes,
#: encoded wire bytes, simulated_seconds as float.hex)
CODEC_KERNELS = {
    "codec:mixed": ("0x1.3bdbeae98a0e8p-23", 441.25),
    "codec:raw": ("0x1.c7443b8805366p-23", 636.0),
    "codec:rle": ("0x1.e192bdc380aefp-23", 672.75),
    "codec:varint": ("0x1.35066f2d069b8p-19", 12547.25),
}
CODEC_KERNELS_1D = {
    "codec:mixed": ("0x1.d87247702c0cfp-23", 2635.75),
    "codec:varint": ("0x1.dcbdca6a35c29p-20", 15451.75),
}
GOLDEN_KERNELS = {
    ("summa", "blocked"): (
        {"blocked": ("0x1.5be4711d12794p-21", 3888.0), **CODEC_KERNELS},
        46980.25, 41584.0, 15609.0, "0x1.39c5b338e121ep-11",
    ),
    ("summa", "bitpacked"): (
        {"bitpacked": ("0x1.4c8086726fae6p-20", 6202.0), **CODEC_KERNELS},
        49294.25, 41584.0, 15609.0, "0x1.39f0a656a582fp-11",
    ),
    ("summa", "outer"): (
        {"outer": ("0x1.1d9d85f385af7p-20", 3521.0), **CODEC_KERNELS},
        46613.25, 41584.0, 15609.0, "0x1.39e609a0e43e3p-11",
    ),
    ("1d_allreduce", "blocked"): (
        {"blocked": ("0x1.5be4711d12794p-19", 3888.0), **CODEC_KERNELS_1D},
        61546.5, 119792.0, 22271.0, "0x1.f76957f694125p-12",
    ),
    ("1d_allreduce", "bitpacked"): (
        {"bitpacked": ("0x1.1579084ed3471p-18", 6202.0), **CODEC_KERNELS_1D},
        63860.5, 119792.0, 22271.0, "0x1.f7cbc51acb70ep-12",
    ),
    ("1d_allreduce", "outer"): (
        {"outer": ("0x1.3b0dc25aa83c8p-19", 3521.0), **CODEC_KERNELS_1D},
        61179.5, 119792.0, 22271.0, "0x1.f7681745b5cf8p-12",
    ),
}


@pytest.mark.parametrize("key", sorted(GOLDEN_KERNELS), ids="-".join)
def test_kernel_ledger_is_identical_to_the_recording(key):
    layout, policy = key
    knobs = {"summa": {"replication": 2}, "1d_allreduce": LAYOUTS["1d_allreduce"]}
    result = jaccard_similarity(
        _source("set"),
        Machine(stampede2_knl(2, ranks_per_node=4)),
        SimilarityConfig(
            batch_count=3, wire_codec="adaptive", kernel_policy=policy,
            **knobs[layout],
        ),
    )
    assert (result.grid_q, result.grid_c) == (
        (2, 2) if layout == "summa" else (1, 8)
    )
    cost = result.cost
    total = cost.total
    got = (
        {k: (float(s).hex(), f) for k, (s, f) in cost.kernel_totals.items()},
        total.total_flops,
        total.wire_raw_bytes,
        total.wire_encoded_bytes,
        float(cost.simulated_seconds).hex(),
    )
    assert got == GOLDEN_KERNELS[key]
