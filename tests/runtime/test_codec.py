"""Wire-codec tests: primitives, frame round-trips, adaptive policy,
and codec-mediated collectives.

Every codec must be bit-exact on every payload — the property tests
sweep the satellite edge cases (empty tile, single word, fully dense
tile, ragged index runs, adversarial all-zero-words input) across all
policies and bit widths.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.codec import (
    HEADER_NBYTES,
    MAGIC,
    WIRE_CODECS,
    CodecError,
    WireCodec,
    decode_frame,
    decode_varints,
    encode_frame,
    encode_varints,
    resolve_wire_codec,
    rle_decode_words,
    rle_encode_words,
    varint_lengths,
    zigzag_decode,
    zigzag_encode,
)
from repro.runtime.engine import Machine
from repro.runtime.machine import laptop
from repro.sparse.bitmatrix import BitMatrix

POLICIES = ("raw", "varint", "rle", "adaptive")

#: Byte strings are not a payload kind: they cross the wire unframed.
BYTE_STRINGS = pytest.mark.parametrize(
    "payload",
    [b"\x00\x00abc\x00", bytearray(b"\x00\x00abc\x00"), memoryview(b"\x00\x00abc\x00")],
    ids=["bytes", "bytearray", "memoryview"],
)


def roundtrip(obj, policy):
    frame = encode_frame(obj, policy)
    # Decode both the Frame object and its bare byte string: the header
    # must be self-describing (no side channel).
    return decode_frame(frame), decode_frame(frame.data)


# ---- varint / zigzag primitives -----------------------------------------


class TestVarint:
    def test_empty(self):
        assert encode_varints(np.zeros(0, dtype=np.uint64)) == b""
        values, used = decode_varints(b"", None)
        assert values.size == 0 and used == 0

    def test_known_encodings(self):
        assert encode_varints(np.array([0], dtype=np.uint64)) == b"\x00"
        assert encode_varints(np.array([127], dtype=np.uint64)) == b"\x7f"
        assert encode_varints(np.array([128], dtype=np.uint64)) == b"\x80\x01"

    def test_lengths_match_encoding(self):
        vals = np.array([0, 1, 127, 128, 2**14, 2**63, 2**64 - 1],
                        dtype=np.uint64)
        assert int(varint_lengths(vals).sum()) == len(encode_varints(vals))

    @given(st.lists(st.integers(0, 2**64 - 1), max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip(self, values):
        vals = np.array(values, dtype=np.uint64)
        enc = encode_varints(vals)
        dec, used = decode_varints(enc, vals.size)
        assert used == len(enc)
        assert np.array_equal(dec, vals)

    def test_truncated_stream_rejected(self):
        with pytest.raises(CodecError):
            decode_varints(b"\x80", None)  # continuation with no end
        with pytest.raises(CodecError):
            decode_varints(b"\x00", 2)  # fewer values than requested

    @given(st.lists(st.integers(-(2**63), 2**63 - 1), max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_zigzag_roundtrip(self, values):
        v = np.array(values, dtype=np.int64)
        assert np.array_equal(zigzag_decode(zigzag_encode(v)), v)


# ---- zero-word RLE primitives -------------------------------------------


class TestRle:
    @pytest.mark.parametrize("words", [
        np.zeros(0, dtype=np.uint64),            # empty
        np.zeros(64, dtype=np.uint64),           # adversarial all-zero
        np.arange(1, 9, dtype=np.uint64),        # fully dense
        np.array([5], dtype=np.uint64),          # single word
        np.array([0, 0, 5, 0, 0, 0, 7, 1], dtype=np.uint64),  # ragged runs
    ])
    def test_roundtrip_cases(self, words):
        body = rle_encode_words(words)
        assert np.array_equal(
            rle_decode_words(body, words.dtype, words.size), words
        )

    @given(st.lists(st.integers(0, 3), max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_random(self, values):
        words = np.array(values, dtype=np.uint8)
        body = rle_encode_words(words)
        assert np.array_equal(
            rle_decode_words(body, words.dtype, words.size), words
        )

    def test_all_zero_compresses(self):
        words = np.zeros(10_000, dtype=np.uint64)
        assert len(rle_encode_words(words)) < 8

    def test_word_count_mismatch_rejected(self):
        body = rle_encode_words(np.zeros(8, dtype=np.uint64))
        with pytest.raises(CodecError):
            rle_decode_words(body, np.dtype(np.uint64), 9)


# ---- frame round-trips ---------------------------------------------------


def tile_cases(bit_width):
    rng = np.random.default_rng(bit_width)
    return [
        BitMatrix.zeros(0, 0, bit_width),                      # empty tile
        BitMatrix.zeros(3 * bit_width, 7, bit_width),          # all zeros
        BitMatrix.from_dense(np.ones((bit_width, 1)), bit_width),  # 1 word
        BitMatrix.from_dense(np.ones((2 * bit_width, 5)), bit_width),  # dense
        BitMatrix.from_dense(rng.random((4 * bit_width + 3, 9)) < 0.02,
                             bit_width),                       # ragged runs
        BitMatrix.from_dense(rng.random((bit_width + 1, 6)) < 0.7,
                             bit_width),
    ]


class TestBitMatrixFrames:
    @pytest.mark.parametrize("bit_width", [8, 16, 32, 64])
    @pytest.mark.parametrize("policy", POLICIES)
    def test_roundtrip(self, bit_width, policy):
        for mat in tile_cases(bit_width):
            for back in roundtrip(mat, policy):
                assert back.bit_width == mat.bit_width
                assert back.n_rows == mat.n_rows
                assert back.n_cols == mat.n_cols
                assert np.array_equal(back.words, mat.words)

    def test_frame_header_is_self_describing(self):
        mat = BitMatrix.from_dense(np.eye(16), bit_width=8)
        frame = encode_frame(mat, "rle")
        assert frame.data[:4] == MAGIC
        assert frame.nbytes == len(frame.data) > HEADER_NBYTES

    def test_raw_nbytes_is_payload_size(self):
        mat = BitMatrix.from_dense(np.eye(64))
        for policy in POLICIES:
            assert encode_frame(mat, policy).raw_nbytes == mat.nbytes


class TestNdarrayFrames:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_roundtrip(self, policy):
        rng = np.random.default_rng(7)
        cases = [
            np.zeros(0, dtype=np.int64),
            np.zeros((5, 0), dtype=np.int64),
            np.arange(-50, 50, dtype=np.int64),
            np.zeros((12, 12), dtype=np.int64),
            rng.integers(0, 2**31, (6, 4), dtype=np.int64),
            np.array([2**64 - 1, 0, 1], dtype=np.uint64),
            rng.integers(0, 255, 40).astype(np.uint8),
            rng.random(33),                      # float64 (varint -> raw)
            rng.random(9).astype(np.float32),
            np.array([True, False, True]),
        ]
        for arr in cases:
            for back in roundtrip(arr, policy):
                assert back.dtype == arr.dtype
                assert back.shape == arr.shape
                assert np.array_equal(back, arr)

    def test_unsupported_payloads_rejected(self):
        with pytest.raises(CodecError):
            encode_frame(np.zeros((2, 2, 2)), "raw")  # ndim > 2
        with pytest.raises(CodecError):
            encode_frame({"a": 1}, "adaptive")

    def test_byte_strings_are_not_a_payload_kind(self):
        # The pipeline sends arrays and word tiles only; a byte string is
        # refused on encode, and a frame of payload kind 0 on decode.
        for policy in POLICIES:
            with pytest.raises(CodecError, match="unsupported wire payload"):
                encode_frame(b"abc", policy)
        frame = bytearray(encode_frame(np.arange(4), "raw").data)
        frame[5] = 0
        with pytest.raises(CodecError, match="payload kind 0"):
            decode_frame(bytes(frame))

    def test_malformed_frames_rejected(self):
        with pytest.raises(CodecError):
            decode_frame(b"nope")
        frame = encode_frame(np.arange(4), "raw")
        with pytest.raises(CodecError):
            decode_frame(b"XXXX" + frame.data[4:])   # bad magic
        with pytest.raises(CodecError):
            decode_frame(frame.data[:-8])            # truncated body


class TestAdaptivePolicy:
    def test_hypersparse_tile_compresses(self):
        rng = np.random.default_rng(1)
        mat = BitMatrix.from_dense(rng.random((2048, 64)) < 0.001)
        frame = encode_frame(mat, "adaptive")
        assert frame.codec in ("varint", "rle")
        assert frame.nbytes < mat.nbytes / 5

    def test_dense_tile_stays_raw(self):
        rng = np.random.default_rng(2)
        mat = BitMatrix.from_dense(rng.random((512, 16)) < 0.5)
        frame = encode_frame(mat, "adaptive")
        assert frame.codec == "raw"
        assert frame.nbytes == HEADER_NBYTES + mat.nbytes

    def test_all_zero_words_collapse(self):
        mat = BitMatrix.zeros(64 * 1024, 8)
        frame = encode_frame(mat, "adaptive")
        assert frame.codec in ("varint", "rle")
        assert frame.nbytes < HEADER_NBYTES + 16

    def test_adaptive_never_beaten_by_fixed(self):
        rng = np.random.default_rng(3)
        for density in (0.0, 0.001, 0.05, 0.5):
            mat = BitMatrix.from_dense(rng.random((640, 24)) < density)
            sizes = {p: encode_frame(mat, p).nbytes
                     for p in ("raw", "varint", "rle", "adaptive")}
            assert sizes["adaptive"] == min(sizes.values())

    def test_small_count_vector_picks_varint(self):
        counts = np.full(256, 1000, dtype=np.int64)
        frame = encode_frame(counts, "adaptive")
        assert frame.codec == "varint"
        assert frame.nbytes < counts.nbytes / 2


class TestResolveWireCodec:
    def test_raw_means_no_codec(self):
        assert resolve_wire_codec("raw") is None
        assert resolve_wire_codec(None) is None

    def test_policies_resolve(self):
        for policy in WIRE_CODECS[1:]:
            codec = resolve_wire_codec(policy)
            assert isinstance(codec, WireCodec)
            assert codec.policy == policy
            assert resolve_wire_codec(codec) is codec

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="wire_codec"):
            resolve_wire_codec("gzip")

    def test_supports(self):
        codec = WireCodec("adaptive")
        assert codec.supports(np.zeros(3))
        assert codec.supports(BitMatrix.zeros(8, 8))
        assert not codec.supports(b"abc")
        assert not codec.supports(None)
        assert not codec.supports((1, np.zeros(3)))
        assert not codec.supports(np.zeros((2, 2, 2)))
        # Empty payloads take the raw path: nothing to compress, and a
        # frame header would cost bytes the raw wire crosses for free.
        assert not codec.supports(np.zeros(0))
        assert not codec.supports(BitMatrix.zeros(0, 0))

    @BYTE_STRINGS
    def test_no_policy_frames_byte_strings(self, payload):
        for policy in POLICIES[1:]:
            assert not WireCodec(policy).supports(payload)
            with pytest.raises(CodecError, match="unsupported wire payload"):
                encode_frame(payload, policy)


# ---- codec-mediated collectives -----------------------------------------


def make_comm(ranks=4):
    return Machine(laptop(ranks)).world


class TestCodecCollectives:
    def test_bcast_matches_raw_and_charges_encoded(self):
        rng = np.random.default_rng(11)
        mat = BitMatrix.from_dense(rng.random((256, 8)) < 0.01)
        codec = WireCodec("adaptive")
        frame = codec.encode(mat)

        comm = make_comm()
        out = comm.bcast(mat, root=1, codec=codec)
        assert all(np.array_equal(o.words, mat.words) for o in out)
        pc = comm.ledger.total
        assert pc.wire_encoded_bytes < pc.wire_raw_bytes
        # The collective's byte volume is the encoded one.
        assert pc.total_bytes == pytest.approx((comm.size - 1) * frame.nbytes)
        assert pc.wire_raw_bytes == pytest.approx((comm.size - 1) * mat.nbytes)
        # Codec endpoint work is tallied under the codec kernel label.
        assert any(k.startswith("codec:") for k in pc.kernel_flops)

    def test_bcast_without_codec_unchanged(self):
        comm = make_comm()
        payload = np.arange(16)
        out = comm.bcast(payload, root=0)
        assert np.array_equal(out[2], payload)
        assert comm.ledger.total.wire_raw_bytes == 0.0

    def test_allreduce_matches_raw(self):
        rng = np.random.default_rng(13)
        vals = [rng.integers(0, 50, 64) for _ in range(4)]
        expect = make_comm().allreduce(vals)[0]
        comm = make_comm()
        got = comm.allreduce(vals, codec=WireCodec("adaptive"))[0]
        assert np.array_equal(got, expect)
        assert comm.ledger.total.wire_encoded_bytes > 0.0

    def test_alltoallv_matches_raw(self):
        rng = np.random.default_rng(17)
        s = 4
        chunks = [
            [rng.integers(0, 1000, (2, 5)) if (i + j) % 2 else None
             for j in range(s)]
            for i in range(s)
        ]
        expect = make_comm(s).alltoallv(chunks)
        comm = make_comm(s)
        got = comm.alltoallv(chunks, codec=WireCodec("varint"))
        for row_e, row_g in zip(expect, got):
            for e, g in zip(row_e, row_g):
                assert (e is None and g is None) or np.array_equal(e, g)
        assert comm.ledger.total.wire_encoded_bytes > 0.0

    def test_gatherv_matches_raw(self):
        vals = [np.full(8, r, dtype=np.int64) for r in range(4)]
        expect = make_comm().gatherv(vals, root=2)
        comm = make_comm()
        got = comm.gatherv(vals, root=2, codec=WireCodec("adaptive"))
        assert got[0] is None and got[1] is None and got[3] is None
        for e, g in zip(expect[2], got[2]):
            assert np.array_equal(e, g)
        # The root's own part never crosses the wire.
        pc = comm.ledger.total
        assert pc.wire_raw_bytes == pytest.approx(3 * vals[0].nbytes)

    def test_unsupported_payload_falls_back(self):
        comm = make_comm()
        out = comm.bcast(("tuple", 1), root=0, codec=WireCodec("rle"))
        assert out[3] == ("tuple", 1)
        assert comm.ledger.total.wire_raw_bytes == 0.0

    @BYTE_STRINGS
    def test_byte_strings_cross_unframed(self, payload):
        plain = make_comm()
        plain.bcast(payload, root=0)
        for policy in POLICIES[1:]:
            comm = make_comm()
            out = comm.bcast(payload, root=0, codec=WireCodec(policy))
            assert all(bytes(o) == bytes(payload) for o in out)
            assert comm.ledger.total.wire_raw_bytes == 0.0
            assert comm.ledger.total.total_bytes == plain.ledger.total.total_bytes


class TestChargeBuilders:
    """The charge builders must price what the communicator charges."""

    @staticmethod
    def charged(comm):
        from repro.runtime.collectives import Charge

        t = comm.ledger.total
        return Charge(
            rounds=t.supersteps,
            alpha_seconds=t.alpha_seconds,
            comm_seconds=t.comm_seconds,
            compute_seconds=t.compute_seconds,
            total_bytes=t.total_bytes,
            max_rank_bytes=t.max_rank_bytes,
            messages=t.messages,
            flops=t.total_flops,
        )

    def test_bcast_charge_matches(self):
        from repro.runtime.collectives import bcast_charge

        spec = laptop(8)
        payload = np.zeros(100)
        comm = Machine(spec).world
        comm.bcast(payload, 0)
        assert bcast_charge(spec, list(range(8)), payload.nbytes) == (
            self.charged(comm)
        )

    def test_allreduce_charge_matches(self):
        from repro.runtime import collectives as coll

        spec = laptop(8)
        vals = [np.zeros(100) for _ in range(8)]
        comm = Machine(spec).world
        comm.allreduce(vals)
        assert coll.allreduce_charge(
            spec, list(range(8)), vals[0].nbytes
        ) == self.charged(comm)

    def test_alltoallv_charge_matches(self):
        from repro.runtime import collectives as coll

        spec = laptop(4)
        chunks = [[np.zeros(i + j) for j in range(4)] for i in range(4)]
        comm = Machine(spec).world
        comm.alltoallv(chunks)
        sizes = [[c.nbytes for c in row] for row in chunks]
        assert coll.alltoallv_charge(
            spec, list(range(4)), sizes
        ) == self.charged(comm)

    def test_gatherv_charge_matches(self):
        from repro.runtime import collectives as coll

        spec = laptop(4)
        vals = [np.zeros(10) for _ in range(4)]
        comm = Machine(spec).world
        comm.gatherv(vals, 0)
        assert coll.gatherv_charge(
            spec, list(range(4)), 3 * vals[0].nbytes
        ) == self.charged(comm)

    #: Groups of 1, 3 and 8 ranks on two 4-rank nodes; the last two span
    #: both nodes, so they are charged ``beta_inter``.
    GROUPS = {
        "one": [0],
        "three-intra": [0, 1, 2],
        "three-inter": [2, 3, 4],
        "eight-inter": list(range(8)),
    }

    @pytest.mark.parametrize("name", sorted(GROUPS))
    def test_allgather_charge_matches(self, name):
        from repro.runtime import collectives as coll
        from repro.runtime.machine import stampede2_knl

        spec = stampede2_knl(2, ranks_per_node=4)
        comm = Machine(spec).world.sub(self.GROUPS[name])
        vals = [np.zeros(3 * i + 1) for i in range(comm.size)]
        comm.allgather(vals)
        assert coll.allgather_charge(
            spec, comm.ranks, [v.nbytes for v in vals]
        ) == self.charged(comm)

    @pytest.mark.parametrize("name", sorted(GROUPS))
    def test_exscan_charge_matches(self, name):
        from repro.runtime import collectives as coll
        from repro.runtime.machine import stampede2_knl

        spec = stampede2_knl(2, ranks_per_node=4)
        comm = Machine(spec).world.sub(self.GROUPS[name])
        comm.exscan(list(range(comm.size)))
        assert coll.exscan_charge(spec, comm.ranks, 8) == self.charged(comm)

    def test_spanning_groups_charge_beta_inter(self):
        from repro.runtime.machine import stampede2_knl

        spec = stampede2_knl(2, ranks_per_node=4)
        betas = {n: spec.beta_for_group(g) for n, g in self.GROUPS.items()}
        assert betas == {
            "one": spec.beta_intra,
            "three-intra": spec.beta_intra,
            "three-inter": spec.beta_inter,
            "eight-inter": spec.beta_inter,
        }


class TestAllreduceAutoAlgorithm:
    def test_raw_and_encoded_charges_use_one_algorithm(self):
        """Straddling the 64 KiB auto threshold must not flip algorithms
        between the raw and encoded charges (it would record a bogus
        wire 'inflation' despite genuine compression)."""
        rng = np.random.default_rng(23)
        # ~128 KiB raw int64 payload that varints to well under 64 KiB.
        vals = [rng.integers(0, 100, 16_000) for _ in range(4)]
        comm = make_comm()
        got = comm.allreduce(vals, codec=WireCodec("adaptive"))[0]
        assert np.array_equal(got, make_comm().allreduce(vals)[0])
        pc = comm.ledger.total
        assert pc.wire_encoded_bytes < pc.wire_raw_bytes

    def test_mixed_codec_frames_tallied_as_mixed(self):
        rng = np.random.default_rng(29)
        dense = rng.integers(1, 2**40, 4096)        # adaptive -> raw
        sparse = np.zeros(4096, dtype=np.int64)     # adaptive -> rle
        sparse[:3] = 7
        comm = make_comm(2)
        comm.allreduce([dense, sparse], codec=WireCodec("adaptive"))
        assert "mixed" in comm.ledger.total.codec_raw_bytes

    def test_ragged_chunk_matrix_rejected_with_codec(self):
        comm = make_comm(2)
        ragged = [[np.arange(3)], [np.arange(3), np.arange(3)]]
        with pytest.raises(ValueError, match="chunk"):
            comm.alltoallv(ragged, codec=WireCodec("varint"))
