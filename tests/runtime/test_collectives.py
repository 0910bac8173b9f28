"""Tests for the collective operations: functional results and costs.

Every collective has one body, in :class:`~repro.runtime.comm.Communicator`;
its results are checked there, with the charge read back from the
machine's ledger, and its price through the ``*_charge`` builders.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import Machine
from repro.runtime import collectives as coll
from repro.runtime.machine import laptop, stampede2_knl

SPEC = laptop(32)


def group(s):
    return list(range(s))


def comm_of(s):
    """A fresh ``s``-rank communicator on ``SPEC``; its ledger starts at 0."""
    return Machine(SPEC).world.sub(group(s))


class TestPayloadNbytes:
    def test_numpy(self):
        assert coll.payload_nbytes(np.zeros(10, dtype=np.int64)) == 80

    def test_scalars(self):
        assert coll.payload_nbytes(5) == 8
        assert coll.payload_nbytes(2.5) == 8
        assert coll.payload_nbytes(True) == 1
        assert coll.payload_nbytes(None) == 0

    def test_containers(self):
        assert coll.payload_nbytes([1, 2.0]) == 16
        assert coll.payload_nbytes({"a": 1}) == 9

    def test_string(self):
        assert coll.payload_nbytes("abc") == 3

    def test_bytes_and_bytearray(self):
        assert coll.payload_nbytes(b"") == 0
        assert coll.payload_nbytes(b"\x00\x01\x02") == 3
        assert coll.payload_nbytes(bytearray(17)) == 17

    def test_memoryview_charges_bytes_not_elements(self):
        arr = np.zeros(4, dtype=np.float64)
        view = memoryview(arr)
        assert len(view) == 4          # elements...
        assert coll.payload_nbytes(view) == 32  # ...but 32 bytes on the wire
        assert coll.payload_nbytes(memoryview(b"abcdef")[1:4]) == 3

    def test_codec_frames(self):
        from repro.runtime.codec import encode_frame

        frame = encode_frame(np.arange(10), "adaptive")
        assert coll.payload_nbytes(frame) == frame.nbytes
        assert coll.payload_nbytes(frame.data) == frame.nbytes


class TestBcast:
    def test_all_ranks_receive_root_value(self):
        comm = comm_of(4)
        out = comm.bcast(30, root=2)
        assert out == [30, 30, 30, 30]
        assert comm.ledger.total.supersteps == 2  # ceil(log2 4)

    def test_single_rank_free(self):
        comm = comm_of(1)
        out = comm.bcast("x", root=0)
        assert out == ["x"]
        assert comm.ledger.total.comm_seconds == 0.0

    def test_bad_root(self):
        with pytest.raises(IndexError):
            comm_of(2).bcast(1, root=2)

    def test_total_bytes_counts_recipients(self):
        payload = np.zeros(100, dtype=np.float64)
        comm = comm_of(8)
        comm.bcast(payload, root=0)
        assert comm.ledger.total.total_bytes == 7 * payload.nbytes


class TestAllreduce:
    @pytest.mark.parametrize("words", [5, 1 << 14], ids=["doubling", "rabenseifner"])
    def test_sums_exactly_on_both_algorithms(self, words):
        vals = [np.arange(words) * i for i in range(6)]
        out = comm_of(6).allreduce(vals)
        expect = np.arange(words) * 15
        for o in out:
            assert np.array_equal(o, expect)

    def test_rabenseifner_above_64_kib(self):
        def charged(words):
            comm = comm_of(4)
            comm.allreduce([np.zeros(words) for _ in range(4)])
            return comm.ledger.total

        at, above = charged(8192), charged(8193)  # 64 KiB, and one word over
        # Recursive doubling: log2 s rounds, the whole payload each round.
        assert at.supersteps == 2
        assert at.comm_seconds == pytest.approx(2 * 65536 * SPEC.beta_intra)
        # Rabenseifner: twice the rounds, 2 n (s-1)/s bytes per rank.
        assert above.supersteps == 4
        assert above.comm_seconds == pytest.approx(
            2 * 65544 * 3 / 4 * SPEC.beta_intra
        )

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown allreduce"):
            coll.allreduce_charge(SPEC, group(2), 8, "ring")

    @settings(max_examples=30)
    @given(vals=st.lists(st.integers(-100, 100), min_size=1, max_size=16))
    def test_matches_python_sum(self, vals):
        out = comm_of(len(vals)).allreduce(vals)
        assert out[0] == sum(vals)


class TestAllgather:
    def test_everyone_gets_everything(self):
        out = comm_of(3).allgather(["a", "b", "c"])
        assert out == [["a", "b", "c"]] * 3

    def test_charge_scales_with_payload(self):
        def comm_seconds(words):
            comm = comm_of(4)
            comm.allgather([np.zeros(words)] * 4)
            return comm.ledger.total.comm_seconds

        assert comm_seconds(1000) > comm_seconds(10)


class TestAlltoallv:
    def test_transpose_semantics(self):
        s = 3
        chunks = [[(i, j) for j in range(s)] for i in range(s)]
        out = comm_of(s).alltoallv(chunks)
        for j in range(s):
            assert out[j] == [(i, j) for i in range(s)]

    def test_single_superstep(self):
        chunks = [[np.zeros(4)] * 2 for _ in range(2)]
        comm = comm_of(2)
        comm.alltoallv(chunks)
        assert comm.ledger.total.supersteps == 1

    def test_off_diagonal_bytes_only(self):
        payload = np.zeros(16, dtype=np.int64)
        chunks = [
            [payload, None],
            [None, payload],
        ]
        comm = comm_of(2)
        comm.alltoallv(chunks)
        # diagonal traffic stays on-rank
        assert comm.ledger.total.total_bytes == 0

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="chunk matrix"):
            comm_of(2).alltoallv([[None]])

    def test_ragged_row_names_the_chunk_matrix(self):
        with pytest.raises(ValueError, match="chunk matrix"):
            comm_of(2).alltoallv([[None, None], [None]])

    def test_h_relation_uses_max_rank(self):
        big = np.zeros(1000)
        chunks = [
            [None, big],
            [None, None],
        ]
        comm = comm_of(2)
        comm.alltoallv(chunks)
        assert comm.ledger.total.max_rank_bytes == big.nbytes


class TestGatherv:
    def test_gatherv(self):
        out = comm_of(3).gatherv([10, 11, 12], root=1)
        assert out == [None, [10, 11, 12], None]


class TestScan:
    def test_exclusive(self):
        assert comm_of(4).exscan([1, 2, 3, 4]) == [0, 1, 3, 6]

    @settings(max_examples=30)
    @given(vals=st.lists(st.integers(-50, 50), min_size=1, max_size=20))
    def test_matches_cumsum(self, vals):
        out = comm_of(len(vals)).exscan(vals)
        assert out == [0] + np.cumsum(vals)[:-1].tolist()


class TestCostModelShape:
    def test_log_rounds(self):
        for s in (2, 4, 8, 16):
            charge = coll.bcast_charge(SPEC, group(s), coll.payload_nbytes(1))
            assert charge.rounds == int(math.log2(s))

    def test_internode_group_charged_at_inter_rate(self):
        spec = stampede2_knl(2)
        payload = np.zeros(1 << 14)
        intra = list(range(4))
        inter = [0, spec.ranks_per_node]
        c_intra = coll.bcast_charge(spec, intra, payload.nbytes)
        c_inter = coll.bcast_charge(spec, inter, payload.nbytes)
        # One inter-node hop moves the same bytes more slowly than two
        # intra-node rounds.
        assert c_inter.comm_seconds > c_intra.comm_seconds / 2
