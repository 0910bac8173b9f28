"""Tests for the collective operations: functional results and costs.

``bcast``, ``allreduce``, ``alltoallv`` and ``gatherv`` have one body, in
:class:`~repro.runtime.comm.Communicator`; their results are checked
there, with the charge read back from the machine's ledger, and their
prices through the ``*_charge`` builders.
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


class TestResolveOp:
    def test_named(self):
        assert coll.resolve_op("sum")(2, 3) == 5
        assert coll.resolve_op("max")(2, 3) == 3
        assert coll.resolve_op("bor")(0b01, 0b10) == 0b11

    def test_callable_passthrough(self):
        fn = lambda a, b: a - b  # noqa: E731
        assert coll.resolve_op(fn) is fn

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown reduce op"):
            coll.resolve_op("mean")


class TestBcast:
    def test_all_ranks_receive_root_value(self):
        comm = comm_of(4)
        out = comm.bcast([10, 20, 30, 40], root=2)
        assert out == [30, 30, 30, 30]
        assert comm.ledger.total.supersteps == 2  # ceil(log2 4)

    def test_single_rank_free(self):
        comm = comm_of(1)
        out = comm.bcast(["x"], root=0)
        assert out == ["x"]
        assert comm.ledger.total.comm_seconds == 0.0

    def test_bad_root(self):
        with pytest.raises(IndexError):
            comm_of(2).bcast([1, 2], root=2)

    def test_total_bytes_counts_recipients(self):
        payload = np.zeros(100, dtype=np.float64)
        comm = comm_of(8)
        comm.bcast([payload] * 8, root=0)
        assert comm.ledger.total.total_bytes == 7 * payload.nbytes


class TestReduce:
    def test_sum_at_root(self):
        out, _ = coll.reduce(SPEC, group(4), [1, 2, 3, 4], "sum", root=1)
        assert out == [None, 10, None, None]

    def test_array_sum(self):
        vals = [np.full(3, i) for i in range(4)]
        out, _ = coll.reduce(SPEC, group(4), vals, "sum", root=0)
        assert np.array_equal(out[0], np.full(3, 6))


class TestAllreduce:
    @pytest.mark.parametrize("alg", ["recursive_doubling", "rabenseifner", "ring"])
    def test_all_algorithms_agree(self, alg):
        vals = [np.arange(5) * i for i in range(6)]
        out = comm_of(6).allreduce(vals, "sum", algorithm=alg)
        expect = np.arange(5) * 15
        for o in out:
            assert np.array_equal(o, expect)

    def test_max(self):
        out = comm_of(3).allreduce([5, 9, 2], "max")
        assert out == [9, 9, 9]

    def test_auto_picks_bandwidth_algorithm_for_large(self):
        big = [np.zeros(1 << 16) for _ in range(4)]
        auto, rd = comm_of(4), comm_of(4)
        auto.allreduce(big, "sum")
        rd.allreduce(big, "sum", algorithm="recursive_doubling")
        assert (
            auto.ledger.total.comm_seconds < rd.ledger.total.comm_seconds
        )

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown allreduce"):
            comm_of(2).allreduce([1, 2], "sum", algorithm="magic")

    @settings(max_examples=30)
    @given(vals=st.lists(st.integers(-100, 100), min_size=1, max_size=16))
    def test_matches_python_sum(self, vals):
        out = comm_of(len(vals)).allreduce(vals, "sum")
        assert out[0] == sum(vals)


class TestAllgather:
    def test_everyone_gets_everything(self):
        out, _ = coll.allgather(SPEC, group(3), ["a", "b", "c"])
        assert out == [["a", "b", "c"]] * 3

    def test_charge_scales_with_payload(self):
        small = [np.zeros(10)] * 4
        large = [np.zeros(1000)] * 4
        _, c_small = coll.allgather(SPEC, group(4), small)
        _, c_large = coll.allgather(SPEC, group(4), large)
        assert c_large.comm_seconds > c_small.comm_seconds


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


class TestGatherScatter:
    def test_gatherv(self):
        out = comm_of(3).gatherv([10, 11, 12], root=1)
        assert out == [None, [10, 11, 12], None]

    def test_scatterv(self):
        out, _ = coll.scatterv(SPEC, group(3), ["x", "y", "z"], root=0)
        assert out == ["x", "y", "z"]

    def test_scatterv_wrong_count(self):
        with pytest.raises(ValueError, match="parts"):
            coll.scatterv(SPEC, group(3), ["x"], root=0)


class TestScan:
    def test_inclusive(self):
        out, _ = coll.scan(SPEC, group(4), [1, 2, 3, 4], "sum")
        assert out == [1, 3, 6, 10]

    def test_exclusive(self):
        out, _ = coll.scan(
            SPEC, group(4), [1, 2, 3, 4], "sum", exclusive=True, identity=0
        )
        assert out == [0, 1, 3, 6]

    def test_exclusive_requires_identity(self):
        with pytest.raises(ValueError, match="identity"):
            coll.scan(SPEC, group(2), [1, 2], "sum", exclusive=True)

    @settings(max_examples=30)
    @given(vals=st.lists(st.integers(-50, 50), min_size=1, max_size=20))
    def test_matches_cumsum(self, vals):
        out, _ = coll.scan(SPEC, group(len(vals)), vals, "sum")
        assert out == np.cumsum(vals).tolist()


class TestCostModelShape:
    def test_log_rounds(self):
        for s in (2, 4, 8, 16):
            charge = coll.bcast_charge(SPEC, group(s), coll.payload_nbytes(1))
            assert charge.rounds == int(math.log2(s))

    def test_barrier_cost(self):
        charge = coll.barrier_charge(SPEC, group(8))
        assert charge.alpha_seconds == pytest.approx(3 * SPEC.alpha)

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
