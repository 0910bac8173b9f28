"""Tests for the Communicator façade."""

import numpy as np
import pytest

from repro.runtime import Machine, WireCodec, laptop
from repro.runtime.comm import Communicator


@pytest.fixture
def machine():
    return Machine(laptop(8))


class TestGroups:
    def test_public_surface_is_what_the_algorithms_call(self):
        public = {
            name for name, attr in vars(Communicator).items()
            if callable(attr) and not name.startswith("_")
        }
        assert public == {
            "sub", "run_local", "charge_compute", "charge_io", "bcast",
            "allreduce", "allgather", "alltoallv", "gatherv", "exscan",
        }

    def test_world_spans_all_ranks(self, machine):
        assert machine.world.size == 8
        assert machine.world.ranks == tuple(range(8))

    def test_sub(self, machine):
        sub = machine.world.sub([1, 3, 5])
        assert sub.ranks == (1, 3, 5)
        assert sub.size == 3

    def test_duplicate_ranks_rejected(self, machine):
        with pytest.raises(ValueError, match="distinct"):
            Communicator(machine, [0, 0])

    def test_out_of_range_rank_rejected(self, machine):
        with pytest.raises(IndexError):
            Communicator(machine, [99])


class TestLocalExecution:
    def test_run_local_passes_rank(self, machine):
        assert machine.world.run_local(lambda r: r * 2) == [
            0, 2, 4, 6, 8, 10, 12, 14,
        ]

    def test_run_local_zips_args(self, machine):
        comm = machine.world.sub([0, 1])
        out = comm.run_local(lambda r, x: r + x, [10, 20])
        assert out == [10, 21]

    def test_run_local_calls_ranks_in_rank_order(self, machine):
        calls = []
        machine.world.sub([5, 2, 7]).run_local(
            lambda r, x: calls.append((r, x)), ["a", "b", "c"]
        )
        assert calls == [(0, "a"), (1, "b"), (2, "c")]

    def test_run_local_arg_count_mismatch(self, machine):
        with pytest.raises(ValueError, match="one value per rank"):
            machine.world.run_local(lambda r, x: x, [1, 2])

    def test_charge_compute_uses_slowest_rank(self, machine):
        comm = machine.world
        comm.charge_compute([0.0] * 7 + [1e9])
        spec = machine.spec
        assert machine.simulated_seconds == pytest.approx(
            spec.compute_seconds(1e9)
        )
        assert machine.ledger.total.total_flops == pytest.approx(1e9)

    def test_charge_compute_scalar_broadcasts(self, machine):
        machine.world.charge_compute(1e6)
        assert machine.ledger.total.total_flops == pytest.approx(8e6)

    def test_charge_io(self, machine):
        machine.world.charge_io([0.0] * 7 + [machine.spec.io_bandwidth_per_rank])
        assert machine.simulated_seconds == pytest.approx(1.0)


class TestCollectiveFacade:
    def test_bcast(self, machine):
        out = machine.world.bcast({"k": 1}, root=3)
        assert all(o == {"k": 1} for o in out)

    def test_allreduce_charges_ledger(self, machine):
        before = machine.simulated_seconds
        machine.world.allreduce(list(range(8)))
        assert machine.simulated_seconds > before

    def test_value_count_validation(self, machine):
        with pytest.raises(ValueError, match="one value per rank"):
            machine.world.allreduce([1, 2])

    def test_alltoallv_roundtrip(self, machine):
        comm = machine.world.sub([0, 1, 2])
        chunks = [[np.full(1, 10 * i + j) for j in range(3)] for i in range(3)]
        out = comm.alltoallv(chunks)
        assert [int(x[0]) for x in out[1]] == [1, 11, 21]

    def test_subcomm_charges_shared_ledger(self, machine):
        sub = machine.world.sub([0, 1])
        before = machine.simulated_seconds
        sub.allgather([1, 2])
        assert machine.simulated_seconds > before



class TestCodecPerPayload:
    """The codec frames each payload it supports, whatever its neighbours.

    An empty array has nothing to frame, so it travels raw at zero
    bytes, exactly like an empty (``None``) slot; the other messages of
    the same collective stay framed.
    """

    @staticmethod
    def _charged(collective, *args, **kwargs):
        machine = Machine(laptop(4))
        getattr(machine.world, collective)(
            *args, codec=WireCodec("varint"), **kwargs
        )
        total = machine.ledger.total
        return total.total_bytes, total.wire_encoded_bytes

    def test_alltoallv_empty_chunk_is_an_empty_slot(self):
        def charged(hole):
            chunks = [
                [
                    np.arange(1000 * (i + 1) * (j + 1), dtype=np.int64) * 3
                    for j in range(4)
                ]
                for i in range(4)
            ]
            chunks[1][2] = hole
            return self._charged("alltoallv", chunks)

        empty = charged(np.empty(0, np.int64))
        assert empty == charged(None)
        # Every off-diagonal message but the hole is framed; one raw
        # empty array used to send all of them raw (512 000 B, nothing
        # encoded).
        assert empty == (64_264.0, 64_264.0)

    def test_gatherv_empty_part_is_an_empty_slot(self):
        def charged(hole):
            vals = [
                np.arange(2000 * (i + 1), dtype=np.int64) * 5
                for i in range(4)
            ]
            vals[2] = hole
            return self._charged("gatherv", vals, root=0)

        empty = charged(np.empty(0, np.int64))
        assert empty == charged(None)
        # One raw empty part used to send every part raw (96 000 B).
        assert empty == (12_048.0, 12_048.0)

    def test_alltoallv_frames_supported_payloads_beside_unsupported(self):
        machine = Machine(laptop(2))
        payload = np.arange(4096, dtype=np.int64)
        out = machine.world.alltoallv(
            [[None, payload], [("tuple", 1), None]],
            codec=WireCodec("varint"),
        )
        assert np.array_equal(out[1][0], payload)
        assert out[0][1] == ("tuple", 1)
        total = machine.ledger.total
        assert total.wire_raw_bytes == payload.nbytes
        assert 0 < total.wire_encoded_bytes < payload.nbytes


class TestAllreduceSum:
    """The sum every rank receives is the plain left-to-right ``+``."""

    CASES = {
        "int64": lambda: [np.arange(6).reshape(2, 3) * r for r in range(5)],
        "float64": lambda: [np.linspace(0, 1, 7) * r for r in range(4)],
        "int_then_float": lambda: [
            np.arange(4), np.arange(4) * 2, np.full(4, 0.5), np.arange(4),
        ],
        "float32_then_int64": lambda: [
            np.ones(3, np.float32), np.ones(3, np.float32),
            np.arange(3), np.ones(3, np.float32),
        ],
        "bool_then_int": lambda: [
            np.array([True, False]), np.array([True, True]),
            np.array([True, False]), np.array([3, 4]),
        ],
        "python_scalars": lambda: [1, 2.5, 3, 4],
        "numpy_scalars": lambda: [np.int64(1), np.int64(2), np.float64(0.5)],
        "array_and_scalar": lambda: [
            np.array([1, 2]), 3, np.array([1, 1]), np.array([0.5, 1.0]),
        ],
        "broadcast": lambda: [np.ones(3), np.ones((2, 3)), np.ones(3), np.ones(3)],
        "zero_d": lambda: [np.array(1), np.array(2), np.array(3)],
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_equals_plain_sum_and_leaves_inputs(self, machine, case):
        vals = self.CASES[case]()
        before = [np.array(v, copy=True) for v in vals]
        want = vals[0]
        for v in vals[1:]:
            want = want + v
        out = machine.world.sub(range(len(vals))).allreduce(vals)
        got = out[0]
        assert type(got) is type(want)
        assert np.asarray(got).dtype == np.asarray(want).dtype
        assert np.array_equal(got, want)
        assert all(o is got for o in out)
        for v, b in zip(vals, before):
            assert np.asarray(v).dtype == b.dtype
            assert np.array_equal(v, b)

    def test_result_is_not_a_callers_array(self, machine):
        vals = [np.zeros(4, np.int64) for _ in range(3)]
        got = machine.world.sub(range(3)).allreduce(vals)[0]
        assert all(got is not v and not np.shares_memory(got, v) for v in vals)

    def test_wire_codec_sum_is_the_same(self, machine):
        vals = [np.arange(64, dtype=np.int64) * r for r in range(4)]
        comm = machine.world.sub(range(4))
        raw = comm.allreduce(vals)[0]
        framed = comm.allreduce(vals, codec=WireCodec("adaptive"))[0]
        assert framed.dtype == raw.dtype
        assert np.array_equal(framed, raw)
