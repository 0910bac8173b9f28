"""Tests for the BSP cost ledger."""

import pytest

from repro.runtime.cost import CostLedger, PhaseCost


class TestPhaseCost:
    def test_seconds_sums_components(self):
        pc = PhaseCost(
            alpha_seconds=1.0, comm_seconds=2.0, compute_seconds=3.0,
            io_seconds=4.0,
        )
        assert pc.seconds == 10.0

    def test_merge_accumulates(self):
        a = PhaseCost(supersteps=1, total_bytes=10.0, total_flops=5.0)
        b = PhaseCost(supersteps=2, total_bytes=20.0, total_flops=7.0)
        a.merge(b)
        assert a.supersteps == 3
        assert a.total_bytes == 30.0
        assert a.total_flops == 12.0


class TestCostLedger:
    def test_default_phase(self):
        ledger = CostLedger()
        ledger.charge_compute(1.5)
        assert ledger.phases["default"].compute_seconds == 1.5

    def test_phase_attribution(self):
        ledger = CostLedger()
        with ledger.phase("read"):
            ledger.charge_io(2.0)
        with ledger.phase("spgemm"):
            ledger.charge_compute(3.0)
        assert ledger.phases["read"].io_seconds == 2.0
        assert ledger.phases["spgemm"].compute_seconds == 3.0

    def test_nested_phase_attributes_to_innermost(self):
        ledger = CostLedger()
        with ledger.phase("outer"):
            with ledger.phase("inner"):
                ledger.charge_compute(1.0)
            ledger.charge_compute(2.0)
        assert ledger.phases["inner"].compute_seconds == 1.0
        assert ledger.phases["outer"].compute_seconds == 2.0

    def test_repeated_phase_accumulates(self):
        ledger = CostLedger()
        for _ in range(3):
            with ledger.phase("loop"):
                ledger.charge_compute(1.0)
        assert ledger.phases["loop"].compute_seconds == 3.0

    def test_superstep_charge(self):
        ledger = CostLedger()
        ledger.charge_superstep(
            alpha_seconds=1e-5, comm_seconds=2e-5, total_bytes=100,
            max_rank_bytes=50, messages=4, rounds=3,
        )
        assert ledger.supersteps == 3
        assert ledger.communication_bytes == 100
        assert ledger.simulated_seconds == pytest.approx(3e-5)

    def test_simulated_seconds_across_phases(self):
        ledger = CostLedger()
        with ledger.phase("a"):
            ledger.charge_compute(1.0)
        with ledger.phase("b"):
            ledger.charge_io(2.0)
        assert ledger.simulated_seconds == 3.0

    def test_diff_isolates_new_charges(self):
        ledger = CostLedger()
        with ledger.phase("a"):
            ledger.charge_compute(1.0)
        snap = ledger.snapshot()
        with ledger.phase("a"):
            ledger.charge_compute(2.0)
        with ledger.phase("b"):
            ledger.charge_io(5.0)
        delta = ledger.diff(snap)
        assert delta.phases["a"].compute_seconds == pytest.approx(2.0)
        assert delta.phases["b"].io_seconds == pytest.approx(5.0)

    def test_diff_drops_untouched_phases(self):
        ledger = CostLedger()
        with ledger.phase("quiet"):
            ledger.charge_compute(1.0)
        snap = ledger.snapshot()
        assert "quiet" not in ledger.diff(snap).phases

    def test_snapshot_is_independent(self):
        ledger = CostLedger()
        ledger.charge_compute(1.0)
        snap = ledger.snapshot()
        ledger.charge_compute(1.0)
        assert snap["phases"]["default"].compute_seconds == 1.0

    def test_report_contains_totals(self):
        ledger = CostLedger()
        with ledger.phase("read"):
            ledger.charge_io(1.0)
        text = ledger.report()
        assert "read" in text
        assert "TOTAL" in text


class TestMeasuredClock:
    def test_phase_entries_add_measured_seconds(self, monkeypatch):
        ticks = iter([1.0, 1.25, 2.0, 2.5])
        monkeypatch.setattr("repro.runtime.cost.time.perf_counter", lambda: next(ticks))
        ledger = CostLedger(n_ranks=2)
        for _ in range(2):
            with ledger.phase("filter"):
                ledger.charge_compute(1.0, ranks=[0, 1])
        assert ledger.measured_s == {"filter": 0.75}

    def test_nested_phase_times_every_frame(self):
        ledger = CostLedger()
        with ledger.phase("outer"):
            with ledger.phase("inner"):
                pass
        assert set(ledger.measured_s) == {"outer", "inner"}
        assert ledger.measured_s["outer"] >= ledger.measured_s["inner"] >= 0.0

    def test_model_views_ignore_the_clock(self):
        a, b = CostLedger(n_ranks=1), CostLedger(n_ranks=1)
        before = a.snapshot()
        for ledger in (a, b):
            with ledger.phase("read"):
                ledger.charge_io(2.0, ranks=[0])
        a.measured_s["read"] += 1.0
        assert a == b
        assert "measured" not in repr(a)
        assert a.diff(before).measured_s == {}
        assert set(a.snapshot()) == {"phases", "makespan", "overlap_credited"}


class TestOverlapCredit:
    def test_credit_turns_sum_into_max(self):
        ledger = CostLedger(n_ranks=2)
        ledger.local_advance([0, 1], [3.0, 1.0])   # stage A
        a = ledger.rank_clocks()
        ledger.local_advance([0, 1], [2.0, 5.0])   # stage B
        b = ledger.rank_clocks()
        saved = ledger.credit_overlap([min(3.0, 2.0), min(1.0, 5.0)])
        # Rank 0: max(3, 2) = 3; rank 1: max(1, 5) = 5 -> makespan 5.
        assert ledger.makespan == pytest.approx(5.0)
        assert saved == pytest.approx(6.0 - 5.0)
        assert ledger.overlap_credited_seconds == pytest.approx(saved)
        assert a is not b  # snapshots are independent copies

    def test_credit_requires_one_entry_per_rank(self):
        ledger = CostLedger(n_ranks=4)
        with pytest.raises(ValueError, match="per rank"):
            ledger.credit_overlap([1.0, 2.0])

    def test_negative_credit_rejected(self):
        ledger = CostLedger(n_ranks=2)
        with pytest.raises(ValueError, match="non-negative"):
            ledger.credit_overlap([-1.0, 0.0])

    def test_bare_ledger_credit_is_noop(self):
        ledger = CostLedger()
        assert ledger.rank_clocks() is None
        assert ledger.credit_overlap([1.0]) == 0.0
        assert ledger.overlap_credited_seconds == 0.0

    def test_diff_carries_credit(self):
        ledger = CostLedger(n_ranks=2)
        ledger.local_advance([0, 1], [2.0, 2.0])
        snap = ledger.snapshot()
        ledger.local_advance([0, 1], [4.0, 4.0])
        ledger.credit_overlap([1.0, 1.0])
        delta = ledger.diff(snap)
        assert delta.overlap_credited_seconds == pytest.approx(1.0)
        assert delta.simulated_seconds == pytest.approx(3.0)

    def test_report_mentions_overlap_when_credited(self):
        ledger = CostLedger(n_ranks=2)
        ledger.local_advance([0, 1], [2.0, 2.0])
        ledger.local_advance([0, 1], [2.0, 2.0])
        assert "overlap" not in ledger.report()
        ledger.credit_overlap([2.0, 2.0])
        assert "overlap" in ledger.report()


class TestWireCounters:
    def test_record_wire_accumulates_per_phase_and_codec(self):
        ledger = CostLedger()
        with ledger.phase("spgemm"):
            ledger.record_wire("rle", raw_bytes=1000.0, encoded_bytes=100.0)
            ledger.record_wire("varint", raw_bytes=500.0, encoded_bytes=250.0)
        with ledger.phase("gather"):
            ledger.record_wire("rle", raw_bytes=200.0, encoded_bytes=40.0)
        assert ledger.wire_raw_bytes == pytest.approx(1700.0)
        assert ledger.wire_encoded_bytes == pytest.approx(390.0)
        assert ledger.phases["spgemm"].wire_raw_bytes == pytest.approx(1500.0)
        assert ledger.wire_codec_totals == {
            "rle": (1200.0, 140.0),
            "varint": (500.0, 250.0),
        }
        assert ledger.wire_compression_ratio == pytest.approx(1700 / 390)

    def test_ratio_is_one_without_codec_traffic(self):
        assert CostLedger().wire_compression_ratio == 1.0

    def test_merge_folds_wire_counters(self):
        a, b = PhaseCost(), PhaseCost()
        a.record_wire("rle", 100.0, 10.0)
        b.record_wire("rle", 50.0, 5.0)
        b.record_wire("varint", 30.0, 20.0)
        a.merge(b)
        assert a.wire_raw_bytes == pytest.approx(180.0)
        assert a.codec_raw_bytes == {"rle": 150.0, "varint": 30.0}
        assert a.codec_encoded_bytes == {"rle": 15.0, "varint": 20.0}

    def test_snapshot_diff_isolates_wire_counters(self):
        ledger = CostLedger()
        with ledger.phase("spgemm"):
            ledger.record_wire("rle", 100.0, 10.0)
        snap = ledger.snapshot()
        with ledger.phase("spgemm"):
            ledger.record_wire("rle", 40.0, 4.0)
        with ledger.phase("gather"):
            ledger.record_wire("varint", 8.0, 6.0)
        delta = ledger.diff(snap)
        assert delta.wire_raw_bytes == pytest.approx(48.0)
        assert delta.wire_encoded_bytes == pytest.approx(10.0)
        assert delta.phases["spgemm"].codec_raw_bytes == {"rle": 40.0}
        assert delta.phases["gather"].codec_encoded_bytes == {"varint": 6.0}
        # The pre-snapshot traffic stays out of the diff entirely.
        assert ledger.wire_raw_bytes == pytest.approx(148.0)

    def test_report_prints_wire_table_when_present(self):
        ledger = CostLedger()
        assert "wire codec" not in ledger.report()
        ledger.record_wire("rle", 2048.0, 512.0)
        report = ledger.report()
        assert "wire codec" in report
        assert "rle" in report
        assert "4.00x" in report
