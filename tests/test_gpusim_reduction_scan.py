"""Tests for repro.gpusim.reduction, repro.gpusim.scan,
repro.gpusim.transfer and repro.gpusim.timeline."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gpusim.device import TESLA_C2070
from repro.gpusim.kernel import CostModel, KernelCost, KernelTally
from repro.gpusim.launch import LaunchConfig
from repro.gpusim.reduction import plan_reduction, reduce_min, reduction_tallies
from repro.gpusim.scan import exclusive_scan, scan_tallies
from repro.gpusim.timeline import KernelRecord, Timeline
from repro.gpusim.transfer import TransferRecord, record_transfer, transfer_seconds


class TestReduction:
    def test_functional_min(self):
        assert reduce_min(np.array([5.0, 2.0, 9.0])) == 2.0

    def test_functional_empty_raises(self):
        with pytest.raises(ValueError):
            reduce_min(np.array([]))

    def test_plan_pass_structure(self):
        plan = plan_reduction(1_000_000, threads_per_block=256)
        # 2*256 = 512 elements per block: 1e6 -> 1954 -> 4 -> 1.
        assert plan.passes[0] == 1_000_000
        assert plan.num_kernels == 3

    def test_plan_small_input(self):
        assert plan_reduction(10).num_kernels == 1

    def test_plan_single_element(self):
        assert plan_reduction(1).passes == (1,)

    def test_tallies_count_matches_plan(self):
        tallies = reduction_tallies(100_000, TESLA_C2070)
        assert len(tallies) == plan_reduction(100_000).num_kernels

    def test_tallies_priceable(self):
        model = CostModel(TESLA_C2070)
        total = sum(model.price(t).seconds for t in reduction_tallies(50_000, TESLA_C2070))
        assert total > 0

    def test_larger_inputs_cost_more(self):
        model = CostModel(TESLA_C2070)
        small = sum(model.price(t).seconds for t in reduction_tallies(1_000, TESLA_C2070))
        large = sum(model.price(t).seconds for t in reduction_tallies(1_000_000, TESLA_C2070))
        assert large > small


class TestScan:
    def test_functional_exclusive(self):
        assert exclusive_scan([1, 0, 1, 1, 0]).tolist() == [0, 1, 1, 2, 3]

    def test_functional_empty(self):
        assert exclusive_scan([]).size == 0

    def test_functional_single(self):
        assert exclusive_scan([5]).tolist() == [0]

    def test_tallies_single_block(self):
        assert len(scan_tallies(100, TESLA_C2070)) == 1

    def test_tallies_multi_block(self):
        assert len(scan_tallies(100_000, TESLA_C2070)) == 3

    def test_tallies_zero(self):
        assert scan_tallies(0, TESLA_C2070) == []

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            scan_tallies(-1, TESLA_C2070)


class TestTransfer:
    def test_zero_bytes_free(self):
        assert transfer_seconds(0, TESLA_C2070) == 0.0

    def test_latency_floor(self):
        assert transfer_seconds(4, TESLA_C2070) >= TESLA_C2070.pcie_latency_s

    def test_bandwidth_term(self):
        one_mb = transfer_seconds(2**20, TESLA_C2070)
        ten_mb = transfer_seconds(10 * 2**20, TESLA_C2070)
        assert ten_mb > 5 * one_mb

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            transfer_seconds(-1, TESLA_C2070)

    def test_record_direction_validation(self):
        with pytest.raises(ValueError):
            record_transfer("sideways", 10, TESLA_C2070)


class TestTimeline:
    def _kernel(self, name="k", seconds_scale=1.0):
        tally = KernelTally(
            name=name, launch=LaunchConfig(1, 32), issue_cycles=1000.0 * seconds_scale
        )
        cost = CostModel(TESLA_C2070).price(tally)
        return tally, cost

    def test_totals_accumulate(self):
        tl = Timeline()
        tally, cost = self._kernel()
        tl.add_kernel(0, tally, cost, "U_T_BM")
        tl.add_transfer(record_transfer("h2d", 1000, TESLA_C2070))
        tl.add_host_seconds(0.5)
        assert tl.total_seconds == pytest.approx(
            cost.seconds + tl.transfer_seconds + 0.5
        )
        assert tl.num_launches == 1

    def test_negative_host_time_rejected(self):
        with pytest.raises(ValueError):
            Timeline().add_host_seconds(-1)

    def test_seconds_by_kernel_groups_prefix(self):
        tl = Timeline()
        for name in ("reduce[0]", "reduce[1]", "comp"):
            tally, cost = self._kernel(name)
            tl.add_kernel(0, tally, cost)
        by = tl.seconds_by_kernel()
        assert set(by) == {"reduce", "comp"}

    def test_seconds_by_variant(self):
        tl = Timeline()
        for variant in ("U_T_BM", "U_T_BM", "U_B_QU"):
            tally, cost = self._kernel()
            tl.add_kernel(0, tally, cost, variant)
        by = tl.seconds_by_variant()
        assert by["U_T_BM"] == pytest.approx(2 * by["U_B_QU"])

    def test_iter_iterations_unique(self):
        tl = Timeline()
        for it in (0, 0, 1, 2, 2):
            tally, cost = self._kernel()
            tl.add_kernel(it, tally, cost)
        assert list(tl.iter_iterations()) == [0, 1, 2]


class TestTimelineRunningTotals:
    """The O(1) totals equal the ``sum()`` over the records, bit for bit."""

    @staticmethod
    def _cost(seconds):
        return KernelCost(
            name="k", seconds=seconds, issue_seconds=0.0, memory_seconds=0.0,
            atomic_seconds=0.0, launch_overhead_seconds=0.0,
            latency_penalty=0.0, occupancy=1.0,
        )

    @staticmethod
    def _assert_totals(tl):
        gpu = sum(k.seconds for k in tl.kernels)
        transfer = sum(t.seconds for t in tl.transfers)
        assert float(tl.gpu_seconds).hex() == float(gpu).hex()
        assert float(tl.transfer_seconds).hex() == float(transfer).hex()
        assert float(tl.total_seconds).hex() == float(
            gpu + transfer + tl.host_seconds
        ).hex()

    _seconds = st.floats(
        min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
    ) | st.sampled_from([0.0, 1e-16, 3e-6, 0.1, 1e8, 1e16])

    @given(st.lists(st.tuples(st.booleans(), _seconds), max_size=60),
           st.lists(_seconds, max_size=5), st.lists(_seconds, max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_totals_equal_sum_after_every_add(self, adds, seed_k, seed_t):
        tally = KernelTally(name="k", launch=LaunchConfig(1, 32))
        for tl in (
            Timeline(),
            Timeline(
                kernels=[KernelRecord(0, tally, self._cost(s)) for s in seed_k],
                transfers=[TransferRecord("h2d", 8, s) for s in seed_t],
                host_seconds=0.25,
            ),
        ):
            self._assert_totals(tl)
            for is_kernel, seconds in adds:
                if is_kernel:
                    tl.add_kernel(1, tally, self._cost(seconds))
                else:
                    tl.add_transfer(TransferRecord("d2h", 8, seconds))
                self._assert_totals(tl)

    def test_cancellation_heavy_sequence(self):
        # Large and tiny terms: where a compensated sum() and a naive
        # running total would part ways.
        tally = KernelTally(name="k", launch=LaunchConfig(1, 32))
        tl = Timeline()
        for seconds in (1.0, 1e100, 1.0, 1e-100, 3.0, 1e100):
            tl.add_kernel(0, tally, self._cost(seconds))
            self._assert_totals(tl)

    def test_totals_not_part_of_eq_or_repr(self):
        tally = KernelTally(name="k", launch=LaunchConfig(1, 32))
        a = Timeline()
        a.add_kernel(0, tally, self._cost(0.5))
        b = Timeline(kernels=list(a.kernels))
        assert a == b
        assert repr(a) == repr(b)
        assert "_gpu" not in repr(a) and "_transfer" not in repr(a)
