"""Fault-injector tests: determinism, taxonomy, and zero perturbation."""

import numpy as np
import pytest

import repro.obs as obs
from repro.errors import (
    ConfigurationError,
    FaultInjectedError,
    KernelHangError,
)
from repro.gpusim.executor import DeviceExecutor
from repro.gpusim.faults import (
    FAULT_KINDS,
    STREAM_EXCHANGE,
    STREAM_LAUNCH,
    FaultPlan,
    flip_bit,
)
from repro.kernels.config import BlockConfig
from repro.kernels.factory import make_kernel
from repro.stencils.spec import symmetric

GRID = (128, 128, 32)

STORM = dict(
    launch_failure_rate=0.1, hang_rate=0.05, throttle_rate=0.1, ecc_rate=0.05
)


@pytest.fixture
def plan():
    return make_kernel("inplane_fullslice", symmetric(2), BlockConfig(32, 4, 1, 2))


class TestSchedule:
    def test_same_seed_same_schedule(self):
        a = FaultPlan(seed=7, **STORM).schedule(200)
        b = FaultPlan(seed=7, **STORM).schedule(200)
        assert a == b

    def test_different_seeds_differ(self):
        a = FaultPlan(seed=7, **STORM).schedule(200)
        b = FaultPlan(seed=8, **STORM).schedule(200)
        assert a != b

    def test_streams_independent(self):
        plan = FaultPlan(seed=7, **STORM)
        assert plan.schedule(200, STREAM_LAUNCH) != plan.schedule(
            200, STREAM_EXCHANGE
        )

    def test_event_for_is_pure(self):
        plan = FaultPlan(seed=3, **STORM)
        first = [plan.event_for(i) for i in range(50)]
        # Draw counters have no effect on the schedule.
        for _ in range(17):
            plan.next_index()
        assert [plan.event_for(i) for i in range(50)] == first

    def test_empirical_rates_match(self):
        plan = FaultPlan(seed=1, **STORM)
        events = plan.schedule(20000)
        counts = {k: 0 for k in FAULT_KINDS}
        for e in events:
            if e is not None:
                counts[e.kind] += 1
        assert counts["launch_failure"] / 20000 == pytest.approx(0.1, abs=0.01)
        assert counts["hang"] / 20000 == pytest.approx(0.05, abs=0.01)
        assert counts["throttle"] / 20000 == pytest.approx(0.1, abs=0.01)
        assert counts["ecc"] / 20000 == pytest.approx(0.05, abs=0.01)

    def test_burst_limits_injection(self):
        plan = FaultPlan(seed=2, launch_failure_rate=1.0, burst=10)
        events = plan.schedule(30)
        assert all(e is not None for e in events[:10])
        assert all(e is None for e in events[10:])

    def test_enabling_one_kind_does_not_shift_another(self):
        # One uniform draw per index: adding a disjoint rate slice must
        # not move the indices where an existing kind fires.
        lone = FaultPlan(seed=5, launch_failure_rate=0.1)
        both = FaultPlan(seed=5, launch_failure_rate=0.1, ecc_rate=0.3)
        lone_hits = {
            i for i, e in enumerate(lone.schedule(2000)) if e is not None
        }
        both_hits = {
            i for i, e in enumerate(both.schedule(2000))
            if e is not None and e.kind == "launch_failure"
        }
        assert lone_hits == both_hits

    def test_rate_validation(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(launch_failure_rate=-0.1)
        with pytest.raises(ConfigurationError):
            FaultPlan(launch_failure_rate=0.7, hang_rate=0.7)
        with pytest.raises(ConfigurationError):
            FaultPlan(throttle_min=0.5)
        with pytest.raises(ConfigurationError):
            FaultPlan(ecc_mode="zap")


class TestParse:
    def test_roundtrip(self):
        plan = FaultPlan.parse("seed=7, launch=0.1, hang=0.02, throttle=0.05")
        assert plan.seed == 7
        assert plan.launch_failure_rate == 0.1
        assert plan.hang_rate == 0.02
        assert plan.throttle_rate == 0.05
        assert "seed=7" in plan.describe()

    def test_all_keys(self):
        plan = FaultPlan.parse(
            "seed=3,ecc=0.1,ecc_mode=nan,burst=5,watchdog=1e9,"
            "throttle_min=1.5,throttle_max=2.0"
        )
        assert plan.ecc_mode == "nan"
        assert plan.burst == 5
        assert plan.watchdog_cycles == 1e9

    def test_bad_key_raises(self):
        with pytest.raises(ConfigurationError, match="bad fault spec entry"):
            FaultPlan.parse("frobnicate=1")

    def test_bad_value_raises(self):
        with pytest.raises(ConfigurationError, match="bad fault spec value"):
            FaultPlan.parse("launch=lots")


class TestExecutorFaults:
    def run_storm(self, plan, device, n=40, **kwargs):
        """Outcome-kind string per launch under a seeded storm."""
        executor = DeviceExecutor(device, faults=FaultPlan(seed=7, **kwargs))
        out = []
        for _ in range(n):
            try:
                report = executor.run(plan, GRID)
            except FaultInjectedError as exc:
                out.append(exc.kind)
            except KernelHangError as exc:
                out.append(exc.kind)
            else:
                faults = report.meta.get("faults", ())
                out.append(faults[0]["kind"] if faults else "clean")
        return out

    def test_fault_sequence_reproducible(self, plan, gtx580):
        kwargs = dict(STORM)
        a = self.run_storm(plan, gtx580, **kwargs)
        b = self.run_storm(plan, gtx580, **kwargs)
        assert a == b
        assert set(a) > {"clean"}  # the storm actually fired

    def test_launch_failure_raises(self, plan, gtx580):
        executor = DeviceExecutor(
            gtx580, faults=FaultPlan(launch_failure_rate=1.0)
        )
        with pytest.raises(FaultInjectedError) as exc:
            executor.run(plan, GRID)
        assert exc.value.kind == "launch_failure"

    def test_hang_raises(self, plan, gtx580):
        executor = DeviceExecutor(gtx580, faults=FaultPlan(hang_rate=1.0))
        with pytest.raises(KernelHangError) as exc:
            executor.run(plan, GRID)
        assert exc.value.kind == "hang"

    def test_watchdog_fires_without_faults(self, plan, gtx580):
        clean = DeviceExecutor(gtx580).run(plan, GRID)
        executor = DeviceExecutor(
            gtx580, watchdog_cycles=clean.total_cycles / 2
        )
        with pytest.raises(KernelHangError) as exc:
            executor.run(plan, GRID)
        assert exc.value.kind == "watchdog"

    def test_throttle_derates_time_not_cycles(self, plan, gtx580):
        clean = DeviceExecutor(gtx580).run(plan, GRID)
        executor = DeviceExecutor(gtx580, faults=FaultPlan(throttle_rate=1.0))
        report = executor.run(plan, GRID)
        assert report.total_cycles == clean.total_cycles
        factor = report.meta["faults"][0]["factor"]
        assert factor > 1.0
        assert report.time_s == pytest.approx(clean.time_s * factor)
        assert report.mpoints_per_s == pytest.approx(
            clean.mpoints_per_s / factor
        )

    def test_ecc_flags_meta(self, plan, gtx580):
        executor = DeviceExecutor(gtx580, faults=FaultPlan(ecc_rate=1.0))
        report = executor.run(plan, GRID)
        assert report.meta["faults"][0]["kind"] == "ecc"

    def test_no_plan_means_no_meta(self, plan, gtx580):
        report = DeviceExecutor(gtx580).run(plan, GRID)
        assert "faults" not in report.meta

    def test_zero_rate_plan_is_unperturbed(self, plan, gtx580):
        clean = DeviceExecutor(gtx580).run(plan, GRID)
        report = DeviceExecutor(gtx580, faults=FaultPlan(seed=9)).run(
            plan, GRID
        )
        assert report.time_s == clean.time_s
        assert report.total_cycles == clean.total_cycles

    def test_faults_observable_in_trace(self, plan, gtx580):
        executor = DeviceExecutor(gtx580, faults=FaultPlan(throttle_rate=1.0))
        with obs.tracing() as tracer:
            executor.run(plan, GRID)
        assert tracer.metrics.counter("sim.fault.throttle").value == 1
        instants = [
            s for s in tracer.host_spans() if s.name == "fault.throttle"
        ]
        assert instants and instants[0].args["kind"] == "throttle"


class TestArrayCorruption:
    def test_flip_bit_changes_one_element(self):
        import random

        arr = np.ones((4, 4, 4), dtype=np.float64)
        before = arr.copy()
        idx, bit = flip_bit(arr, random.Random(0))
        assert 0 <= idx < arr.size and 0 <= bit < 64
        assert (arr != before).sum() == 1

    def test_flip_bit_rejects_unsupported(self):
        import random

        with pytest.raises(ConfigurationError):
            flip_bit(np.ones(3, dtype=np.float16), random.Random(0))
        with pytest.raises(ConfigurationError):
            flip_bit(np.empty(0, dtype=np.float32), random.Random(0))

    def test_corrupt_nan_mode_plants_nan(self):
        plan = FaultPlan(ecc_rate=1.0, ecc_mode="nan")
        arr = np.ones((8, 8), dtype=np.float64)
        event = plan.corrupt(arr, STREAM_EXCHANGE)
        assert event is not None and event.kind == "ecc"
        assert np.isnan(arr).sum() == 1

    def test_corrupt_flip_mode_changes_value(self):
        plan = FaultPlan(ecc_rate=1.0, ecc_mode="flip")
        arr = np.ones((8, 8), dtype=np.float64)
        event = plan.corrupt(arr, STREAM_EXCHANGE)
        assert event is not None and event.kind == "ecc"
        assert not np.array_equal(arr, np.ones((8, 8)))

    def test_corrupt_reports_non_ecc_without_touching(self):
        plan = FaultPlan(launch_failure_rate=1.0)
        arr = np.ones(16, dtype=np.float32)
        event = plan.corrupt(arr, STREAM_EXCHANGE)
        assert event is not None and event.kind == "launch_failure"
        assert np.array_equal(arr, np.ones(16, dtype=np.float32))

    def test_corrupt_is_reproducible(self):
        results = []
        for _ in range(2):
            plan = FaultPlan(seed=11, ecc_rate=0.5, ecc_mode="nan")
            arr = np.ones((4, 4), dtype=np.float64)
            for _ in range(10):
                plan.corrupt(arr, STREAM_EXCHANGE)
            results.append(np.isnan(arr))
        assert np.array_equal(results[0], results[1])
