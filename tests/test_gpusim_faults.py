"""Fault-injector tests: determinism, taxonomy, and zero perturbation."""

import numpy as np
import pytest

import repro.obs as obs
from repro.errors import ConfigurationError, FaultInjectedError, KernelHangError
from repro.gpusim.batch import BatchEngine, BlockClass
from repro.gpusim.executor import DeviceExecutor
from repro.gpusim.faults import (
    FAULT_KINDS,
    FaultPlan,
    apply_launch_faults,
    flip_bit,
)
from repro.gpusim.timing import sweep_rates
from repro.kernels.config import BlockConfig
from repro.kernels.factory import make_kernel
from repro.stencils.spec import symmetric

GRID = (128, 128, 32)

STORM = dict(
    launch_failure_rate=0.1, hang_rate=0.05, throttle_rate=0.1, ecc_rate=0.05
)


def schedule(plan, n):
    """The first ``n`` draws of ``plan`` — the reproducibility witness."""
    return [plan.event_for(i) for i in range(n)]


@pytest.fixture
def plan():
    return make_kernel("inplane_fullslice", symmetric(2), BlockConfig(32, 4, 1, 2))


class TestSchedule:
    def test_same_seed_same_schedule(self):
        a = schedule(FaultPlan(seed=7, **STORM), 200)
        b = schedule(FaultPlan(seed=7, **STORM), 200)
        assert a == b

    def test_different_seeds_differ(self):
        a = schedule(FaultPlan(seed=7, **STORM), 200)
        b = schedule(FaultPlan(seed=8, **STORM), 200)
        assert a != b

    def test_event_for_is_pure(self):
        plan = FaultPlan(seed=3, **STORM)
        first = [plan.event_for(i) for i in range(50)]
        # Draw counters have no effect on the schedule.
        for _ in range(17):
            plan.next_index()
        assert [plan.event_for(i) for i in range(50)] == first

    def test_empirical_rates_match(self):
        plan = FaultPlan(seed=1, **STORM)
        events = schedule(plan, 20000)
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
        events = schedule(plan, 30)
        assert all(e is not None for e in events[:10])
        assert all(e is None for e in events[10:])

    def test_enabling_one_kind_does_not_shift_another(self):
        # One uniform draw per index: adding a disjoint rate slice must
        # not move the indices where an existing kind fires.
        lone = FaultPlan(seed=5, launch_failure_rate=0.1)
        both = FaultPlan(seed=5, launch_failure_rate=0.1, ecc_rate=0.3)
        lone_hits = {
            i for i, e in enumerate(schedule(lone, 2000)) if e is not None
        }
        both_hits = {
            i for i, e in enumerate(schedule(both, 2000))
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
            "seed=3,ecc=0.1,burst=5,watchdog=1e9,"
            "throttle_min=1.5,throttle_max=2.0"
        )
        assert plan.ecc_rate == 0.1
        assert plan.burst == 5
        assert plan.watchdog_cycles == 1e9

    def test_bad_key_raises(self):
        with pytest.raises(ConfigurationError, match="bad fault spec entry"):
            FaultPlan.parse("frobnicate=1")
        # Launch faults never touch array data: there is no ECC mode.
        with pytest.raises(ConfigurationError, match="bad fault spec entry"):
            FaultPlan.parse("ecc=0.1,ecc_mode=nan")

    def test_bad_value_raises(self):
        with pytest.raises(ConfigurationError, match="bad fault spec value"):
            FaultPlan.parse("launch=lots")


class TestExecutorFaults:
    """Faults as an overlay on an executor-identical clean price.

    :func:`apply_launch_faults` takes the launch's clean price (the
    batch engine's :class:`ClassScore`, bit-identical to
    :class:`DeviceExecutor`'s report) and applies the plan's next
    ``launch`` event to it.
    """

    @pytest.fixture
    def priced(self, plan, gtx580):
        cls = BlockClass.of(
            plan.block_workload(gtx580, GRID), plan.grid_workload(gtx580, GRID)
        )
        return BatchEngine(gtx580).scores([cls])[0], cls

    @staticmethod
    def launch(faults, plan, device, priced, **kwargs):
        score, cls = priced
        return apply_launch_faults(
            faults, device, plan.name, score, cls, **kwargs
        )

    def run_storm(self, plan, device, priced, n=40, **kwargs):
        """Outcome-kind string per launch under a seeded storm."""
        faults = FaultPlan(seed=7, **kwargs)
        out = []
        for _ in range(n):
            try:
                _rates, event = self.launch(faults, plan, device, priced)
            except (FaultInjectedError, KernelHangError) as exc:
                out.append(exc.kind)
            else:
                out.append(event.kind if event is not None else "clean")
        assert faults.next_index() == n  # one draw per launch
        return out

    def test_fault_sequence_reproducible(self, plan, gtx580, priced):
        kwargs = dict(STORM)
        a = self.run_storm(plan, gtx580, priced, **kwargs)
        b = self.run_storm(plan, gtx580, priced, **kwargs)
        assert a == b
        assert set(a) > {"clean"}  # the storm actually fired
        expected = [
            e.kind if e is not None else "clean"
            for e in schedule(FaultPlan(seed=7, **kwargs), 40)
        ]
        assert a == expected

    def test_launch_failure_raises(self, plan, gtx580, priced):
        with pytest.raises(FaultInjectedError) as exc:
            self.launch(
                FaultPlan(launch_failure_rate=1.0), plan, gtx580, priced
            )
        assert exc.value.kind == "launch_failure"
        assert exc.value.launch_index == 0

    def test_hang_raises(self, plan, gtx580, priced):
        with pytest.raises(KernelHangError) as exc:
            self.launch(FaultPlan(hang_rate=1.0), plan, gtx580, priced)
        assert exc.value.kind == "hang"
        assert exc.value.cycles == priced[0].total_cycles * 64.0

    def test_watchdog_fires_without_faults(self, plan, gtx580, priced):
        clean = DeviceExecutor(gtx580).run(plan, GRID)
        with pytest.raises(KernelHangError) as exc:
            self.launch(
                None, plan, gtx580, priced,
                watchdog_cycles=clean.total_cycles / 2,
            )
        assert exc.value.kind == "watchdog"
        # The plan's own budget arms the watchdog too.
        with pytest.raises(KernelHangError, match="per-trial cycle budget"):
            self.launch(
                FaultPlan(watchdog_cycles=clean.total_cycles / 2),
                plan, gtx580, priced,
            )
        self.launch(
            None, plan, gtx580, priced, watchdog_cycles=clean.total_cycles
        )

    def test_throttle_derates_time_not_cycles(self, plan, gtx580, priced):
        clean = DeviceExecutor(gtx580).run(plan, GRID)
        (time_s, mpoints, _), event = self.launch(
            FaultPlan(throttle_rate=1.0), plan, gtx580, priced
        )
        assert priced[0].total_cycles == clean.total_cycles
        assert event.kind == "throttle"
        factor = event.factor
        assert factor > 1.0
        assert time_s == pytest.approx(clean.time_s * factor)
        assert mpoints == pytest.approx(clean.mpoints_per_s / factor)
        # The watchdog reads the clean cycles: a budget of exactly the
        # clean count survives the throttle.
        self.launch(
            FaultPlan(throttle_rate=1.0, watchdog_cycles=clean.total_cycles),
            plan, gtx580, priced,
        )

    def test_ecc_flags_meta(self, plan, gtx580, priced):
        clean = DeviceExecutor(gtx580).run(plan, GRID)
        rates, event = self.launch(
            FaultPlan(ecc_rate=1.0), plan, gtx580, priced
        )
        assert event.kind == "ecc"
        assert rates == (clean.time_s, clean.mpoints_per_s, clean.gflops)

    @staticmethod
    def clean_rates(gtx580, priced):
        """The rates the caller keeps for a clean launch: ``score``'s,
        which equal the overlay's un-derated sweep."""
        score, cls = priced
        rates = sweep_rates(
            gtx580, score.total_cycles, cls.total_points, cls.flops_per_point
        )
        assert rates[1] == score.mpoints_per_s
        return rates

    def test_no_plan_means_no_meta(self, plan, gtx580, priced):
        report = DeviceExecutor(gtx580).run(plan, GRID)
        assert "faults" not in report.meta
        rates, event = self.launch(None, plan, gtx580, priced)
        assert event is None and rates is None
        assert self.clean_rates(gtx580, priced) == (
            report.time_s, report.mpoints_per_s, report.gflops
        )

    def test_zero_rate_plan_is_unperturbed(self, plan, gtx580, priced):
        clean = DeviceExecutor(gtx580).run(plan, GRID)
        faults = FaultPlan(seed=9)
        rates, event = self.launch(faults, plan, gtx580, priced)
        assert event is None and rates is None
        assert self.clean_rates(gtx580, priced) == (
            clean.time_s, clean.mpoints_per_s, clean.gflops
        )
        assert faults.next_index() == 1

    def test_faults_observable_in_trace(self, plan, gtx580, priced):
        with obs.tracing() as tracer:
            self.launch(
                FaultPlan(throttle_rate=1.0), plan, gtx580, priced,
                tracer=tracer,
            )
        assert tracer.metrics.counter("sim.fault.throttle").value == 1
        instants = [
            s for s in tracer.host_spans() if s.name == "fault.throttle"
        ]
        assert instants and instants[0].args["kind"] == "throttle"
        assert instants[0].args["kernel"] == plan.name


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
