"""Reconciliation tests: the reconstructed timeline must agree with the
analytic model's totals, and tuner traces must account for every config.

These are the profiler's trustworthiness guarantees — a timeline that
disagrees with ``SimReport`` would be worse than no timeline.
"""

from __future__ import annotations

import math

import pytest

import repro.obs as obs
from repro.gpusim.executor import DeviceExecutor
from repro.gpusim.report import BREAKDOWN_KEYS
from repro.kernels.factory import make_kernel
from repro.obs.schema import (
    CAT_SIM_COMPONENT,
    CAT_SIM_KERNEL,
    CAT_SIM_WAVE,
    CAT_TUNE_RUN,
    CAT_TUNE_TRIAL,
    COMPONENT_LANES,
)
from repro.stencils.spec import symmetric
from repro.tuning.evaluator import SimTrialEvaluator
from repro.tuning.exhaustive import exhaustive_tune
from repro.tuning.modelbased import model_based_tune
from repro.tuning.space import ParameterSpace
from repro.tuning.stochastic import stochastic_tune
from repro.tuning.vectorized import VectorTrialEvaluator

CASES = [
    ("gtx580", "inplane_fullslice", 2, (32, 4, 1, 2), "sp"),
    ("gtx580", "inplane_fullslice", 8, (32, 8, 1, 1), "sp"),
    ("gtx680", "inplane_fullslice", 4, (32, 4, 2, 2), "dp"),
    ("c2070", "inplane_classical", 4, (32, 4, 1, 1), "sp"),
    ("gtx680", "nvstencil", 2, (32, 8, 1, 1), "sp"),
]
# Large enough in-plane that every case needs several waves of blocks
# (the full-wave-vs-breakdown check is vacuous on single-wave launches).
GRID = (512, 512, 64)


def _traced_run(device, family, order, block, dtype):
    with obs.tracing() as tracer:
        plan = make_kernel(family, symmetric(order), block, dtype)
        report = DeviceExecutor(device).run(plan, GRID)
    return tracer, report


@pytest.mark.parametrize("device,family,order,block,dtype", CASES)
class TestTimelineReconciliation:
    def test_wave_sum_equals_total_cycles(self, device, family, order, block, dtype):
        tracer, report = _traced_run(device, family, order, block, dtype)
        kernel = tracer.device_spans(CAT_SIM_KERNEL)[0]
        waves = tracer.device_spans(CAT_SIM_WAVE)
        assert kernel.dur == report.total_cycles
        assert math.isclose(
            sum(w.dur for w in waves), report.total_cycles, rel_tol=1e-12
        )
        # Waves tile the kernel span: each begins where the previous ended.
        cursor = kernel.begin
        for w in waves:
            assert math.isclose(w.begin, cursor, rel_tol=1e-12, abs_tol=1e-9)
            cursor += w.dur

    def test_component_lanes_reconcile_with_breakdown(
        self, device, family, order, block, dtype
    ):
        """Full-wave component spans carry exactly the per-plane cycles
        that ``SimReport.breakdown`` publishes under the frozen keys."""
        tracer, report = _traced_run(device, family, order, block, dtype)
        waves = tracer.device_spans(CAT_SIM_WAVE)
        # The last wave is the remainder (fewer resident blocks, its own
        # per-plane cost); only the full waves must equal the breakdown.
        full_waves = waves[:-1]
        for wave in full_waves:
            for lane in ("mem", "compute", "exposed", "sync"):
                key = f"{lane}_cycles_per_plane"
                assert key in BREAKDOWN_KEYS
                assert math.isclose(
                    wave.args[key], report.breakdown[key], rel_tol=1e-12
                )
        comp = tracer.device_spans(CAT_SIM_COMPONENT)
        assert {s.tid.split(":", 1)[1] for s in comp} == set(COMPONENT_LANES)
        for lane in ("mem", "compute", "exposed", "sync"):
            lane_full = [
                s for s in comp
                if s.tid == f"component:{lane}"
                and s.args["wave"] < len(waves) - 1
            ]
            key = f"{lane}_cycles_per_plane"
            for span in lane_full:
                assert math.isclose(
                    span.args["per_plane"], report.breakdown[key], rel_tol=1e-12
                )

    def test_kernel_span_breakdown_matches_report(
        self, device, family, order, block, dtype
    ):
        tracer, report = _traced_run(device, family, order, block, dtype)
        kernel = tracer.device_spans(CAT_SIM_KERNEL)[0]
        assert kernel.args["breakdown"] == dict(report.breakdown)
        assert tuple(kernel.args["breakdown"]) == BREAKDOWN_KEYS
        assert kernel.args["mpoints_per_s"] == report.mpoints_per_s

    def test_wave_internal_reconciliation(self, device, family, order, block, dtype):
        """Inside every wave: planes x plane-cycles plus the scheduler
        overhead lane is exactly the wave duration (the last wave's
        duration is the residual, so this doubles as a check that the
        residual matches its own plane accounting)."""
        tracer, report = _traced_run(device, family, order, block, dtype)
        waves = tracer.device_spans(CAT_SIM_WAVE)
        comp = tracer.device_spans(CAT_SIM_COMPONENT)
        for w, wave in enumerate(waves):
            overhead = next(
                s for s in comp
                if s.tid == "component:overhead" and s.args["wave"] == w
            )
            assert math.isclose(
                wave.args["planes"] * wave.args["plane_cycles"] + overhead.dur,
                wave.dur, rel_tol=1e-9,
            )

    def test_cycle_counters_reconcile(self, device, family, order, block, dtype):
        """The cycle model overlaps mem and compute (the shorter stream
        hides behind the longer), so the lane counters must *bracket* the
        total: serial sum >= total >= fully-overlapped sum; and the
        headline counter equals the report exactly."""
        tracer, report = _traced_run(device, family, order, block, dtype)
        m = tracer.metrics.snapshot()["counters"]
        serial = (
            m["sim.mem_cycles"]
            + m["sim.compute_cycles"]
            + m["sim.latency_exposed_cycles"]
            + m["sim.sync_cycles"]
            + m["sim.sched_overhead_cycles"]
        )
        hidden = min(m["sim.mem_cycles"], m["sim.compute_cycles"])
        assert serial >= report.total_cycles - 1e-6
        assert serial - hidden <= report.total_cycles + 1e-6
        assert m["sim.cycles"] == report.total_cycles
        assert m["sim.kernels"] == 1


#: Every tuner, each set to price the whole space (beta 1, a stochastic
#: budget above the space size) so every static reject is narrated.
TUNERS = {
    "exhaustive": lambda build, device, space, ev: exhaustive_tune(
        build, device, GRID, space, evaluator=ev
    ),
    "model": lambda build, device, space, ev: model_based_tune(
        build, device, GRID, beta=1.0, space=space, evaluator=ev
    ),
    "stochastic": lambda build, device, space, ev: stochastic_tune(
        build, device, GRID, budget=100, seed=0, space=space,
        evaluator=ev,
    ),
}


class TestTunerTrace:
    @pytest.mark.parametrize(
        "backend", [SimTrialEvaluator, VectorTrialEvaluator],
        ids=["sim", "vector"],
    )
    @pytest.mark.parametrize("tuner", sorted(TUNERS))
    def test_one_trial_span_per_evaluated_config(self, tuner, backend):
        """Every tuner on every backend narrates identically: one span per
        priced config, one instant per static reject."""
        # dp order 8 on gtx580: the ty=32 corner exceeds the register
        # file, so the space holds static rejects.
        space = ParameterSpace(
            tx_values=(32,), ty_values=(8, 16, 32), rx_values=(1, 2),
            ry_values=(1, 2, 4),
        )
        spec = symmetric(8)

        def build(cfg):
            return make_kernel("inplane_fullslice", spec, cfg, "dp")

        from repro.gpusim.device import get_device
        from repro.tuning.exhaustive import feasible_configs

        device = get_device("gtx580")
        feasible = feasible_configs(build, device, GRID, space)
        with obs.tracing() as tracer:
            result = TUNERS[tuner](build, device, space, backend(device))

        trials = tracer.host_spans(CAT_TUNE_TRIAL)
        simulated = [s for s in trials if "mpoints_per_s" in s.args]
        rejected_static = [s for s in trials if s.instant]
        counters = tracer.metrics.snapshot()["counters"]
        assert len(simulated) == counters["tune.trials"]
        assert len(rejected_static) == counters.get("tune.rejected_static", 0)
        assert rejected_static, "space must contain static rejects"
        # Every feasible config surfaces as exactly one trial event, and
        # only static rejects are instants.
        assert len(trials) == len(feasible)
        assert len(simulated) + len(rejected_static) == len(trials)
        assert all(s.args["rejected"] == "static" for s in rejected_static)
        assert result.info["rejected_static"] == len(rejected_static)

        run = tracer.host_spans(CAT_TUNE_RUN)[0]
        assert run.args["evaluated"] == result.evaluated
        best = max(s.args["mpoints_per_s"] for s in simulated)
        assert math.isclose(best, result.best_mpoints, rel_tol=1e-12)

    @pytest.mark.parametrize("tuner", ["stochastic"])
    def test_narration_keeps_pace_with_measurement(self, tuner):
        """On the stochastic walk, the one tuner that measures one trial
        at a time, trial k is narrated before trial k+1 is measured: when
        the k-th measurement raises, the stream holds exactly the first
        k-1 trials' events."""
        from repro.gpusim.device import get_device
        from repro.obs.events import MemoryEventSink, event_stream

        space = ParameterSpace(
            tx_values=(32,), ty_values=(2, 4, 8), rx_values=(1, 2),
            ry_values=(1, 2),
        )
        spec = symmetric(2)

        def build(cfg):
            return make_kernel("inplane_fullslice", spec, cfg, "sp")

        class FailsOnCall:
            def __init__(self, inner, k):
                self.inner, self.k, self.measured = inner, k, []

            def measure(self, cfg, plan, grid_shape, block):
                if len(self.measured) + 1 == self.k:
                    raise RuntimeError(f"measurement {self.k} failed")
                self.measured.append(cfg.label())
                return self.inner.measure(cfg, plan, grid_shape, block)

        device = get_device("gtx580")
        k = 4
        evaluator = FailsOnCall(SimTrialEvaluator(device), k)
        sink = MemoryEventSink()
        with event_stream(sink), pytest.raises(RuntimeError):
            TUNERS[tuner](build, device, space, evaluator)
        narrated = [
            dict(e.fields)["config"] for e in sink.events
            if e.name.startswith("trial.")
        ]
        assert len(evaluator.measured) == k - 1
        assert narrated == evaluator.measured

    def test_device_track_packs_trial_launches(self):
        """On the scalar reference, each evaluated config is one kernel
        span on the device cursor, so the tuner's device track is as long
        as its launches combined."""
        space = ParameterSpace(
            tx_values=(32,), ty_values=(4, 8), rx_values=(1,), ry_values=(1,)
        )
        spec = symmetric(2)

        def build(cfg):
            return make_kernel("inplane_fullslice", spec, cfg, "sp")

        from repro.gpusim.device import get_device

        device = get_device("gtx680")
        with obs.tracing() as tracer:
            exhaustive_tune(
                build, device, GRID, space, evaluator=SimTrialEvaluator(device)
            )

        kernels = tracer.device_spans(CAT_SIM_KERNEL)
        assert len(kernels) >= 1
        for prev, nxt in zip(kernels, kernels[1:]):
            assert math.isclose(
                nxt.begin, prev.begin + prev.dur, rel_tol=1e-12, abs_tol=1e-9
            )
