"""Codegen-time estimator tests: exact against the counters, pure under faults.

Three properties carry the subsystem:

1. **Exactness by construction** — the estimate for any (plan, device,
   grid) equals the counters the simulated profiler derives for the same
   launch, bit for bit, because both price the identical reconstructed
   workload.
2. **Purity under fault injection** — faults perturb the *measurement*
   (derated time, retries), never the prediction: the estimate from a
   plan's IR is unchanged by any fault plan, mirroring the regression
   sentinel's skip-faulted contract.
3. **Whole-trajectory reconciliation** — every record of
   ``BENCH_profile.json`` reconciles, which ``tools/check.py`` enforces
   as a repository gate.
"""

import json

import pytest

from repro.analysis.estimate import (
    EXACT_FIELDS,
    HEADER_PREFIX,
    estimate_ir,
    estimate_plan,
    parse_header,
    prediction_header,
    reconcile_profile,
)
from repro.analysis.planir import lower_plan
from repro.codegen import (
    generate_hip_kernel,
    generate_kernel,
    generate_opencl_kernel,
)
from repro.errors import ResourceLimitError
from repro.gpusim.batch import BatchEngine, BlockClass
from repro.gpusim.executor import DeviceExecutor, simulate
from repro.gpusim.faults import FaultPlan, apply_launch_faults
from repro.kernels.config import BlockConfig
from repro.kernels.inplane import InPlaneKernel
from repro.kernels.nvstencil import NvStencilKernel
from repro.stencils.spec import symmetric

GRID = (512, 512, 256)


def make(order=4, block=(32, 4, 2, 2), dtype="sp", variant="fullslice"):
    return InPlaneKernel(symmetric(order), BlockConfig(*block), dtype, variant=variant)


class TestExactness:
    @pytest.mark.parametrize("plan", [
        make(),
        make(order=8, dtype="dp", variant="horizontal"),
        make(order=2, variant="vertical"),
        NvStencilKernel(symmetric(4), BlockConfig(32, 8)),
    ], ids=lambda p: p.name)
    def test_estimate_equals_profiler_counters(self, plan, paper_device):
        est = estimate_plan(plan, paper_device, GRID)
        rep = simulate(plan, paper_device, GRID)
        for field in EXACT_FIELDS:
            assert getattr(est, field) == rep.counters[field], field
        assert est.limiter == rep.counters.occupancy_limiter
        assert est.mpoints_per_s == rep.mpoints_per_s
        assert est.total_cycles == rep.total_cycles

    def test_estimate_from_ir_equals_estimate_from_plan(self):
        plan = make(order=6)
        assert estimate_ir(lower_plan(plan, GRID)) == estimate_plan(plan)

    def test_unlaunchable_plan_raises_like_the_executor(self):
        plan = make(block=(64, 32))  # 2048 threads > device limit
        with pytest.raises(ResourceLimitError):
            estimate_plan(plan, "gtx580")


class TestFaultPurity:
    """Satellite: the estimator is a pure function of the plan."""

    def test_throttle_perturbs_measurement_not_prediction(self, gtx580):
        plan = make()
        est = estimate_plan(plan, gtx580, GRID)
        clean = DeviceExecutor(gtx580).run(plan, GRID)
        cls = BlockClass.of(
            plan.block_workload(gtx580, GRID), plan.grid_workload(gtx580, GRID)
        )
        (_, mpoints, _), event = apply_launch_faults(
            FaultPlan(throttle_rate=1.0), gtx580, plan.name,
            BatchEngine(gtx580).score(cls), cls,
        )
        # The fault derated the measured rate...
        assert mpoints < clean.mpoints_per_s
        assert event is not None and event.kind == "throttle"
        # ...but the counters and the estimate describe the clean launch.
        for field in EXACT_FIELDS:
            assert getattr(est, field) == clean.counters[field], field
        assert est.mpoints_per_s == clean.mpoints_per_s

    def test_estimate_ignores_any_fault_plan(self, gtx580):
        # Same plan, estimate recomputed after a faulted launch: identical.
        plan = make(order=8, dtype="dp")
        before = estimate_plan(plan, gtx580, GRID)
        cls = BlockClass.of(
            plan.block_workload(gtx580, GRID), plan.grid_workload(gtx580, GRID)
        )
        apply_launch_faults(
            FaultPlan(ecc_rate=1.0), gtx580, plan.name,
            BatchEngine(gtx580).score(cls), cls,
        )
        assert estimate_plan(plan, gtx580, GRID) == before


class TestPredictionHeader:
    @pytest.mark.parametrize("emit", [
        generate_kernel, generate_opencl_kernel, generate_hip_kernel,
    ], ids=lambda e: e.__name__)
    def test_every_backend_carries_a_parsable_header(self, emit):
        plan = make()
        src = emit(plan)
        payload = parse_header(src.text)
        assert payload is not None
        assert payload["kernel"] == src.ir.kernel
        assert payload["device"] == "gtx580"

    def test_header_values_match_the_estimate(self):
        plan = make(order=8)
        payload = parse_header(generate_kernel(plan).text)
        est = estimate_plan(plan, "gtx580")
        for field in EXACT_FIELDS:
            assert payload[field] == getattr(est, field), field
        assert payload["limiter"] == est.limiter

    def test_header_round_trip_is_full_precision(self):
        ir = lower_plan(make(order=6, dtype="dp"))
        line = prediction_header(ir)
        assert line.startswith(HEADER_PREFIX)
        payload = json.loads(line[len(HEADER_PREFIX):])
        assert payload == parse_header(line)

    def test_unlaunchable_ir_yields_unavailable_header(self):
        ir = lower_plan(make(block=(64, 32)))
        line = prediction_header(ir)
        payload = parse_header(line)
        assert "unavailable" in payload
        assert payload["kernel"] == ir.kernel

    def test_no_header_parses_to_none(self):
        assert parse_header("int main() { return 0; }") is None

    def test_tampered_header_raises(self):
        with pytest.raises(ValueError):
            parse_header(f"{HEADER_PREFIX} {{truncated")


class TestReconcile:
    def test_bench_profile_reconciles_exactly(self):
        report = reconcile_profile("BENCH_profile.json", verify_sources=False)
        assert report.total == report.compared + report.skipped_faulted
        assert report.compared > 0
        assert report.failures == ()
        assert report.errors == ()
        assert report.exit_code() == 0

    def test_faulted_records_are_skipped(self, tmp_path, gtx580):
        plan = make(order=2, block=(32, 4, 1, 4))
        rep = simulate(plan, gtx580, (64, 64, 32))
        from repro.obs.telemetry import TelemetryCollector, record_from_report
        import dataclasses

        clean = record_from_report(rep, order=2, source="test")
        faulted = dataclasses.replace(
            clean,
            mpoints_per_s=clean.mpoints_per_s / 7.0,  # a derated measurement
            faulted=True,
            source="test-faulted",
        )
        collector = TelemetryCollector()
        collector.add(clean)
        collector.add(faulted)
        path = tmp_path / "profile.json"
        collector.write(path)

        report = reconcile_profile(path, verify_sources=False)
        assert report.total == 2
        assert report.compared == 1
        assert report.skipped_faulted == 1
        assert report.exit_code() == 0

    def test_source_verification_leg_runs(self, tmp_path, gtx580):
        plan = make(order=2, block=(32, 4, 1, 4))
        rep = simulate(plan, gtx580, (64, 64, 32))
        from repro.obs.telemetry import TelemetryCollector

        collector = TelemetryCollector()
        collector.add_report(rep, order=2, source="test")
        path = tmp_path / "profile.json"
        collector.write(path)
        report = reconcile_profile(path, verify_sources=True)
        assert report.source_failures == ()
        assert report.exit_code() == 0

    def test_unsupported_family_is_skipped(self, tmp_path, gtx580):
        """A full bench run records texture launches; lowering has no IR
        for them, so reconcile skips them instead of failing."""
        from repro.kernels.factory import make_kernel
        from repro.obs.telemetry import TelemetryCollector

        collector = TelemetryCollector()
        collector.add_report(
            simulate(make_kernel("texture", 2, (32, 4)), gtx580, (64, 64, 32)),
            order=2, source="test",
        )
        path = tmp_path / "profile.json"
        collector.write(path)
        report = reconcile_profile(path, verify_sources=True)
        assert report.exit_code() == 0
        assert (report.total, report.compared, report.skipped_unsupported) == (1, 0, 1)
        assert "1 unsupported skipped" in report.render()
        assert report.to_json_obj()["skipped_unsupported"] == 1

    def test_report_renders_and_serializes(self):
        report = reconcile_profile("BENCH_profile.json", verify_sources=False)
        text = report.render()
        assert "0 counter mismatch(es)" in text
        obj = report.to_json_obj()
        assert obj["compared"] == report.compared
        assert obj["failures"] == []
