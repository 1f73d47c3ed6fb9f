"""Resource pre-checks: provable agreement with the executor."""

import pytest

from repro.analysis.resources import (
    effective_registers,
    launch_failure,
    resource_diagnostics,
)
from repro.errors import ResourceLimitError
from repro.gpusim.device import get_device
from repro.gpusim.executor import DeviceExecutor
from repro.kernels.config import BlockConfig
from repro.kernels.inplane import InPlaneKernel
from repro.stencils.spec import symmetric
from repro.tuning.exhaustive import feasible_configs
from repro.tuning.space import default_space

GRID = (512, 512, 64)


def build(order):
    spec = symmetric(order)
    return lambda cfg: InPlaneKernel(spec, cfg)


class TestLaunchFailureEquivalence:
    @pytest.mark.parametrize("order", (2, 8))
    @pytest.mark.parametrize("device_name", ("gtx580", "gtx680", "gtx285"))
    def test_static_verdict_equals_executor_verdict_over_default_space(
        self, order, device_name
    ):
        """For every feasible configuration of the default space, the
        static check and the executor agree on launchability — by
        construction (same compute_occupancy call), verified here."""
        device = get_device(device_name)
        builder = build(order)
        executor = DeviceExecutor(device)
        configs = feasible_configs(builder, device, GRID, default_space())
        assert configs
        disagreements = []
        statically_rejected = 0
        for cfg in configs:
            plan = builder(cfg)
            workload = plan.block_workload(device, GRID)
            static = launch_failure(workload, device)
            if static is not None:
                statically_rejected += 1
            try:
                executor.run(plan, GRID)
                dynamic = None
            except ResourceLimitError as exc:
                dynamic = str(exc)
            if (static is None) != (dynamic is None):
                disagreements.append((cfg, static, dynamic))
        assert not disagreements, disagreements[:3]
        if order == 8 and device_name == "gtx580":
            # The acceptance criterion's "nonzero share": the Table IV
            # high-order sweep does contain statically rejectable configs.
            assert statically_rejected > 0

    def test_diagnostics_error_verdict_matches_launch_failure(self):
        device = get_device("gtx580")
        builder = build(8)
        for cfg in feasible_configs(builder, device, GRID, default_space()):
            plan = builder(cfg)
            workload = plan.block_workload(device, GRID)
            diags = resource_diagnostics(plan, workload, device)
            has_error = any(d.severity.label == "error" for d in diags)
            assert has_error == (launch_failure(workload, device) is not None), cfg

    def test_spill_is_a_warning_not_a_failure(self):
        device = get_device("gtx580")
        plan = InPlaneKernel(symmetric(8), BlockConfig(16, 2, 4, 8))
        workload = plan.block_workload(device, GRID)
        assert workload.regs_per_thread > device.rules.max_regs_per_thread
        assert effective_registers(workload.regs_per_thread, device) == (
            device.rules.max_regs_per_thread
        )
        diags = resource_diagnostics(plan, workload, device)
        rules = {d.rule for d in diags}
        assert "RES-SPILL" in rules

    def test_halfwarp_warning(self):
        device = get_device("gtx580")
        plan = InPlaneKernel(symmetric(2), BlockConfig(24, 4))
        workload = plan.block_workload(device, GRID)
        rules = {d.rule for d in resource_diagnostics(plan, workload, device)}
        assert "RES-HALFWARP" in rules

    def test_threads_overflow_short_circuits(self):
        device = get_device("gtx580")
        plan = InPlaneKernel(symmetric(2), BlockConfig(256, 8))  # 2048 threads
        workload = plan.block_workload(device, GRID)
        diags = resource_diagnostics(plan, workload, device)
        assert [d.rule for d in diags if d.severity.label == "error"] == [
            "RES-THREADS"
        ]
        assert launch_failure(workload, device) is not None

