"""Resource diagnostics: their error verdict is the price's launch check."""

import pytest

from repro.analysis.resources import effective_registers, resource_diagnostics
from repro.errors import ResourceLimitError
from repro.gpusim.batch import BatchEngine, BlockClass
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


def price_error(plan, device):
    """The tuners' launch verdict: the batch engine's scalar price."""
    cls = BlockClass.of(
        plan.block_workload(device, GRID), plan.grid_workload(device, GRID)
    )
    return BatchEngine(device).scores([cls])[0].launch_error


def has_error(plan, device):
    diags = resource_diagnostics(plan, plan.block_workload(device, GRID), device)
    return any(d.severity.label == "error" for d in diags)


class TestLaunchFailureEquivalence:
    @pytest.mark.parametrize("order", (2, 8))
    @pytest.mark.parametrize("device_name", ("gtx580", "gtx680", "gtx285"))
    def test_static_verdict_equals_executor_verdict_over_default_space(
        self, order, device_name
    ):
        """For every feasible configuration of the default space, the
        diagnostics' error verdict, the tuners' price and the executor
        agree on launchability, with the same message from both prices."""
        device = get_device(device_name)
        builder = build(order)
        executor = DeviceExecutor(device)
        configs = feasible_configs(builder, device, GRID, default_space())
        assert configs
        disagreements = []
        rejected = 0
        for cfg in configs:
            plan = builder(cfg)
            priced = price_error(plan, device)
            if priced is not None:
                rejected += 1
            try:
                executor.run(plan, GRID)
                dynamic = None
            except ResourceLimitError as exc:
                dynamic = str(exc)
            if priced != dynamic or has_error(plan, device) != (priced is not None):
                disagreements.append((cfg, priced, dynamic))
        assert not disagreements, disagreements[:3]
        if order == 8 and device_name == "gtx580":
            # The acceptance criterion's "nonzero share": the Table IV
            # high-order sweep does contain unlaunchable configs.
            assert rejected > 0

    def test_diagnostics_error_verdict_matches_launch_failure(self):
        device = get_device("gtx580")
        builder = build(8)
        for cfg in feasible_configs(builder, device, GRID, default_space()):
            plan = builder(cfg)
            assert has_error(plan, device) == (price_error(plan, device) is not None), cfg

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
        assert price_error(plan, device) is not None

