"""End-to-end pipeline integration: the library's layers composed.

One test walks the full user journey — define, verify, tune, profile,
generate code, scale out — and asserts the cross-layer consistency
contracts: the tuner's winner re-simulates to the same rate, the code
generator accepts the winner, roofline places it below its ceiling, and
the multi-GPU model reduces to the single-GPU simulation at G = 1.
"""

import numpy as np
import pytest

import repro
from repro.cluster import MultiGpuStencil
from repro.codegen import generate_host_driver, generate_kernel, generate_opencl_kernel
from repro.gpusim.device import get_device
from repro.harness.runner import tune_family
from repro.metrics.roofline import roofline

GRID = (512, 512, 256)


class TestFullPipeline:
    @pytest.mark.parametrize("device", ["gtx580", "gtx680", "c2070"])
    def test_define_verify_tune_generate(self, device, rng):
        spec = repro.symmetric(4)

        # 1. Verify numerics at a throwaway configuration.
        probe = repro.make_kernel("inplane_fullslice", spec, (16, 4))
        g = rng.random((12, 16, 20)).astype(np.float32)
        probe.validate_against(repro.apply_symmetric(spec, g), probe.execute(g))

        # 2. Tune, and re-simulate the winner: identical rate.
        tuned = tune_family("inplane_fullslice", 4, device)
        winner = repro.make_kernel("inplane_fullslice", spec, tuned.best_config)
        report = repro.simulate(winner, device, GRID)
        assert report.mpoints_per_s == pytest.approx(tuned.best_mpoints)

        # 3. The winner beats the paper-style baseline.
        baseline = tune_family("nvstencil", 4, device, register_blocking=False)
        assert tuned.best_mpoints > baseline.best_mpoints

        # 4. Roofline places the winner at or below its ceiling.
        point = roofline(winner, get_device(device), GRID, report=report)
        assert report.mpoints_per_s <= point.ceiling_mpoints * 1.001

        # 5. Both code generators accept the tuned configuration.
        cuda = generate_kernel(winner)
        opencl = generate_opencl_kernel(winner)
        assert winner.block.label().replace(", ", "x").strip("()") in cuda.name
        assert "__kernel" in opencl.text
        assert cuda.name in generate_host_driver(winner, GRID)

    def test_multigpu_reduces_to_single_gpu(self):
        sim = MultiGpuStencil(
            lambda: repro.make_kernel("inplane_fullslice", repro.symmetric(2), (64, 4, 4, 2)),
            "gtx580",
        )
        single = sim.step_cost(GRID, 1)
        direct = repro.simulate(
            repro.make_kernel("inplane_fullslice", repro.symmetric(2), (64, 4, 4, 2)),
            "gtx580",
            GRID,
        )
        assert single.step_time_s == pytest.approx(direct.time_s)
        assert single.exchange_time_s == 0.0

    def test_gt200_device_simulates(self):
        """The prior-work card (GTX285) runs through the whole stack."""
        plan = repro.make_kernel("inplane_fullslice", repro.symmetric(2), (32, 4))
        rep = repro.simulate(plan, "gtx285", (256, 256, 64))
        assert 0 < rep.mpoints_per_s
        # GT200 is slower than Fermi at equal configuration.
        fermi = repro.simulate(plan, "gtx580", (256, 256, 64))
        assert rep.mpoints_per_s < fermi.mpoints_per_s

    def test_dsl_to_tuned_simulation(self, rng):
        """Text in, tuned MPoint/s out — the Patus-style workflow."""
        from repro.kernels.multigrid import MultiGridKernel
        from repro.tuning.exhaustive import exhaustive_tune
        from repro.tuning.space import THREAD_ONLY_SPACE

        expr, inputs = repro.parse_stencil(
            "o[i,j,k] = 0.7 * u[i,j,k] + 0.1 * u[i-1,j,k] + 0.1 * u[i+1,j,k]"
            " + 0.1 * u[i,j,k-1]"
        )
        assert inputs == ["u"]
        res = exhaustive_tune(
            lambda cfg: MultiGridKernel(expr, cfg, "sp", method="inplane"),
            get_device("gtx580"),
            GRID,
            THREAD_ONLY_SPACE,
        )
        assert res.best_mpoints > 0
