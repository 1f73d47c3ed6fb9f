"""repro — reproduction of *Optimizing and Auto-Tuning Iterative Stencil
Loops for GPUs with the In-Plane Method* (Tang et al., 2013).

The library implements the paper's in-plane stencil method and everything
it depends on — a transaction-level GPU performance simulator standing in
for the GTX580/GTX680/C2070 hardware, the nvstencil forward-plane baseline,
the four in-plane loading variants, register tiling, exhaustive and
model-based auto-tuning (Eqns (6)-(14)), and the six application stencils
of section V.

Quickstart::

    import numpy as np
    import repro

    spec = repro.symmetric(order=4)
    kern = repro.make_kernel("inplane_fullslice", spec, (32, 4, 1, 4))
    out = kern.execute(np.random.rand(32, 64, 64).astype(np.float32))

    report = repro.simulate(kern, "gtx580", grid_shape=(512, 512, 256))
    print(report.summary())

    best = repro.autotune("inplane_fullslice", spec, "gtx580",
                          grid_shape=(512, 512, 256), method="model")
    print(best.summary())
"""

from __future__ import annotations

from repro.driver import converged, iterate, residual
from repro.errors import (
    ConfigurationError,
    FaultInjectedError,
    GridShapeError,
    HaloExchangeError,
    JournalError,
    KernelHangError,
    ReproError,
    ResourceLimitError,
    StencilDefinitionError,
    TuningError,
    UnknownDeviceError,
)
from repro.gpusim import (
    DeviceExecutor,
    DeviceSpec,
    FaultPlan,
    SimReport,
    get_device,
    list_devices,
    simulate,
)
from repro.kernels import (
    BlockConfig,
    InPlaneKernel,
    KernelPlan,
    MultiGridKernel,
    NvStencilKernel,
    make_kernel,
)
from repro.stencils import (
    APPLICATIONS,
    StencilExpr,
    SymmetricStencil,
    apply_expr,
    apply_symmetric,
    parse_stencil,
    symmetric,
)
from repro.tuning import (
    TuneResult,
    exhaustive_tune,
    model_based_tune,
)

__version__ = "1.0.0"

__all__ = [
    # stencils
    "SymmetricStencil",
    "symmetric",
    "StencilExpr",
    "APPLICATIONS",
    "apply_symmetric",
    "apply_expr",
    "parse_stencil",
    # kernels
    "BlockConfig",
    "KernelPlan",
    "NvStencilKernel",
    "InPlaneKernel",
    "MultiGridKernel",
    "make_kernel",
    # simulator
    "DeviceSpec",
    "DeviceExecutor",
    "FaultPlan",
    "SimReport",
    "get_device",
    "list_devices",
    "simulate",
    # tuning
    "TuneResult",
    "exhaustive_tune",
    "model_based_tune",
    "autotune",
    # driver
    "iterate",
    "residual",
    "converged",
    # errors
    "ReproError",
    "ConfigurationError",
    "ResourceLimitError",
    "UnknownDeviceError",
    "StencilDefinitionError",
    "GridShapeError",
    "TuningError",
    "FaultInjectedError",
    "KernelHangError",
    "HaloExchangeError",
    "JournalError",
    "__version__",
]


def autotune(
    family: str,
    spec: "SymmetricStencil | int",
    device: "DeviceSpec | str",
    grid_shape: tuple[int, int, int] = (512, 512, 256),
    dtype: str = "sp",
    method: str = "exhaustive",
    beta: float = 0.05,
) -> "TuneResult":
    """Tune a kernel family's (TX, TY, RX, RY) on a device.

    ``method`` is ``"exhaustive"`` (section IV-C) or ``"model"`` (the
    section VI beta-cutoff procedure).  Trials price on the batch
    simulator core, as every tuner does by default.
    """
    from repro.kernels.factory import make_kernel as _mk
    from repro.stencils.spec import symmetric as _sym

    if isinstance(spec, int):
        spec = _sym(spec)
    dev = get_device(device) if isinstance(device, str) else device

    def build(cfg: BlockConfig) -> KernelPlan:
        return _mk(family, spec, cfg, dtype)

    if method == "exhaustive":
        return exhaustive_tune(build, dev, grid_shape)
    if method == "model":
        return model_based_tune(build, dev, grid_shape, beta=beta)
    raise TuningError(f"unknown tuning method {method!r}")
