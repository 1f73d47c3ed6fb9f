"""Shared experiment plumbing.

The paper's evaluation methodology (section IV): a 512 x 512 x 256 test
grid; each variant tuned for its own best configuration before comparison;
*nvstencil* tuned over thread-block sizes only (the SDK baseline has no
register tiling — register-blocked nvstencil appears only as case (i) of
the Fig 10 breakdown); in-plane variants tuned over all four blocking
factors where the experiment says so.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpusim.device import DeviceSpec, get_device
from repro.kernels.base import KernelPlan
from repro.kernels.config import BlockConfig
from repro.kernels.factory import make_kernel
from repro.obs.schema import CAT_HARNESS
from repro.obs.telemetry import TelemetryRecord
from repro.obs.tracer import current_tracer, maybe_span
from repro.stencils.spec import symmetric
from repro.tuning.exhaustive import exhaustive_tune
from repro.tuning.result import TuneResult
from repro.tuning.space import THREAD_ONLY_SPACE, ParameterSpace

#: The paper's evaluation grid (section IV-B).
PAPER_GRID: tuple[int, int, int] = (512, 512, 256)

#: Full search space (Table IV, Figs 8, 10, 12).
FULL_SPACE = ParameterSpace()


@dataclass(frozen=True)
class TuneKey:
    """Cache key for one tuning run."""

    family: str
    order: int
    dtype: str
    device: str
    grid: tuple[int, int, int]
    register_blocking: bool


_CACHE: dict[TuneKey, TuneResult] = {}


def tune_family(
    family: str,
    order: int,
    device: DeviceSpec | str,
    *,
    dtype: str = "sp",
    grid: tuple[int, int, int] = PAPER_GRID,
    register_blocking: bool = True,
) -> TuneResult:
    """Tune one kernel family; results are memoized per process.

    ``register_blocking=False`` restricts the space to RX = RY = 1
    (thread blocking only), which is how the nvstencil baseline and the
    Fig 7 comparison are tuned.
    """
    dev = get_device(device) if isinstance(device, str) else device
    key = TuneKey(family, order, dtype, dev.name, grid, register_blocking)
    tracer = current_tracer()
    cached = _CACHE.get(key)
    if cached is not None:
        if tracer is not None:
            tracer.instant(
                f"tune {family} o{order} {dtype} {dev.name}", CAT_HARNESS,
                cache_hit=True,
            )
            tracer.metrics.counter("harness.tune_cache_hits").inc()
        return cached

    spec = symmetric(order)

    def build(cfg: BlockConfig) -> KernelPlan:
        return make_kernel(family, spec, cfg, dtype)

    space = FULL_SPACE if register_blocking else THREAD_ONLY_SPACE
    with maybe_span(
        tracer, f"tune {family} o{order} {dtype} {dev.name}", CAT_HARNESS,
        family=family, order=order, dtype=dtype, device=dev.name,
        register_blocking=register_blocking, cache_hit=False,
    ) as sp:
        result = exhaustive_tune(build, dev, grid, space)
        if sp is not None:
            sp.args["best_mpoints_per_s"] = result.best_mpoints
            sp.args["best_config"] = result.best_config.label()
            tracer.metrics.counter("harness.tunes").inc()
    _CACHE[key] = result
    return result


def harvest_tuned_records(source: str) -> dict[TuneKey, "TelemetryRecord"]:
    """Resimulate every cached tuning winner into telemetry records.

    One launch per cached :class:`TuneKey` — the winning configuration is
    resimulated on its own device/grid so the record carries the full
    counter set, not just the tuner's headline rate.  The benchmark
    suite's conftest drains the cache through this after every bench to
    build ``BENCH_profile.json``.
    """
    from repro.gpusim.executor import simulate
    from repro.obs.telemetry import record_from_report

    records: dict[TuneKey, TelemetryRecord] = {}
    for key, result in _CACHE.items():
        plan = make_kernel(
            key.family, symmetric(key.order), result.best_config, key.dtype
        )
        report = simulate(plan, key.device, key.grid)
        records[key] = record_from_report(report, order=key.order, source=source)
    return records


class ExperimentRunner:
    """Convenience wrapper binding a device list and grid."""

    def __init__(
        self,
        devices: tuple[str, ...] = ("gtx580", "gtx680", "c2070"),
        grid: tuple[int, int, int] = PAPER_GRID,
    ) -> None:
        self.devices = tuple(get_device(d) for d in devices)
        self.grid = grid

    def baseline(self, order: int, device: DeviceSpec, dtype: str = "sp") -> TuneResult:
        """Tuned nvstencil baseline (thread blocking only)."""
        with maybe_span(
            current_tracer(), f"baseline o{order} {dtype} {device.name}",
            CAT_HARNESS, order=order, dtype=dtype, device=device.name,
        ):
            return tune_family(
                "nvstencil", order, device, dtype=dtype, grid=self.grid,
                register_blocking=False,
            )

    def tuned(
        self,
        family: str,
        order: int,
        device: DeviceSpec,
        dtype: str = "sp",
        register_blocking: bool = True,
    ) -> TuneResult:
        """Tuned result for any family."""
        with maybe_span(
            current_tracer(), f"tuned {family} o{order} {dtype} {device.name}",
            CAT_HARNESS, family=family, order=order, dtype=dtype,
            device=device.name,
        ):
            return tune_family(
                family, order, device, dtype=dtype, grid=self.grid,
                register_blocking=register_blocking,
            )
