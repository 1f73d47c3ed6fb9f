"""Per-table / per-figure experiment drivers.

Every public function regenerates one table or figure of the paper and
returns a result object carrying both the raw data and a ``render()``
method that prints the same rows/series the paper reports.  Paper-published
values are embedded where the paper states them, so the renders show
paper-vs-measured side by side (EXPERIMENTS.md is generated from these).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import ResourceLimitError
from repro.gpusim.device import PAPER_DEVICES, get_device
from repro.gpusim.executor import DeviceExecutor
from repro.harness.runner import (
    FULL_SPACE,
    PAPER_GRID,
    tune_family,
)
from repro.kernels.config import BlockConfig
from repro.kernels.factory import make_kernel
from repro.kernels.inplane import InPlaneKernel
from repro.kernels.multigrid import MultiGridKernel
from repro.metrics.efficiency import speedup
from repro.stencils.applications import APPLICATIONS, PAPER_TABLE5
from repro.stencils.catalog import (
    PAPER_ORDERS,
    PAPER_TABLE1,
    PAPER_TABLE2,
    table1_row,
    table2_row,
)
from repro.stencils.spec import symmetric
from repro.tuning.modelbased import model_based_tune
from repro.tuning.space import ParameterSpace
from repro.utils.charts import bar_chart, grouped_bar_chart
from repro.utils.tables import format_table

#: Paper Table IV: (optimal params, MPoint/s, speedup) we compare against.
PAPER_TABLE4: dict[tuple[str, str, int], tuple[tuple[int, int, int, int], float, float]] = {
    ("sp", "gtx580", 2): ((256, 1, 1, 8), 17294.0, 1.70),
    ("sp", "gtx580", 4): ((32, 2, 2, 4), 14348.6, 1.82),
    ("sp", "gtx580", 6): ((32, 8, 2, 2), 10944.2, 1.66),
    ("sp", "gtx580", 8): ((32, 4, 1, 4), 9254.5, 1.64),
    ("sp", "gtx580", 10): ((32, 8, 1, 2), 7183.9, 1.38),
    ("sp", "gtx580", 12): ((32, 8, 1, 2), 6503.6, 1.34),
    ("sp", "gtx680", 2): ((256, 4, 1, 4), 16181.6, 1.96),
    ("sp", "gtx680", 4): ((64, 4, 2, 4), 13163.1, 1.81),
    ("sp", "gtx680", 6): ((128, 4, 1, 4), 10632.1, 1.71),
    ("sp", "gtx680", 8): ((64, 4, 1, 4), 9904.7, 1.76),
    ("sp", "gtx680", 10): ((32, 8, 1, 2), 7488.7, 1.66),
    ("sp", "gtx680", 12): ((32, 8, 1, 2), 6421.8, 1.42),
    ("sp", "c2070", 2): ((256, 1, 1, 4), 10761.2, 1.65),
    ("sp", "c2070", 4): ((32, 2, 2, 4), 8994.0, 1.77),
    ("sp", "c2070", 6): ((32, 4, 1, 4), 6965.9, 1.65),
    ("sp", "c2070", 8): ((32, 4, 1, 4), 5949.9, 1.66),
    ("sp", "c2070", 10): ((32, 8, 1, 2), 4550.8, 1.39),
    ("sp", "c2070", 12): ((32, 8, 1, 2), 4130.8, 1.34),
    ("dp", "gtx580", 2): ((128, 1, 1, 4), 7206.9, 1.35),
    ("dp", "gtx580", 4): ((32, 4, 1, 4), 4858.8, 1.30),
    ("dp", "gtx580", 6): ((32, 4, 1, 2), 3432.2, 1.16),
    ("dp", "gtx580", 8): ((32, 4, 1, 2), 2788.7, 1.12),
    ("dp", "gtx580", 10): ((16, 8, 1, 1), 2388.9, 1.15),
    ("dp", "gtx580", 12): ((16, 8, 1, 1), 2029.3, 1.05),
    ("dp", "gtx680", 2): ((64, 2, 1, 4), 6411.6, 1.44),
    ("dp", "gtx680", 4): ((64, 4, 2, 4), 4285.0, 1.16),
    ("dp", "gtx680", 6): ((128, 4, 1, 4), 3005.8, 1.13),
    ("dp", "gtx680", 8): ((64, 4, 1, 4), 2406.4, 1.13),
    ("dp", "gtx680", 10): ((32, 8, 1, 2), 1911.0, 1.06),
    ("dp", "gtx680", 12): ((32, 8, 1, 2), 1607.8, 1.05),
    ("dp", "c2070", 2): ((128, 1, 1, 4), 4975.9, 1.31),
    ("dp", "c2070", 4): ((32, 4, 1, 4), 3692.7, 1.28),
    ("dp", "c2070", 6): ((64, 4, 1, 2), 2764.3, 1.29),
    ("dp", "c2070", 8): ((64, 4, 1, 2), 2381.5, 1.23),
    ("dp", "c2070", 10): ((16, 16, 1, 1), 1889.9, 1.13),
    ("dp", "c2070", 12): ((16, 16, 1, 1), 1735.5, 1.17),
}


@dataclass
class ExperimentResult:
    """Generic experiment payload: named rows plus a preformatted render."""

    name: str
    headers: tuple[str, ...]
    rows: list[tuple]
    notes: str = ""
    chart: str = ""

    def render(self) -> str:
        text = format_table(self.headers, self.rows, title=self.name)
        if self.chart:
            text += f"\n\n{self.chart}"
        if self.notes:
            text += f"\n{self.notes}"
        return text


# ----------------------------------------------------------------------
# Tables I-III
# ----------------------------------------------------------------------

def table1_specs(orders: tuple[int, ...] = PAPER_ORDERS) -> ExperimentResult:
    """Table I: stencil kernel specifications."""
    rows = []
    for order in orders:
        row = table1_row(order)
        paper = PAPER_TABLE1.get(order)
        rows.append(
            (
                order,
                "x".join(map(str, row.extent)),
                row.mem_accesses,
                row.flops,
                paper[0] if paper else "-",
                paper[1] if paper else "-",
            )
        )
    return ExperimentResult(
        name="Table I: stencil specifications",
        headers=("order", "extent", "mem/elem", "flops/elem", "paper mem", "paper flops"),
        rows=rows,
    )


def table2_opcounts(orders: tuple[int, ...] = PAPER_ORDERS) -> ExperimentResult:
    """Table II: in-plane vs nvstencil operation counts."""
    rows = []
    for order in orders:
        row = table2_row(order)
        paper = PAPER_TABLE2.get(order)
        rows.append(
            (
                order,
                row.data_refs,
                row.flops_inplane,
                row.flops_nvstencil,
                "/".join(map(str, paper)) if paper else "-",
            )
        )
    return ExperimentResult(
        name="Table II: operation counts per grid point",
        headers=("order", "data refs", "flops in-plane", "flops nvstencil", "paper"),
        rows=rows,
    )


def table3_devices() -> ExperimentResult:
    """Table III: GPU specifications (derived peaks vs published)."""
    paper = {
        "gtx580": (192.4, 1581.0, 198.0),
        "gtx680": (192.3, 3090.0, 129.0),
        "c2070": (144.0, 1030.0, 515.0),
    }
    rows = []
    for dev in PAPER_DEVICES:
        pub = paper[dev.name]
        rows.append(
            (
                dev.display_name,
                dev.pin_bandwidth_gbs,
                round(dev.peak_sp_gflops, 0),
                round(dev.peak_dp_gflops, 0),
                f"{pub[0]}/{pub[1]}/{pub[2]}",
                dev.measured_bandwidth_gbs,
            )
        )
    return ExperimentResult(
        name="Table III: GPU specifications",
        headers=("GPU", "pin BW GB/s", "peak SP", "peak DP", "paper (BW/SP/DP)", "measured BW"),
        rows=rows,
    )


# ----------------------------------------------------------------------
# Fig 7: in-plane variants, thread blocking only
# ----------------------------------------------------------------------

def fig7_variants(
    orders: tuple[int, ...] = PAPER_ORDERS,
    devices: tuple[str, ...] = ("gtx580", "gtx680", "c2070"),
    variants: tuple[str, ...] = ("vertical", "horizontal", "fullslice"),
    grid: tuple[int, int, int] = PAPER_GRID,
) -> ExperimentResult:
    """Speedup of the in-plane variants over nvstencil, thread blocking only."""
    rows = []
    for dev in devices:
        for order in orders:
            nv = tune_family(
                "nvstencil", order, dev, grid=grid, register_blocking=False
            )
            cells: list[Any] = [dev, order, round(nv.best_mpoints, 1)]
            for variant in variants:
                res = tune_family(
                    f"inplane_{variant}", order, dev, grid=grid,
                    register_blocking=False,
                )
                cells.append(round(speedup(res.best_mpoints, nv.best_mpoints), 3))
            rows.append(tuple(cells))
    chart = ""
    first_dev = devices[0]
    dev_rows = [r for r in rows if r[0] == first_dev]
    if dev_rows:
        chart = grouped_bar_chart(
            f"speedup over nvstencil on {first_dev} (| marks 1.0x):",
            [f"order {r[1]}" for r in dev_rows],
            {
                variant: [r[3 + vi] for r in dev_rows]
                for vi, variant in enumerate(variants)
            },
            baseline=1.0,
        )
    return ExperimentResult(
        name="Fig 7: in-plane variant speedup over nvstencil (thread blocking only)",
        headers=("device", "order", "nvstencil MPt/s", *variants),
        rows=rows,
        chart=chart,
        notes=(
            "Paper shape: full-slice consistently best (~1.2-1.4x, highest at "
            "order 2); horizontal above nvstencil almost always; vertical the "
            "weakest variant, losing ground at orders 10-12."
        ),
    )


# ----------------------------------------------------------------------
# Fig 8: auto-tuning performance surface
# ----------------------------------------------------------------------

def fig8_surface(
    order: int = 2,
    device: str = "gtx580",
    grid: tuple[int, int, int] = PAPER_GRID,
) -> ExperimentResult:
    """Performance surface over (RX, RY) at the tuned (TX, TY).

    The paper plots the surface with the optimal TX, TY fixed; infeasible
    points are zero.
    """
    best = tune_family("inplane_fullslice", order, device, grid=grid)
    tx, ty = best.best_config.tx, best.best_config.ty
    executor = DeviceExecutor(get_device(device))
    spec = symmetric(order)
    rows = []
    for rx in FULL_SPACE.rx_values:
        for ry in FULL_SPACE.ry_values:
            try:
                cfg = BlockConfig(tx=tx, ty=ty, rx=rx, ry=ry)
                if grid[0] % cfg.tile_x or grid[1] % cfg.tile_y:
                    raise ResourceLimitError("partial tiles")
                plan = make_kernel("inplane_fullslice", spec, cfg)
                mp = executor.run(plan, grid).mpoints_per_s
            except Exception:
                mp = 0.0
            rows.append((tx, ty, rx, ry, round(mp, 1)))
    return ExperimentResult(
        name=f"Fig 8: tuning surface, order {order} on {device} (TX={tx}, TY={ty})",
        headers=("TX", "TY", "RX", "RY", "MPoint/s"),
        rows=rows,
        notes="Zero entries violate the search constraints (section IV-C).",
    )


# ----------------------------------------------------------------------
# Table IV: full auto-tuning
# ----------------------------------------------------------------------

def table4_autotune(
    orders: tuple[int, ...] = PAPER_ORDERS,
    devices: tuple[str, ...] = ("gtx580", "gtx680", "c2070"),
    dtypes: tuple[str, ...] = ("sp", "dp"),
    grid: tuple[int, int, int] = PAPER_GRID,
) -> ExperimentResult:
    """Table IV: tuned full-slice (thread + register blocking) vs nvstencil."""
    rows = []
    for dtype in dtypes:
        for dev in devices:
            for order in orders:
                nv = tune_family(
                    "nvstencil", order, dev, dtype=dtype, grid=grid,
                    register_blocking=False,
                )
                fs = tune_family(
                    "inplane_fullslice", order, dev, dtype=dtype, grid=grid
                )
                paper = PAPER_TABLE4.get((dtype, dev, order))
                rows.append(
                    (
                        dtype.upper(),
                        dev,
                        order,
                        fs.best_config.label(),
                        round(fs.best_mpoints, 1),
                        round(speedup(fs.best_mpoints, nv.best_mpoints), 2),
                        str(paper[0]) if paper else "-",
                        paper[1] if paper else "-",
                        paper[2] if paper else "-",
                    )
                )
    return ExperimentResult(
        name="Table IV: auto-tuned full-slice in-plane method",
        headers=(
            "prec", "device", "order", "optimal", "MPt/s", "speedup",
            "paper optimal", "paper MPt/s", "paper speedup",
        ),
        rows=rows,
        notes=(
            "Paper shape: SP speedups 1.34-1.96 decreasing with order; DP "
            "speedups 1.05-1.44, below SP; GTX680 shows the largest gains."
        ),
    )


# ----------------------------------------------------------------------
# Fig 9: global memory load efficiency
# ----------------------------------------------------------------------

def fig9_load_efficiency(
    orders: tuple[int, ...] = PAPER_ORDERS,
    devices: tuple[str, ...] = ("gtx580", "gtx680", "c2070"),
    grid: tuple[int, int, int] = PAPER_GRID,
) -> ExperimentResult:
    """Global memory load efficiency: full-slice vs nvstencil."""
    rows = []
    for dev in devices:
        for order in orders:
            nv = tune_family(
                "nvstencil", order, dev, grid=grid, register_blocking=False
            )
            fs = tune_family("inplane_fullslice", order, dev, grid=grid)
            rows.append(
                (
                    dev,
                    order,
                    round(nv.best.info["load_efficiency"], 3),
                    round(fs.best.info["load_efficiency"], 3),
                )
            )
    return ExperimentResult(
        name="Fig 9: global memory load efficiency",
        headers=("device", "order", "nvstencil", "full-slice"),
        rows=rows,
        notes="Paper shape: full-slice efficiency above nvstencil at every order.",
    )


# ----------------------------------------------------------------------
# Fig 10: breakdown of speedup factors
# ----------------------------------------------------------------------

def fig10_breakdown(
    orders: tuple[int, ...] = PAPER_ORDERS,
    devices: tuple[str, ...] = ("gtx580", "gtx680", "c2070"),
    grid: tuple[int, int, int] = PAPER_GRID,
) -> ExperimentResult:
    """Normalized performance of (i) nvstencil+RB, (ii) full-slice,
    (iii) full-slice+RB, with nvstencil as 1.0."""
    rows = []
    for dev in devices:
        for order in orders:
            nv = tune_family(
                "nvstencil", order, dev, grid=grid, register_blocking=False
            )
            nv_rb = tune_family("nvstencil", order, dev, grid=grid)
            fs = tune_family(
                "inplane_fullslice", order, dev, grid=grid,
                register_blocking=False,
            )
            fs_rb = tune_family("inplane_fullslice", order, dev, grid=grid)
            base = nv.best_mpoints
            rows.append(
                (
                    dev,
                    order,
                    round(nv_rb.best_mpoints / base, 3),
                    round(fs.best_mpoints / base, 3),
                    round(fs_rb.best_mpoints / base, 3),
                )
            )
    return ExperimentResult(
        name="Fig 10: breakdown of speedup factors (nvstencil = 1.0)",
        headers=("device", "order", "nvstencil+RB", "full-slice", "full-slice+RB"),
        rows=rows,
        notes=(
            "Paper shape: full-slice+RB best everywhere; register blocking "
            "helps nvstencil ~11% on average but full-slice ~18%; about half "
            "the total gain comes from the loading pattern, half from "
            "register blocking on top of it."
        ),
    )


# ----------------------------------------------------------------------
# Fig 11 / Table V: application stencils
# ----------------------------------------------------------------------

def fig11_applications(
    devices: tuple[str, ...] = ("gtx580", "gtx680", "c2070"),
    dtypes: tuple[str, ...] = ("sp", "dp"),
    grid: tuple[int, int, int] = PAPER_GRID,
    space: ParameterSpace | None = None,
) -> ExperimentResult:
    """Application stencils: in-plane full-slice vs forward-plane method."""
    from repro.tuning.space import THREAD_ONLY_SPACE
    from repro.tuning.exhaustive import exhaustive_tune

    space = space or FULL_SPACE
    rows = []
    for dtype in dtypes:
        for dev_name in devices:
            dev = get_device(dev_name)
            for app_name, expr in APPLICATIONS.items():
                def build_fwd(cfg: BlockConfig) -> MultiGridKernel:
                    return MultiGridKernel(expr, cfg, dtype, method="forward")

                def build_inp(cfg: BlockConfig) -> MultiGridKernel:
                    return MultiGridKernel(expr, cfg, dtype, method="inplane")

                # The forward baseline mirrors nvstencil: SDK-style kernel,
                # thread blocking only; the in-plane method gets the full
                # space including register tiling (section V-A).
                fwd = exhaustive_tune(build_fwd, dev, grid, THREAD_ONLY_SPACE)
                inp = exhaustive_tune(build_inp, dev, grid, space)
                n_in, n_out = PAPER_TABLE5[app_name]
                rows.append(
                    (
                        dtype.upper(),
                        dev_name,
                        app_name,
                        f"{n_in}/{n_out}",
                        round(inp.best_mpoints, 1),
                        round(speedup(inp.best_mpoints, fwd.best_mpoints), 3),
                    )
                )
    chart = ""
    sp_rows = [r for r in rows if r[0] == "SP" and r[1] == devices[0]]
    if sp_rows:
        chart = bar_chart(
            f"SP speedup on {devices[0]} (| marks 1.0x):",
            {r[2]: r[5] for r in sp_rows},
            baseline=1.0,
            unit="x",
        )
    return ExperimentResult(
        name="Fig 11 / Table V: application stencils",
        headers=("prec", "device", "app", "in/out", "in-plane MPt/s", "speedup"),
        rows=rows,
        chart=chart,
        notes=(
            "Paper shape: Laplacian gains most (~1.8x SP); Div/Grad/Upstream/"
            "Poisson gain moderately; Hyperthermia ~1.0x (nine coefficient "
            "volumes dominate traffic and are method-independent)."
        ),
    )


# ----------------------------------------------------------------------
# Fig 12: model-based vs exhaustive auto-tuning
# ----------------------------------------------------------------------

def fig12_modelbased(
    orders: tuple[int, ...] = PAPER_ORDERS,
    devices: tuple[str, ...] = ("gtx580", "gtx680", "c2050"),
    beta: float = 0.05,
    grid: tuple[int, int, int] = PAPER_GRID,
) -> ExperimentResult:
    """Model-based auto-tuning (beta cutoff) vs exhaustive search."""
    rows = []
    for dev_name in devices:
        dev = get_device(dev_name)
        for order in orders:
            spec = symmetric(order)

            def build(cfg: BlockConfig) -> InPlaneKernel:
                return InPlaneKernel(spec, cfg, "sp", variant="fullslice")

            exh = tune_family("inplane_fullslice", order, dev, grid=grid)
            mb = model_based_tune(build, dev, grid, beta=beta)
            gap = 1.0 - mb.best_mpoints / exh.best_mpoints
            rows.append(
                (
                    dev_name,
                    order,
                    round(exh.best_mpoints, 1),
                    round(mb.best_mpoints, 1),
                    f"{gap:.1%}",
                    f"{mb.evaluated}/{mb.space_size}",
                )
            )
    return ExperimentResult(
        name=f"Fig 12: model-based (beta={beta:.0%}) vs exhaustive auto-tuning",
        headers=("device", "order", "exhaustive", "model-based", "gap", "executed"),
        rows=rows,
        notes=(
            "Paper shape: the model-based result is typically within ~2% of "
            "the exhaustive optimum, worst case ~6% (on Kepler), while "
            "executing only the top beta fraction of the space."
        ),
    )


# ----------------------------------------------------------------------
# Section IV-C: high-order crossover on the C2070
# ----------------------------------------------------------------------

def high_order_crossover(
    device: str = "c2070",
    dtypes: tuple[str, ...] = ("sp", "dp"),
    orders: tuple[int, ...] = (2, 4, 8, 12, 16, 20, 24, 28, 32, 36, 40),
    grid: tuple[int, int, int] = PAPER_GRID,
) -> ExperimentResult:
    """Find where the full-slice speedup drops below 1 as order grows.

    Section IV-C: on the Tesla C2070 the full-slice method keeps winning up
    to ~32nd order in SP and ~16th order in DP.
    """
    rows = []
    for dtype in dtypes:
        last_winning = 0
        for order in orders:
            try:
                nv = tune_family(
                    "nvstencil", order, device, dtype=dtype, grid=grid,
                    register_blocking=False,
                )
                fs = tune_family(
                    "inplane_fullslice", order, device, dtype=dtype, grid=grid
                )
            except Exception:
                break
            s = speedup(fs.best_mpoints, nv.best_mpoints)
            if s > 1.0:
                last_winning = order
            rows.append((dtype.upper(), order, round(s, 3)))
        rows.append((dtype.upper(), "last winning order", last_winning))
    return ExperimentResult(
        name=f"High-order crossover on {device}",
        headers=("prec", "order", "speedup"),
        rows=rows,
        notes="Paper: speedups persist to ~order 32 (SP) and ~order 16 (DP) on C2070.",
    )
