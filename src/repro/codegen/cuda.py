"""CUDA C emitter for the symmetric stencil kernel plans.

``generate_kernel`` lowers one :class:`SymmetricKernelPlan` into a single
self-contained ``.cu`` translation unit: constants baked from the blocking
configuration, the shared-tile declaration (bank-padded pitch), the
variant's loading code (merged rectangles with the widest legal vector
type, or the split interior/halo pattern of the baseline), the z-register
pipeline, and the compute loop implementing either the forward Eqn (2)
accumulation or the in-plane Eqns (3)-(5) partial-sum queue.

The generated text is deterministic given (spec, block, dtype, variant),
which the tests pin: structural assertions (vector types, queue depths,
barrier counts, loop bounds) plus a delimiter-balance check stand in for
compilation on this GPU-less machine.
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import TYPE_CHECKING

from repro.analysis import gate_codegen
from repro.analysis.diagnostics import Severity
from repro.analysis.estimate import prediction_header
from repro.analysis.planir import DEFAULT_GRID, AccessPlanIR, lower_plan
from repro.errors import ConfigurationError, UnsupportedPlanError
from repro.kernels.inplane import InPlaneKernel
from repro.kernels.nvstencil import NvStencilKernel
from repro.kernels.symmetric import SymmetricKernelPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.gpusim.device import DeviceSpec


@dataclass(frozen=True)
class CudaSource:
    """One generated translation unit, with the IR it was lowered from."""

    name: str
    text: str
    launch_bounds: tuple[int, int]  # (threads per block, min blocks per SM)
    backend: str = "cuda"           # "cuda" | "opencl" | "hip"
    ir: AccessPlanIR | None = None  # the access plan the text must honour

    def line_count(self) -> int:
        return len(self.text.splitlines())


def verify_or_raise(src: CudaSource) -> None:
    """Refuse to ship emitted text that fails its own ``SRC-*`` checks.

    Imported lazily: the verifier lives in :mod:`repro.analysis.srcverify`,
    which this package's emitters are the subject of.
    """
    from repro.analysis.srcverify import verify_emitted

    errors = [d for d in verify_emitted(src) if d.severity == Severity.ERROR]
    if not errors:
        return
    findings = "; ".join(f"[{d.rule}] {d.message}" for d in errors)
    raise ConfigurationError(
        f"emitted source for {src.name} [{src.backend}] failed "
        f"verification: {findings}",
        rule=errors[0].rule,
    )


def _ctype(plan: SymmetricKernelPlan) -> str:
    return "float" if plan.elem_bytes == 4 else "double"


def _vec_type(plan: SymmetricKernelPlan, width: int) -> str:
    base = _ctype(plan)
    return base if width == 1 else f"{base}{width}"


def _coefficients_block(plan: SymmetricKernelPlan) -> str:
    ctype = _ctype(plan)
    suffix = "f" if ctype == "float" else ""
    decls = [
        f"__constant__ {ctype} c{m} = {c!r}{suffix};"
        for m, c in enumerate(plan.spec.coefficients)
    ]
    return "\n".join(decls)


def _load_region_code(plan: SymmetricKernelPlan, vec: int) -> str:
    """The per-plane cooperative load, per loading variant."""
    r = plan.spec.radius
    ctype = _ctype(plan)
    vtype = _vec_type(plan, vec)
    variant = plan.variant

    if variant == "fullslice":
        return f"""    // Full-slice merged load (Fig 6d): one rectangle covering the
    // interior and all halos of the *current* plane; start is aligned at
    // x = -RADIUS by the host-side array padding, so {vtype} loads are legal.
    for (int idx = tid; idx < SLICE_VECS; idx += THREADS) {{
        const int sy = idx / ROW_VECS;
        const int sx = (idx % ROW_VECS) * {vec};
        const {vtype} v = *reinterpret_cast<const {vtype}*>(
            &in[plane_base + (by0 + sy - RADIUS) * pitch + bx0 + sx - RADIUS]);
        store_vec{vec}(&tile[sy][sx], v);
    }}"""

    if variant == "horizontal":
        return f"""    // Horizontal merged load (Fig 6c): interior rows carry the left and
    // right halos; the top/bottom strips load as separate (coalesced) rows.
    for (int idx = tid; idx < CENTER_VECS; idx += THREADS) {{
        const int sy = idx / ROW_VECS;
        const int sx = (idx % ROW_VECS) * {vec};
        const {vtype} v = *reinterpret_cast<const {vtype}*>(
            &in[plane_base + (by0 + sy) * pitch + bx0 + sx - RADIUS]);
        store_vec{vec}(&tile[sy + RADIUS][sx], v);
    }}
    for (int idx = tid; idx < 2 * RADIUS * TILE_X; idx += THREADS) {{
        const int sy = idx / TILE_X;          // 0 .. 2*RADIUS-1
        const int sx = idx % TILE_X;
        const int gy = (sy < RADIUS) ? (by0 + sy - RADIUS)
                                     : (by0 + TILE_Y + sy - RADIUS);
        const int ty_ = (sy < RADIUS) ? sy : (sy + TILE_Y);
        tile[ty_][sx + RADIUS] = in[plane_base + gy * pitch + bx0 + sx];
    }}"""

    if variant == "vertical":
        return f"""    // Vertical merged load (Fig 6b): the interior column carries the
    // top/bottom halos; left/right halo columns load per row (uncoalesced).
    for (int idx = tid; idx < COLUMN_ELEMS; idx += THREADS) {{
        const int sy = idx / TILE_X;
        const int sx = idx % TILE_X;
        tile[sy][sx + RADIUS] =
            in[plane_base + (by0 + sy - RADIUS) * pitch + bx0 + sx];
    }}
    for (int idx = tid; idx < TILE_Y * 2 * RADIUS; idx += THREADS) {{
        const int sy = idx / (2 * RADIUS);
        const int h = idx % (2 * RADIUS);
        const int sx = (h < RADIUS) ? (h - RADIUS) : (TILE_X + h - RADIUS);
        tile[sy + RADIUS][sx + RADIUS] =
            in[plane_base + (by0 + sy) * pitch + bx0 + sx];
    }}"""

    # classical / nvstencil split loading.
    return f"""    // Split loading (Fig 4 / Fig 6a): interior first, then the four halo
    // strips through divergent predicated branches.
    for (int idx = tid; idx < TILE_X * TILE_Y; idx += THREADS) {{
        const int sy = idx / TILE_X;
        const int sx = idx % TILE_X;
        tile[sy + RADIUS][sx + RADIUS] =
            in[plane_base + (by0 + sy) * pitch + bx0 + sx];
    }}
    if (threadIdx.y < RADIUS) {{
        for (int sx = threadIdx.x; sx < TILE_X; sx += BLOCK_X) {{
            tile[threadIdx.y][sx + RADIUS] =
                in[plane_base + (by0 + (int)threadIdx.y - RADIUS) * pitch + bx0 + sx];
            tile[threadIdx.y + TILE_Y + RADIUS][sx + RADIUS] =
                in[plane_base + (by0 + TILE_Y + threadIdx.y) * pitch + bx0 + sx];
        }}
    }}
    if (threadIdx.x < RADIUS) {{
        for (int sy = threadIdx.y; sy < TILE_Y; sy += BLOCK_Y) {{
            tile[sy + RADIUS][threadIdx.x] =
                in[plane_base + (by0 + sy) * pitch + bx0 + (int)threadIdx.x - RADIUS];
            tile[sy + RADIUS][threadIdx.x + TILE_X + RADIUS] =
                in[plane_base + (by0 + sy) * pitch + bx0 + TILE_X + threadIdx.x];
        }}
    }}"""


def _inplane_compute_code(plan: SymmetricKernelPlan) -> str:
    ctype = _ctype(plan)
    return f"""    // ---- in-plane compute: Eqns (3)-(5) ----------------------------
    #pragma unroll
    for (int ey = 0; ey < RY; ++ey)
    #pragma unroll
    for (int ex = 0; ex < RX; ++ex) {{
        const int sy = threadIdx.y + ey * BLOCK_Y + RADIUS;
        const int sx = threadIdx.x + ex * BLOCK_X + RADIUS;
        const {ctype} centre = tile[sy][sx];

        // Eqn (3): in-plane cross plus the backward z-neighbours held in
        // the per-thread register column.
        {ctype} partial = c0 * centre;
        #pragma unroll
        for (int m = 1; m <= RADIUS; ++m) {{
            partial += coeff(m) * (tile[sy][sx - m] + tile[sy][sx + m] +
                                   tile[sy - m][sx] + tile[sy + m][sx] +
                                   zcol[ey][ex][RADIUS - m]);
        }}

        // Eqn (5): the current centre value completes one term of every
        // queued partial; the oldest is finished and written out.
        #pragma unroll
        for (int q = 0; q < RADIUS; ++q)
            queue[ey][ex][q] += coeff(RADIUS - q) * centre;

        if (z >= 2 * RADIUS) {{
            const int oz = z - RADIUS;
            out[oz * plane_pitch + (by0 + sy - RADIUS) * pitch
                + bx0 + sx - RADIUS] = queue[ey][ex][0];
        }}

        // Shift the queue and the backward z-column; enqueue the new
        // partial (complete at z = k + RADIUS).
        #pragma unroll
        for (int q = 0; q < RADIUS - 1; ++q)
            queue[ey][ex][q] = queue[ey][ex][q + 1];
        queue[ey][ex][RADIUS - 1] = partial;
        #pragma unroll
        for (int m = 0; m < RADIUS - 1; ++m)
            zcol[ey][ex][m] = zcol[ey][ex][m + 1];
        zcol[ey][ex][RADIUS - 1] = centre;
    }}"""


def _forward_compute_code(plan: SymmetricKernelPlan) -> str:
    ctype = _ctype(plan)
    return f"""    // ---- forward-plane compute: Eqn (2) -----------------------------
    #pragma unroll
    for (int ey = 0; ey < RY; ++ey)
    #pragma unroll
    for (int ex = 0; ex < RX; ++ex) {{
        const int sy = threadIdx.y + ey * BLOCK_Y + RADIUS;
        const int sx = threadIdx.x + ex * BLOCK_X + RADIUS;

        // The register pipeline holds the 2*RADIUS+1 z-column; its centre
        // element is this plane's value, also staged in the shared tile.
        {ctype} acc = c0 * zcol[ey][ex][RADIUS];
        #pragma unroll
        for (int m = 1; m <= RADIUS; ++m) {{
            acc += coeff(m) * (tile[sy][sx - m] + tile[sy][sx + m] +
                               tile[sy - m][sx] + tile[sy + m][sx] +
                               zcol[ey][ex][RADIUS - m] +
                               zcol[ey][ex][RADIUS + m]);
        }}
        if (z >= 2 * RADIUS) {{
            const int oz = z - RADIUS;
            out[oz * plane_pitch + (by0 + sy - RADIUS) * pitch
                + bx0 + sx - RADIUS] = acc;
        }}
        // Advance the pipeline: shift and refill from the shared tile.
        #pragma unroll
        for (int m = 0; m < 2 * RADIUS; ++m)
            zcol[ey][ex][m] = zcol[ey][ex][m + 1];
        zcol[ey][ex][2 * RADIUS] = tile[sy][sx];
    }}"""


def generate_kernel(
    plan: SymmetricKernelPlan,
    grid_shape: tuple[int, int, int] | None = None,
    device: "DeviceSpec | None" = None,
    *,
    verify: bool = True,
) -> CudaSource:
    """Emit the CUDA C translation unit for ``plan``.

    Before emitting anything the plan is run through the static analyzer
    (:func:`repro.analysis.gate_codegen`): a plan carrying an error-level
    finding — a coverage race, an out-of-bounds halo, an unlaunchable
    resource footprint — is refused with a :class:`ConfigurationError`
    naming the rule, instead of producing CUDA source that compiles but
    corrupts its output.  ``grid_shape``/``device`` widen the gate to the
    grid- and resource-dependent rule families when known.

    Emission then lowers the plan to its access-plan IR
    (:func:`repro.analysis.planir.lower_plan`): every constant the text
    bakes — tile dims, padded pitch, vector width, register-queue depth —
    is read *from the IR*, a prediction header prices the IR on the
    target device, and (unless ``verify=False``) the finished text is
    re-parsed and cross-checked against the same IR before it is
    returned.
    """
    if not isinstance(plan, (InPlaneKernel, NvStencilKernel)):
        raise UnsupportedPlanError(
            f"code generation supports the symmetric in-plane and nvstencil "
            f"kernels, not {type(plan).__name__}"
        )
    gate_codegen(plan, device=device, grid_shape=grid_shape)
    ir = lower_plan(plan, grid_shape or DEFAULT_GRID)
    spec, block = plan.spec, plan.block
    r = spec.radius
    ctype = ir.ctype
    vec = ir.vector_width
    inplane = ir.method == "inplane"
    kname = ir.kernel

    tile_x, tile_y = block.tile_x, block.tile_y
    tile_pitch = ir.tile.pitch_elems
    zdepth = ir.zqueue_depth
    estimate_line = prediction_header(
        ir, device if device is not None else "gtx580"
    )

    header = f"""// Auto-generated by repro.codegen — do not edit.
// Kernel : {kname}
// Method : {"in-plane (Eqns (3)-(5))" if inplane else "forward-plane (Eqn (2))"}
// Loading: {plan.variant}
// Stencil: order {spec.order} (radius {r}), {ctype}
// Block  : TX={block.tx} TY={block.ty} RX={block.rx} RY={block.ry}
{estimate_line}

#define RADIUS {r}
#define BLOCK_X {block.tx}
#define BLOCK_Y {block.ty}
#define RX {block.rx}
#define RY {block.ry}
#define TILE_X {tile_x}
#define TILE_Y {tile_y}
#define TILE_PITCH {tile_pitch}
#define THREADS (BLOCK_X * BLOCK_Y)
#define ROW_VECS (((TILE_X + 2 * RADIUS) + {vec} - 1) / {vec})
#define SLICE_VECS (ROW_VECS * (TILE_Y + 2 * RADIUS))
#define CENTER_VECS (ROW_VECS * TILE_Y)
#define COLUMN_ELEMS (TILE_X * (TILE_Y + 2 * RADIUS))

{_coefficients_block(plan)}

__device__ __forceinline__ {ctype} coeff(int m) {{
    // Ring weights are compile-time constants; the switch folds away.
    switch (m) {{
{chr(10).join(f'        case {m}: return c{m};' for m in range(r + 1))}
        default: return ({ctype})0;
    }}
}}

__device__ __forceinline__ void store_vec1({ctype}* dst, {ctype} v) {{ *dst = v; }}
__device__ __forceinline__ void store_vec2({ctype}* dst, {_vec_type(plan, 2)} v) {{
    dst[0] = v.x; dst[1] = v.y;
}}"""
    if plan.elem_bytes == 4:
        header += f"""
__device__ __forceinline__ void store_vec4({ctype}* dst, {_vec_type(plan, 4)} v) {{
    dst[0] = v.x; dst[1] = v.y; dst[2] = v.z; dst[3] = v.w;
}}"""

    zcol_init = f"""    // Prologue: stream the first {'RADIUS' if inplane else '2 * RADIUS + 1'} planes into the register column.
    {ctype} zcol[RY][RX][{zdepth}];
    #pragma unroll
    for (int ey = 0; ey < RY; ++ey)
    #pragma unroll
    for (int ex = 0; ex < RX; ++ex)
    #pragma unroll
    for (int m = 0; m < {zdepth}; ++m)
        zcol[ey][ex][m] = ({ctype})0;"""

    queue_init = (
        f"""    {ctype} queue[RY][RX][RADIUS];
    #pragma unroll
    for (int ey = 0; ey < RY; ++ey)
    #pragma unroll
    for (int ex = 0; ex < RX; ++ex)
    #pragma unroll
    for (int q = 0; q < RADIUS; ++q)
        queue[ey][ex][q] = ({ctype})0;"""
        if inplane
        else "    // forward-plane: no partial-sum queue."
    )

    body = f"""
extern "C" __global__
__launch_bounds__(THREADS)
void {kname}(const {ctype}* __restrict__ in,
             {ctype}* __restrict__ out,
             const int lz,
             const int pitch,
             const int plane_pitch)
{{
    __shared__ {ctype} tile[TILE_Y + 2 * RADIUS][TILE_PITCH];

    const int tid = threadIdx.y * BLOCK_X + threadIdx.x;
    const int bx0 = blockIdx.x * TILE_X;
    const int by0 = blockIdx.y * TILE_Y;

{zcol_init}
{queue_init}

    for (int z = 0; z < lz; ++z) {{
        const long plane_base = (long)z * plane_pitch;

{_load_region_code(plan, vec)}
        __syncthreads();

{_inplane_compute_code(plan) if inplane else _forward_compute_code(plan)}
        __syncthreads();
    }}
}}
"""
    src = CudaSource(
        name=kname,
        text=header + body,
        launch_bounds=ir.launch_bounds,
        backend="cuda",
        ir=ir,
    )
    if verify:
        verify_or_raise(src)
    return src


def generate_host_driver(
    plan: SymmetricKernelPlan,
    grid_shape: tuple[int, int, int] = (512, 512, 256),
) -> str:
    """Emit the host-side launch snippet for ``plan`` (Fig 1's loop)."""
    lx, ly, lz = grid_shape
    src = generate_kernel(plan)
    blocks_x = -(-lx // plan.block.tile_x)
    blocks_y = -(-ly // plan.block.tile_y)
    return f"""// Host driver for {src.name} — the Fig 1 iterative loop.
dim3 block({plan.block.tx}, {plan.block.ty});
dim3 grid({blocks_x}, {blocks_y});
for (int t = 0; t < timesteps; ++t) {{
    {src.name}<<<grid, block>>>(d_in, d_out, {lz}, pitch_elems, plane_pitch_elems);
    std::swap(d_in, d_out);  // Swap(in, out)
}}
cudaDeviceSynchronize();
"""
