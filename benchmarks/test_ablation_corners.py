"""Ablation — the full-slice corner overhead (4r^2 per plane).

The paper attributes the speedup decline at high orders to the corner
elements the merged rectangle drags in.  This bench isolates that cost:
the fraction of the full-slice load volume that is corner waste grows
quadratically with the radius and shrinks with tile size — matching the
paper's observation that it "depends only on the radius of the stencil,
and not on the block size".
"""

from repro.kernels.config import BlockConfig
from repro.kernels.inplane import InPlaneKernel
from repro.stencils.catalog import redundant_corner_elems
from repro.stencils.spec import symmetric

GRID = (512, 512, 256)


def test_corner_overhead_scaling(benchmark, save_render):
    cfg = BlockConfig(32, 8, 1, 2)

    def run():
        rows = []
        for order in (2, 4, 8, 12):
            plan = InPlaneKernel(symmetric(order), cfg, variant="fullslice")
            loaded = plan.loaded_elems_per_plane()
            corners = redundant_corner_elems(order)
            rows.append((order, corners, corners / loaded))
        return rows

    rows = benchmark(run)

    class R:
        def render(self):
            lines = ["Ablation: full-slice corner overhead (tile 32x16)"]
            lines += [
                f"  order {o:2d}: {c:4d} corner elems = {f:6.2%} of plane loads"
                for o, c, f in rows
            ]
            return "\n".join(lines)

    save_render(R(), "ablation_corners.txt")

    fracs = [f for _, _, f in rows]
    assert fracs == sorted(fracs)  # grows with order
    assert rows[0][1] == 4 and rows[-1][1] == 4 * 36  # 4r^2 exactly

    # Independent of block size: same element count for a larger tile.
    big = InPlaneKernel(symmetric(8), BlockConfig(64, 8, 2, 2), variant="fullslice")
    small = InPlaneKernel(symmetric(8), cfg, variant="fullslice")
    hz_big = InPlaneKernel(symmetric(8), BlockConfig(64, 8, 2, 2), variant="horizontal")
    hz_small = InPlaneKernel(symmetric(8), cfg, variant="horizontal")
    assert (
        big.loaded_elems_per_plane() - hz_big.loaded_elems_per_plane()
        == small.loaded_elems_per_plane() - hz_small.loaded_elems_per_plane()
        == redundant_corner_elems(8)
    )
