"""Parameter-space constraint tests (section IV-C)."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, ReproError, TuningError
from repro.gpusim.arch import HALF_WARP
from repro.gpusim.device import get_device, list_devices
from repro.kernels.config import BlockConfig
from repro.kernels.factory import make_kernel
from repro.stencils.spec import symmetric
from repro.tuning.space import ParameterSpace, default_space
from tests.oracles.space import candidates

GRID = (512, 512, 256)


def smem_of_factory(order=2, dtype="sp"):
    dev = get_device("gtx580")

    def smem_of(cfg: BlockConfig) -> int:
        plan = make_kernel("inplane_fullslice", symmetric(order), cfg, dtype)
        return plan.block_workload(dev, GRID).smem_bytes

    return smem_of


class TestSpace:
    def test_raw_size(self):
        space = ParameterSpace(
            tx_values=(16, 32), ty_values=(1, 2), rx_values=(1,), ry_values=(1, 2)
        )
        assert len(list(candidates(space))) == 8

    def test_default_space_covers_table4_optima(self):
        """Every optimal configuration of Table IV must be reachable."""
        space = default_space()
        reachable = set(c.as_tuple() for c in candidates(space))
        for opt in [
            (256, 1, 1, 8), (32, 2, 2, 4), (32, 8, 2, 2), (32, 4, 1, 4),
            (32, 8, 1, 2), (64, 4, 2, 4), (128, 4, 1, 4), (16, 8, 1, 1),
            (16, 16, 1, 1), (64, 2, 1, 4), (128, 1, 1, 4), (256, 4, 1, 4),
        ]:
            assert opt in reachable, opt


class TestConstraints:
    def test_all_feasible_satisfy_paper_constraints(self):
        dev = get_device("gtx580")
        smem_of = smem_of_factory(order=8)
        feasible = default_space().feasible(dev, GRID, smem_of)
        assert feasible
        for cfg in feasible:
            assert cfg.tx % 16 == 0  # (i) half-warp multiple
            assert cfg.threads <= dev.max_threads_per_block  # (ii)
            assert smem_of(cfg) <= dev.smem_per_sm  # (iii)
            assert GRID[1] % cfg.tile_y == 0  # (iv)
            assert GRID[0] % cfg.tile_x == 0

    def test_high_order_shrinks_space(self):
        dev = get_device("gtx580")
        lo = default_space().feasible(dev, GRID, smem_of_factory(order=2))
        hi = default_space().feasible(dev, GRID, smem_of_factory(order=12))
        assert len(hi) <= len(lo)

    def test_dp_shrinks_space(self):
        dev = get_device("gtx580")
        sp = default_space().feasible(dev, GRID, smem_of_factory(dtype="sp"))
        dp = default_space().feasible(dev, GRID, smem_of_factory(dtype="dp"))
        assert len(dp) <= len(sp)

    def test_empty_space_raises(self):
        dev = get_device("gtx580")
        space = ParameterSpace(tx_values=(24,))  # violates (i) everywhere
        with pytest.raises(TuningError):
            space.feasible(dev, GRID, smem_of_factory())

    def test_small_grid_divisibility(self):
        dev = get_device("gtx580")
        feasible = default_space().feasible(dev, (64, 48, 32), smem_of_factory())
        for cfg in feasible:
            assert 48 % cfg.tile_y == 0
            assert 64 % cfg.tile_x == 0

    @settings(max_examples=20, deadline=None)
    @given(order=st.sampled_from([2, 4, 8]))
    def test_feasible_is_subset_of_candidates(self, order):
        dev = get_device("gtx680")
        space = default_space()
        all_cands = set(candidates(space))
        feas = set(space.feasible(dev, GRID, smem_of_factory(order=order)))
        assert feas <= all_cands


class TestFeasibleEdgeCases:
    def test_tile_larger_than_grid_excluded(self):
        """A tile wider/taller than the grid plane never survives (iv)."""
        dev = get_device("gtx580")
        space = ParameterSpace(
            tx_values=(16, 64), ty_values=(2, 64), rx_values=(1,), ry_values=(1,)
        )
        feasible = space.feasible(dev, (32, 32, 16), lambda cfg: 0)
        assert feasible == [BlockConfig(16, 2, 1, 1)]
        for cfg in feasible:
            assert cfg.tile_x <= 32 and cfg.tile_y <= 32

    def test_every_tile_too_large_raises(self):
        dev = get_device("gtx580")
        space = ParameterSpace(
            tx_values=(256,), ty_values=(32,), rx_values=(1,), ry_values=(1,)
        )
        with pytest.raises(TuningError):
            space.feasible(dev, (64, 16, 8), lambda cfg: 0)

    def test_smem_probe_error_skips_config(self):
        """A ReproError from ``smem_bytes_of`` drops the config, silently."""
        from repro.errors import ReproError

        dev = get_device("gtx580")
        space = ParameterSpace(
            tx_values=(16, 32), ty_values=(2,), rx_values=(1,), ry_values=(1,)
        )

        def smem_of(cfg: BlockConfig) -> int:
            if cfg.tx == 32:
                raise ReproError("cannot lay out this block")
            return 0

        feasible = space.feasible(dev, (64, 64, 32), smem_of)
        assert feasible == [BlockConfig(16, 2, 1, 1)]

    def test_smem_probe_error_everywhere_raises_tuning_error(self):
        from repro.errors import ReproError

        dev = get_device("gtx580")
        space = ParameterSpace(
            tx_values=(16,), ty_values=(2,), rx_values=(1,), ry_values=(1,)
        )

        def smem_of(cfg: BlockConfig) -> int:
            raise ReproError("no layout")

        with pytest.raises(TuningError):
            space.feasible(dev, (64, 64, 32), smem_of)

    def test_empty_space_error_names_grid_and_device(self):
        dev = get_device("c2070")
        space = ParameterSpace(tx_values=(24,))  # violates (i) everywhere
        with pytest.raises(TuningError) as err:
            space.feasible(dev, (48, 48, 16), smem_of_factory())
        assert str(err.value) == (
            "no feasible configuration for grid (48, 48, 16) on c2070"
        )

    def test_non_exception_probe_errors_propagate(self):
        """Only ReproError means 'infeasible'; real bugs must surface."""
        dev = get_device("gtx580")
        space = ParameterSpace(
            tx_values=(16,), ty_values=(2,), rx_values=(1,), ry_values=(1,)
        )

        def smem_of(cfg: BlockConfig) -> int:
            raise ValueError("a genuine bug")

        with pytest.raises(ValueError):
            space.feasible(dev, (64, 64, 32), smem_of)


def brute_force_feasible(space, device, grid_shape, smem_of):
    """Constraints (i)-(iv) over :meth:`ParameterSpace.candidates`, one
    :class:`BlockConfig` per candidate: the reference for ``feasible``."""
    lx, ly, _lz = grid_shape
    out = []
    for cfg in candidates(space):
        if cfg.tx % HALF_WARP != 0:
            continue
        if cfg.threads > device.max_threads_per_block:
            continue
        if ly % cfg.tile_y != 0 or cfg.tile_y > ly:
            continue
        if lx % cfg.tile_x != 0 or cfg.tile_x > lx:
            continue
        try:
            if smem_of(cfg) > device.smem_per_sm:
                continue
        except ReproError:
            continue
        out.append(cfg)
    return out


class Footprint:
    """A made-up footprint probe: pseudo-random per config, raising
    ``ReproError`` for about one config in five, recording every call."""

    def __init__(self, seed):
        self.seed = seed
        self.calls = []

    def __call__(self, cfg):
        self.calls.append(cfg)
        h = hash((self.seed, cfg.as_tuple()))  # ints only: stable per run
        if h % 5 == 0:
            raise ReproError("no layout")
        return h % 64_000


#: Mostly values a real space holds (so most examples keep survivors),
#: plus any positive integer.
THREADS_X = st.one_of(st.sampled_from([16, 32, 48, 64, 128, 256]), st.integers(1, 600))
FACTOR = st.one_of(st.sampled_from([1, 2, 4, 8, 16]), st.integers(1, 12))
EXTENT = st.one_of(
    st.sampled_from([64, 128, 256, 512, 1024]),
    st.integers(1, 64).map(lambda k: 16 * k),
    st.integers(1, 1100),
)


def value_tuples(values):
    return st.lists(values, min_size=1, max_size=5).map(tuple)


class TestFeasibleMatchesBruteForce:
    """``feasible`` checks (i), (ii) and (iv) on integers; the result and
    the footprint probes must be those of the per-candidate filter."""

    @settings(max_examples=300, deadline=None)
    @given(
        tx=value_tuples(THREADS_X), ty=value_tuples(FACTOR),
        rx=value_tuples(FACTOR), ry=value_tuples(FACTOR),
        grid=st.tuples(EXTENT, EXTENT, st.integers(1, 64)),
        device=st.sampled_from(list_devices()),
        seed=st.integers(0, 7),
    )
    def test_same_list_same_order_same_probes(
        self, tx, ty, rx, ry, grid, device, seed
    ):
        dev = get_device(device)
        space = ParameterSpace(tx, ty, rx, ry)
        want_probe, got_probe = Footprint(seed), Footprint(seed)
        want = brute_force_feasible(space, dev, grid, want_probe)
        if want:
            assert space.feasible(dev, grid, got_probe) == want
        else:
            with pytest.raises(TuningError):
                space.feasible(dev, grid, got_probe)
        assert got_probe.calls == want_probe.calls

    @settings(max_examples=200, deadline=None)
    @given(
        tx=value_tuples(st.integers(-2, 64)), ty=value_tuples(st.integers(-2, 8)),
        rx=value_tuples(st.integers(-2, 4)), ry=value_tuples(st.integers(-2, 4)),
        device=st.sampled_from(list_devices()),
    )
    def test_non_positive_value_raises_the_same_error(self, tx, ty, rx, ry, device):
        assume(min(tx + ty + rx + ry) <= 0)
        dev = get_device(device)
        space = ParameterSpace(tx, ty, rx, ry)
        with pytest.raises(ConfigurationError) as want:
            brute_force_feasible(space, dev, (64, 64, 16), Footprint(0))
        with pytest.raises(ConfigurationError) as got:
            space.feasible(dev, (64, 64, 16), Footprint(0))
        assert str(got.value) == str(want.value)
        assert got.value.rule == want.value.rule == "CFG-POSITIVE"
