"""One build per config per sweep: feasibility builds, every stage reuses.

A tune calls ``build(cfg)`` and ``plan.block_workload(device, grid)``
only in its feasibility pass
(:func:`repro.tuning.exhaustive.feasible_trials`), and the workload only
for configs whose plan passes constraint (iii); the pre-filter, the
model tier, both measurement backends, the resilient executor and the
archive capture all read the :class:`~repro.tuning.evaluator.Trial` it
built.  These tests count the builds through every tuner and check that
no stage mutates the shared workload.  Inside that pass, plans with the
same effective tile share one tile record; the last two classes pin the
memo's scope and the completeness of its key.
"""

from collections import Counter, defaultdict

import pytest

from repro.gpusim.arch import HALF_WARP
from repro.gpusim.device import get_device
from repro.errors import TuningError
from repro.gpusim.faults import FaultPlan
from repro.kernels.factory import make_kernel
from repro.kernels.symmetric import TILE_RECORD_MEMO
from repro.obs.archive import read_archive
from repro.stencils.spec import symmetric
from repro.tuning.evaluator import SimTrialEvaluator
from repro.tuning.exhaustive import exhaustive_tune, feasible_trials
from repro.tuning.modelbased import model_based_tune
from repro.tuning.robust import RobustTuningSession
from repro.tuning.space import ParameterSpace, default_space
from repro.tuning.stochastic import stochastic_tune
from repro.tuning.vectorized import VectorTrialEvaluator
from tests.oracles.space import candidates

DEVICE = "gtx580"
GRID = (1024, 64, 16)
ORDER = 8
#: Three candidates reach constraint (iii) and fail it (a 1024-wide
#: tile's shared-memory buffer), one feasible config cannot launch.
SPACE = ParameterSpace(
    tx_values=(16, 32, 256), ty_values=(2, 4), rx_values=(1, 4), ry_values=(1, 8)
)
STORM = "seed=5,launch=0.1,hang=0.02,throttle=0.05"


class CountingBuild:
    """A ``build`` counting its calls; its plans count ``block_workload``.

    ``workloads`` counts the calls bound to a device, per config.  A call
    without one (the access-plan lowering is device-free by construction)
    is tallied apart in ``lowered``: the archive's estimate lowers from
    the trial's own block, so a sweep makes none.
    """

    def __init__(self) -> None:
        self.spec = symmetric(ORDER)
        self.builds: Counter = Counter()
        self.workloads: Counter = Counter()
        self.lowered: Counter = Counter()
        #: (plan, block) for every workload handed out, for reuse checks.
        self.handed_out: list = []

    def __call__(self, cfg):
        self.builds[cfg] += 1
        plan = make_kernel("inplane_fullslice", self.spec, cfg)
        unwrapped = plan.block_workload

        def block_workload(device, grid_shape):
            block = unwrapped(device, grid_shape)
            if device is None:
                self.lowered[cfg] += 1
            else:
                self.workloads[cfg] += 1
                self.handed_out.append((plan, block))
            return block

        plan.block_workload = block_workload
        return plan


def reaching_constraint_iii(device):
    """Candidates that pass (i), (ii) and (iv), so feasibility prices them."""
    lx, ly, _ = GRID
    return {
        cfg for cfg in candidates(SPACE)
        if cfg.tx % HALF_WARP == 0
        and cfg.threads <= device.max_threads_per_block
        and ly % cfg.tile_y == 0 and cfg.tile_y <= ly
        and lx % cfg.tile_x == 0 and cfg.tile_x <= lx
    }


def run_exhaustive_vector(build, device, tmp_path):
    return exhaustive_tune(
        build, device, GRID, SPACE, evaluator=VectorTrialEvaluator(device)
    )


def run_exhaustive_sim(build, device, tmp_path):
    return exhaustive_tune(
        build, device, GRID, SPACE, evaluator=SimTrialEvaluator(device)
    )


def run_model_sim(build, device, tmp_path):
    return model_based_tune(build, device, GRID, beta=0.5, space=SPACE)


def run_model_vector(build, device, tmp_path):
    return model_based_tune(
        build, device, GRID, beta=0.5, space=SPACE,
        evaluator=VectorTrialEvaluator(device),
    )


def run_stochastic(build, device, tmp_path):
    return stochastic_tune(build, device, GRID, budget=10, seed=3, space=SPACE)


def session_runner(method):
    def run(build, device, tmp_path):
        archive = tmp_path / f"{method}.archive"
        session = RobustTuningSession(
            device, GRID, faults=FaultPlan.parse(STORM),
            journal_path=tmp_path / f"{method}.journal", archive_path=archive,
            session_key=method,
        )
        sres = session.run(build, method=method, space=SPACE, beta=0.5, budget=10)
        assert read_archive(archive, strict=True)[1], "archive captured nothing"
        return sres.result

    return run


RUNNERS = {
    "exhaustive-vector": run_exhaustive_vector,
    "exhaustive-sim": run_exhaustive_sim,
    "model-sim": run_model_sim,
    "model-vector": run_model_vector,
    "stochastic": run_stochastic,
    "session-exhaustive": session_runner("exhaustive"),
    "session-model": session_runner("model"),
    "session-stochastic": session_runner("stochastic"),
}


@pytest.fixture(params=sorted(RUNNERS))
def swept(request, tmp_path):
    device = get_device(DEVICE)
    build = CountingBuild()
    result = RUNNERS[request.param](build, device, tmp_path)
    return device, build, result


class TestOneBuildPerConfig:
    def test_build_runs_once_per_candidate_reaching_smem_check(self, swept):
        device, build, result = swept
        assert set(build.builds) == reaching_constraint_iii(device)
        assert set(build.builds.values()) == {1}
        assert result.space_size < len(build.builds)  # (iii) rejected some

    def test_block_workload_runs_once_per_plan(self, swept):
        """Once per feasible config, never for a constraint-(iii) reject."""
        device, build, result = swept
        passing = {
            cfg for cfg in reaching_constraint_iii(device)
            if make_kernel("inplane_fullslice", build.spec, cfg).smem_bytes()
            <= device.smem_per_sm
        }
        assert len(passing) == result.space_size
        assert set(build.workloads) == passing
        assert set(build.workloads.values()) == {1}
        assert set(build.builds) - passing  # (iii) rejected some, unbuilt
        assert not build.lowered


class TestSharedWorkloadIsNotMutated:
    def test_every_trial_block_equals_a_fresh_build(self, swept):
        device, build, _result = swept
        assert build.handed_out
        for plan, block in build.handed_out:
            fresh = make_kernel(
                "inplane_fullslice", symmetric(ORDER), plan.block
            ).block_workload(device, GRID)
            assert block == fresh


PAPER_GRID = (512, 512, 256)


def tile_of(trial):
    return trial.config.tile_x, trial.config.tile_y


class TestPlaneMemoryMemoScope:
    def test_trials_with_one_tile_share_one_memory_record(self):
        device = get_device(DEVICE)
        build = CountingBuild()
        trials = feasible_trials(build, device, PAPER_GRID, default_space())
        tiles = {tile_of(t) for t in trials}
        assert len(trials) > len(tiles)  # the space repeats tiles
        for part in ("memory", "smem_profile"):
            assert len({id(getattr(t.block, part)) for t in trials}) == len(tiles)
            for tile in tiles:
                assert len({
                    id(getattr(t.block, part))
                    for t in trials if tile_of(t) == tile
                }) == 1

    def test_consecutive_tunes_share_no_memory_record(self):
        device = get_device(DEVICE)
        first, second = CountingBuild(), CountingBuild()
        exhaustive_tune(first, device, PAPER_GRID)
        exhaustive_tune(second, device, PAPER_GRID)
        ids = [
            {id(block.memory) for _plan, block in b.handed_out}
            for b in (first, second)
        ]
        assert ids[0] and ids[1]
        assert not ids[0] & ids[1]

    def test_builds_outside_a_sweep_are_fresh(self):
        device = get_device(DEVICE)
        plan = make_kernel("inplane_fullslice", ORDER, (32, 4, 1, 2))
        twin = make_kernel("inplane_fullslice", ORDER, (16, 4, 2, 2))
        assert plan.block.tile_x == twin.block.tile_x
        assert plan.block.tile_y == twin.block.tile_y
        a = plan.block_workload(device, PAPER_GRID)
        b = plan.block_workload(device, PAPER_GRID)
        c = twin.block_workload(device, PAPER_GRID)
        assert a.memory == b.memory == c.memory
        assert len({id(a.memory), id(b.memory), id(c.memory)}) == 3

    def test_memo_is_reset_when_the_sweep_raises(self):
        device = get_device(DEVICE)
        seen = []

        def build(cfg):
            seen.append(TILE_RECORD_MEMO.get())
            return make_kernel("inplane_fullslice", ORDER, cfg)

        # Every candidate reaches constraint (iii) and fails it.
        space = ParameterSpace(
            tx_values=(256,), ty_values=(2, 4), rx_values=(4,), ry_values=(8,)
        )
        with pytest.raises(TuningError, match="no feasible configuration"):
            feasible_trials(build, device, GRID, space)
        assert seen and all(memo is not None for memo in seen)
        assert TILE_RECORD_MEMO.get() is None


#: Every plan building its workload through the memo.  The first four
#: differ pairwise in one key component: classical vs vertical in
#: ``variant``, classical with and without vectors in ``use_vectors``,
#: and classical in the sweep's dtype vs the other one in element size.
FLAVOURS = (
    ("inplane_classical", {}),
    ("inplane_vertical", {}),
    ("inplane_classical", {"use_vectors": False}),
    ("inplane_classical", {"dtype": "other"}),
    ("inplane_fullslice", {}),
    ("inplane_horizontal", {}),
    ("nvstencil", {}),
    ("inplane_vertical", {"use_vectors": False}),
    ("inplane_fullslice", {"use_vectors": False}),
    ("inplane_horizontal", {"use_vectors": False}),
)


def flavour_kernel(flavour, spec, cfg, dtype):
    family, kw = flavour
    kw = dict(kw)
    if kw.pop("dtype", None) == "other":
        dtype = "dp" if dtype == "sp" else "sp"
    return make_kernel(family, spec, cfg, dtype, **kw)


class TestPlaneMemoryKey:
    @pytest.mark.parametrize("dtype", ["sp", "dp"])
    @pytest.mark.parametrize("order", [2, 8, 12])
    def test_every_trial_block_equals_a_fresh_build(self, dtype, order):
        """One sweep whose plans rotate through :data:`FLAVOURS` per tile,
        so a tile's first builds differ in one key component each: a key
        missing that component hands a plan another flavour's tile record.
        Each trial's whole workload must equal (and print like) a build
        made outside any sweep."""
        device = get_device(DEVICE)
        spec = symmetric(order)
        builds_per_tile: Counter = Counter()
        flavour_of = {}

        def build(cfg):
            tile = cfg.tile_x, cfg.tile_y
            flavour_of[cfg] = builds_per_tile[tile] % len(FLAVOURS)
            builds_per_tile[tile] += 1
            return flavour_kernel(FLAVOURS[flavour_of[cfg]], spec, cfg, dtype)

        trials = feasible_trials(build, device, PAPER_GRID, default_space())
        flavours_by_tile = defaultdict(set)
        for trial in trials:
            flavours_by_tile[tile_of(trial)].add(flavour_of[trial.config])
        assert any(len(f) >= 4 for f in flavours_by_tile.values())
        for trial in trials:
            fresh = flavour_kernel(
                FLAVOURS[flavour_of[trial.config]], spec, trial.config, dtype
            ).block_workload(device, PAPER_GRID)
            assert trial.block == fresh
            assert repr(trial.block) == repr(fresh)
