"""Batch-engine tests: bit identity with the scalar pipeline.

The contract under test is the one ``tools/check.py``'s ``batch-identity``
gate enforces in CI: every quantity the vectorized engine produces —
occupancy, timing breakdown, the derived counter set, the headline rate —
is *bit-identical* (``==`` on floats, not ``approx``) to running the
scalar :func:`repro.gpusim.executor.simulate` per configuration.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError, ResourceLimitError
from repro.gpusim.batch import (
    BatchEngine,
    BlockClass,
    _score_of,
    batch_reports,
    check_identity,
    main,
)
from repro.gpusim.device import get_device, list_devices
from repro.gpusim.executor import simulate
from repro.gpusim.ops import SCALAR
from repro.gpusim.timing import params_for, time_stage
from repro.kernels.factory import make_kernel
from repro.stencils.spec import symmetric
from repro.kernels.config import BlockConfig
from repro.obs.counters import counter_stage
from repro.tuning.space import default_space

GRID = (256, 256, 128)

#: Launchable configs spanning distinct occupancy limiters and smem shapes.
LIVE_CONFIGS = [(32, 4, 1, 4), (64, 2, 1, 1), (128, 4, 1, 2), (16, 8, 2, 2)]
#: Configs the scalar executor rejects (register file / shared memory).
DEAD_CONFIGS = [(64, 16, 2, 2), (64, 8, 4, 8)]


def plan_for(cfg, order=2, dtype="sp", family="inplane_fullslice"):
    return make_kernel(family, symmetric(order), BlockConfig(*cfg), dtype)


class TestReportIdentity:
    def test_reports_bit_identical_to_scalar(self, paper_device):
        plans = [plan_for(cfg) for cfg in LIVE_CONFIGS]
        batched = batch_reports([(p, GRID) for p in plans], paper_device)
        for plan, got in zip(plans, batched):
            want = simulate(plan, paper_device, GRID)
            assert not isinstance(got, Exception)
            assert got.mpoints_per_s == want.mpoints_per_s  # bit-exact
            assert got.time_s == want.time_s
            assert got.gflops == want.gflops
            assert got.bandwidth_gbs == want.bandwidth_gbs
            assert got.load_efficiency == want.load_efficiency
            assert got.counters.as_dict() == want.counters.as_dict()
            assert got.occupancy == want.occupancy
            assert got.total_cycles == want.total_cycles
            assert got.stages == want.stages
            assert got.active_blocks == want.active_blocks
            assert got.blocks == want.blocks
            assert got.breakdown == want.breakdown
            assert got.meta == want.meta

    def test_identity_across_dtypes_and_orders(self, gtx580):
        plans = [
            plan_for((32, 4, 1, 4), order=8),
            plan_for((32, 4, 1, 4), dtype="dp"),
            plan_for((64, 2, 1, 1), order=12, dtype="dp"),
        ]
        batched = batch_reports([(p, GRID) for p in plans], gtx580)
        for plan, got in zip(plans, batched):
            want = simulate(plan, gtx580, GRID)
            assert got.mpoints_per_s == want.mpoints_per_s
            assert got.counters.as_dict() == want.counters.as_dict()

    @pytest.mark.parametrize(
        "family, cfg", [("naive", (16, 1, 1, 1)), ("texture", (32, 4, 1, 1))]
    )
    def test_zero_smem_limiter_agrees_with_scalar(self, gtx580, family, cfg):
        """A block without shared memory is bound by the block cap on
        both paths; the unused resource never names the limiter."""
        plan = plan_for(cfg, family=family)
        (got,) = batch_reports([(plan, GRID)], gtx580)
        want = simulate(plan, gtx580, GRID)
        assert got.occupancy == want.occupancy
        assert got.counters.occupancy_limiter == want.counters.occupancy_limiter
        assert got.counters.occupancy_limiter == "blocks"
        cls = BlockClass.of(
            plan.block_workload(gtx580, GRID), plan.grid_workload(gtx580, GRID)
        )
        (score,) = BatchEngine(gtx580).scores([cls])
        assert score.limiter == "blocks"

    def test_profile_identity_gate(self):
        """The CI gate's own entry point over all trajectory records."""
        ok, summary = check_identity("BENCH_profile.json")
        assert ok, summary
        assert "identical: yes" in summary


    def test_gate_names_a_record_whose_scores_diverge(self, monkeypatch, capsys):
        """``scores()`` is checked on its own: a drift in the headline
        stage fails the gate even though ``outcomes()`` still agrees."""
        real = BatchEngine.scores

        def drifted(self, classes):
            return [
                dataclasses.replace(s, occupancy=s.occupancy + 1.0)
                for s in real(self, classes)
            ]

        monkeypatch.setattr(BatchEngine, "scores", drifted)
        assert main(["--baseline", "BENCH_profile.json"]) == 1
        out = capsys.readouterr().out
        assert "scores() diverged in occupancy" in out
        assert "MISMATCH: inplane" in out
        assert "identical: NO" in out


#: Grids giving the default space multi-wave rows (the paper plane) and
#: one-wave rows (a plane of at most a few dozen blocks).
SPLIT_GRIDS = [(512, 512, 64), (64, 64, 16)]


def default_space_classes(device, family, dtype):
    """A class for every default-space candidate that builds, on both grids."""
    classes = []
    for cfg in default_space().candidates():
        plan = make_kernel(family, symmetric(4), cfg, dtype)
        for grid in SPLIT_GRIDS:
            try:
                classes.append(BlockClass.of(
                    plan.block_workload(device, grid),
                    plan.grid_workload(device, grid),
                ))
            except ReproError:  # tile wider than the small grid, say
                continue
    return classes


class TestSplitStages:
    """``scores()`` runs the headline stage only, ``outcomes()`` both."""

    @pytest.mark.parametrize("dtype", ["sp", "dp"])
    @pytest.mark.parametrize("family", ["inplane_fullslice", "nvstencil"])
    def test_fresh_scores_equal_outcome_scores(self, paper_device, family, dtype):
        classes = default_space_classes(paper_device, family, dtype)
        scores = BatchEngine(paper_device).scores(classes)
        full = BatchEngine(paper_device).outcomes(classes)
        assert scores == [_score_of(f) for f in full]
        stages = [f.timing.stages for f in full if f.launch_error is None]
        assert len(stages) < len(full)  # unlaunchable rows are covered
        assert 1 in stages and max(stages) > 1

    def test_scores_never_run_the_counter_stage(self, gtx580, monkeypatch):
        classes = default_space_classes(gtx580, "inplane_fullslice", "dp")
        expected = [_score_of(f) for f in BatchEngine(gtx580).outcomes(classes)]

        def refuse(self, cols):
            raise AssertionError("the counter stage ran")

        monkeypatch.setattr(BatchEngine, "_counters", refuse)
        assert BatchEngine(gtx580).scores(classes) == expected
        with pytest.raises(AssertionError, match="counter stage"):
            BatchEngine(gtx580).outcomes(classes)


class TestModuleEntryPoint:
    def test_running_the_module_writes_nothing_to_stderr(self):
        """The packages export the engine lazily, so ``python -m
        repro.gpusim.batch`` is the first to import its own module."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        out = subprocess.run(
            [sys.executable, "-m", "repro.gpusim.batch",
             "--baseline", "BENCH_profile.json"],
            env=env, capture_output=True, text=True,
        )
        assert out.returncode == 0
        assert out.stderr == ""
        assert "identical: yes" in out.stdout

    def test_lazy_exports_resolve(self):
        import repro.gpusim
        import repro.tuning

        assert repro.gpusim.BlockClass is BlockClass
        assert repro.gpusim.BatchEngine is BatchEngine
        assert repro.gpusim.batch_reports is batch_reports
        for name in repro.gpusim.__all__:
            assert hasattr(repro.gpusim, name), name
        for name in repro.tuning.__all__:
            assert hasattr(repro.tuning, name), name


class TestUnlaunchable:
    def test_error_messages_match_scalar(self, gtx580):
        for cfg in DEAD_CONFIGS:
            plan = plan_for(cfg)
            with pytest.raises(ResourceLimitError) as err:
                simulate(plan, gtx580, GRID)
            (got,) = batch_reports([(plan, GRID)], gtx580)
            assert isinstance(got, ResourceLimitError)
            assert str(got) == str(err.value)

    def test_mixed_batch_keeps_input_order(self, gtx580):
        cfgs = [LIVE_CONFIGS[0], DEAD_CONFIGS[0], LIVE_CONFIGS[1]]
        plans = [plan_for(c) for c in cfgs]
        out = batch_reports([(p, GRID) for p in plans], gtx580)
        assert not isinstance(out[0], Exception)
        assert isinstance(out[1], ResourceLimitError)
        assert not isinstance(out[2], Exception)
        assert out[0].mpoints_per_s == simulate(plans[0], gtx580, GRID).mpoints_per_s

    def test_scores_carry_launch_error(self, gtx580):
        engine = BatchEngine(gtx580)
        plan = plan_for(DEAD_CONFIGS[0])
        block = plan.block_workload(gtx580, GRID)
        grid = plan.grid_workload(gtx580, GRID)
        (score,) = engine.scores([BlockClass.of(block, grid)])
        assert score.launch_error is not None
        assert "registers" in score.launch_error
        assert score.mpoints_per_s == 0.0


class TestMemoization:
    def test_duplicate_classes_priced_once(self, gtx580, monkeypatch):
        engine = BatchEngine(gtx580)
        plan = plan_for(LIVE_CONFIGS[0])
        cls = BlockClass.of(
            plan.block_workload(gtx580, GRID), plan.grid_workload(gtx580, GRID)
        )
        calls = []
        real = BatchEngine._pipeline

        def counting(self, classes):
            calls.append(len(classes))
            return real(self, classes)

        monkeypatch.setattr(BatchEngine, "_pipeline", counting)
        first = engine.scores([cls, cls, cls])
        assert calls == [1]  # three requests, one distinct class priced
        again = engine.scores([cls])
        assert calls == [1]  # cache hit: no second pipeline pass
        assert first[0] == again[0]

    def test_outcomes_populate_score_cache(self, gtx580, monkeypatch):
        engine = BatchEngine(gtx580)
        plan = plan_for(LIVE_CONFIGS[1])
        cls = BlockClass.of(
            plan.block_workload(gtx580, GRID), plan.grid_workload(gtx580, GRID)
        )
        engine.outcomes([cls])
        calls = []
        monkeypatch.setattr(
            BatchEngine, "_pipeline",
            lambda self, classes: calls.append(len(classes)),
        )
        (score,) = engine.scores([cls])
        assert calls == []  # full pass already scored it
        assert score.mpoints_per_s == simulate(plan, gtx580, GRID).mpoints_per_s

    def test_shared_engine_across_report_calls(self, gtx580):
        engine = BatchEngine(gtx580)
        plan = plan_for(LIVE_CONFIGS[2])
        first = batch_reports([(plan, GRID)], gtx580, engine=engine)
        second = batch_reports([(plan, GRID)], gtx580, engine=engine)
        assert first[0].counters.as_dict() == second[0].counters.as_dict()
        assert len(engine._full) == 1


class TestBlockClass:
    def test_same_fingerprint_same_class(self, gtx580):
        a = plan_for(LIVE_CONFIGS[0])
        b = plan_for(LIVE_CONFIGS[0])
        ca = BlockClass.of(a.block_workload(gtx580, GRID), a.grid_workload(gtx580, GRID))
        cb = BlockClass.of(b.block_workload(gtx580, GRID), b.grid_workload(gtx580, GRID))
        assert ca == cb
        assert hash(ca) == hash(cb)

    def test_distinct_workloads_distinct_classes(self, gtx580):
        def class_of(cfg, order=2):
            p = plan_for(cfg, order=order)
            return BlockClass.of(
                p.block_workload(gtx580, GRID), p.grid_workload(gtx580, GRID)
            )

        assert class_of((32, 4, 1, 4)) != class_of((64, 2, 1, 1))
        # Same config, different stencil order: the fingerprint must split.
        assert class_of((32, 4, 1, 4)) != class_of((32, 4, 1, 4), order=8)


# ----------------------------------------------------------------------
# the two op tables over random block classes
# ----------------------------------------------------------------------
def _canon(value):
    """Bit-faithful form: floats by hex, records field by field."""
    if dataclasses.is_dataclass(value):
        return {
            f.name: _canon(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {k: _canon(v) for k, v in value.items()}
    if isinstance(value, float):
        return ("float", value.hex())
    return (type(value).__name__, value)


def _scalar(device, cls):
    """Both stages through the builtins table: (error, timing, counters)."""
    params = params_for(device)
    try:
        _, _, timing = time_stage(SCALAR, device, params, cls)
    except ResourceLimitError as exc:
        return str(exc), None, None
    return None, timing, counter_stage(SCALAR, device, params, cls, timing)


def assert_tables_agree(device, classes):
    """Every timing field, counter and launch error, bit for bit."""
    outcomes = BatchEngine(device).outcomes(classes)
    scores = BatchEngine(device).scores(classes)
    for cls, got, score in zip(classes, outcomes, scores):
        error, timing, counters = _scalar(device, cls)
        assert got.launch_error == error == score.launch_error, cls
        if error is not None:
            continue
        assert _canon(got.timing) == _canon(timing), cls
        assert _canon(got.counters.values) == _canon(counters), cls
        assert got.counters.occupancy_limiter == timing.occupancy.limiter
        assert score == _score_of(got)


_size = st.integers(min_value=0, max_value=4096)
_amount = st.one_of(st.just(0.0), st.floats(min_value=1.0, max_value=1e6))
_count = st.one_of(st.just(0), _size, _amount)

block_classes = st.builds(
    BlockClass,
    threads_per_block=st.sampled_from((0, 1, 32, 48, 64, 128, 256, 512, 1024, 2048)),
    regs_per_thread=st.integers(min_value=-1, max_value=160),
    smem_bytes=st.one_of(st.just(0), st.integers(min_value=-1, max_value=60_000)),
    elem_bytes=st.sampled_from((4, 8)),
    points_per_plane=st.integers(min_value=1, max_value=8192),
    flops_per_point=st.floats(min_value=1.0, max_value=200.0),
    arith_instructions=st.floats(min_value=0.5, max_value=200.0),
    extra_instructions=st.integers(min_value=0, max_value=64),
    ilp=st.floats(min_value=1.0, max_value=8.0),
    prologue_planes=st.integers(min_value=0, max_value=12),
    syncs_per_plane=st.integers(min_value=0, max_value=4),
    load_instructions=_count,
    store_instructions=_count,
    load_transactions=_count,
    store_transactions=_count,
    requested_load_bytes=_amount,
    requested_store_bytes=_amount,
    interior_transferred_bytes=_amount,
    halo_transferred_bytes=_amount,
    store_transferred_bytes=_amount,
    spill_transferred_bytes=_amount,
    load_phases=st.integers(min_value=0, max_value=6),
    camped_bytes=_amount,
    smem_read_instructions=st.integers(min_value=0, max_value=400),
    smem_write_instructions=st.integers(min_value=0, max_value=200),
    smem_conflict_factor=st.floats(min_value=1.0, max_value=32.0),
    blocks=st.integers(min_value=1, max_value=20_000),
    planes=st.integers(min_value=1, max_value=512),
    total_points=st.integers(min_value=1, max_value=2**34),
)


def _base_class(device):
    plan = plan_for((32, 4, 1, 4), order=4)
    return BlockClass.of(
        plan.block_workload(device, GRID), plan.grid_workload(device, GRID)
    )


#: Rows no recorded launch reaches, each with the branch it exercises.
CORNERS = {
    "no loads (hide = 1.0)": dict(
        load_instructions=0, load_transactions=0, requested_load_bytes=0.0,
        interior_transferred_bytes=0.0, halo_transferred_bytes=0.0,
        spill_transferred_bytes=0.0, camped_bytes=0.0,
    ),
    "no shared memory": dict(
        smem_bytes=0, smem_read_instructions=0, smem_write_instructions=0,
    ),
    "no stores": dict(
        store_instructions=0, store_transactions=0, requested_store_bytes=0.0,
        store_transferred_bytes=0.0,
    ),
    "spilled registers": dict(regs_per_thread=160),
    "many waves": dict(blocks=9_000, planes=3),
    "zero threads": dict(threads_per_block=0),
    "too many threads": dict(threads_per_block=4096),
    "negative footprint": dict(smem_bytes=-8),
    "register file": dict(threads_per_block=1024, regs_per_thread=60),
    "shared memory": dict(smem_bytes=60_000),
}


class TestOpTablesAgree:
    """The scalar and vector op tables evaluate the one written model:
    every timing field, counter and launch-error string must agree."""

    @pytest.mark.parametrize("device", list_devices())
    def test_corner_rows(self, device):
        dev = get_device(device)
        base = _base_class(dev)
        classes = [base._replace(**row) for row in CORNERS.values()]
        assert_tables_agree(dev, classes)
        outcomes = dict(zip(CORNERS, BatchEngine(dev).outcomes(classes)))
        assert outcomes["many waves"].timing.stages > 100
        assert outcomes["spilled registers"].timing.spilled_regs > 0
        failing = ["zero threads", "too many threads", "negative footprint",
                   "shared memory"]
        if dev.registers_per_sm < 1024 * 60:  # Kepler's file fits the block
            failing.append("register file")
        for name in failing:
            assert outcomes[name].launch_error is not None, name

    @settings(max_examples=60, deadline=None)
    @given(classes=st.lists(block_classes, min_size=1, max_size=8))
    def test_random_block_classes(self, classes):
        for device in list_devices():
            assert_tables_agree(get_device(device), classes)
