"""VectorTrialEvaluator tests: the batch backend is a pure substitution.

The evaluator's contract: same outcomes (status, bit-identical rate, same
``info`` keys), same winner and tie-breaks as the scalar
:class:`~repro.tuning.evaluator.SimTrialEvaluator` reference — only
faster.  It is every tuner's default backend.
"""

from contextlib import ExitStack

import pytest

import repro.obs as obs
from repro.gpusim.batch import BatchEngine
from repro.kernels.config import BlockConfig
from repro.kernels.factory import KERNEL_FAMILIES, make_kernel
from repro.obs.archive import TrialArchive, archive_stream, read_archive
from repro.obs.events import MemoryEventSink, event_stream
from repro.obs.schema import CAT_TUNE_TRIAL
from repro.stencils.spec import symmetric
from repro.tuning.evaluator import (
    STATUS_OK,
    STATUS_REJECTED_STATIC,
    SimTrialEvaluator,
    TrialRunner,
    build_trial,
)
from repro.tuning.exhaustive import (
    evaluate_configs,
    exhaustive_tune,
    feasible_configs,
    feasible_trials,
)
from repro.tuning.modelbased import model_based_tune
from repro.tuning.robust import ResilientEvaluator, TrialJournal
from repro.tuning.space import ParameterSpace, default_space
from repro.tuning.stochastic import stochastic_tune
from repro.tuning.vectorized import VectorTrialEvaluator, shared_grid_workloads

GRID = (256, 256, 128)
SMALL_SPACE = ParameterSpace(
    tx_values=(16, 32, 64), ty_values=(2, 4, 8), rx_values=(1, 2), ry_values=(1, 2)
)
#: dp order 8 on this space: the ty=32 corner is statically rejected.
NARRATED_SPACE = ParameterSpace(
    tx_values=(32,), ty_values=(8, 16, 32), rx_values=(1, 2), ry_values=(1, 2, 4),
)
#: Rejected by the scalar executor (register file / shared memory).
DEAD_CONFIGS = [BlockConfig(64, 16, 2, 2), BlockConfig(64, 8, 4, 8)]


def builder(order=2, dtype="sp"):
    spec = symmetric(order)
    return lambda cfg: make_kernel("inplane_fullslice", spec, cfg, dtype)


class TestProtocol:
    def test_is_batch_capable(self, gtx580):
        """Both evaluators price a whole trial list, static rejects included."""
        build = builder()
        trials = [
            build_trial(build, cfg, gtx580, GRID)
            for cfg in [BlockConfig(32, 4, 1, 4), *DEAD_CONFIGS]
        ]
        vector = VectorTrialEvaluator(gtx580).measure_trials(trials, GRID)
        scalar = SimTrialEvaluator(gtx580).measure_trials(trials, GRID)
        assert vector == scalar
        assert [o.status for o in vector] == [STATUS_OK] + [STATUS_REJECTED_STATIC] * 2

    def test_accepts_device_name(self):
        ev = VectorTrialEvaluator("gtx580")
        assert ev.device.name == "gtx580"

    def test_shared_engine_is_reused(self, gtx580):
        engine = BatchEngine(gtx580)
        ev = VectorTrialEvaluator(gtx580, engine=engine)
        ev.measure_batch(builder(), [BlockConfig(32, 4, 1, 4)], GRID)
        assert engine._scores  # memo landed on the injected engine


class TestOutcomeParity:
    def test_outcomes_match_serial_evaluator(self, paper_device):
        build = builder()
        configs = feasible_configs(build, paper_device, GRID, SMALL_SPACE)
        serial = SimTrialEvaluator(paper_device)
        vector = VectorTrialEvaluator(paper_device)
        batched = vector.measure_batch(build, configs, GRID)
        assert len(batched) == len(configs)
        for cfg, got in zip(configs, batched):
            plan = build(cfg)
            block = plan.block_workload(paper_device, GRID)
            want = serial.measure(cfg, plan, GRID, block)
            assert got.config == cfg
            assert got.status == want.status
            assert got.mpoints_per_s == want.mpoints_per_s  # bit-exact
            assert got.info == want.info

    def test_rejects_static_with_prefilter(self, gtx580):
        ev = VectorTrialEvaluator(gtx580)
        outcomes = ev.measure_batch(builder(), DEAD_CONFIGS, GRID)
        assert [o.status for o in outcomes] == [STATUS_REJECTED_STATIC] * 2

    def test_one_trial_measure_rejects_static(self, gtx580, tmp_path):
        """A one-trial ``measure`` rejects from its own price on every
        evaluator; the resilient one journals nothing for it."""
        build = builder()
        path = tmp_path / "t.journal"
        resilient = ResilientEvaluator(
            VectorTrialEvaluator(gtx580), journal=TrialJournal.create(path, "k")
        )
        header = path.read_bytes()
        evaluators = (
            VectorTrialEvaluator(gtx580), SimTrialEvaluator(gtx580), resilient,
        )
        for ev in evaluators:
            for cfg in DEAD_CONFIGS:
                plan = build(cfg)
                outcome = ev.measure(cfg, plan, GRID, plan.block_workload(gtx580, GRID))
                assert outcome.status == STATUS_REJECTED_STATIC
        assert path.read_bytes() == header
        assert resilient.stats["live_trials"] == resilient.stats["replayed"] == 0

    def test_measure_single_matches_batch(self, gtx580):
        build = builder()
        cfg = BlockConfig(32, 4, 1, 4)
        plan = build(cfg)
        block = plan.block_workload(gtx580, GRID)
        ev = VectorTrialEvaluator(gtx580)
        single = ev.measure(cfg, plan, GRID, block)
        (batched,) = ev.measure_batch(build, [cfg], GRID)
        assert single.status == STATUS_OK
        assert single.mpoints_per_s == batched.mpoints_per_s
        assert single.info == batched.info


class TestTunerIdentity:
    def test_exhaustive_winner_identical(self, paper_device):
        base = exhaustive_tune(
            builder(), paper_device, GRID, SMALL_SPACE,
            evaluator=SimTrialEvaluator(paper_device),
        )
        fast = exhaustive_tune(
            builder(), paper_device, GRID, SMALL_SPACE,
            evaluator=VectorTrialEvaluator(paper_device),
        )
        assert fast.best_config == base.best_config
        assert fast.best_mpoints == base.best_mpoints  # bit-exact
        assert [e.config for e in fast.entries] == [e.config for e in base.entries]
        assert [e.mpoints_per_s for e in fast.entries] == [
            e.mpoints_per_s for e in base.entries
        ]

    def test_model_based_winner_identical(self, gtx580):
        base = model_based_tune(
            builder(), gtx580, GRID, beta=0.2, space=SMALL_SPACE,
            evaluator=SimTrialEvaluator(gtx580),
        )
        fast = model_based_tune(
            builder(), gtx580, GRID, beta=0.2, space=SMALL_SPACE,
            evaluator=VectorTrialEvaluator(gtx580),
        )
        assert fast.best_config == base.best_config
        assert fast.best_mpoints == base.best_mpoints
        assert [e.mpoints_per_s for e in fast.entries] == [
            e.mpoints_per_s for e in base.entries
        ]

    @pytest.mark.parametrize("tuner", ["exhaustive", "model"])
    def test_narration_identical(self, gtx580, tuner):
        """Both backends' outcomes are narrated by the same per-trial
        code: same trial trace (args in the same order), counters, stats
        and event stream."""
        space = NARRATED_SPACE
        build = builder(order=8, dtype="dp")

        def narrate(evaluator):
            sink = MemoryEventSink()
            with obs.tracing() as tracer, event_stream(sink):
                if tuner == "exhaustive":
                    result = exhaustive_tune(
                        build, gtx580, GRID, space, evaluator=evaluator
                    )
                else:
                    result = model_based_tune(
                        build, gtx580, GRID, beta=1.0, space=space,
                        evaluator=evaluator,
                    )
            trials = [
                (s.name, s.instant, list(s.args.items()))
                for s in tracer.host_spans(CAT_TUNE_TRIAL)
            ]
            counters = {
                k: v for k, v in tracer.metrics.snapshot()["counters"].items()
                if k.startswith("tune.")
            }
            events = [e.to_obj() for e in sink.events]
            return trials, counters, result.info, events

        serial = narrate(SimTrialEvaluator(gtx580))
        batch = narrate(VectorTrialEvaluator(gtx580))
        assert serial[1]["tune.rejected_static"] > 0
        assert serial == batch

    def test_autotune_prices_like_the_scalar_reference(self, gtx580):
        import repro

        got = repro.autotune("inplane_fullslice", 2, gtx580, GRID, method="model")
        want = model_based_tune(
            builder(), gtx580, GRID, evaluator=SimTrialEvaluator(gtx580)
        )
        assert got.entries == want.entries
        assert got.info == want.info


#: Every tuner, set to price all of :data:`NARRATED_SPACE`.
TUNERS = {
    "exhaustive": lambda build, device, **kw: exhaustive_tune(
        build, device, GRID, NARRATED_SPACE, **kw
    ),
    "model": lambda build, device, **kw: model_based_tune(
        build, device, GRID, beta=1.0, space=NARRATED_SPACE, **kw
    ),
    "stochastic": lambda build, device, **kw: stochastic_tune(
        build, device, GRID, budget=100, seed=0, space=NARRATED_SPACE, **kw
    ),
}


class TestDefaultBackend:
    """A tuner given no evaluator prices on the batch engine, and returns
    exactly what it returns over the scalar reference."""

    @pytest.mark.parametrize("tuner", sorted(TUNERS))
    def test_default_equals_scalar_reference(self, gtx580, tuner):
        build = builder(order=8, dtype="dp")
        default = TUNERS[tuner](build, gtx580)
        scalar = TUNERS[tuner](build, gtx580, evaluator=SimTrialEvaluator(gtx580))
        # Entries compare config, rate, prediction and info, in rank order.
        assert default.entries == scalar.entries
        assert default.info == scalar.info
        assert default.space_size == scalar.space_size
        assert default.info["rejected_static"] > 0


class TestStatsShape:
    """``stats['jobs']`` is always populated — on either backend."""

    def test_serial_evaluate_configs_sets_jobs(self, gtx580):
        trials = feasible_trials(builder(), gtx580, GRID, SMALL_SPACE)
        stats = {}
        evaluate_configs(
            trials, gtx580, GRID, stats=stats,
            evaluator=SimTrialEvaluator(gtx580),
        )
        assert stats["jobs"] == 1

    def test_batch_evaluate_configs_sets_jobs(self, gtx580):
        trials = feasible_trials(builder(), gtx580, GRID, SMALL_SPACE)
        stats = {}
        evaluate_configs(trials, gtx580, GRID, stats=stats)
        assert stats["jobs"] == 1

    def test_exhaustive_info_jobs_both_backends(self, gtx580):
        serial = exhaustive_tune(
            builder(), gtx580, GRID, SMALL_SPACE,
            evaluator=SimTrialEvaluator(gtx580),
        )
        batch = exhaustive_tune(builder(), gtx580, GRID, SMALL_SPACE)
        assert serial.info["jobs"] == 1
        assert batch.info["jobs"] == 1
        assert set(serial.info) == set(batch.info)

    def test_model_based_info_jobs_both_backends(self, gtx580):
        serial = model_based_tune(
            builder(), gtx580, GRID, beta=0.2, space=SMALL_SPACE,
            evaluator=SimTrialEvaluator(gtx580),
        )
        batch = model_based_tune(builder(), gtx580, GRID, beta=0.2, space=SMALL_SPACE)
        assert serial.info["jobs"] == 1
        assert batch.info["jobs"] == 1
        assert set(serial.info) == set(batch.info)


PLANES = ("tracer", "events", "archive")


class TestQuietRunner:
    """With no tracer, event sink or archive, :meth:`TrialRunner.all`
    only measures and tallies; any one plane brings the narration back."""

    @staticmethod
    def trials(device):
        return feasible_trials(
            builder(order=8, dtype="dp"), device, GRID, NARRATED_SPACE
        )

    @staticmethod
    def run(evaluator, device, trials, planes, tmp_path):
        """Run ``trials`` with ``planes`` installed; return what each says."""
        sink = MemoryEventSink()
        path = tmp_path / f"{'-'.join(planes) or 'quiet'}.archive"
        with ExitStack() as stack:
            tracer = (
                stack.enter_context(obs.tracing()) if "tracer" in planes else None
            )
            if "events" in planes:
                stack.enter_context(event_stream(sink))
            if "archive" in planes:
                stack.enter_context(
                    archive_stream(TrialArchive(path, session="quiet-runner"))
                )
            runner = TrialRunner(evaluator, device, GRID)
            outcomes = runner.all(trials)
        heard = {
            "tracer": None if tracer is None else (
                [(s.name, s.instant, list(s.args.items()))
                 for s in tracer.host_spans(CAT_TUNE_TRIAL)],
                {k: v for k, v in tracer.metrics.snapshot()["counters"].items()
                 if k.startswith("tune.")},
            ),
            "events": [e.to_obj() for e in sink.events],
            "archive": (
                [r.to_obj() for r in read_archive(path)[1]]
                if path.exists() else None
            ),
        }
        return outcomes, runner.stats, heard

    @pytest.mark.parametrize("backend", [SimTrialEvaluator, VectorTrialEvaluator])
    def test_quiet_and_narrated_runs_agree(self, gtx580, backend, tmp_path):
        trials = self.trials(gtx580)
        quiet = self.run(backend(gtx580), gtx580, trials, (), tmp_path)
        loud = self.run(backend(gtx580), gtx580, trials, PLANES, tmp_path)
        assert quiet[0] == loud[0]
        assert list(quiet[1].items()) == list(loud[1].items())
        assert quiet[1][STATUS_REJECTED_STATIC] > 0
        assert quiet[2] == {"tracer": None, "events": [], "archive": None}

    @pytest.mark.parametrize("plane", PLANES)
    @pytest.mark.parametrize("backend", [SimTrialEvaluator, VectorTrialEvaluator])
    def test_one_plane_hears_every_trial(self, gtx580, backend, plane, tmp_path):
        """Each plane alone narrates exactly what it does with all three on."""
        trials = self.trials(gtx580)
        alone = self.run(backend(gtx580), gtx580, trials, (plane,), tmp_path)
        loud = self.run(backend(gtx580), gtx580, trials, PLANES, tmp_path)
        assert alone[2][plane] == loud[2][plane]
        if plane == "tracer":
            spans, counters = alone[2]["tracer"]
            assert len(spans) == len(trials)
            assert sum(counters.values()) == len(trials)
        else:
            assert len(alone[2][plane]) == len(trials)


#: Every family once, plus temporal at two fusion depths.
GRID_FAMILIES = [(f, {}) for f in sorted(KERNEL_FAMILIES)] + [
    ("temporal", {"time_steps": 1}), ("temporal", {"time_steps": 3}),
]


class TestSharedGridWorkloads:
    """One grid workload per distinct plan grid key, equal to a fresh one."""

    @pytest.mark.parametrize(
        "family, kwargs", GRID_FAMILIES,
        ids=[f"{f}-{kw}" if kw else f for f, kw in GRID_FAMILIES],
    )
    def test_every_shared_grid_equals_a_fresh_build(self, gtx580, family, kwargs):
        spec = symmetric(4)

        def build(cfg):
            return make_kernel(family, spec, cfg, "sp", **kwargs)

        trials = feasible_trials(build, gtx580, GRID, default_space())
        grids = shared_grid_workloads(trials, gtx580, GRID)
        assert len({id(g) for g in grids}) < len(trials)  # some are shared
        for trial, grid in zip(trials, grids):
            assert grid == trial.plan.grid_workload(gtx580, GRID)

    def test_fusion_depth_splits_the_key(self, gtx580):
        """Same tile and radius, different ``time_steps``: never shared."""
        cfg = BlockConfig(32, 4, 1, 2)
        plans = [
            make_kernel("temporal", symmetric(4), cfg, "sp", time_steps=t)
            for t in (1, 2)
        ] + [make_kernel("inplane_fullslice", symmetric(4), cfg, "sp")]
        trials = [
            build_trial(lambda _cfg, p=p: p, cfg, gtx580, GRID) for p in plans
        ]
        grids = shared_grid_workloads(trials, gtx580, GRID)
        assert grids == [p.grid_workload(gtx580, GRID) for p in plans]
        assert grids[0].total_points != grids[1].total_points
