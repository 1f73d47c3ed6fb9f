"""Resilient-session tests: retry, quarantine, journal resume, degradation.

The headline guarantees: a seeded fault storm that eventually lets every
configuration through returns the *same winner* as a fault-free run, and
a killed campaign resumes from its journal without re-running any
journaled trial.
"""

import functools
import itertools
import json
import os
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.errors import JournalError, TuningError
from repro.gpusim.batch import BatchEngine
from repro.gpusim.device import get_device
from repro.gpusim.executor import DeviceExecutor
from repro.gpusim.faults import FaultPlan
from repro.kernels.config import BlockConfig
from repro.kernels.factory import make_kernel
from repro.obs.events import MemoryEventSink, event_stream, read_events
from repro.obs.recordlog import main as recordlog_main
from repro.stencils.spec import symmetric
from repro.tuning.evaluator import (
    STATUS_OK,
    STATUS_QUARANTINED,
    STATUS_REJECTED_STATIC,
    TrialOutcome,
    build_trial,
)
from repro.tuning.exhaustive import exhaustive_tune
from repro.tuning.modelbased import model_based_tune
from repro.tuning.robust import (
    ResilientEvaluator,
    RetryPolicy,
    RobustTuningSession,
    TrialJournal,
    read_journal,
)
from repro.tuning.space import ParameterSpace
from repro.tuning.stochastic import stochastic_tune
from repro.tuning.vectorized import VectorTrialEvaluator

GRID = (128, 128, 32)
SPACE = ParameterSpace(
    tx_values=(16, 32, 64), ty_values=(1, 2, 4), rx_values=(1, 2), ry_values=(1, 2)
)
#: Storm with a >= 10% per-launch failure probability that still lets a
#: retried trial through (rates apply per launch, independently).
STORM = dict(launch_failure_rate=0.08, hang_rate=0.04, throttle_rate=0.06)
#: A storm whose faults only abort launches, never derate one: whatever
#: a session measures ``ok`` is priced exactly as a clean launch.
ABORTS = dict(launch_failure_rate=0.1, hang_rate=0.02)


def build(cfg: BlockConfig):
    return make_kernel("inplane_fullslice", symmetric(2), cfg)


def storm_evaluator(device, seed=7, retries=6, journal=None, **kwargs):
    plan = FaultPlan(seed=seed, **(kwargs or STORM))
    return ResilientEvaluator(
        VectorTrialEvaluator(device), faults=plan,
        policy=RetryPolicy(max_retries=retries),
        journal=journal,
    )


def measure_one(evaluator, cfg):
    """``evaluator``'s outcome for ``cfg`` priced as a one-trial list."""
    (outcome,) = evaluator.measure(
        [build_trial(build, cfg, evaluator.inner.device, GRID)], GRID
    )
    return outcome


class TestRetryPolicy:
    def test_delays_grow_and_jitter_deterministically(self):
        policy = RetryPolicy(backoff_base_s=0.1, backoff_factor=2.0, jitter=0.25)
        d0, d1, d2 = (policy.delay_s("k", a) for a in range(3))
        assert d0 < d1 < d2
        assert policy.delay_s("k", 1) == d1  # same seed, same delay
        assert RetryPolicy(seed=1).delay_s("k", 1) != RetryPolicy(
            seed=2
        ).delay_s("k", 1)

    def test_validation(self):
        with pytest.raises(TuningError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(TuningError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(TuningError):
            RetryPolicy(jitter=2.0)
        with pytest.raises(TuningError):
            RetryPolicy(jitter=1.0)


class TestStormEqualsClean:
    """Same winner under a >= 10% fault storm as fault-free, per tuner."""

    @pytest.mark.parametrize("tier", ["exhaustive", "stochastic", "model"])
    def test_best_config_unchanged(self, gtx580, tier):
        plan = FaultPlan(seed=7, **STORM)
        assert plan.fault_rate >= 0.10

        def run(evaluator):
            if tier == "exhaustive":
                return exhaustive_tune(
                    build, gtx580, GRID, SPACE, evaluator=evaluator
                )
            if tier == "stochastic":
                return stochastic_tune(
                    build, gtx580, GRID, budget=12, seed=3, space=SPACE,
                    evaluator=evaluator,
                )
            return model_based_tune(
                build, gtx580, GRID, beta=0.2, space=SPACE, evaluator=evaluator
            )

        clean = run(None)
        resilient = storm_evaluator(gtx580)
        stormy = run(resilient)
        assert resilient.stats["retries"] > 0  # the storm actually hit
        assert stormy.best_config == clean.best_config
        assert stormy.best_mpoints == pytest.approx(clean.best_mpoints)


class TestResilientEvaluator:
    def test_watchdog_quarantines_immediately(self, gtx580):
        clean = DeviceExecutor(gtx580).run(build(BlockConfig(32, 4)), GRID)
        evaluator = ResilientEvaluator(
            VectorTrialEvaluator(gtx580),
            watchdog_cycles=clean.total_cycles / 2,
            policy=RetryPolicy(max_retries=5),
        )
        outcome = measure_one(evaluator, BlockConfig(32, 4))
        assert outcome.status == STATUS_QUARANTINED
        assert outcome.attempts == 1  # no retries for deterministic kills
        assert evaluator.stats["retries"] == 0

    def test_exhausted_retries_quarantine(self, gtx580):
        evaluator = storm_evaluator(
            gtx580, retries=2, launch_failure_rate=1.0
        )
        outcome = measure_one(evaluator, BlockConfig(32, 4))
        assert outcome.status == STATUS_QUARANTINED
        assert outcome.attempts == 3
        assert outcome.faults == ("launch_failure",) * 3
        assert evaluator.stats["quarantined_configs"] == 1
        assert evaluator.stats["backoff_s"] > 0

    def test_degraded_measurement_kept_as_last_resort(self, gtx580):
        evaluator = storm_evaluator(gtx580, retries=2, throttle_rate=1.0)
        outcome = measure_one(evaluator, BlockConfig(32, 4))
        assert outcome.status == STATUS_OK
        assert "throttle" in outcome.faults  # flagged, not hidden
        assert outcome.mpoints_per_s > 0

    def test_measurement_never_emits(self, gtx580):
        """The evaluator measures, the trial runner narrates: a storm
        measured under an installed sink leaves it empty."""
        trials = TestBatchEqualsSerial.trials()
        evaluator = storm_evaluator(
            gtx580, retries=2, launch_failure_rate=0.3, throttle_rate=0.2
        )
        sink = MemoryEventSink()
        with event_stream(sink):
            evaluator.measure(trials, GRID)
        assert evaluator.stats["retries"] > 0  # the storm actually hit
        assert sink.events == []

    def test_sleep_callable_receives_delays(self, gtx580):
        slept = []
        evaluator = ResilientEvaluator(
            VectorTrialEvaluator(gtx580),
            faults=FaultPlan(launch_failure_rate=1.0),
            policy=RetryPolicy(max_retries=2, sleep=slept.append),
        )
        measure_one(evaluator, BlockConfig(32, 4))
        assert len(slept) == 2
        assert slept == sorted(slept)  # exponential growth


class TestBatchEqualsSerial:
    """One ``measure`` of a list walks it exactly as one one-trial list
    per trial.

    The batch path prices every trial in one engine call (the NumPy
    table), then applies the fault overlay trial by trial; the serial
    reference is the stochastic walk's one-trial lists (the scalar
    table).  Both must give the same outcomes, stats and journal, and
    leave the plan at the same draw index.
    """

    CONFIGS = (
        (16, 1, 1, 1), (32, 4, 1, 1), (64, 32, 1, 1), (32, 2, 2, 2),
        (64, 4, 1, 2), (128, 2, 1, 1), (16, 8, 2, 1), (32, 8, 1, 4),
    )

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def trials():
        device = get_device("gtx580")
        return [
            build_trial(build, BlockConfig(*c), device, GRID)
            for c in TestBatchEqualsSerial.CONFIGS
        ]

    @staticmethod
    def serial(evaluator, trials):
        return [evaluator.measure([t], GRID)[0] for t in trials]

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        rates=st.tuples(*[st.sampled_from((0.0, 0.05, 0.2, 0.25))] * 4),
        burst=st.none() | st.integers(0, 12),
        watchdog=st.none() | st.integers(0, 7),
        retries=st.integers(0, 3),
        journaled=st.sets(st.integers(0, 7), max_size=4),
    )
    def test_batch_walk_matches_serial(
        self, seed, rates, burst, watchdog, retries, journaled
    ):
        trials = self.trials()
        device = get_device("gtx580")
        if watchdog is not None:
            # A budget between the trials' clean cycle counts.
            classes = VectorTrialEvaluator(device).classes(trials, GRID)
            cycles = sorted(
                s.total_cycles for s in BatchEngine(device).scores(classes)
            )
            watchdog = cycles[watchdog]

        def evaluator(path):
            journal = TrialJournal.create(path, "k")
            for i in sorted(journaled):
                journal.record(TrialOutcome(
                    config=trials[i].config, status=STATUS_OK,
                    mpoints_per_s=float(i),
                ))
            faults = FaultPlan(
                seed=seed, launch_failure_rate=rates[0], hang_rate=rates[1],
                throttle_rate=rates[2], ecc_rate=rates[3], burst=burst,
                watchdog_cycles=watchdog,
            )
            return ResilientEvaluator(
                VectorTrialEvaluator(device),
                faults=faults, policy=RetryPolicy(max_retries=retries),
                journal=TrialJournal.resume(path, "k"),
            )

        with tempfile.TemporaryDirectory() as tmp:
            batch = evaluator(Path(tmp) / "batch.journal")
            serial = evaluator(Path(tmp) / "serial.journal")
            got = batch.measure(trials, GRID)
            want = self.serial(serial, trials)
            assert got == want
            assert batch.stats == serial.stats
            assert (Path(tmp) / "batch.journal").read_bytes() == (
                Path(tmp) / "serial.journal"
            ).read_bytes()
        assert batch.faults.next_index() == serial.faults.next_index()


class TestJournal:
    def outcome(self, tx=32, ty=4):
        return TrialOutcome(
            config=BlockConfig(tx, ty), status=STATUS_OK,
            mpoints_per_s=100.0, info={"occupancy": 0.5},
        )

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "t.journal"
        journal = TrialJournal.create(path, "k")
        journal.record(self.outcome())
        reloaded = TrialJournal.resume(path, "k")
        got = reloaded.get(BlockConfig(32, 4))
        assert got is not None and got.replayed
        assert got.mpoints_per_s == 100.0
        assert len(reloaded) == 1

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(JournalError, match="does not exist"):
            TrialJournal.resume(tmp_path / "absent.journal", "k")

    def test_session_mismatch_raises(self, tmp_path):
        path = tmp_path / "t.journal"
        TrialJournal.create(path, "session-a")
        with pytest.raises(JournalError, match="belongs to session"):
            TrialJournal.resume(path, "session-b")

    def test_foreign_header_raises(self, tmp_path):
        path = tmp_path / "t.journal"
        path.write_text('{"something": "else"}\n')
        with pytest.raises(JournalError, match="journal header"):
            TrialJournal.resume(path, "k")
        path.write_text("not json at all\n")
        with pytest.raises(JournalError, match="unreadable header"):
            TrialJournal.resume(path, "k")

    def test_torn_final_line_tolerated(self, tmp_path):
        path = tmp_path / "t.journal"
        journal = TrialJournal.create(path, "k")
        journal.record(self.outcome(32, 4))
        journal.record(self.outcome(16, 2))
        assert recordlog_main([str(path)]) == 0
        with open(path, "a") as fh:
            fh.write('{"config": [64, 1], "status": "ok", "mpo')  # killed here
        reloaded = TrialJournal.resume(path, "k")
        assert len(reloaded) == 2
        assert reloaded.get(BlockConfig(64, 1)) is None
        # A finished journal has no torn tail: the strict validator refuses it.
        assert recordlog_main([str(path)]) == 1

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "t.journal"
        journal = TrialJournal.create(path, "k")
        journal.record(self.outcome())
        lines = path.read_text().splitlines()
        lines[1] = "garbage"
        path.write_text("\n".join(lines + ['{"also": "a trailing line"}']) + "\n")
        with pytest.raises(JournalError, match="corrupt journal record"):
            TrialJournal.resume(path, "k")

    def test_insertion_order_journal_still_resumes(self, tmp_path):
        # Journals used to be written with keys in insertion order; they
        # must still resume, and sorting the keys changes no line length.
        legacy = [
            '{"journal": "repro.tuning.robust", "version": 1, "session": "k"}',
            '{"config": [32, 4, 1, 1], "status": "ok", "mpoints_per_s": 100.0, '
            '"info": {"occupancy": 0.5}, "attempts": 1, "faults": []}',
            '{"config": [16, 2, 2, 1], "status": "quarantined", '
            '"mpoints_per_s": 0.0, "info": {}, "attempts": 4, '
            '"faults": ["launch_failure"]}',
        ]
        outcomes = [
            self.outcome(32, 4),
            TrialOutcome(
                config=BlockConfig(16, 2, 2, 1), status=STATUS_QUARANTINED,
                attempts=4, faults=("launch_failure",),
            ),
        ]
        old = tmp_path / "old.journal"
        old.write_text("\n".join(legacy) + "\n")
        reloaded = TrialJournal.resume(old, "k")
        assert len(reloaded) == len(outcomes)
        for outcome in outcomes:
            assert reloaded.get(outcome.config) == replace(outcome, replayed=True)

        new = tmp_path / "new.journal"
        journal = TrialJournal.create(new, "k")
        for outcome in outcomes:
            journal.record(outcome)
        lines = new.read_text().splitlines()
        assert [len(line) for line in lines] == [len(line) for line in legacy]
        assert [json.loads(line) for line in lines] == [
            json.loads(line) for line in legacy
        ]
        for line in lines:
            assert list(json.loads(line)) == sorted(json.loads(line))

    def test_bad_record_fields_raise(self, tmp_path):
        path = tmp_path / "t.journal"
        TrialJournal.create(path, "k")
        with open(path, "a") as fh:
            fh.write(json.dumps({"config": [32, 4], "status": "bogus"}) + "\n")
        with pytest.raises(JournalError, match="bad journal record"):
            TrialJournal.resume(path, "k")


class TestUnlaunchableNeverDraws:
    """The price rejects an unlaunchable config before the fault overlay:
    it spends no draw, so the plan's draws equal the launch attempts."""

    @pytest.mark.parametrize("method", ["exhaustive", "stochastic"])
    def test_draws_equal_live_trials(self, gtx580, method):
        spec = symmetric(8)
        session = RobustTuningSession(
            gtx580, (256, 256, 32),
            faults=FaultPlan(seed=7, launch_failure_rate=0.1, hang_rate=0.02),
        )
        sres = session.run(
            lambda cfg: make_kernel("inplane_fullslice", spec, cfg, "sp"),
            method=method, seed=2,
        )
        assert sres.result.info[STATUS_REJECTED_STATIC] > 0
        assert session.evaluator.faults.next_index() == sres.stats["live_trials"]


class TestSession:
    def test_resume_replays_without_rerunning(self, gtx580, tmp_path):
        path = tmp_path / "s.journal"
        first = RobustTuningSession(
            gtx580, GRID, faults=FaultPlan(seed=7, **STORM), journal_path=path
        )
        sres = first.run(build, method="exhaustive", space=SPACE)
        assert sres.stats["live_trials"] > 0

        # Truncate the journal mid-campaign plus a torn final line — the
        # shape an abrupt kill leaves behind.
        lines = path.read_text().splitlines()
        keep = 1 + (len(lines) - 1) // 2
        path.write_text("\n".join(lines[:keep]) + '\n{"config": [16,')

        second = RobustTuningSession(
            gtx580, GRID, faults=FaultPlan(seed=7, **STORM),
            journal_path=path, resume=True,
        )
        sres2 = second.run(build, method="exhaustive", space=SPACE)
        assert sres2.stats["replayed"] == keep - 1
        assert sres2.result.best_config == sres.result.best_config
        assert sres2.result.best_mpoints == pytest.approx(
            sres.result.best_mpoints
        )
        assert "replayed from journal" in sres2.summary()

    def test_resume_without_journal_path_raises(self, gtx580):
        with pytest.raises(JournalError, match="without a journal path"):
            RobustTuningSession(gtx580, GRID, resume=True)

    def test_session_key_binds_fault_plan(self, gtx580, tmp_path):
        path = tmp_path / "s.journal"
        RobustTuningSession(
            gtx580, GRID, faults=FaultPlan(seed=1, hang_rate=0.1),
            journal_path=path,
        )
        with pytest.raises(JournalError, match="belongs to session"):
            RobustTuningSession(
                gtx580, GRID, faults=FaultPlan(seed=2, hang_rate=0.1),
                journal_path=path, resume=True,
            )

    def test_degradation_ladder_reaches_exhaustive(self, gtx580):
        # A storm that kills the first `burst` launches outright and no
        # retries: the cheap tiers (few trials each) see only faults and
        # degrade; exhaustive has enough launches to outlast the burst.
        session = RobustTuningSession(
            gtx580, GRID,
            faults=FaultPlan(seed=3, launch_failure_rate=1.0, burst=45),
            policy=RetryPolicy(max_retries=0),
        )
        sres = session.run(build, method="auto", space=SPACE, budget=8)
        assert sres.method == "exhaustive"
        assert sres.degraded_from == ("model", "stochastic")
        assert set(sres.tier_errors) == {"model", "stochastic"}
        assert "degraded from model -> stochastic" in sres.summary()
        assert sres.result.best_mpoints > 0

    def test_all_tiers_failing_raises(self, gtx580):
        session = RobustTuningSession(
            gtx580, GRID, faults=FaultPlan(launch_failure_rate=1.0),
            policy=RetryPolicy(max_retries=0),
        )
        with pytest.raises(TuningError, match="all tuning tiers failed"):
            session.run(build, method="auto", space=SPACE, budget=4)

    def test_unknown_method_raises(self, gtx580):
        with pytest.raises(TuningError, match="unknown tuning method"):
            RobustTuningSession(gtx580, GRID).run(build, method="bayesian")

    def test_clean_session_matches_plain_tuner(self, gtx580):
        plain = exhaustive_tune(build, gtx580, GRID, SPACE)
        sres = RobustTuningSession(gtx580, GRID).run(
            build, method="exhaustive", space=SPACE
        )
        assert sres.result.best_config == plain.best_config
        assert sres.result.best_mpoints == pytest.approx(plain.best_mpoints)
        assert sres.degraded_from == ()


class TestCliExitCodes:
    ARGS = [
        "tune", "--kernel", "inplane_fullslice", "--order", "2",
        "--device", "gtx580", "--grid", "64,64,32", "--method", "auto",
        "--no-register-blocking",
    ]

    def test_storm_session_exits_zero(self, tmp_path, capsys):
        journal = str(tmp_path / "t.journal")
        argv = self.ARGS + [
            "--faults", "seed=7,launch=0.1,hang=0.02,throttle=0.05",
            "--journal", journal,
        ]
        assert main(argv) == 0
        assert "best" in capsys.readouterr().out
        assert main(argv + ["--resume"]) == 0

    def test_all_quarantined_exits_one(self, tmp_path):
        assert main(self.ARGS + [
            "--faults", "launch=1.0", "--retries", "0",
        ]) == 1

    def test_missing_resume_journal_exits_two(self, tmp_path):
        assert main(self.ARGS + [
            "--journal", str(tmp_path / "absent.journal"), "--resume",
        ]) == 2

    def test_unreadable_journal_exits_two(self, tmp_path):
        bad = tmp_path / "bad.journal"
        bad.write_text("not a journal\n")
        assert main(self.ARGS + ["--journal", str(bad), "--resume"]) == 2

    def test_bad_fault_spec_exits_two(self):
        assert main(self.ARGS + ["--faults", "frobnicate=1"]) == 2


class TestCrashCut:
    """A crash inside a trial batch leaves a line prefix of the journal,
    possibly with one torn final line; ``--resume`` recovers from each.

    An exhaustive session journals all its trials in one batch
    (:meth:`~repro.tuning.evaluator.TrialRunner.all`), fsynced once at the
    end, so every such prefix is a state a crash can leave on disk.
    """

    def session(self, gtx580, path, resume=False):
        return RobustTuningSession(
            gtx580, GRID, faults=FaultPlan(seed=7, **ABORTS),
            journal_path=path, resume=resume,
        )

    def test_every_cut_resumes_to_clean_rates(self, gtx580, tmp_path):
        clean = {
            e.config: e.mpoints_per_s
            for e in exhaustive_tune(build, gtx580, GRID, SPACE).entries
        }
        path = tmp_path / "full.journal"
        self.session(gtx580, path).run(build, method="exhaustive", space=SPACE)
        header, *records = path.read_bytes().splitlines(keepends=True)
        launchable = {o.config for o in read_journal(path)}
        assert len(records) == len(launchable) > 10

        # Every line boundary inside the batch, then a few torn tails.
        cuts = [(k, b"") for k in range(len(records) + 1)] + [
            (k, records[k][: len(records[k]) // 2])
            for k in (0, len(records) // 2, len(records) - 1)
        ]
        for kept, torn in cuts:
            cut = tmp_path / f"cut{kept}-{len(torn)}.journal"
            prefix = header + b"".join(records[:kept])
            cut.write_bytes(prefix + torn)
            sres = self.session(gtx580, cut, resume=True).run(
                build, method="exhaustive", space=SPACE
            )
            assert sres.stats["replayed"] == kept, (kept, torn)
            for entry in sres.result.entries:
                assert entry.mpoints_per_s == clean[entry.config]
            # The kept records stay as they were, the torn tail is gone
            # and the resumed journal is whole: one record per config.
            assert cut.read_bytes().startswith(prefix)
            outcomes = read_journal(cut, strict=True)
            assert len(outcomes) == len(launchable)
            assert {o.config for o in outcomes} == launchable
            for outcome in outcomes:
                assert outcome.status in (STATUS_OK, STATUS_QUARANTINED)
                if outcome.status == STATUS_OK:
                    assert outcome.mpoints_per_s == clean[outcome.config]


class TestFsyncBudget:
    """One ``fsync`` per log per trial batch, not one per record."""

    @pytest.fixture
    def fsyncs(self, monkeypatch):
        """Every ``os.fsync`` as ``(inode, file size)``, in call order."""
        calls: list[tuple[int, int]] = []
        real = os.fsync

        def spy(fd):
            st = os.fstat(fd)
            calls.append((st.st_ino, st.st_size))
            return real(fd)

        monkeypatch.setattr(os, "fsync", spy)
        return calls

    @staticmethod
    def logs(tmp_path, name):
        return {
            kind: tmp_path / f"{name}.{kind}"
            for kind in ("journal", "events", "archive")
        }

    def run(self, gtx580, logs, method, space=SPACE, policy=None):
        session = RobustTuningSession(
            gtx580, GRID, faults=FaultPlan(seed=7, **ABORTS), policy=policy,
            journal_path=logs["journal"], events_path=logs["events"],
            archive_path=logs["archive"],
        )
        return session.run(build, method=method, space=space, budget=12, seed=3)

    @staticmethod
    def per_log(calls, logs):
        by_inode = {path.stat().st_ino: kind for kind, path in logs.items()}
        counts = dict.fromkeys(logs, 0)
        for inode, _size in calls:
            counts[by_inode[inode]] += 1
        return counts

    @staticmethod
    def session_events(path):
        return [
            e.name for e in read_events(path, strict=True)[1]
            if not e.name.startswith(("trial.", "fault."))
        ]

    def test_exhaustive_session_is_independent_of_trial_count(
        self, gtx580, tmp_path, fsyncs
    ):
        wide = ParameterSpace(
            tx_values=(16, 32, 64, 128), ty_values=(1, 2, 4, 8),
            rx_values=(1, 2, 4), ry_values=(1, 2, 4),
        )
        counts = []
        for name, space in (("small", SPACE), ("wide", wide)):
            fsyncs.clear()
            logs = self.logs(tmp_path, name)
            self.run(gtx580, logs, "exhaustive", space=space)
            counts.append(self.per_log(fsyncs, logs))
            session = self.session_events(logs["events"])
            # Header, then one per log for the batch; the session-level
            # events outside it keep one each.
            assert counts[-1] == {
                "journal": 2, "archive": 2, "events": 2 + len(session),
            }
            assert "sweep.start" in session and "session.finished" in session
        assert len(read_journal(tmp_path / "wide.journal")) > 2 * len(
            read_journal(tmp_path / "small.journal")
        )
        assert counts[0] == counts[1]

    def test_stochastic_walk_keeps_one_per_record(self, gtx580, tmp_path, fsyncs):
        """Each walk step is its own one-trial batch: one fsync per
        journal and archive record, and on the event stream one per
        step that emitted, however many events it emitted, each covering
        the file as it stands after that step."""
        logs = self.logs(tmp_path, "walk")
        self.run(gtx580, logs, "stochastic")

        def synced(kind):
            inode = logs[kind].stat().st_ino
            return [size for node, size in fsyncs if node == inode]

        def ends(kind):
            lines = logs[kind].read_bytes().splitlines(keepends=True)
            return list(itertools.accumulate(len(line) for line in lines))

        assert len(ends("journal")) > 10
        assert synced("journal") == ends("journal")
        assert synced("archive") == ends("archive")
        # The header and each session event sync alone; a step's events
        # sync together once the step's closing trial event is written.
        names = [e.name for e in read_events(logs["events"], strict=True)[1]]
        closing = {
            "trial.measured", "trial.quarantined", "trial.rejected",
            "trial.replayed",
        }
        step_ends = [ends("events")[0]] + [
            end for name, end in zip(names, ends("events")[1:])
            if name in closing or not name.startswith(("trial.", "fault."))
        ]
        steps = sum(name in closing for name in names)
        session = self.session_events(logs["events"])
        assert len(step_ends) == 1 + len(session) + steps
        assert len(names) > len(session) + steps  # some step emitted more
        assert synced("events") == step_ends

    def test_raise_mid_batch_syncs_what_completed(self, gtx580, tmp_path, fsyncs):
        full = self.logs(tmp_path, "full")
        self.run(gtx580, full, "exhaustive")

        class Stop(Exception):
            pass

        backoffs = []

        def sleep(delay):
            backoffs.append(delay)
            if len(backoffs) == 3:
                raise Stop

        fsyncs.clear()
        logs = self.logs(tmp_path, "cut")
        with pytest.raises(Stop):
            self.run(gtx580, logs, "exhaustive", policy=RetryPolicy(sleep=sleep))
        data = logs["journal"].read_bytes()
        # Every record completed before the raise is on disk, as the
        # prefix an uninterrupted session writes ...
        assert len(read_journal(logs["journal"], strict=True)) > 0
        assert full["journal"].read_bytes().startswith(data)
        assert len(data) < full["journal"].stat().st_size
        # ... and the batch fsynced it on the way out: header, then once
        # with every record in place.
        journal = [
            size for inode, size in fsyncs
            if inode == logs["journal"].stat().st_ino
        ]
        assert len(journal) == 2 and journal[-1] == len(data)
