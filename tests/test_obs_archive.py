"""Trial-archive tests: schema, determinism contract, reconciliation.

The load-bearing guarantees (docs/OBSERVABILITY.md "Explain & landscape
export"):

* two runs of the same sweep write **byte-identical archives**, clean or
  under a seeded fault storm, and two ``--resume`` replays of one
  journal write the same bytes too;
* archived ``counters`` reconcile **exactly** with a fresh
  :func:`repro.gpusim.executor.simulate` of the same config — the
  archive re-derives, it never copies a perturbed measurement;
* with no archive installed, tuning results are untouched
  (zero perturbation).
"""

import json

import pytest

from repro.gpusim.device import get_device
from repro.gpusim.executor import simulate
from repro.gpusim.faults import FaultPlan
from repro.kernels.config import BlockConfig
from repro.kernels.factory import make_kernel
from repro.obs.archive import (
    ArchiveError,
    ArchiveRecord,
    TrialArchive,
    archive_stream,
    derive_record,
    read_archive,
    validate_archive,
)
from repro.obs.events import read_events
from repro.obs.recordlog import main as recordlog_main
from repro.stencils.spec import symmetric
from repro.tuning.evaluator import STATUS_OK, TrialOutcome, build_trial
from repro.tuning.exhaustive import evaluate_configs, exhaustive_tune, feasible_trials
from repro.tuning.robust import RobustTuningSession
from repro.tuning.space import ParameterSpace

GRID = (64, 64, 32)
DEVICE = "gtx580"
SPACE = ParameterSpace(
    tx_values=(16, 32), ty_values=(2, 4), rx_values=(1, 2), ry_values=(1,)
)
STORM = "seed=7,launch=0.1,hang=0.02,throttle=0.05"


def build(cfg: BlockConfig):
    return make_kernel("inplane_fullslice", symmetric(2), cfg)


def archive_tune(path, *, session="t"):
    device = get_device(DEVICE)
    with archive_stream(TrialArchive(path, session=session)):
        return exhaustive_tune(build, device, GRID, SPACE)


class TestSchemaRoundTrip:
    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "a.jsonl"
        archive_tune(path)
        header, records = read_archive(path, strict=True)
        assert header["archive"] == "repro.obs.archive"
        assert header["version"] == 1
        assert header["session"] == "t"
        assert records, "an exhaustive sweep must archive every config"
        for r in records:
            clone = ArchiveRecord.from_obj(json.loads(json.dumps(r.to_obj())))
            assert clone == r

    def test_records_cover_every_evaluated_config(self, tmp_path):
        path = tmp_path / "a.jsonl"
        result = archive_tune(path)
        _header, records = read_archive(path)
        measured = [r for r in records if r.measured]
        assert len(measured) == len(result.entries)
        assert {r.label for r in measured} == {
            e.config.label() for e in result.entries
        }

    def test_measured_record_carries_all_derivations(self, tmp_path):
        path = tmp_path / "a.jsonl"
        archive_tune(path)
        record = next(r for r in read_archive(path)[1] if r.measured)
        assert record.predicted is not None and record.predicted > 0
        assert record.estimate is not None
        assert record.estimate["mpoints_per_s"] > 0
        assert record.estimate_error is None
        assert record.counters is not None
        assert record.counters["gld_transactions"] > 0

    def test_torn_final_line_tolerated_unless_strict(self, tmp_path):
        path = tmp_path / "a.jsonl"
        archive_tune(path)
        whole = read_archive(path)[1]
        path.write_text(path.read_text() + '{"config": [16, 2')
        assert len(read_archive(path)[1]) == len(whole)
        with pytest.raises(ArchiveError, match="corrupt"):
            read_archive(path, strict=True)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"stream": "repro.obs.events", "version": 1}\n')
        with pytest.raises(ArchiveError, match="header"):
            read_archive(path)

    def test_bad_status_rejected(self, tmp_path):
        path = tmp_path / "a.jsonl"
        archive_tune(path)
        lines = path.read_text().splitlines()
        obj = json.loads(lines[1])
        obj["status"] = "exploded"
        path.write_text("\n".join([lines[0], json.dumps(obj)]) + "\n")
        with pytest.raises(ArchiveError, match="status"):
            read_archive(path)

    def test_validator_cli_exit_codes(self, tmp_path, capsys):
        good = tmp_path / "good.jsonl"
        archive_tune(good)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert recordlog_main([str(good)]) == 0
        assert "ok" in capsys.readouterr().out
        assert recordlog_main([str(good), str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().out
        assert validate_archive(good) == len(read_archive(good)[1])


class TestDeterminismContract:
    def test_two_serial_runs_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a1.jsonl", tmp_path / "a2.jsonl"
        archive_tune(p1)
        archive_tune(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_storm_and_resume_byte_identical(self, tmp_path):
        device = get_device(DEVICE)

        def storm(name, *, resume=False, journal="journal.jsonl"):
            # A fresh FaultPlan per session: the plan's stream counters
            # advance as launches draw from it.
            path = tmp_path / name
            session = RobustTuningSession(
                device, GRID, faults=FaultPlan.parse(STORM),
                journal_path=tmp_path / journal, resume=resume,
                archive_path=path, session_key="storm",
            )
            session.run(build, method="exhaustive", space=SPACE)
            return path.read_bytes()

        fresh1 = storm("s1.jsonl", journal="journal1.jsonl")
        fresh2 = storm("s2.jsonl", journal="journal2.jsonl")
        assert fresh1 == fresh2
        resumed1 = storm("r1.jsonl", resume=True, journal="journal1.jsonl")
        resumed2 = storm("r2.jsonl", resume=True, journal="journal1.jsonl")
        assert resumed1 == resumed2
        # Fresh vs resumed may differ only in the honest `replayed` flag.
        fresh = [json.loads(x) for x in fresh1.decode().splitlines()[1:]]
        resumed = [json.loads(x) for x in resumed1.decode().splitlines()[1:]]
        assert len(fresh) == len(resumed)
        for f, r in zip(fresh, resumed):
            diff = {k for k in f if f[k] != r[k]}
            assert diff <= {"replayed"}

    def test_no_archive_means_zero_perturbation(self, tmp_path):
        device = get_device(DEVICE)
        with_archive = archive_tune(tmp_path / "a.jsonl")
        plain = exhaustive_tune(build, device, GRID, SPACE)
        assert plain.best.config == with_archive.best.config
        assert plain.best.mpoints_per_s == with_archive.best.mpoints_per_s
        assert [e.mpoints_per_s for e in plain.entries] == [
            e.mpoints_per_s for e in with_archive.entries
        ]


class TestReconciliation:
    def test_archived_counters_match_fresh_simulation_exactly(self, tmp_path):
        path = tmp_path / "a.jsonl"
        archive_tune(path)
        for record in read_archive(path)[1]:
            if not record.measured:
                continue
            report = simulate(build(BlockConfig(*record.config)), DEVICE, GRID)
            assert record.counters == report.counters.as_dict()

    def test_faulted_storm_counters_still_reconcile(self, tmp_path):
        # Fault injection perturbs measurement, never the derivations:
        # even records measured under a storm archive clean-launch
        # counters that a fault-free resimulation reproduces bit-for-bit.
        faults = FaultPlan.parse(STORM)
        device = get_device(DEVICE)
        path = tmp_path / "storm.jsonl"
        session = RobustTuningSession(
            device, GRID, faults=faults, journal_path=tmp_path / "j.jsonl",
            archive_path=path, session_key="storm",
        )
        session.run(build, method="exhaustive", space=SPACE)
        records = read_archive(path)[1]
        assert any(r.attempts > 1 for r in records), "storm should retry"
        for record in records:
            if record.counters is None:
                continue
            report = simulate(build(BlockConfig(*record.config)), DEVICE, GRID)
            assert record.counters == report.counters.as_dict()

    def test_derive_record_is_pure_of_measurement(self):
        device = get_device(DEVICE)
        cfg = BlockConfig(32, 4, 1, 1)
        live = TrialOutcome(config=cfg, status=STATUS_OK, mpoints_per_s=123.0)
        replayed = TrialOutcome(
            config=cfg, status=STATUS_OK, mpoints_per_s=123.0, replayed=True
        )
        # The trial a whole sweep has already read (pre-filter, pricing)
        # derives the same record as one built fresh for the purpose.
        trials = feasible_trials(build, device, GRID, SPACE)
        evaluate_configs(trials, device, GRID)
        swept = next(t for t in trials if t.config == cfg)
        fresh = build_trial(build, cfg, device, GRID)
        a = derive_record(live, trial=swept, device=device, grid_shape=GRID)
        b = derive_record(replayed, trial=swept, device=device, grid_shape=GRID)
        assert a.counters == b.counters
        assert a.predicted == b.predicted
        assert a.estimate == b.estimate
        assert a == derive_record(live, trial=fresh, device=device, grid_shape=GRID)


class TestArchiveEvents:
    def test_session_emits_archive_start_and_finished(self, tmp_path):
        device = get_device(DEVICE)
        archive = tmp_path / "a.jsonl"
        events = tmp_path / "e.jsonl"
        session = RobustTuningSession(
            device, GRID, journal_path=tmp_path / "j.jsonl",
            archive_path=archive, events_path=events, session_key="ev",
        )
        session.run(build, method="exhaustive", space=SPACE)
        stream = read_events(events, strict=True)[1]
        names = [e.name for e in stream]
        assert "archive.start" in names
        assert "archive.finished" in names
        finished = next(e for e in stream if e.name == "archive.finished")
        assert dict(finished.fields)["records"] == len(
            read_archive(archive)[1]
        )
