"""Live monitoring: stream byte-identity, ``repro top``, crash reports.

The two headline acceptance properties of the event plane:

* a seeded storm campaign writes a **byte-identical** event stream on
  every run (trial events are derived from outcomes in input order);
* ``repro top --json`` reports trial/retry/quarantine counts that
  exactly match the session's journal — the monitor never disagrees
  with what a ``--resume`` would replay.
"""

import json

import pytest

from repro.cli import main
from repro.gpusim.faults import FaultPlan
from repro.kernels.config import BlockConfig
from repro.kernels.factory import make_kernel
from repro.obs.events import JsonlEventSink, emit, event_stream
from repro.obs.live import (
    SessionSnapshot,
    follow_session,
    read_journal_counts,
    render_snapshot,
    snapshot_session,
)
from repro.stencils.spec import symmetric
from repro.tuning.robust import RetryPolicy, RobustTuningSession
from repro.tuning.space import ParameterSpace
from tests.oracles.space import candidates

GRID = (128, 128, 32)
SPACE = ParameterSpace(
    tx_values=(16, 32), ty_values=(2, 4), rx_values=(1,), ry_values=(1, 2)
)
STORM = dict(launch_failure_rate=0.08, hang_rate=0.04, throttle_rate=0.06)


def build(cfg: BlockConfig):
    return make_kernel("inplane_fullslice", symmetric(2), cfg)


def run_storm_session(gtx580, tmp_path, tag):
    journal = tmp_path / f"{tag}.journal"
    events = tmp_path / f"{tag}.events"
    session = RobustTuningSession(
        gtx580, GRID,
        faults=FaultPlan(seed=7, **STORM),
        policy=RetryPolicy(max_retries=6),
        journal_path=journal,
        session_key="storm-live-test",
        events_path=events,
    )
    sres = session.run(build, method="exhaustive", space=SPACE)
    return journal, events, sres


class TestStreamByteIdentity:
    def test_serial_repeat_writes_the_same_stream(self, gtx580, tmp_path):
        # The seeded storm is a pure function of the session, and the
        # event stream must inherit that byte for byte.
        _, first, _ = run_storm_session(gtx580, tmp_path, "first")
        _, second, _ = run_storm_session(gtx580, tmp_path, "second")
        assert first.read_bytes() == second.read_bytes()

    def test_stream_validates_strictly(self, gtx580, tmp_path):
        from repro.obs.events import read_events, validate_stream

        _, events, sres = run_storm_session(gtx580, tmp_path, "v")
        count = validate_stream(events)
        assert count > 0
        _header, parsed = read_events(events)
        names = {e.name for e in parsed}
        assert "session.start" in names and "session.finished" in names
        # One terminal trial event per evaluated configuration.
        terminal = [
            e for e in parsed
            if e.name in ("trial.measured", "trial.rejected",
                          "trial.quarantined")
        ]
        assert len(terminal) == len(list(candidates(SPACE)))
        quarantined = [e for e in parsed if e.name == "trial.quarantined"]
        assert len(quarantined) == sres.stats["quarantined_configs"]


class TestTopMatchesJournal:
    def _journal_truth(self, journal):
        """Independent tally straight off the journal records."""
        counts = {"ok": 0, "rejected_static": 0, "rejected_simulated": 0,
                  "quarantined": 0}
        retries = 0
        for line in journal.read_text().splitlines()[1:]:
            obj = json.loads(line)
            counts[obj["status"]] += 1
            retries += obj.get("attempts", 1) - 1
        return counts, retries

    def test_top_json_counts_equal_journal(self, gtx580, tmp_path, capsys):
        journal, events, sres = run_storm_session(gtx580, tmp_path, "t")
        truth, retries = self._journal_truth(journal)

        assert main([
            "-q", "top", "--journal", str(journal), "--events", str(events),
            "--json",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["trials"] == truth
        assert doc["retries"] == retries
        assert doc["completed"] == sum(truth.values())
        assert doc["journal_trials"] == sum(truth.values())
        assert doc["session"] == "storm-live-test"
        assert doc["finished"] is True
        assert doc["crashed"] is None
        assert doc["source"] == "journal+events"
        assert doc["sweep"] == {
            "method": "exhaustive",
            "space_size": len(list(candidates(SPACE))),
        }
        # the monitor agrees with the session's own accounting too
        assert doc["retries"] == sres.stats["retries"]
        assert doc["trials"]["quarantined"] == sres.stats[
            "quarantined_configs"
        ]

    def test_top_panel_renders_without_tty(self, gtx580, tmp_path, capsys):
        journal, events, _ = run_storm_session(gtx580, tmp_path, "p")
        assert main([
            "-q", "top", "--journal", str(journal), "--events", str(events),
        ]) == 0
        out = capsys.readouterr().out
        assert "storm-live-test [finished]" in out
        assert "ladder  : exhaustive (won)" in out
        assert "best    :" in out

    def test_top_without_sources_exits_two(self):
        assert main(["-q", "top"]) == 2

    def test_snapshot_tolerates_in_flight_torn_tails(self, gtx580, tmp_path):
        journal, events, _ = run_storm_session(gtx580, tmp_path, "torn")
        # Chop both files mid-line: the shape `repro top` sees when it
        # polls while the session is writing (or after a kill -9).
        for path in (journal, events):
            data = path.read_text().splitlines()
            path.write_text("\n".join(data[:-1]) + '\n{"config": [16,')
        snap = snapshot_session(journal, events)
        assert snap.completed > 0
        assert snap.session == "storm-live-test"
        assert not snap.finished  # the finish line was torn away
        render_snapshot(snap)  # renders without raising


class TestCrashForensics:
    ARGS = [
        "-q", "tune", "--kernel", "inplane_fullslice", "--order", "2",
        "--device", "gtx580", "--grid", "64,64,32", "--method", "auto",
        "--no-register-blocking", "--retries", "0",
        "--faults", "launch=1.0",
    ]

    def test_failed_session_leaves_crash_report_and_top_sees_it(
        self, tmp_path, capsys
    ):
        journal = tmp_path / "c.journal"
        events = tmp_path / "c.events"
        assert main(self.ARGS + [
            "--journal", str(journal), "--events", str(events),
        ]) == 1

        report_path = events.with_name(events.name + ".crash.json")
        report = json.loads(report_path.read_text())
        assert report["report"] == "repro.obs.flight"
        assert report["reason"] == "TuningError"
        assert report["error"]["type"] == "TuningError"
        assert any(e["event"] == "session.crash" for e in report["events"])

        capsys.readouterr()
        assert main([
            "-q", "top", "--journal", str(journal), "--events", str(events),
            "--json",
        ]) == 1  # a crashed session is signalled via the exit code
        doc = json.loads(capsys.readouterr().out)
        assert "all tuning tiers failed" in doc["crashed"]
        assert doc["tiers"]  # the ladder was walked before the crash
        assert all(state == "failed" for _tier, state in doc["tiers"])


class TestFollow:
    def test_follow_stops_on_finish_and_computes_throughput(
        self, gtx580, tmp_path
    ):
        journal, events, _ = run_storm_session(gtx580, tmp_path, "f")
        panels, ticks = [], iter(range(100))
        snaps = list(follow_session(
            journal, events, interval_s=0.0,
            emit=panels.append, clock=lambda: float(next(ticks)),
            sleep=lambda _s: None,
        ))
        assert len(snaps) == 1  # finished session: one snapshot, no loop
        assert snaps[0].finished
        assert "finished" in panels[0]

    def test_follow_respects_refresh_budget(self, tmp_path):
        # No artifacts at all: an endless "session not started" wait,
        # bounded only by the refresh budget.
        panels = []
        snaps = list(follow_session(
            tmp_path / "absent.journal", None, interval_s=0.0,
            refreshes=3, emit=panels.append, clock=lambda: 0.0,
            sleep=lambda _s: None,
        ))
        assert len(snaps) == 3 == len(panels)
        assert all(s.completed == 0 for s in snaps)

    def test_render_empty_snapshot(self):
        text = render_snapshot(SessionSnapshot())
        assert "? [running]" in text
        assert "0 trial(s)" in text

    def test_retired_fault_injected_is_read_but_not_valid(self, tmp_path):
        """A stream written before ``fault.injected`` left the catalog:
        ``repro top`` still reads it, strict validation refuses it."""
        from repro.obs.events import EventSchemaError, validate_stream

        events = tmp_path / "old.events"
        with event_stream(JsonlEventSink(events, session="k")):
            emit("trial.measured", config="(16, 2)", mpoints_per_s=7.0,
                 attempts=1)
        with events.open("a") as fh:
            fh.write(json.dumps({
                "event": "fault.injected", "seq": 1,
                "index": 0, "kind": "launch_failure",
            }) + "\n")
        snap = snapshot_session(None, events)
        assert snap.completed == 1 and snap.faults == {}
        with pytest.raises(EventSchemaError, match="unknown event"):
            validate_stream(events)

    def test_journal_reader_skips_foreign_lines(self, tmp_path, caplog):
        header = (
            '{"journal": "repro.tuning.robust", "session": "k", '
            '"version": 1}\n'
        )
        ok = (
            '{"attempts": 2, "config": [32, 4], "faults": ["hang"], '
            '"mpoints_per_s": 5.0, "status": "ok"}\n'
        )
        quarantined = (
            '{"attempts": 4, "config": [16, 4], '
            '"faults": ["launch_failure"], "status": "quarantined"}\n'
        )
        path = tmp_path / "j.journal"
        # An unknown status is skipped; a torn final line is dropped.
        path.write_text(
            header + ok + '{"config": [8, 8], "status": "exploded"}\n'
            + quarantined + '{"config": [16, 2], "status": "o'
        )
        snap = read_journal_counts(path)
        assert snap.journal_trials == 2
        assert snap.trials["ok"] == 1
        assert snap.trials["quarantined"] == 1
        assert snap.retries == 1 + 3
        assert snap.faults == {"hang": 1, "launch_failure": 1}
        assert snap.best_config == "(32, 4)"

        # Interior corruption: the journal contributes nothing, a warning
        # says why, and the counts fall back to the event stream.
        path.write_text(header + ok + "not json at all\n" + quarantined)
        events = tmp_path / "j.events"
        with event_stream(JsonlEventSink(events, session="k")):
            emit("trial.measured", config="(16, 2)", mpoints_per_s=7.0,
                 attempts=1)
        with caplog.at_level("WARNING", logger="repro.obs.live"):
            assert read_journal_counts(path).journal_trials is None
        assert "corrupt journal record" in caplog.text
        snap = snapshot_session(path, events)
        assert snap.source == "events"
        assert snap.session == "k"
        assert snap.trials["ok"] == 1 and snap.completed == 1
        assert snap.best_config == "(16, 2)"
