"""Event-stream plane: catalog, sinks, flight recorder, disabled cost.

The load-bearing guarantees: emission is a no-op (one contextvar lookup)
when no sink is installed, streams tolerate the torn final line an
abrupt kill leaves, and the flight recorder's ring dumps a bounded crash
report.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.obs.events import (
    EVENT_CATALOG,
    EVENT_SPECS,
    EVENTS_SCHEMA_VERSION,
    Event,
    EventSchemaError,
    FlightRecorder,
    JsonlEventSink,
    MemoryEventSink,
    TeeEventSink,
    current_sink,
    emit,
    event_stream,
    read_events,
    validate_event,
    validate_stream,
)
from repro.obs import recordlog
from repro.obs.recordlog import main


class TestCatalog:
    def test_catalog_is_complete_and_documented(self):
        assert len(EVENT_SPECS) == len(EVENT_CATALOG)
        for spec in EVENT_SPECS:
            assert spec.doc  # every event explains itself
            assert "." in spec.name  # plane-qualified names

    def test_validate_event_enforces_fields(self):
        ok = validate_event(
            {"event": "trial.measured", "seq": 0,
             "config": "(32, 4, 1, 1)", "mpoints_per_s": 1.0, "attempts": 1}
        )
        assert ok.name == "trial.measured"
        with pytest.raises(EventSchemaError, match="unknown event"):
            validate_event({"event": "trial.exploded", "seq": 0})
        with pytest.raises(EventSchemaError, match="missing field"):
            validate_event({"event": "trial.measured", "seq": 0})
        with pytest.raises(EventSchemaError, match="seq"):
            validate_event({"event": "archive.start", "seq": -1, "session": "k"})

    def test_event_roundtrips_with_sorted_keys(self):
        event = Event("trial.rejected", 3, (("config", "c"), ("reason", "r")))
        obj = event.to_obj()
        assert list(obj) == ["event", "seq", "config", "reason"]
        assert Event.from_obj(obj) == event


class TestSinks:
    def test_no_sink_by_default_and_emit_is_noop(self):
        assert current_sink() is None
        assert emit("session.tier_start", tier="k") is None

    def test_memory_sink_sequences_and_rejects_uncatalogued(self):
        sink = MemoryEventSink()
        with event_stream(sink):
            emit("session.tier_start", tier="a")
            emit("archive.start", session="a")
            with pytest.raises(EventSchemaError, match="uncatalogued"):
                emit("made.up")
        assert [e.seq for e in sink.events] == [0, 1]
        assert current_sink() is None  # context restored

    def test_tee_fans_out_with_independent_policies(self):
        stream, flight = MemoryEventSink(), FlightRecorder(capacity=1)
        with event_stream(TeeEventSink([stream, flight])):
            emit("archive.start", session="k")
            emit("session.tier_start", tier="k")
        assert [e.name for e in stream.events] == ["archive.start", "session.tier_start"]
        # The ring keeps only its capacity; its own sequence still counts.
        assert [(e.name, e.seq) for e in flight.events] == [("session.tier_start", 1)]


class TestJsonlStream:
    def test_roundtrip_with_header(self, tmp_path):
        path = tmp_path / "s.events"
        sink = JsonlEventSink(path, session="k1")
        with event_stream(sink):
            emit("sweep.start", method="exhaustive", device="gtx580",
                 space_size=10)
            emit("sweep.finished", method="exhaustive", evaluated=10)
        header, events = read_events(path, strict=True)
        assert header == {
            "stream": "repro.obs.events",
            "version": EVENTS_SCHEMA_VERSION,
            "session": "k1",
        }
        assert [e.name for e in events] == ["sweep.start", "sweep.finished"]
        assert validate_stream(path) == 2

    def test_torn_final_line_tolerated_but_interior_corruption_raises(
        self, tmp_path
    ):
        path = tmp_path / "s.events"
        sink = JsonlEventSink(path)
        with event_stream(sink):
            emit("session.tier_start", tier="a")
            emit("archive.start", session="a")
        with open(path, "a") as fh:
            fh.write('{"event": "session.ti')  # killed mid-append
        _header, events = read_events(path)
        assert [e.name for e in events] == ["session.tier_start", "archive.start"]

        lines = path.read_text().splitlines()
        lines[1] = "{corrupt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(EventSchemaError, match="corrupt event record"):
            read_events(path)

    def test_strict_validation_refuses_torn_final_record(self, tmp_path):
        # A finished stream has no torn tail: the validator must refuse
        # one, while a live (non-strict) reader still drops it.
        path = tmp_path / "s.events"
        sink = JsonlEventSink(path, session="k")
        with event_stream(sink):
            emit("sweep.start", method="exhaustive", device="gtx580",
                 space_size=2)
            emit("sweep.finished", method="exhaustive", evaluated=2)
        whole = path.read_text()
        path.write_text(whole[: whole.rindex('"method"')])
        with pytest.raises(EventSchemaError, match="corrupt event record"):
            validate_stream(path)
        src = str(Path(recordlog.__file__).resolve().parents[2])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro.obs.recordlog", str(path)],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert "INVALID" in proc.stdout
        _header, events = read_events(path)
        assert [e.name for e in events] == ["sweep.start"]

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "s.events"
        path.write_text('{"stream": "something.else", "version": 1}\n')
        with pytest.raises(EventSchemaError, match="stream header"):
            read_events(path)
        path.write_text("")
        with pytest.raises(EventSchemaError, match="empty"):
            read_events(path)

    def test_cli_validator(self, tmp_path, capsys):
        good = tmp_path / "good.events"
        JsonlEventSink(good)
        bad = tmp_path / "bad.events"
        bad.write_text("nope\n")
        assert main([str(good)]) == 0
        assert "ok (stream, 0 event record(s))" in capsys.readouterr().out
        assert main([str(good), str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().out


class TestModuleEntryPoint:
    def test_running_the_module_writes_nothing_to_stderr(self, tmp_path):
        """Nothing the packages import loads recordlog, so ``python -m
        repro.obs.recordlog`` is the first to import its own module."""
        path = tmp_path / "s.events"
        with event_stream(JsonlEventSink(path, session="k")):
            emit("sweep.start", method="exhaustive", device="gtx580",
                 space_size=1)
        src = str(Path(recordlog.__file__).resolve().parents[2])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro.obs.recordlog", str(path)],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert "ok (stream, 1 event record(s))" in proc.stdout


class TestRecordLogBatch:
    """``recordlog.batch``: lines land at once, fsyncs wait for the scope."""

    @pytest.fixture
    def fsyncs(self, monkeypatch):
        """The inode of every ``os.fsync``, in call order."""
        calls = []
        real = os.fsync

        def spy(fd):
            calls.append(os.fstat(fd).st_ino)
            return real(fd)

        monkeypatch.setattr(os, "fsync", spy)
        return calls

    @staticmethod
    def header():
        return recordlog.make_header("stream", "t", 1)

    def test_appends_land_at_once_and_sync_once_per_file(
        self, tmp_path, fsyncs
    ):
        a, b = tmp_path / "a.log", tmp_path / "b.log"
        recordlog.create(a, self.header())
        assert len(fsyncs) == 1
        with recordlog.batch():
            recordlog.create(b, self.header())  # a header syncs at once
            assert len(fsyncs) == 2
            for i in range(3):
                recordlog.append(b, {"i": i})
                recordlog.append(a, {"i": i})
                with recordlog.batch():  # joins the outer scope
                    recordlog.append(a, {"nested": i})
                assert len(a.read_text().splitlines()) == 1 + 2 * (i + 1)
            assert len(fsyncs) == 2
        # Once per file touched, in the order first touched.
        assert fsyncs[2:] == [b.stat().st_ino, a.stat().st_ino]
        recordlog.append(a, {"after": True})
        assert fsyncs[4:] == [a.stat().st_ino]

    def test_a_raising_batch_still_syncs(self, tmp_path, fsyncs):
        path = tmp_path / "a.log"
        recordlog.create(path, self.header())
        with pytest.raises(RuntimeError), recordlog.batch():
            recordlog.append(path, {"i": 0})
            raise RuntimeError("killed mid-batch")
        assert fsyncs == [path.stat().st_ino] * 2
        assert len(path.read_text().splitlines()) == 2

    def test_end_on_line(self, tmp_path):
        path = tmp_path / "a.log"
        recordlog.create(path, self.header())
        recordlog.append(path, {"i": 0})
        whole = path.read_bytes()
        recordlog.end_on_line(path)
        assert path.read_bytes() == whole
        path.write_bytes(whole + b'{"i": ')  # a torn tail is cut off
        recordlog.end_on_line(path)
        assert path.read_bytes() == whole
        path.write_bytes(whole + b'{"i": 1}')  # a whole record ends its line
        recordlog.end_on_line(path)
        assert path.read_bytes() == whole + b'{"i": 1}\n'


class TestFlightRecorder:
    def test_ring_keeps_last_capacity_and_counts_dropped(self, tmp_path):
        flight = FlightRecorder(capacity=4)
        with event_stream(flight):
            for i in range(10):
                emit("session.tier_start", tier=f"k{i}")
        report_path = flight.dump(
            tmp_path / "crash.json", reason="TuningError",
            error=ValueError("boom"), session="s",
        )
        report = json.loads(report_path.read_text())
        assert report["report"] == "repro.obs.flight"
        assert report["dropped"] == 6
        assert [e["tier"] for e in report["events"]] == [
            "k6", "k7", "k8", "k9"
        ]
        assert report["error"] == {"type": "ValueError", "message": "boom"}
        assert report["session"] == "s"

    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            FlightRecorder(capacity=0)


def test_disabled_overhead():
    """Emission with no sink must stay a cheap constant-time no-op.

    Pins the design contract rather than a wall-clock number prone to CI
    noise: 100k disabled emissions in well under a second means the
    per-call cost is microseconds — the contextvar-lookup fast path, not
    an accidental dict build or catalog check.
    """
    assert current_sink() is None
    n = 100_000
    start = time.perf_counter()
    for _ in range(n):
        emit("session.tier_start", tier="k")
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"{n} disabled emits took {elapsed:.2f}s"
