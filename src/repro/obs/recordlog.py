"""Record logs: the one writer and reader of the trial journal
(:class:`repro.tuning.robust.TrialJournal`), the event stream
(:class:`repro.obs.events.JsonlEventSink`) and the trial archive
(:class:`repro.obs.archive.TrialArchive`); each owner keeps only its
record schema, and the cluster checkpoint shares :func:`check_header`.
Format, durability (one ``fsync`` per record, or per file per
:func:`batch`) and the torn-tail rule: docs/OBSERVABILITY.md, "Record
logs".
"""

from __future__ import annotations

import json
import logging
import os
from contextlib import contextmanager
from contextvars import ContextVar
from pathlib import Path
from typing import Any, Callable, Iterator

logger = logging.getLogger("repro.obs.recordlog")

#: The logs appended to inside the open :func:`batch` scope, in the order
#: first touched; ``None`` outside one, where every append fsyncs itself.
_batch_touched: ContextVar[dict[Path, None] | None] = ContextVar(
    "repro_recordlog_batch", default=None
)

#: What one record is called in messages, per record-log kind.
_RECORD_NOUN = {"journal": "journal", "stream": "event", "archive": "archive"}


def check_header(
    header: str | bytes,
    kind: str,
    tool: str,
    version: int,
    session: str | None,
    error: Callable[[str], Exception],
    path: str | Path,
) -> dict[str, Any]:
    """Parse one raw header line and check it names ``tool`` v``version``
    under the ``kind`` key (``journal``, ``stream``, ``archive`` or
    ``checkpoint``) and, given a ``session``, is bound to it; failures
    raise ``error``.  Returns the header object."""
    try:
        obj = json.loads(header)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise error(f"{path}:1: unreadable header: {exc}") from exc
    if (
        not isinstance(obj, dict)
        or obj.get(kind) != tool
        or obj.get("version") != version
    ):
        raise error(f"{path}:1: not a {tool} v{version} {kind} header: {obj!r}")
    if session is not None and obj.get("session") != session:
        raise error(
            f"{path}: {kind} belongs to session {obj.get('session')!r}, "
            f"not {session!r}"
        )
    return obj


def make_header(
    kind: str, tool: str, version: int, session: str | None = None
) -> dict[str, Any]:
    """The line-1 object for :func:`create` that :func:`check_header` accepts."""
    header: dict[str, Any] = {kind: tool, "version": version}
    if session is not None:
        header["session"] = session
    return header


def _write_line(path: Path, flags: int, obj: Any, sync: bool) -> None:
    # A bare descriptor, not open(): skipping the buffered-text layers keeps
    # an append within a few microseconds of a write through a kept handle.
    data = (json.dumps(obj, sort_keys=True) + "\n").encode()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | flags, 0o666)
    try:
        while data:
            data = data[os.write(fd, data):]
        if sync:
            os.fsync(fd)
    finally:
        os.close(fd)


def _fsync(path: Path) -> None:
    fd = os.open(path, os.O_WRONLY | os.O_APPEND)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def create(path: str | Path, header: dict[str, Any]) -> None:
    """Start a record log with ``header`` as line 1 (truncating any file),
    fsynced before returning, inside a :func:`batch` or not."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    _write_line(path, os.O_TRUNC, header, sync=True)


def append(path: str | Path, obj: Any) -> None:
    """Append one record, written and closed before returning.

    Outside a :func:`batch` the record is fsynced before returning;
    inside one, with the batch's other records when the scope exits.
    Either way a reader sees the whole line at once.
    """
    path = Path(path)
    touched = _batch_touched.get()
    if touched is not None:
        touched[path] = None
    _write_line(path, os.O_APPEND, obj, sync=touched is None)


@contextmanager
def batch() -> Iterator[None]:
    """Defer every :func:`append`'s ``fsync`` to the end of the scope.

    Appends still write and close each line at once, so a reader tailing
    a log sees every record as it lands.  On exit, normal or raised, each
    log touched is fsynced once, in the order first touched.  A nested
    scope joins the outer one.  A crash inside the scope can lose only
    the scope's unsynced tail; the durable file is still a line prefix
    with at most one torn final line, which :func:`read` drops.
    """
    if _batch_touched.get() is not None:
        yield
        return
    touched: dict[Path, None] = {}
    token = _batch_touched.set(touched)
    try:
        yield
    finally:
        _batch_touched.reset(token)
        for path in touched:
            _fsync(path)


def end_on_line(path: str | Path) -> None:
    """Make a log end on a line boundary before it is appended to again.

    A torn final line (the one :func:`read` drops) is cut off, so the
    next record does not land on the end of it; a whole record that
    lacks only its newline gets one.  A log that already ends on a
    boundary is left untouched.
    """
    path = Path(path)
    data = path.read_bytes()
    if not data or data.endswith(b"\n"):
        return
    start = data.rfind(b"\n") + 1
    fd = os.open(path, os.O_WRONLY | os.O_APPEND)
    try:
        try:
            json.loads(data[start:])
        except ValueError:
            os.ftruncate(fd, start)
        else:
            os.write(fd, b"\n")
        os.fsync(fd)
    finally:
        os.close(fd)


def read(
    path: str | Path,
    *,
    kind: str,
    tool: str,
    version: int,
    error: Callable[[str], Exception],
    session: str | None = None,
    strict: bool = False,
) -> tuple[dict[str, Any], list[tuple[int, Any]]]:
    """Parse one record log; returns ``(header, [(lineno, obj), ...])``.

    Records are decoded JSON only; each owner validates its own schema.
    A torn final line is dropped with a warning unless ``strict``; any
    other undecodable line raises ``error``.
    """
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"{path}: cannot read {kind}: {exc}") from exc
    if not lines:
        raise error(f"{path}: {kind} is empty (no header)")
    header = check_header(lines[0], kind, tool, version, session, error, path)
    noun = _RECORD_NOUN[kind]
    records: list[tuple[int, Any]] = []
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            if i == len(lines) and not strict:
                logger.warning(
                    "%s:%d: dropping torn final %s line (%s)", path, i, noun, exc
                )
                break
            raise error(f"{path}:{i}: corrupt {noun} record: {exc}") from exc
        records.append((i, obj))
    return header, records


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.obs.recordlog FILE...`` — strictly validate
    journals, streams and archives, dispatching on the header key."""
    import argparse

    # Deferred imports: the owners import this module.
    from repro.errors import JournalError
    from repro.obs.archive import validate_archive
    from repro.obs.events import validate_stream
    from repro.tuning.robust import read_journal

    validators: dict[str, Callable[[str], int]] = {
        "journal": lambda p: len(read_journal(p, strict=True)),
        "stream": validate_stream,
        "archive": validate_archive,
    }
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.recordlog",
        description="strictly validate record logs (the tools/check.py "
                    "session-smoke step)",
    )
    parser.add_argument("paths", nargs="+", metavar="FILE")
    status = 0
    for raw in parser.parse_args(argv).paths:
        try:
            with open(raw) as fh:
                header = json.loads(fh.readline())
            kind = next((
                k for k in validators if isinstance(header, dict) and k in header
            ), None)
            if kind is None:
                raise ValueError(f"not a record-log header: {header!r}")
            count = validators[kind](raw)
        except (OSError, ValueError, JournalError) as exc:
            print(f"{raw}: INVALID: {exc}")
            status = 1
        else:
            print(f"{raw}: ok ({kind}, {count} {_RECORD_NOUN[kind]} record(s))")
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    import sys

    sys.exit(main())
