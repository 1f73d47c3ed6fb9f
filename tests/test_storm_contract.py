"""The storm-session output contract, pinned by SHA-256.

A storm session is ``repro tune --faults seed=7,launch=0.1,hang=0.02
--journal --events --archive`` under each tuning method.  Its stdout and
its three record logs are a pure function of the fault plan's draw
order: which trial draws which ``launch`` index, retries included.  The
digests in ``tests/data/storm_digests.json`` pin that order, for a fresh
session, for a ``--resume`` of its whole journal (everything replays)
and for a ``--resume`` of its first half (the rest draws afresh).

Regenerate after an intentional output change, from the repo root::

    PYTHONPATH=src python -m tests.test_storm_contract
"""

from __future__ import annotations

import hashlib
import io
import json
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from repro.cli import main

DIGESTS_PATH = Path(__file__).parent / "data" / "storm_digests.json"
METHODS = ("exhaustive", "model", "stochastic", "auto")
FAULTS = "seed=7,launch=0.1,hang=0.02"
#: Session runs per method: the fresh one, then two resumes of its journal.
RUNS = ("fresh", "resume", "resume_cut")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _tune(method: str, journal: Path, out: Path, resume: bool) -> dict[str, str]:
    """Run one storm tune in-process; digest its stdout and three logs."""
    argv = [
        "tune", "--method", method, "--faults", FAULTS,
        "--journal", str(journal),
        "--events", str(out.with_suffix(".events")),
        "--archive", str(out.with_suffix(".archive")),
    ] + (["--resume"] if resume else [])
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        assert main(argv) == 0
    return {
        "stdout": _sha(stdout.getvalue().encode()),
        "journal": _sha(journal.read_bytes()),
        "events": _sha(out.with_suffix(".events").read_bytes()),
        "archive": _sha(out.with_suffix(".archive").read_bytes()),
    }


def session_digests(method: str, work: Path) -> dict[str, dict[str, str]]:
    """Digests of the fresh session and both resumes of its journal."""
    journal = work / f"{method}.journal"
    digests = {"fresh": _tune(method, journal, work / f"{method}.fresh", False)}
    lines = journal.read_bytes().splitlines(keepends=True)
    digests["resume"] = _tune(method, journal, work / f"{method}.resume", True)
    cut = work / f"{method}.cut.journal"
    # Header plus the first half of the records: the rest re-run.
    cut.write_bytes(b"".join(lines[: 1 + (len(lines) - 1) // 2]))
    digests["resume_cut"] = _tune(method, cut, work / f"{method}.cut", True)
    return digests


@pytest.mark.parametrize("method", METHODS)
def test_storm_session_output_is_pinned(method, tmp_path):
    expected = json.loads(DIGESTS_PATH.read_text())[method]
    assert set(expected) == set(RUNS)
    assert session_digests(method, tmp_path) == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = {m: session_digests(m, Path(tmp)) for m in METHODS}
    DIGESTS_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print("wrote", DIGESTS_PATH)
