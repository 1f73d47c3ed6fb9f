"""Benchmark-suite helpers.

Every bench regenerates one table/figure of the paper at full evaluation
scale (512 x 512 x 256), prints the paper-style rows, saves them under
``benchmarks/results/`` and asserts the reproduction's *shape* criteria.
pytest-benchmark times the regeneration itself (the tuning sweeps are the
expensive part, exactly as in the paper's methodology).

The suite also seeds the repository's performance trajectory: after each
bench, the winning configuration of every tuning run it performed is
re-simulated and recorded through the :mod:`repro.obs.telemetry`
exporter; at the end of a passing run of the whole suite the
consolidated ``BENCH_profile.json`` (device, kernel, MPoint/s, cycles,
frozen breakdown) is written at the repo root so successive PRs produce
diffable perf numbers.  A run of a subset leaves the file untouched.
"""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"
BENCH_PROFILE_PATH = Path(__file__).parent.parent / "BENCH_profile.json"

#: Session-wide telemetry, keyed by tuning-cache key so re-runs overwrite.
_TELEMETRY: dict = {}


def _harvest_tune_cache(source: str) -> None:
    """Record the best config of every tuning run currently cached.

    ``fresh()`` clears the cache *before* each bench, so right after a
    bench it holds exactly that bench's tuning runs; re-simulating each
    winner (via :func:`repro.harness.runner.harvest_tuned_records`) costs
    one launch and yields the full profiler counter set.
    """
    from repro.harness.runner import harvest_tuned_records

    _TELEMETRY.update(harvest_tuned_records(source))


@pytest.fixture
def save_render(request):
    """Persist an experiment's render for inspection and print it."""

    def _save(result, filename: str) -> str:
        RESULTS_DIR.mkdir(exist_ok=True)
        text = result.render()
        (RESULTS_DIR / filename).write_text(text + "\n")
        _harvest_tune_cache(request.node.name)
        print()
        print(text)
        return text

    return _save


#: Set when any collected test was deselected (``-k``, ``-m``, ...).
_DESELECTED: list = []


def pytest_deselected(items):
    _DESELECTED.extend(items)


def full_suite_passed(session, exitstatus) -> bool:
    """Whether this session ran the whole suite, and it passed.

    Only then is the trajectory complete: every ``benchmarks/test_*.py``
    module collected, no test deselected and no node id selected on the
    command line.  A subset run would replace the recorded trajectory
    with the records of the benches it happened to run.
    """
    if exitstatus != 0 or _DESELECTED:
        return False
    if any("::" in str(arg) for arg in session.config.args):
        return False
    modules = set(Path(__file__).parent.glob("test_*.py"))
    collected = {Path(item.path) for item in session.items}
    return modules <= collected


def pytest_sessionfinish(session, exitstatus):
    """Write the consolidated perf-trajectory document after a full run."""
    if not _TELEMETRY or not full_suite_passed(session, exitstatus):
        return
    from repro.obs.telemetry import TelemetryCollector

    collector = TelemetryCollector()
    for record in _TELEMETRY.values():
        collector.add(record)
    collector.write(BENCH_PROFILE_PATH)


def fresh(func, *args, **kwargs):
    """Run an experiment with a cold tuning cache (for honest timing)."""
    from repro.harness import runner

    def call():
        runner._CACHE.clear()
        return func(*args, **kwargs)

    return call
