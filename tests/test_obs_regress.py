"""Perf-regression sentinel tests (``repro bench diff``).

The acceptance contract: on an unchanged tree the diff against the
recorded trajectory is empty and exits 0; with an injected model
perturbation it exits nonzero and names the counter responsible for the
slowdown.  Both directions are exercised here, against the real
``BENCH_profile.json`` (v1) and a v2 baseline written by the test.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.gpusim import timing
from repro.gpusim.device import Generation
from repro.gpusim.executor import simulate
from repro.kernels.factory import make_kernel
from repro.obs.counters import COUNTER_KEYS
from repro.obs.regress import (
    CounterDelta,
    RecordDiff,
    diff_baseline,
    plan_for_record,
    resimulate_record,
)
from repro.obs.telemetry import (
    PROFILE_SCHEMA_VERSION,
    TelemetryCollector,
    load_profile,
    record_from_report,
)
from repro.stencils.spec import symmetric

REPO = Path(__file__).resolve().parent.parent
BASELINE = REPO / "BENCH_profile.json"

#: A small, fast trajectory the tests own (order matters for determinism).
LAUNCHES = [
    ("gtx580", "inplane_fullslice", 4, (32, 4, 1, 2), "sp", "unit"),
    ("gtx680", "inplane_vertical", 2, (32, 4, 1, 1), "sp", "unit"),
    ("c2070", "nvstencil", 8, (32, 4, 1, 1), "dp", "unit"),
]


def _v2_baseline(tmp_path: Path) -> Path:
    coll = TelemetryCollector()
    for device, family, order, block, dtype, source in LAUNCHES:
        plan = make_kernel(family, symmetric(order), block, dtype)
        report = simulate(plan, device, (128, 128, 64))
        coll.add_report(report, order=order, source=source)
    return coll.write(tmp_path / "baseline.json")


def _perturb_fermi_scheduler(monkeypatch):
    """Slow every Fermi launch down: 4x block-scheduling overhead."""
    params = dict(timing._GENERATION_PARAMS)
    params[Generation.FERMI] = dataclasses.replace(
        params[Generation.FERMI],
        sched_overhead_cycles=params[Generation.FERMI].sched_overhead_cycles * 4,
    )
    monkeypatch.setattr(timing, "_GENERATION_PARAMS", params)


class TestProfileCompat:
    def test_repo_baseline_is_v1_and_loads(self):
        doc = json.loads(BASELINE.read_text())
        assert doc["schema_version"] == 1  # migration fixture: keep it v1
        records = load_profile(BASELINE)
        assert len(records) == len(doc["records"]) > 0
        assert all(r.counters == {} for r in records)
        assert all(r.grid == (512, 512, 256) for r in records)

    def test_v2_roundtrip_carries_counters_and_grid(self, tmp_path):
        path = _v2_baseline(tmp_path)
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == PROFILE_SCHEMA_VERSION
        records = load_profile(path)
        assert len(records) == len(LAUNCHES)
        for r in records:
            assert set(r.counters) == set(COUNTER_KEYS) | {"occupancy_limiter"}
            assert r.grid == (128, 128, 64)

    def test_unsupported_schema_version_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 99, "records": []}))
        with pytest.raises(ValueError, match="unsupported profile schema_version"):
            load_profile(bad)


class TestTrajectoryWriter:
    """``benchmarks/conftest.py`` rewrites ``BENCH_profile.json`` only at
    the end of a passing run of the whole bench suite; a subset run would
    replace the recorded trajectory with the few records it produced."""

    @pytest.fixture
    def hook(self, monkeypatch, tmp_path):
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "bench_conftest", REPO / "benchmarks" / "conftest.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        target = tmp_path / "BENCH_profile.json"
        target.write_bytes(BASELINE.read_bytes())
        monkeypatch.setattr(module, "BENCH_PROFILE_PATH", target)
        module._TELEMETRY["winner"] = load_profile(BASELINE)[0]
        return module, target

    @staticmethod
    def session(modules, args=("benchmarks",)):
        from types import SimpleNamespace

        return SimpleNamespace(
            items=[SimpleNamespace(path=m) for m in modules],
            config=SimpleNamespace(args=list(args)),
        )

    ALL = sorted((REPO / "benchmarks").glob("test_*.py"))

    def test_subset_session_leaves_the_file_untouched(self, hook):
        module, target = hook
        before = target.read_bytes()
        subset = self.session(
            [REPO / "benchmarks" / "test_prior_work_context.py"],
            args=["benchmarks/test_prior_work_context.py"],
        )
        module.pytest_sessionfinish(subset, 0)
        assert target.read_bytes() == before

    @pytest.mark.parametrize("case", ["failed", "deselected", "node-id"])
    def test_incomplete_full_session_leaves_the_file_untouched(self, hook, case):
        module, target = hook
        before = target.read_bytes()
        args = ["benchmarks"]
        if case == "deselected":
            module.pytest_deselected([object()])
        if case == "node-id":
            args = [f"{self.ALL[0]}::test_something"]
        module.pytest_sessionfinish(
            self.session(self.ALL, args), 1 if case == "failed" else 0
        )
        assert target.read_bytes() == before

    def test_full_passing_session_writes_the_trajectory(self, hook):
        module, target = hook
        before = target.read_bytes()
        module.pytest_sessionfinish(self.session(self.ALL), 0)
        assert target.read_bytes() != before
        assert len(load_profile(target)) == 1


class TestResimulation:
    def test_plan_for_record_rebuilds_every_baseline_kernel(self):
        for record in load_profile(BASELINE):
            plan = plan_for_record(record)
            assert plan.name == record.kernel

    def test_resimulated_record_is_bit_identical(self):
        record = load_profile(BASELINE)[0]
        again = resimulate_record(record)
        assert again.mpoints_per_s == record.mpoints_per_s
        assert again.total_cycles == record.total_cycles
        assert again.breakdown == record.breakdown


class TestDiffCleanTree:
    def test_repo_baseline_diffs_clean(self):
        report = diff_baseline(BASELINE)
        assert report.total == len(load_profile(BASELINE))
        assert report.diffs == () and report.errors == ()
        assert report.exit_code() == 0
        assert "0 regression(s)" in report.render()

    def test_v2_baseline_diffs_clean(self, tmp_path):
        report = diff_baseline(_v2_baseline(tmp_path))
        assert report.diffs == () and report.exit_code() == 0

    def test_cli_exit_zero_and_json_shape(self, tmp_path, capsys):
        path = _v2_baseline(tmp_path)
        assert main(["-q", "bench", "diff", "--baseline", str(path),
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["regressions"] == 0 and doc["diffs"] == []
        assert doc["total"] == len(LAUNCHES)


class TestDiffPerturbedTree:
    def test_regression_names_the_responsible_counter(self, tmp_path, monkeypatch):
        path = _v2_baseline(tmp_path)  # honest numbers first
        _perturb_fermi_scheduler(monkeypatch)
        report = diff_baseline(path)
        assert report.exit_code() == 1
        regressions = report.regressions
        # gtx580 and c2070 are Fermi-generation: both must regress; the
        # Kepler record must not.
        assert {d.record.device for d in regressions} == {"gtx580", "c2070"}
        for d in regressions:
            assert d.responsible is not None
            # The injected slowdown is scheduling overhead; the sentinel
            # must attribute it to the counter that actually moved.
            assert d.responsible.name == "stall_sched_frac"
            assert d.responsible.current > d.responsible.baseline
            assert "stall_sched_frac" in d.render()

    def test_cli_exit_nonzero_names_counter(self, tmp_path, monkeypatch, capsys):
        path = _v2_baseline(tmp_path)
        _perturb_fermi_scheduler(monkeypatch)
        assert main(["-q", "bench", "diff", "--baseline", str(path)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out and "stall_sched_frac" in out

    def test_tolerance_flag_suppresses_small_regressions(self, tmp_path, monkeypatch):
        path = _v2_baseline(tmp_path)
        _perturb_fermi_scheduler(monkeypatch)
        report = diff_baseline(path, tolerance=0.5)  # 50%: swallows the hit
        assert report.regressions == ()
        assert report.exit_code() == 0
        assert report.diffs  # still reported as changed, just not failing

    def test_v1_baseline_perturbation_is_unexplained(self, tmp_path, monkeypatch):
        # v1 records carry no counters and their per-plane breakdown does
        # not include scheduling overhead, so the slowdown is real but
        # unattributable — the sentinel must say so rather than guess.
        records = load_profile(BASELINE)
        doc = {
            "schema_version": 1,
            "tool": "repro.obs",
            "records": [
                {k: v for k, v in dataclasses.asdict(r).items()
                 if k not in ("counters", "grid")}
                for r in records[:4]
                if r.device in ("gtx580", "c2070")
            ],
        }
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(doc))
        _perturb_fermi_scheduler(monkeypatch)
        report = diff_baseline(path)
        assert report.exit_code() == 1
        assert report.regressions
        assert all(d.responsible is None for d in report.regressions)
        assert "unexplained" in report.render()

    def test_errors_set_exit_nonzero(self, tmp_path):
        coll = TelemetryCollector()
        plan = make_kernel("inplane_fullslice", symmetric(4), (32, 4, 1, 2), "sp")
        report = simulate(plan, "gtx580", (128, 128, 64))
        rec = record_from_report(report, order=4, source="unit")
        coll.add(dataclasses.replace(rec, kernel="bogus.family[order4,sp](x)"))
        path = coll.write(tmp_path / "broken.json")
        report = diff_baseline(path)
        assert report.errors and report.exit_code() == 1
        assert "ERROR" in report.render()


class TestRecordDiffSemantics:
    def _diff(self, rel, deltas=(), tolerance=0.0):
        plan = make_kernel("inplane_fullslice", symmetric(4), (32, 4, 1, 2), "sp")
        report = simulate(plan, "gtx580", (128, 128, 64))
        rec = record_from_report(report, order=4, source="unit")
        return RecordDiff(
            record=rec,
            baseline_mpoints=1000.0,
            current_mpoints=1000.0 * (1 + rel),
            deltas=tuple(deltas),
            tolerance=tolerance,
        )

    def test_tolerance_gates_the_verdict(self):
        assert self._diff(-0.05).regressed
        assert not self._diff(-0.05, tolerance=0.10).regressed
        assert self._diff(+0.05).improved
        assert not self._diff(+0.05, tolerance=0.10).improved

    def test_responsible_skips_headline_echo_fields(self):
        deltas = [
            CounterDelta("gflops", 10.0, 9.0),          # headline echo
            CounterDelta("total_cycles", 1e6, 1.1e6),   # headline echo
            CounterDelta("stall_sched_frac", 0.001, 0.004),
            CounterDelta("ipc", 0.40, 0.39),
        ]
        d = self._diff(-0.04, deltas)
        assert d.responsible.name == "stall_sched_frac"
        assert "stall_sched_frac" in d.render()

    def test_headline_only_moves_are_flagged_unexplained(self):
        d = self._diff(-0.04, [CounterDelta("gflops", 10.0, 9.6)])
        assert d.responsible is None
        assert "unexplained" in d.render()

    def test_zero_baseline_delta_has_finite_rel(self):
        delta = CounterDelta("local_spill_bytes", 0.0, 128.0)
        assert delta.rel == 128.0
        assert "->" in delta.render()


class TestFaultedRecords:
    """v3 ``faulted`` flag: degraded measurements never diff as regressions."""

    def _mixed_baseline(self, tmp_path: Path) -> Path:
        from repro.gpusim.device import get_device
        from repro.gpusim.executor import DeviceExecutor
        from repro.gpusim.faults import FaultPlan

        coll = TelemetryCollector()
        plan = make_kernel("inplane_fullslice", symmetric(4), (32, 4, 1, 2))
        clean = simulate(plan, "gtx580", (128, 128, 64))
        coll.add_report(clean, order=4, source="a-clean")
        executor = DeviceExecutor(
            get_device("gtx580"), faults=FaultPlan(throttle_rate=1.0)
        )
        throttled = executor.run(plan, (128, 128, 64))
        coll.add_report(throttled, order=4, source="b-storm")
        return coll.write(tmp_path / "mixed.json")

    def test_faulted_flag_roundtrips(self, tmp_path):
        path = self._mixed_baseline(tmp_path)
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == PROFILE_SCHEMA_VERSION == 3
        records = load_profile(path)
        assert [r.faulted for r in records] == [False, True]

    def test_old_versions_default_to_unfaulted(self):
        # The repo baseline predates the flag; every record loads clean.
        assert all(not r.faulted for r in load_profile(BASELINE))

    def test_diff_skips_faulted_records(self, tmp_path):
        path = self._mixed_baseline(tmp_path)
        report = diff_baseline(path)
        # The throttled record resimulates slower than the current tree
        # runs it, but it is skipped, not reported as a regression.
        assert report.skipped == 1
        assert report.diffs == () and report.errors == ()
        assert report.exit_code() == 0
        assert "1 faulted skipped" in report.render()
        assert report.to_json_obj()["skipped_faulted"] == 1

    def test_clean_reports_mention_no_skips(self, tmp_path):
        report = diff_baseline(_v2_baseline(tmp_path))
        assert report.skipped == 0
        assert "faulted skipped" not in report.render()
