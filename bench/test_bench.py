"""Tests of the benchmark's own rules: ``pytest bench -q``."""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import child
import measure
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
REF = measure.reference_ms("python")
sys.path.insert(0, str(ROOT / "src"))


# -- percentiles ---------------------------------------------------------------


def test_p90_omitted_below_ten_samples_beyond():
    assert measure.percentile([float(i) for i in range(99)], 90) is None
    assert measure.percentile([float(i) for i in range(100)], 90) == pytest.approx(89.1)


def test_p50_needs_twenty_samples():
    assert measure.percentile([1.0] * 19, 50) is None
    assert measure.percentile([float(i) for i in range(21)], 50) == 10.0


def test_spread_is_iqr_over_median():
    values = [float(v) for v in range(1, 11)]
    q1, med, q3 = statistics.quantiles(values, n=4)
    assert measure.spread(values) == pytest.approx((q3 - q1) / med)
    assert measure.spread([5.0]) == 0.0


# -- normalisation -------------------------------------------------------------


def test_slow_host_times_scale_down_and_rates_scale_up():
    slow = 2.0 * REF  # the reference loop took twice as long
    assert measure.norm_time(40.0, slow) == pytest.approx(20.0)
    assert measure.norm_rate(10.0, slow) == pytest.approx(20.0)


def test_fast_host_times_scale_up_and_rates_scale_down():
    fast = 0.5 * REF
    assert measure.norm_time(40.0, fast) == pytest.approx(80.0)
    assert measure.norm_rate(10.0, fast) == pytest.approx(5.0)


def test_reference_host_is_identity():
    ref = REF
    assert measure.norm_time(3.5, ref) == 3.5
    assert measure.norm_rate(3.5, ref) == 3.5


def test_only_the_cpu_part_is_normalised():
    slow = 2.0 * REF
    # 30 ms of CPU at half speed plus 10 ms of fsync wait.
    assert measure.norm_split(40.0, 30.0, slow) == pytest.approx(25.0)
    # CPU time above wall time (clock granularity) counts as all CPU.
    assert measure.norm_split(40.0, 41.0, slow) == pytest.approx(20.0)


def test_local_calibration_uses_nearby_samples():
    samples = [(0.0, 7.0), (0.5, 7.2), (10.0, 14.0), (10.4, 14.2), (10.9, 13.8)]
    assert measure.local_calib(samples, 0.2) == pytest.approx(7.1)
    assert measure.local_calib(samples, 10.3) == pytest.approx(14.0)
    assert measure.local_calib(samples, 5.0) == pytest.approx(7.2)  # nearest three


# -- self time -----------------------------------------------------------------


def _spans(*rows):
    rec = spans.Recorder()
    for name, start, end, parent in rows:
        rec.add(name, start, end, parent)
    return rec.spans


def test_self_time_subtracts_nested_and_sibling_children():
    recorded = _spans(
        ("op", 0, 100, -1),
        ("a", 10, 40, 0),     # child of op
        ("b", 15, 25, 1),     # grandchild: only subtracted from a
        ("a", 50, 70, 0),     # sibling of the first a
        ("c", 80, 90, 0),
    )
    assert spans.self_times(recorded) == [40, 20, 10, 20, 10]
    table = spans.layer_table(recorded)
    assert table["a"]["calls"] == 2
    assert table["a"]["self_ms"] == pytest.approx(40e-6)
    assert table["a"]["total_ms"] == pytest.approx(50e-6)
    assert table["op"]["self_ms"] == pytest.approx(40e-6)


def test_recorder_skips_reentrant_spans_of_the_same_name():
    rec = spans.Recorder()
    rec.active = True

    def inner():
        return 1

    wrapped_inner = rec.wrap("layer.f", inner)
    wrapped_outer = rec.wrap("layer.f", lambda: wrapped_inner() + 1)
    assert wrapped_outer() == 2
    assert [s[spans.NAME] for s in rec.spans] == ["layer.f"]
    rec.active = False
    assert wrapped_outer() == 2
    assert len(rec.spans) == 1


def test_patcher_wraps_by_name_imports_and_restores_them():
    import repro.cluster.decompose as decompose
    import repro.cluster.resilient as resilient
    from repro.kernels.inplane import InPlaneKernel

    original = decompose.exchange_halos
    original_block = InPlaneKernel.__dict__["block_workload"]
    patcher = spans.Patcher(spans.Recorder())
    patcher.install()
    try:
        assert decompose.exchange_halos.__bench_wrapped__ is original
        assert resilient.exchange_halos is decompose.exchange_halos
        assert InPlaneKernel.__dict__["block_workload"].__bench_wrapped__ is original_block
    finally:
        patcher.uninstall()
    assert decompose.exchange_halos is original
    assert resilient.exchange_halos is original
    assert InPlaneKernel.__dict__["block_workload"] is original_block


def test_patcher_skips_targets_the_program_no_longer_has(monkeypatch):
    import repro.cluster.decompose  # noqa: F401

    monkeypatch.setitem(spans._BY_MODULE, "repro.cluster.decompose", [
        ("gone_function", "cluster.gone"), ("Gone.method", "cluster.gone"),
    ])
    patcher = spans.Patcher(spans.Recorder())
    patcher.install()
    patcher.uninstall()


# -- failures ------------------------------------------------------------------


class _FakeWorkload:
    def before(self, op):
        pass

    def run(self, op, recorder=None):
        if op == "raises":
            raise ValueError("boom")
        return op

    def check(self, op, out):
        return "wrong output" if out == "bad" else None


def test_failed_frac_counts_raises_and_bad_outputs():
    tally = measure.Tally()
    for op in ("good", "raises", "bad", "good"):
        error = child._run_op(_FakeWorkload(), op, None)[1]
        tally.record(error)
    assert (tally.attempted, tally.failed) == (4, 2)
    assert tally.failed_frac == 0.5
    assert "ValueError: boom" in tally.errors[0]
    assert tally.errors[1] == "wrong output"


def test_tampered_golden_entry_fails_exactly_that_op(tmp_path):
    (tmp_path / "bench").mkdir()
    golden = json.loads((ROOT / "bench" / "golden.json").read_text())
    victim = "gtx680/o4/dp/inplane_vertical"
    golden["paper_sweep"][victim][1] = repr(float(golden["paper_sweep"][victim][1]) * 2)
    (tmp_path / "bench" / "golden.json").write_text(json.dumps(golden))
    ctx = workloads.Context(root=tmp_path, work=tmp_path)
    wl = workloads.PaperSweep(0, ctx)
    wl.golden = ctx.golden()["paper_sweep"]
    ops = [op for op in wl.ops if wl.key(op) in (
        victim, "gtx680/o4/dp/inplane_horizontal", "c2070/o2/sp/nvstencil",
    )]
    failed = [wl.key(op) for op in ops if child._run_op(wl, op, None)[1] is not None]
    assert failed == [victim]


# -- repeatability check -------------------------------------------------------


def test_compare_flags_worse_ok_and_unresolved():
    base = [100.0, 101.0, 99.0, 100.0, 100.5]
    slightly_worse = [103.0, 104.0, 102.0, 103.0, 103.5]
    assert measure.compare_metric(base, slightly_worse, 0.1, "lower")[1] == "ok"
    delta, verdict = measure.compare_metric(base, [x * 1.2 for x in base], 0.1, "lower")
    assert verdict == "worse" and delta == pytest.approx(0.2)
    assert measure.compare_metric(base, [x * 1.2 for x in base], 0.1, "higher")[1] == "ok"
    noisy = [50.0, 100.0, 150.0, 100.0, 200.0]
    assert measure.compare_metric(base, noisy, 0.1, "lower")[1] == "unresolved"


def test_result_line_has_exactly_the_spec_metrics():
    import run

    spec = run.load_spec()
    result = {
        "failed": 0, "attempted": 120, "ops": 120,
        "metrics": {m["name"]: 1.5 for m in spec["end_to_end"]},
        "layers": {"kernels.block_workload_ms": 2.0},
    }
    line = run.result_line(result, spec, trace=False)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    layered = run.result_line(result, spec, trace=True)["metrics"]
    assert list(layered) == [m["name"] for m in spec["per_layer"]]
    assert layered["kernels.block_workload_ms"]["value"] == 2.0
    del result["metrics"]["op_p90_ms"]
    with pytest.raises(run.BenchError):
        run.result_line(result, spec, trace=False)


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "bench" / "run.py"), "--workload",
         "paper_sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
