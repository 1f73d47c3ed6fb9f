"""One benchmark process: a set-up sample or a measured run.

    child.py setup WORKLOAD SEED WORK_DIR
    child.py measure WORKLOAD SEED WORK_DIR SECONDS TRACE [CHROME_OUT]

Both print one JSON object as their last stdout line.  ``setup`` runs the
workload's set-up op in a fresh interpreter and reports the
``perf_counter_ns`` (``CLOCK_MONOTONIC``) at which it completed; the
parent subtracts its spawn time.  ``measure`` computes the references,
then runs ops in a closed loop, one at a time, until ``SECONDS`` have
passed and at least :data:`MIN_OPS` ops are done, running the
calibration loop between ops at least every :data:`CALIB_EVERY_S`.
With ``TRACE`` set, every other op is traced and the per-layer table is
computed from those ops.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path

import measure
import spans
import workloads

#: Enough ops for p90 to have 10 samples beyond it.
MIN_OPS = 100
CALIB_EVERY_S = 0.25
#: The timed loop stops here even short of MIN_OPS (a run must end in 180 s).
HARD_STOP_S = 120.0


def _run_op(wl, op, recorder):
    """Run one op; returns (output, error, wall ms, CPU ms)."""
    wl.before(op)
    cpu = measure.cpu_seconds()
    start = time.perf_counter_ns()
    root = recorder.open(spans.OP_SPAN, start) if recorder is not None else None
    try:
        out, error = wl.run(op, recorder), None
    except Exception as exc:  # an op that raises is a failed op, not a crash
        out, error = None, f"{op}: {type(exc).__name__}: {exc}"
    end = time.perf_counter_ns()
    cpu = measure.cpu_seconds() - cpu
    if root is not None:
        recorder.close(root, end)
    if error is None:
        try:
            error = wl.check(op, out)
        except Exception as exc:
            error = f"{op}: check raised {type(exc).__name__}: {exc}"
    return out, error, (end - start) / 1e6, cpu * 1000.0


def setup(name: str, seed: int, work: Path) -> dict:
    ctx = workloads.Context(root=Path(__file__).resolve().parent.parent, work=work)
    wl = workloads.WORKLOADS[name](seed, ctx)
    op = wl.setup_op()
    wl.before(op)
    try:
        wl.run(op)
        error = None
    except Exception as exc:
        error = f"{op}: {type(exc).__name__}: {exc}"
    return {"t_done": time.perf_counter_ns(), "error": error}


def run(name: str, seed: int, work: Path, seconds: float, trace: bool,
        chrome_out: str | None = None) -> dict:
    ctx = workloads.Context(root=Path(__file__).resolve().parent.parent, work=work)
    wl = workloads.WORKLOADS[name](seed, ctx)
    wl.prepare()
    recorder = patcher = None
    if trace:
        recorder = spans.Recorder()
        patcher = spans.Patcher(recorder)
        patcher.install()
    tally = measure.Tally()
    start = time.perf_counter()
    kind = wl.calibration
    calib = [measure.calib_sample(start, kind) for _ in range(3)]
    ops: list[dict] = []
    # Whole rounds only: every run of a seed then holds each op equally
    # often, so a percentile cannot drift with where a run was cut off.
    for order in wl.rounds():
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_STOP_S or (elapsed >= seconds and len(ops) >= MIN_OPS):
            break
        for op in order:
            if time.perf_counter() - start >= HARD_STOP_S:
                break
            if time.perf_counter() - start - calib[-1][0] >= CALIB_EVERY_S:
                calib.append(measure.calib_sample(start, kind))
            traced = trace and len(ops) % 2 == 1
            if traced:
                recorder.op = len(ops)
                recorder.active = True
            t_op = time.perf_counter() - start
            out, error, ms, cpu_ms = _run_op(wl, op, recorder if traced else None)
            if traced:
                recorder.active = False
            tally.record(error)
            ops.append({
                "op": str(op), "t": t_op, "ms": ms, "cpu_ms": cpu_ms,
                "traced": traced, "work": wl.work(op, out) if error is None else {},
            })
    calib.append(measure.calib_sample(start, kind))
    if patcher is not None:
        patcher.uninstall()
    usage = resource.RUSAGE_CHILDREN if name == "cli_oneshot" else resource.RUSAGE_SELF
    result = summarise(ops, calib, kind, resource.getrusage(usage).ru_maxrss / 1024.0)
    result.update(
        workload=name, seed=seed, attempted=tally.attempted, failed=tally.failed,
        failed_frac=tally.failed_frac, errors=tally.errors,
    )
    if recorder is not None:
        result["layers"], result["layer_table"] = layers(ops, recorder.spans, calib, kind)
        if chrome_out:
            with open(chrome_out, "w") as fh:
                json.dump(spans.chrome_trace(recorder.spans), fh)
    return result


def _work_sum(ops: list[dict], key: str) -> float:
    return sum(o["work"].get(key, 0) for o in ops)


def _op_metrics(plain: list[dict], times: list[float]) -> dict:
    total_s = sum(times) / 1000.0
    out = {
        "op_p50_ms": measure.percentile(times, 50),
        "op_p90_ms": measure.percentile(times, 90),
        "ops_per_s": len(times) / total_s if total_s else None,
    }
    # Throughputs in the workload's own unit of work, where it has one.
    configs, points = _work_sum(plain, "configs"), _work_sum(plain, "points")
    if configs and total_s:
        out["configs_per_s"] = configs / total_s
    if points and total_s:
        out["host_mpoints_per_s"] = points / 1e6 / total_s
    return out


def _samples(ops: list[dict], calib: list[tuple[float, float]]) -> dict:
    """Every op and calibration sample, compactly: ops as
    ``[op index into op_names, start s, wall ms, CPU ms, traced]``."""
    names = list(dict.fromkeys(o["op"] for o in ops))
    index = {name: i for i, name in enumerate(names)}
    return {
        "op_names": names,
        "ops": [
            [index[o["op"]], round(o["t"], 3), round(o["ms"], 3),
             round(o["cpu_ms"], 3), int(o["traced"])]
            for o in ops
        ],
        "calib": [[round(t, 3), round(ms, 3)] for t, ms in calib],
    }


def summarise(
    ops: list[dict], calib: list[tuple[float, float]], kind: str, rss_mb: float
) -> dict:
    """End-to-end metrics over the untraced ops, raw and normalised.

    The CPU part of each op is normalised by the calibration samples taken
    around it (:func:`measure.local_calib`), so a stretch of slow host
    does not leak into the percentiles; waiting is kept as measured.
    """
    plain = [o for o in ops if not o["traced"]]
    norm = [
        measure.norm_split(
            o["ms"], o["cpu_ms"],
            measure.local_calib(calib, o["t"] + o["ms"] / 2000.0), kind,
        )
        for o in plain
    ]
    metrics = {
        k: v for k, v in _op_metrics(plain, norm).items() if v is not None
    }
    metrics["peak_rss_mb"] = rss_mb
    return {
        "calibration": kind,
        "calib_ms": statistics.median(ms for _t, ms in calib),
        "calib_samples": len(calib),
        "ops": len(plain),
        "raw": _op_metrics(plain, [o["ms"] for o in plain]),
        "metrics": metrics,
        "samples": _samples(ops, calib),
    }


def layers(ops: list[dict], recorded: list, calib: list, kind: str) -> tuple[dict, dict]:
    """Per-layer metrics from the traced ops (see README.md for the names)."""
    traced = [o for o in ops if o["traced"]]
    plain = [o for o in ops if not o["traced"]]
    n = max(len(traced), 1)
    calib_ms = statistics.median(ms for _t, ms in calib)
    table = spans.layer_table(recorded)
    configs = _work_sum(traced, "configs")
    out: dict[str, float] = {}
    for name, row in table.items():
        if name == spans.OP_SPAN:
            continue
        out[f"{name}_ms"] = measure.norm_time(row["self_ms"] / n, calib_ms, kind)
        out[f"{name}_calls"] = row["calls"] / n
        if configs:
            out[f"{name}_per_config"] = row["calls"] / configs
    executor = table.get("gpusim.executor.run")
    if executor:
        out["gpusim.executor.faults_raised"] = executor["errors"] / n
    blockclass = table.get("gpusim.batch.blockclass")
    if blockclass and blockclass["calls"]:
        out["gpusim.batch.distinct_ratio"] = (
            _work_sum(traced, "classes_distinct") / blockclass["calls"]
        )
    execute = table.get("kernels.execute")
    points = _work_sum(traced, "points")
    if execute and points:
        out["kernels.execute_mpoints_per_s"] = measure.norm_rate(
            points / 1e6 / (execute["total_ms"] / 1000.0), calib_ms, kind
        )
    for key, metric in (
        ("retries", "tuning.robust.retries"),
        ("quarantined", "tuning.robust.quarantined"),
        ("replayed", "tuning.robust.replayed"),
        ("exchange_retries", "cluster.exchange_retries"),
        ("redecompositions", "cluster.redecompositions"),
    ):
        out[metric] = _work_sum(traced, key) / n
    for key, metric in (
        ("journal_bytes", "tuning.robust.journal_bytes"),
        ("archive_bytes", "obs.archive.bytes"),
        ("events_bytes", "obs.events.bytes"),
        ("checkpoint_bytes", "cluster.checkpoint_bytes"),
    ):
        sizes = [o["work"][key] for o in traced if key in o["work"]]
        out[metric] = statistics.mean(sizes) if sizes else 0.0
    overheads = [
        o["ms"] / 1000.0 / o["work"]["reference_s"]
        for o in plain if o["work"].get("reference_s")
    ]
    if overheads:
        out["cluster.decomp_overhead"] = statistics.median(overheads)
    op_row = table.get(spans.OP_SPAN)
    if op_row and op_row["total_ms"]:
        out["bench.untraced_share"] = op_row["self_ms"] / op_row["total_ms"]
    # Traced and untraced ops differ in mix, so compare each op with itself.
    by_op: dict[str, tuple[list[float], list[float]]] = {}
    for o in ops:
        by_op.setdefault(o["op"], ([], []))[o["traced"]].append(o["ms"])
    ratios = [
        statistics.median(on) / statistics.median(off)
        for off, on in by_op.values() if on and off
    ]
    if ratios:
        out["bench.trace_overhead"] = statistics.median(ratios)
    out["bench.calib_ms"] = calib_ms
    summary = summarise(ops, calib, kind, 0.0)["metrics"]
    for key in ("configs_per_s", "host_mpoints_per_s"):
        if key in summary:
            out[key] = summary[key]
    return out, table


def main(argv: list[str]) -> int:
    mode, name, seed, work = argv[0], argv[1], int(argv[2]), Path(argv[3])
    if mode == "setup":
        result = setup(name, seed, work)
    else:
        result = run(
            name, seed, work, float(argv[4]), argv[5] == "1",
            argv[6] if len(argv) > 6 else None,
        )
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
