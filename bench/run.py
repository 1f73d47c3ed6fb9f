"""Host wall-clock benchmark of the reproduction (see bench/README.md).

One workload, as ``BENCHMARK.json``'s command runs it::

    python3 bench/run.py --workload paper_sweep --seed 1 --seconds 15 --trace 0

prints every metric with its unit, then one JSON line
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1`` (``--trace-out FILE`` also writes the Chrome trace).

All four workloads, written to a results file (``--runs`` repeats, seeds
``N..N+runs-1``), and the repeatability check between two such files::

    python3 bench/run.py --seed 1 --out a.json [--runs 5] [--trace 1]
    python3 bench/run.py --compare a.json b.json

``--write-golden`` regenerates ``bench/golden.json`` from the current tree.
No ``PYTHONPATH`` is needed: every process gets ``src`` on its path.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import measure
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 9
#: Wall-clock budget of one run, set-up and measurement together.
RUN_BUDGET_S = 175.0


class BenchError(RuntimeError):
    """A run could not produce a result."""


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _check_checkout() -> None:
    missing = [p for p in ("src/repro/cli.py", "BENCH_profile.json") if not (ROOT / p).exists()]
    if missing:
        raise BenchError(f"not a checkout of the program: missing {', '.join(missing)}")


def _last_json(stdout: bytes, what: str) -> dict:
    lines = stdout.decode(errors="replace").strip().splitlines()
    if not lines:
        raise BenchError(f"{what} printed nothing")
    return json.loads(lines[-1])


def _child(args: list[str], env: dict, timeout: float, what: str) -> tuple[dict, int]:
    """Run a child to completion; returns (its JSON line, spawn time).

    The child leads a process group of its own, so on timeout it is
    killed together with any CLI process it started.
    """
    spawned = time.perf_counter_ns()
    proc = subprocess.Popen(
        args, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{what} timed out after {timeout:.0f} s") from None
    if proc.returncode != 0:
        tail = stderr.decode(errors="replace").strip().splitlines()[-5:]
        raise BenchError(f"{what} exited {proc.returncode}: " + " | ".join(tail))
    return _last_json(stdout, what), spawned


def setup_samples(
    name: str, seed: int, work: Path, env: dict, deadline: float
) -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh interpreter to its first op completed,
    raw and normalised by calibration samples (of the workload's kind)
    taken just before and after each one in this process."""
    kind = workloads.WORKLOADS[name].calibration
    origin = time.perf_counter()
    calib = []
    timed = []  # (seconds after origin at the sample's middle, wall s, CPU s)
    for _ in range(SETUP_SAMPLES):
        calib += [measure.calib_sample(origin, kind) for _ in range(2)]
        timeout = deadline - time.monotonic()
        cpu = measure.cpu_seconds()
        if name == "cli_oneshot":
            spawned = time.perf_counter_ns()
            proc = subprocess.run(workloads.cli_argv("--version"), cwd=ROOT, env=env,
                                  capture_output=True, timeout=max(timeout, 1.0))
            if proc.returncode != 0:
                raise BenchError("repro --version failed")
            done = time.perf_counter_ns()
        else:
            out, spawned = _child(
                [sys.executable, str(BENCH / "child.py"), "setup", name, str(seed),
                 str(work)],
                env, timeout, f"{name} set-up sample",
            )
            if out["error"]:
                raise BenchError(f"{name} set-up op failed: {out['error']}")
            done = out["t_done"]
        seconds = (done - spawned) / 1e9
        cpu = measure.cpu_seconds() - cpu
        timed.append((spawned / 1e9 - origin + seconds / 2, seconds, cpu))
    calib += [measure.calib_sample(origin, kind) for _ in range(2)]
    raw = [s for _t, s, _cpu in timed]
    norm = [
        measure.norm_split(s, cpu, measure.local_calib(calib, t), kind)
        for t, s, cpu in timed
    ]
    return raw, norm


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 chrome_out: str | None = None) -> dict:
    """Set-up samples plus one measured run of one workload."""
    _check_checkout()
    deadline = time.monotonic() + RUN_BUDGET_S
    scratch = ROOT / ".bench_work"
    work = scratch / f"run-{os.getpid()}-{name}"
    work.mkdir(parents=True, exist_ok=True)
    env = workloads.child_env(ROOT, work)
    try:
        # Byte-compile once so no sample pays for it (the first run in a
        # fresh checkout would otherwise).
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", "src/repro", "bench"],
            cwd=ROOT, env=env, check=True, capture_output=True, timeout=300,
        )
        setup_raw, setup_norm = setup_samples(name, seed, work, env, deadline)
        args = [sys.executable, str(BENCH / "child.py"), "measure", name, str(seed),
                str(work), str(seconds), "1" if trace else "0"]
        if chrome_out:
            args.append(str(Path(chrome_out).resolve()))
        result, _ = _child(args, env, deadline - time.monotonic(), f"{name} run")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["samples"]["setup_s"] = [round(s, 6) for s in setup_raw]
    result["raw"]["setup_s"] = statistics.median(setup_raw)
    result["metrics"]["setup_s"] = statistics.median(setup_norm)
    return result


def result_line(result: dict, spec: dict, trace: bool) -> dict:
    """The last stdout line: correctness, op counts and every metric that
    ``BENCHMARK.json`` lists for this kind of run."""
    table = result.get("layers", {}) if trace else result["metrics"]
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        value = table.get(m["name"], 0.0 if trace else None)
        if value is None:
            raise BenchError(f"metric {m['name']} could not be computed "
                             f"({result['ops']} ops)")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def describe(result: dict, spec: dict, trace: bool) -> list[str]:
    """Human-readable lines: every metric with its unit and sample count."""
    lines = [
        f"# {result['workload']} seed {result['seed']}: {result['attempted']} ops "
        f"attempted, {result['failed']} failed (failed_frac "
        f"{result['failed_frac']:.4f}); {result['calibration']} calibration "
        f"{result['calib_ms']:.3f} ms median of {result['calib_samples']} "
        f"(reference {measure.reference_ms(result['calibration'])} ms)"
    ]
    n = result["ops"]
    counts = {
        "setup_s": f"median of {len(result['samples']['setup_s'])} fresh processes",
        "op_p50_ms": f"n={n}, {n // 2} beyond",
        "op_p90_ms": f"n={n}, {n // 10} beyond",
    }
    table = result.get("layers", {}) if trace else result["metrics"]
    for m in spec["per_layer"] if trace else spec["end_to_end"]:
        value = table.get(m["name"], 0.0 if trace else None)
        shown = "n/a" if value is None else f"{value:.6g}"
        raw = result["raw"].get(m["name"])
        extra = f"  raw {raw:.6g}" if raw is not None and not trace else ""
        note = f"  ({counts[m['name']]})" if m["name"] in counts else ""
        lines.append(f"{m['name']} {shown} {m['unit']}{extra}{note}")
    for key in ("configs_per_s", "host_mpoints_per_s"):
        if not trace and key in result["metrics"]:
            unit = "1/s" if key == "configs_per_s" else "MPt/s"
            lines.append(f"{key} {result['metrics'][key]:.6g} {unit}")
    lines.extend(f"# error: {e}" for e in result["errors"])
    return lines


def compare(path_a: str, path_b: str, spec: dict) -> int:
    """Per (workload, end-to-end metric): delta of B against A vs the bound."""
    a, b = (json.loads(Path(p).read_text())["results"] for p in (path_a, path_b))
    worse = 0
    print(f"{'workload':18} {'metric':12} {'A median':>11} {'B median':>11} "
          f"{'delta':>8} {'bound':>6}  verdict")
    for name in a:
        if name not in b:
            continue
        for m in spec["end_to_end"]:
            va = [r["metrics"][m["name"]] for r in a[name]]
            vb = [r["metrics"][m["name"]] for r in b[name]]
            delta, verdict = measure.compare_metric(va, vb, m["bound"], m["better"])
            worse += verdict == "worse"
            print(f"{name:18} {m['name']:12} {statistics.median(va):11.5g} "
                  f"{statistics.median(vb):11.5g} {delta:+8.2%} {m['bound']:6.0%}  "
                  f"{verdict}")
    return 1 if worse else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", metavar="FILE",
                        help="write the traced ops' spans as Chrome trace JSON")
    parser.add_argument("--out", metavar="FILE",
                        help="write every result of this invocation here")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, seeds SEED..SEED+RUNS-1")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)

    try:
        spec = load_spec()
        if args.compare:
            return compare(*args.compare, spec)
        _check_checkout()
        if args.write_golden:
            work = ROOT / ".bench_work" / "golden"
            work.mkdir(parents=True, exist_ok=True)
            os.environ.update(workloads.child_env(ROOT, work))
            sys.path.insert(0, str(ROOT / "src"))
            print(f"wrote {workloads.write_golden(ROOT, work)}")
            shutil.rmtree(work, ignore_errors=True)
            return 0
        seconds = args.seconds or spec["run_seconds"]
        names = [args.workload] if args.workload else list(workloads.WORKLOADS)
        trace = bool(args.trace)
        results: dict[str, list[dict]] = {}
        for name in names:
            for i in range(args.runs):
                chrome = args.trace_out if trace and len(names) == 1 and i == 0 else None
                result = run_workload(name, args.seed + i, seconds, trace, chrome)
                results.setdefault(name, []).append(result)
                for line in describe(result, spec, trace):
                    print(line, flush=True)
        if args.out:
            Path(args.out).write_text(json.dumps({
                "seed": args.seed, "seconds": seconds, "trace": trace,
                "calib_ref_ms": {k: ref for k, (_loop, ref) in measure.CALIBRATIONS.items()},
                "results": results,
            }, sort_keys=True) + "\n")
        last = results[names[-1]][-1]
        if len(names) == 1 and args.runs == 1:
            print(json.dumps(result_line(last, spec, trace)))
        return 0
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
