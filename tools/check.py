#!/usr/bin/env python
"""Repository quality gate.

Runs, in order:

1. ``ruff check`` over ``src``, ``tests``, ``benchmarks``, ``examples``
2. ``mypy`` over ``src/repro`` (strict on ``repro.analysis`` and
   ``repro.obs``, advisory elsewhere — see ``pyproject.toml``)
3. the profiler trace-schema self-check (``python -m repro.obs.selfcheck``:
   traces one launch, validates the exported Chrome trace against the
   schema, asserts wave-sum reconciliation and reconciles the
   hardware-counter set against the simulator's enumerators)
4. the perf-regression sentinel (``repro bench diff`` against the
   recorded ``BENCH_profile.json`` trajectory: every record resimulated,
   exact tolerance — any slowdown fails the gate with the responsible
   counter named)
5. the fault-injection smoke test (``repro tune`` under a seeded fault
   storm with a journal, then a ``--resume`` of the same journal: both
   must exit 0, exercising retry, quarantine, and crash-safe replay
   end to end)
6. the events/metrics lint (a seeded storm tune writes an ``--events``
   stream and a ``--metrics-out`` exposition; the stream is validated
   against the event catalog with ``python -m repro.obs.events``, the
   exposition and the exporters' own sample output with
   ``python -m repro.obs.export --lint``)
7. the explain smoke test (a seeded storm tune writes an ``--archive``
   trial archive; it must validate strictly with
   ``python -m repro.obs.archive``, ``repro explain --json`` over it
   must emit parseable JSON, and every exported Vega-Lite landscape
   spec must parse)
8. the cluster resilience smoke test (``repro cluster run`` under a
   seeded dropout + corruption + degradation storm with checkpoints,
   then the same campaign stopped early and ``--resume``\ d: the
   resumed final-grid digest must be bit-identical to the
   uninterrupted run's, and the event stream must validate strictly)
9. the batch-identity gate (``python -m repro.gpusim.batch``: every
   ``BENCH_profile.json`` record is resimulated through the scalar
   executor and the vectorized batch engine; the two SHA-256 report
   digests must be equal — the bit-identity contract of
   ``docs/SIMULATOR.md``)
10. the estimator-reconciliation gate (``repro estimate --reconcile``:
    every ``BENCH_profile.json`` record's plan is lowered to its
    access-plan IR, the codegen-time estimate is compared bit-for-bit
    against the resimulated hardware counters, and every distinct
    plan's CUDA/OpenCL/HIP sources are re-parsed and verified against
    the IR — any IR↔source or estimator↔counters mismatch fails)
11. the tier-1 test suite (``pytest tests/``)

Static tools that are not installed are reported as *skipped* and do not
fail the gate — the container bakes in the runtime toolchain but not
necessarily the linters.  The test suite is mandatory: if pytest is
missing the gate fails.

Exit code: 0 when every step passed or was skipped, 1 otherwise.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def run(label: str, cmd: list[str], *, required: bool, env: dict | None = None) -> str:
    """Run one gate step; returns 'ok' | 'skipped' | 'FAILED'."""
    if shutil.which(cmd[0]) is None:
        if required:
            print(f"[check] {label}: FAILED ({cmd[0]} not found and required)")
            return "FAILED"
        print(f"[check] {label}: skipped (not installed)")
        return "skipped"
    print(f"[check] {label}: {' '.join(cmd)}")
    proc = subprocess.run(cmd, cwd=REPO, env=env)
    status = "ok" if proc.returncode == 0 else "FAILED"
    print(f"[check] {label}: {status}")
    return status


def fault_smoke(env: dict) -> str:
    """Tune under a seeded fault storm, then resume the journal."""
    import tempfile

    label = "fault-smoke"
    with tempfile.TemporaryDirectory() as tmp:
        journal = str(Path(tmp) / "smoke.journal")
        base = [
            sys.executable, "-m", "repro.cli", "-q", "tune",
            "--kernel", "inplane_fullslice", "--order", "2",
            "--device", "gtx580", "--grid", "64,64,32",
            "--method", "auto",
            "--faults", "seed=7,launch=0.1,hang=0.02,throttle=0.05",
            "--journal", journal,
        ]
        for phase, cmd in (("storm", base), ("resume", base + ["--resume"])):
            print(f"[check] {label}/{phase}: {' '.join(cmd)}")
            proc = subprocess.run(cmd, cwd=REPO, env=env, capture_output=True)
            if proc.returncode != 0:
                sys.stdout.buffer.write(proc.stdout)
                sys.stderr.buffer.write(proc.stderr)
                print(f"[check] {label}: FAILED ({phase} exited "
                      f"{proc.returncode})")
                return "FAILED"
    print(f"[check] {label}: ok")
    return "ok"


def events_lint(env: dict) -> str:
    """Generate a real event stream + metrics export, validate both.

    One seeded storm tune with ``--events`` and ``--metrics-out`` is the
    fixture; the stream must parse strictly against the event catalog
    and the exposition must pass the Prometheus lint (alongside the
    exporters' built-in sample self-lint).
    """
    import tempfile

    label = "events-lint"
    with tempfile.TemporaryDirectory() as tmp:
        events = str(Path(tmp) / "gate.events")
        metrics = str(Path(tmp) / "gate.prom")
        steps = [
            ("tune", [
                sys.executable, "-m", "repro.cli", "-q", "tune",
                "--kernel", "inplane_fullslice", "--order", "2",
                "--device", "gtx580", "--grid", "64,64,32",
                "--method", "auto",
                "--faults", "seed=7,launch=0.1,hang=0.02,throttle=0.05",
                "--events", events, "--metrics-out", metrics,
            ]),
            ("stream", [sys.executable, "-m", "repro.obs.events", events]),
            ("export", [
                sys.executable, "-m", "repro.obs.export", "--lint", metrics,
            ]),
            ("sample", [sys.executable, "-m", "repro.obs.export", "--lint"]),
        ]
        for phase, cmd in steps:
            print(f"[check] {label}/{phase}: {' '.join(cmd)}")
            proc = subprocess.run(cmd, cwd=REPO, env=env, capture_output=True)
            if proc.returncode != 0:
                sys.stdout.buffer.write(proc.stdout)
                sys.stderr.buffer.write(proc.stderr)
                print(f"[check] {label}: FAILED ({phase} exited "
                      f"{proc.returncode})")
                return "FAILED"
    print(f"[check] {label}: ok")
    return "ok"


def explain_smoke(env: dict) -> str:
    """Archive a storm tune, then drive ``repro explain`` off it.

    The fixture is one seeded storm tune with ``--archive``; the archive
    must validate strictly against the schema
    (``python -m repro.obs.archive``), ``repro explain --json`` over it
    must parse as JSON, and every emitted Vega-Lite landscape spec must
    parse as JSON too.
    """
    import json
    import tempfile

    label = "explain-smoke"
    with tempfile.TemporaryDirectory() as tmp:
        archive = str(Path(tmp) / "gate.archive")
        land = str(Path(tmp) / "landscape")
        steps = [
            ("tune", [
                sys.executable, "-m", "repro.cli", "-q", "tune",
                "--kernel", "inplane_fullslice", "--order", "2",
                "--device", "gtx580", "--grid", "64,64,32",
                "--method", "auto",
                "--faults", "seed=7,launch=0.1,hang=0.02,throttle=0.05",
                "--archive", archive,
            ]),
            ("validate", [sys.executable, "-m", "repro.obs.archive", archive]),
            ("explain", [
                sys.executable, "-m", "repro.cli", "-q", "explain",
                "--archive", archive, "--json", "--landscape-out", land,
            ]),
        ]
        for phase, cmd in steps:
            print(f"[check] {label}/{phase}: {' '.join(cmd)}")
            proc = subprocess.run(cmd, cwd=REPO, env=env, capture_output=True)
            if proc.returncode != 0:
                sys.stdout.buffer.write(proc.stdout)
                sys.stderr.buffer.write(proc.stderr)
                print(f"[check] {label}: FAILED ({phase} exited "
                      f"{proc.returncode})")
                return "FAILED"
            if phase == "explain":
                explain_stdout = proc.stdout
        try:
            json.loads(explain_stdout)
        except json.JSONDecodeError as exc:
            print(f"[check] {label}: FAILED (explain --json unparseable: "
                  f"{exc})")
            return "FAILED"
        specs = sorted(Path(land).glob("*.vl.json"))
        if not specs:
            print(f"[check] {label}: FAILED (no Vega-Lite specs emitted)")
            return "FAILED"
        for spec in specs:
            try:
                json.loads(spec.read_text())
            except json.JSONDecodeError as exc:
                print(f"[check] {label}: FAILED (bad Vega-Lite spec "
                      f"{spec.name}: {exc})")
                return "FAILED"
    print(f"[check] {label}: ok ({len(specs)} landscape spec(s))")
    return "ok"


def cluster_smoke(env: dict) -> str:
    """Storm a resilient cluster campaign; kill/resume must be bit-exact.

    Three campaigns over the same seeded fault plan (dropout + corrupt +
    degrade) and the same ``--grid-seed`` initial condition:

    * ``full``    — all N steps in one process, with checkpoints;
    * ``partial`` — the same campaign stopped after k < N steps (the
      simulated crash: the last thing it leaves behind is its atomic
      checkpoint);
    * ``resume``  — ``--resume`` from the partial checkpoint to N steps.

    The resumed final-grid SHA-256 must equal the uninterrupted run's
    digest, and the event streams must validate strictly against the
    catalog (``python -m repro.obs.events``).
    """
    import json
    import tempfile

    label = "cluster-smoke"
    with tempfile.TemporaryDirectory() as tmp:
        full_ckpt = str(Path(tmp) / "full.ckpt")
        part_ckpt = str(Path(tmp) / "part.ckpt")
        events = str(Path(tmp) / "cluster.events")
        base = [
            sys.executable, "-m", "repro.cli", "-q", "cluster", "run",
            "--kernel", "inplane_fullslice", "--order", "2",
            "--device", "gtx580", "--grid", "24,12,32",
            "--gpus", "4",
            "--faults", "seed=11,corrupt=0.3,dropout=0.08,degrade=0.2",
            "--json",
        ]
        runs = (
            ("full", base + ["--steps", "6", "--checkpoint", full_ckpt,
                             "--every", "2", "--events", events]),
            ("partial", base + ["--steps", "3", "--checkpoint", part_ckpt,
                                "--every", "3"]),
            ("resume", base + ["--steps", "6", "--checkpoint", part_ckpt,
                               "--every", "3", "--resume"]),
        )
        digests = {}
        for phase, cmd in runs:
            print(f"[check] {label}/{phase}: {' '.join(cmd)}")
            proc = subprocess.run(cmd, cwd=REPO, env=env, capture_output=True)
            if proc.returncode != 0:
                sys.stdout.buffer.write(proc.stdout)
                sys.stderr.buffer.write(proc.stderr)
                print(f"[check] {label}: FAILED ({phase} exited "
                      f"{proc.returncode})")
                return "FAILED"
            try:
                digests[phase] = json.loads(proc.stdout)
            except json.JSONDecodeError as exc:
                print(f"[check] {label}: FAILED ({phase} --json "
                      f"unparseable: {exc})")
                return "FAILED"
        if digests["resume"]["digest"] != digests["full"]["digest"]:
            print(f"[check] {label}: FAILED (resumed grid digest "
                  f"{digests['resume']['digest'][:12]}... != uninterrupted "
                  f"{digests['full']['digest'][:12]}... — crash-safe "
                  "bit-identity broken)")
            return "FAILED"
        if digests["resume"]["resumed_from"] != 3:
            print(f"[check] {label}: FAILED (resume replayed from step "
                  f"{digests['resume']['resumed_from']}, expected 3)")
            return "FAILED"
        validate = [sys.executable, "-m", "repro.obs.events", events]
        print(f"[check] {label}/events: {' '.join(validate)}")
        proc = subprocess.run(validate, cwd=REPO, env=env, capture_output=True)
        if proc.returncode != 0:
            sys.stdout.buffer.write(proc.stdout)
            sys.stderr.buffer.write(proc.stderr)
            print(f"[check] {label}: FAILED (event stream invalid)")
            return "FAILED"
    print(f"[check] {label}: ok (resume digest matches full run)")
    return "ok"


def main() -> int:
    import os

    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")

    results = {
        "ruff": run(
            "ruff",
            ["ruff", "check", "src", "tests", "benchmarks", "examples"],
            required=False,
        ),
        "mypy": run("mypy", ["mypy"], required=False),
        "obs-selfcheck": run(
            "obs-selfcheck",
            [sys.executable, "-m", "repro.obs.selfcheck"],
            required=True,
            env=env,
        ),
        "bench-diff": run(
            "bench-diff",
            [
                sys.executable, "-m", "repro.cli", "-q", "bench", "diff",
                "--baseline", "BENCH_profile.json",
            ],
            required=True,
            env=env,
        ),
        "fault-smoke": fault_smoke(env),
        "events-lint": events_lint(env),
        "explain-smoke": explain_smoke(env),
        "cluster-smoke": cluster_smoke(env),
        "batch-identity": run(
            "batch-identity",
            [
                sys.executable, "-m", "repro.gpusim.batch",
                "--baseline", "BENCH_profile.json",
            ],
            required=True,
            env=env,
        ),
        "estimate-reconcile": run(
            "estimate-reconcile",
            [
                sys.executable, "-m", "repro.cli", "-q", "estimate",
                "--reconcile", "--baseline", "BENCH_profile.json",
            ],
            required=True,
            env=env,
        ),
        "pytest": run(
            "pytest",
            [sys.executable, "-m", "pytest", "tests", "-q"],
            required=True,
            env=env,
        ),
    }

    print("[check] summary: " + "  ".join(f"{k}={v}" for k, v in results.items()))
    return 1 if "FAILED" in results.values() else 0


if __name__ == "__main__":
    sys.exit(main())
