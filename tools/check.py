#!/usr/bin/env python
r"""Repository quality gate.

Runs, in order:

1. ``ruff check`` over ``src``, ``tests``, ``benchmarks``, ``examples``
2. ``mypy`` over ``src/repro`` (strict on ``repro.analysis`` and
   ``repro.obs``, advisory elsewhere — see ``pyproject.toml``)
3. the unused-import scan (:func:`unused_imports`: a standard-library
   ``ast`` pass over ``src``, ``tests``, ``benchmarks``, ``examples`` and
   ``tools`` that flags every imported name a module never uses, honouring
   ``__all__``, ``TYPE_CHECKING`` imports named in string annotations and
   ``# noqa: F401`` — so orphans left by deletions fail the gate even
   where ruff is not installed)
4. the unused-local scan (:func:`unused_locals`: the same ``ast`` pass
   flags every function local assigned and never read — plain name
   stores only; tuple and loop targets and ``_`` names are exempt)
5. the profiler trace-schema self-check (``python -m repro.obs.selfcheck``:
   traces one launch, validates the exported Chrome trace against the
   schema, asserts wave-sum reconciliation and reconciles the
   hardware-counter set against the simulator's enumerators)
6. the perf-regression sentinel (``repro bench diff`` against the
   recorded ``BENCH_profile.json`` trajectory: every record resimulated,
   exact tolerance — any slowdown fails the gate with the responsible
   counter named)
7. the session smoke test (one seeded storm ``repro tune`` writes a
   journal, an event stream, a trial archive and a metrics exposition,
   and a seeded stochastic storm writes its own event stream and
   archive; ``python -m repro.obs.recordlog`` validates the five record
   logs strictly, ``python -m repro.obs.export --lint`` lints the exposition
   and the exporters' own sample output, ``repro explain --json`` over
   the archive and every exported Vega-Lite landscape spec must parse,
   and a ``--resume`` of the journal must exit 0 — retry, quarantine and
   crash-safe replay end to end)
8. the cluster resilience smoke test (``repro cluster run`` under a
   seeded dropout + corruption + degradation storm with checkpoints,
   then the same campaign stopped early and ``--resume``\ d: the
   resumed final-grid digest must be bit-identical to the
   uninterrupted run's, and the event stream must validate strictly)
9. the batch-identity gate (``python -m repro.gpusim.batch``): the model
   is written once over an op table (``repro.gpusim.ops``), and this
   checks that the two tables agree — every ``BENCH_profile.json``
   record is resimulated through the scalar executor (builtins table)
   and the batch engine (NumPy table); the two SHA-256 report digests
   must be equal, and each record's fresh-engine ``scores()`` must match
   the scalar report's rate, load efficiency, occupancy, limiter and
   total cycles (which the fault overlay prices from) — the
   bit-identity contract of ``docs/SIMULATOR.md``
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

import ast
import shutil
import subprocess
import sys
from collections.abc import Callable
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


def run_phases(label: str, phases: list, env: dict) -> dict | None:
    """Run ``(phase, cmd)`` steps in order; their stdout, or ``None``
    (after echoing the failing step's output) on the first non-zero exit."""
    out = {}
    for phase, cmd in phases:
        print(f"[check] {label}/{phase}: {' '.join(cmd)}")
        proc = subprocess.run(cmd, cwd=REPO, env=env, capture_output=True)
        if proc.returncode != 0:
            sys.stdout.buffer.write(proc.stdout)
            sys.stderr.buffer.write(proc.stderr)
            print(f"[check] {label}: FAILED ({phase} exited "
                  f"{proc.returncode})")
            return None
        out[phase] = proc.stdout
    return out


def session_smoke(env: dict) -> str:
    """One logged storm session: validated, exported, explained, resumed.

    A seeded storm tune (``--method auto``, which settles on the model
    tier) writes a journal, an event stream, a trial archive and a
    metrics exposition; a seeded stochastic storm (the sequential walk)
    writes its own event stream and archive.  All five record logs must
    validate strictly (``python -m repro.obs.recordlog``); the exposition
    and the exporters' own sample output must pass the Prometheus lint;
    ``repro explain --json`` over the archive must parse as JSON, as must
    every exported Vega-Lite landscape spec; and a ``--resume`` of the
    journal must exit 0.
    """
    import json
    import tempfile

    label = "session-smoke"
    with tempfile.TemporaryDirectory() as tmp:
        journal, events, archive, metrics, land, walk_events, walk_archive = (
            str(Path(tmp) / name) for name in (
                "gate.journal", "gate.events", "gate.archive", "gate.prom",
                "landscape", "walk.events", "walk.archive",
            )
        )
        storm = [
            sys.executable, "-m", "repro.cli", "-q", "tune",
            "--kernel", "inplane_fullslice", "--order", "2",
            "--device", "gtx580", "--grid", "64,64,32",
            "--faults", "seed=7,launch=0.1,hang=0.02,throttle=0.05",
        ]
        tune = storm + ["--method", "auto", "--journal", journal]
        walk = storm + [
            "--method", "stochastic", "--budget", "12",
            "--events", walk_events, "--archive", walk_archive,
        ]
        out = run_phases(label, [
            ("storm", tune + ["--events", events, "--archive", archive,
                              "--metrics-out", metrics]),
            ("walk", walk),
            ("validate", [sys.executable, "-m", "repro.obs.recordlog",
                          journal, events, archive, walk_events,
                          walk_archive]),
            ("export", [
                sys.executable, "-m", "repro.obs.export", "--lint", metrics,
            ]),
            ("sample", [sys.executable, "-m", "repro.obs.export", "--lint"]),
            ("explain", [
                sys.executable, "-m", "repro.cli", "-q", "explain",
                "--archive", archive, "--json", "--landscape-out", land,
            ]),
            ("resume", tune + ["--resume"]),
        ], env)
        if out is None:
            return "FAILED"
        try:
            json.loads(out["explain"])
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
    digest, and the event stream must validate strictly
    (``python -m repro.obs.recordlog``).
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
        out = run_phases(label, list(runs) + [
            ("events", [sys.executable, "-m", "repro.obs.recordlog", events]),
        ], env)
        if out is None:
            return "FAILED"
        digests = {}
        for phase, _cmd in runs:
            try:
                digests[phase] = json.loads(out[phase])
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
    print(f"[check] {label}: ok (resume digest matches full run)")
    return "ok"


def _annotation_names(node: ast.AST) -> set[str]:
    """Names an annotation references, string annotations included."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                names |= _annotation_names(ast.parse(sub.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def unused_imports(path: Path) -> list[tuple[int, str]]:
    """``(line, name)`` of each imported name the module never uses.

    A name counts as used when the module reads it anywhere, names it in
    ``__all__`` or in an annotation or ``cast()`` type (string forms, such
    as those naming ``TYPE_CHECKING``-only imports, included), or re-exports it
    (``import x as x``).  An import whose lines carry ``# noqa: F401`` is
    exempt, as are ``__future__`` imports and star imports.
    """
    source = path.read_text()
    tree = ast.parse(source, str(path))
    lines = source.splitlines()
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            span = lines[node.lineno - 1:node.end_lineno]
            if any("noqa: F401" in line for line in span):
                continue
            for alias in node.names:
                if alias.name != "*" and alias.asname != alias.name:
                    name = alias.asname or alias.name.split(".")[0]
                    imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _annotation_names(node.returns)
        elif (
            isinstance(node, ast.Call) and node.args
            and getattr(node.func, "id", getattr(node.func, "attr", "")) == "cast"
        ):
            used |= _annotation_names(node.args[0])
        if (
            isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
            and "__all__" in {
                t.id for t in getattr(node, "targets", [getattr(node, "target", None)])
                if isinstance(t, ast.Name)
            }
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            used |= {
                e.value for e in node.value.elts
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            }
    return sorted(
        (line, name) for name, line in imported.items() if name not in used
    )


#: Nodes that open a new local scope.
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_scope(func: ast.AST):
    """The nodes of ``func``'s body outside any nested scope."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def unused_locals(path: Path) -> list[tuple[int, str]]:
    """``(line, name)`` of each function local assigned and never read.

    Counts plain ``name = ...`` / ``name: T = ...`` stores only: tuple
    and for-loop targets, ``_``-prefixed names and names declared
    ``global`` or ``nonlocal`` are exempt.  A read anywhere in the
    function, nested functions included (a closure reads its outer
    locals), counts as a use (pyflakes F841, standard library only).
    """
    tree = ast.parse(path.read_text(), str(path))
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored: dict[str, int] = {}
        declared: set[str] = set()
        for node in _own_scope(func):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                declared.update(node.names)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for t in targets:
                    if isinstance(t, ast.Name) and not t.id.startswith("_"):
                        stored.setdefault(t.id, t.lineno)
        read = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
                read.add(node.target.id)
            elif isinstance(node, ast.Nonlocal):
                read.update(node.names)
        found += [
            (line, name) for name, line in stored.items()
            if name not in read and name not in declared
        ]
    return sorted(found)


def _ast_check(label: str, scan: Callable[[Path], list], what: str) -> str:
    """Run one ast scan over every Python file of the repo."""
    tops = ("src", "tests", "benchmarks", "examples", "tools")
    print(f"[check] {label}: ast scan of {', '.join(tops)}")
    findings = [
        f"{path.relative_to(REPO)}:{line}: {name!r} {what}"
        for top in tops
        for path in sorted((REPO / top).rglob("*.py"))
        for line, name in scan(path)
    ]
    for finding in findings:
        print(f"  {finding}")
    status = "FAILED" if findings else "ok"
    print(f"[check] {label}: {status}")
    return status


def unused_import_check() -> str:
    """Every Python file of the repo: no import left unused (pyflakes F401,
    with the standard library only, so it runs where ruff is absent)."""
    return _ast_check("unused-imports", unused_imports, "imported but unused")


def unused_local_check() -> str:
    """Every Python file of the repo: no local assigned and never read."""
    return _ast_check("unused-locals", unused_locals, "assigned but never read")


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
        "unused-imports": unused_import_check(),
        "unused-locals": unused_local_check(),
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
        "session-smoke": session_smoke(env),
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
