"""The four benchmark workloads: inputs, the timed op, and output checks.

Each workload is a class with the same small surface:

* ``__init__(seed, ctx)`` draws every input from ``seed`` (op order,
  tuple subsets, fault seeds, initial conditions); the program only ever
  sees the generated inputs;
* ``setup_op()`` is the op a set-up sample runs first; it is the same
  kind of op for every seed, so ``setup_s`` does not move with the seed;
* ``prepare()`` computes the references the checks compare against,
  outside the timed region;
* ``rounds()`` yields the op order, one seeded shuffle per round;
* ``before(op)`` does untimed per-op preparation;
* ``run(op, recorder)`` is the timed call (``recorder`` is set on traced
  ops of workloads that trace a child process);
* ``check(op, out)`` returns ``None`` or what is wrong with the output;
* ``work(op, out)`` returns the op's work counts for the per-layer table.

Ops call the library through module attributes (``factory.make_kernel``)
so that the traced run's wrappers see them.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

#: The paper's evaluation grid (section IV-B).
PAPER_GRID = (512, 512, 256)
DEVICES = ("gtx580", "gtx680", "c2070")
ORDERS = (2, 4, 6, 8, 10, 12)
DTYPES = ("sp", "dp")
INPLANE = (
    "inplane_classical", "inplane_vertical", "inplane_horizontal",
    "inplane_fullslice",
)


@dataclass
class Context:
    """Where a workload runs: the checkout root and a scratch directory."""

    root: Path
    work: Path

    @property
    def golden_path(self) -> Path:
        return self.root / "bench" / "golden.json"

    def golden(self) -> dict[str, Any]:
        return json.loads(self.golden_path.read_text())


def _rng(workload: str, seed: int) -> random.Random:
    # String seeding is independent of PYTHONHASHSEED.
    return random.Random(f"{workload}:{seed}")


def _file_size(path: Path) -> int:
    return path.stat().st_size if path.exists() else 0


class _Workload:
    """What the workloads share: seeded rounds over ``self.ops``."""

    calibration = "python"
    ops: list
    rng: random.Random

    def rounds(self) -> Iterator[list]:
        while True:
            order = list(self.ops)
            self.rng.shuffle(order)
            yield order

    def before(self, op: Any) -> None:
        pass


# -- paper_sweep ---------------------------------------------------------------


class PaperSweep(_Workload):
    """The paper's tuning matrix, one plain tune per op.

    3 devices x orders 2-12 x sp/dp x {nvstencil thread-only, the four
    in-plane variants over the full space, full-slice model-based with
    beta = 5%} = 216 ops per round, each with a fresh
    ``VectorTrialEvaluator`` (what one ``repro tune`` pays after start-up).
    """

    name = "paper_sweep"

    def __init__(self, seed: int, ctx: Context) -> None:
        self.ctx = ctx
        self.rng = _rng(self.name, seed)
        self.ops = [
            (dev, order, dtype, variant)
            for dev in DEVICES for order in ORDERS for dtype in DTYPES
            for variant in ("nvstencil", *INPLANE, "model")
        ]
        self.golden: dict[str, list[str]] = {}
        #: op key -> serial-evaluator entries, for the bit-identity sample.
        self.serial: dict[str, list[tuple[str, float]]] = {}

    @staticmethod
    def key(op: tuple) -> str:
        dev, order, dtype, variant = op
        return f"{dev}/o{order}/{dtype}/{variant}"

    def setup_op(self) -> tuple:
        return ("gtx580", 8, "sp", "inplane_fullslice")

    def _tune(self, op: tuple, evaluator: Any) -> Any:
        from repro.gpusim.device import get_device
        from repro.kernels import factory
        from repro.stencils.spec import symmetric
        from repro.tuning import exhaustive, modelbased
        from repro.tuning.space import ParameterSpace

        dev_name, order, dtype, variant = op
        device = get_device(dev_name)
        spec = symmetric(order)
        family = "inplane_fullslice" if variant == "model" else variant

        def build(cfg: Any) -> Any:
            return factory.make_kernel(family, spec, cfg, dtype)

        if variant == "model":
            return modelbased.model_based_tune(
                build, device, PAPER_GRID, beta=0.05, evaluator=evaluator
            )
        space = (
            ParameterSpace(rx_values=(1,), ry_values=(1,))
            if variant == "nvstencil" else None
        )
        return exhaustive.exhaustive_tune(
            build, device, PAPER_GRID, space, evaluator=evaluator
        )

    def prepare(self) -> None:
        from repro.gpusim.device import get_device
        from repro.tuning.evaluator import SimTrialEvaluator

        self.golden = self.ctx.golden()[self.name]
        for op in self.rng.sample(self.ops, 3):
            result = self._tune(op, SimTrialEvaluator(get_device(op[0])))
            self.serial[self.key(op)] = [
                (e.config.label(), e.mpoints_per_s) for e in result.entries
            ]

    def run(self, op: tuple, recorder: Any = None) -> Any:
        from repro.tuning import vectorized

        evaluator = vectorized.VectorTrialEvaluator(op[0])
        return self._tune(op, evaluator), evaluator

    def check(self, op: tuple, out: Any) -> str | None:
        result, _evaluator = out
        key = self.key(op)
        got = [result.best_config.label(), repr(result.best_mpoints)]
        if got != self.golden.get(key):
            return f"{key}: best {got} != golden {self.golden.get(key)}"
        serial = self.serial.get(key)
        if serial is not None:
            entries = [(e.config.label(), e.mpoints_per_s) for e in result.entries]
            if entries != serial:
                return f"{key}: batch entries differ from the serial evaluator"
        return None

    def work(self, op: tuple, out: Any) -> dict[str, float]:
        result, evaluator = out
        counts = {"configs": result.space_size}
        # The engine's per-class memo is private: if it is renamed, the
        # distinct-class ratio reads 0 instead of failing the run.
        memo = [getattr(evaluator.engine, a, {}) for a in ("_scores", "_full")]
        if any(memo):
            counts["classes_distinct"] = len(set(memo[0]) | set(memo[1]))
        return counts

    def write_golden(self) -> dict[str, list[str]]:
        from repro.tuning import vectorized

        table = {}
        for op in self.ops:
            result = self._tune(op, vectorized.VectorTrialEvaluator(op[0]))
            table[self.key(op)] = [
                result.best_config.label(), repr(result.best_mpoints)
            ]
        return table


# -- fault_campaign ------------------------------------------------------------

#: The retryable storm every fault-campaign session runs under.
STORM = "launch=0.1,hang=0.02"


@dataclass(frozen=True)
class FaultTuple:
    device: str
    order: int
    dtype: str
    family: str
    fault_seed: int
    walk_seeds: tuple[int, int]

    @property
    def spec(self) -> str:
        return f"seed={self.fault_seed},{STORM}"


class FaultCampaign(_Workload):
    """Resilient tuning sessions on the scalar executor under a fault storm.

    Twelve (device, order, dtype, family) tuples are drawn by the seed.
    Per tuple and round there are six ops, each one
    ``RobustTuningSession.run``: an exhaustive session writing journal,
    events and archive, then ``snapshot_session`` and ``explain`` over
    those files; ``auto``; the ``model`` tier alone; ``stochastic``
    (budget 30) from two walk seeds; and a crash-resume from a journal
    cut to half its lines.  The mix puts the median in the middle of the
    auto/model cluster and p90 inside the logged sessions (see README.md).
    """

    name = "fault_campaign"
    KINDS = ("logged", "auto", "model", "stoch0", "stoch1", "resume")

    def __init__(self, seed: int, ctx: Context) -> None:
        self.ctx = ctx
        self.rng = _rng(self.name, seed)
        # Stratified draw: every seed gets each device 4 times, each order
        # twice, each dtype 6 times and nvstencil 4 times (each in-plane
        # variant twice); the seed decides how they pair up.  A plain draw
        # let the tuple mix, and with it the medians, move with the seed.
        axes = [
            [d for d in DEVICES for _ in range(4)],
            [o for o in ORDERS for _ in range(2)],
            [t for t in DTYPES for _ in range(6)],
            ["nvstencil"] * 4 + [f for f in INPLANE for _ in range(2)],
        ]
        for axis in axes:
            self.rng.shuffle(axis)
        self.tuples = [
            FaultTuple(
                device=device, order=order, dtype=dtype, family=family,
                fault_seed=self.rng.randrange(1 << 30),
                walk_seeds=(self.rng.randrange(1 << 30), self.rng.randrange(1 << 30)),
            )
            for device, order, dtype, family in zip(*axes)
        ]
        self.ops = [(i, kind) for i in range(len(self.tuples)) for kind in self.KINDS]
        #: tuple index -> {config label: clean rate}, and the clean rejects.
        self.clean: dict[int, dict[str, float]] = {}
        self.rejected: dict[int, set[str]] = {}
        #: tuple index -> the uninterrupted session's (rates, quarantined
        #: count, records in the first half of its journal) ...
        self.uninterrupted: dict[int, tuple[dict[str, float], int, int]] = {}
        #: ... and that first half, which every resume op starts from.
        self.cut_journal: dict[int, str] = {}

    def setup_op(self) -> tuple:
        return (0, "auto")

    def _build(self, t: FaultTuple) -> Any:
        from repro.kernels import factory
        from repro.stencils.spec import symmetric

        spec = symmetric(t.order)

        def build(cfg: Any) -> Any:
            return factory.make_kernel(t.family, spec, cfg, t.dtype)

        return build

    def _paths(self, i: int) -> dict[str, Path]:
        return {
            kind: self.ctx.work / f"fault{i}.{kind}.jsonl"
            for kind in ("journal", "events", "archive", "resume")
        }

    def _clean(self, i: int) -> None:
        from repro.tuning import exhaustive, vectorized

        t = self.tuples[i]
        build = self._build(t)
        evaluator = vectorized.VectorTrialEvaluator(t.device)
        configs = exhaustive.feasible_configs(build, evaluator.device, PAPER_GRID)
        outcomes = evaluator.measure_batch(build, configs, PAPER_GRID)
        self.clean[i] = {
            o.config.label(): o.mpoints_per_s for o in outcomes if o.measured
        }
        self.rejected[i] = {
            o.config.label() for o in outcomes if not o.measured
        }

    def prepare(self) -> None:
        from repro.gpusim.faults import FaultPlan
        from repro.tuning.robust import RobustTuningSession

        for i, t in enumerate(self.tuples):
            self._clean(i)
            journal = self.ctx.work / f"fault{i}.reference.jsonl"
            session = RobustTuningSession(
                t.device, PAPER_GRID, faults=FaultPlan.parse(t.spec),
                journal_path=journal,
            )
            sres = session.run(self._build(t), method="exhaustive")
            lines = journal.read_text().splitlines(keepends=True)
            half = len(lines) // 2
            self.uninterrupted[i] = (
                {e.config.label(): e.mpoints_per_s for e in sres.result.entries},
                sres.result.info.get("quarantined", 0),
                half - 1,  # journal records replayed (line 1 is the header)
            )
            self.cut_journal[i] = "".join(lines[:half])

    def before(self, op: tuple) -> None:
        i, kind = op
        if kind == "resume":
            self._paths(i)["resume"].write_text(self.cut_journal[i])

    def run(self, op: tuple, recorder: Any = None) -> Any:
        from repro.gpusim.faults import FaultPlan
        from repro.obs import archive, explain, live
        from repro.tuning.robust import RobustTuningSession

        i, kind = op
        t = self.tuples[i]
        build = self._build(t)
        faults = FaultPlan.parse(t.spec)
        paths = self._paths(i)
        if kind == "logged":
            session = RobustTuningSession(
                t.device, PAPER_GRID, faults=faults,
                journal_path=paths["journal"], events_path=paths["events"],
                archive_path=paths["archive"],
            )
            sres = session.run(build, method="exhaustive")
            snap = live.snapshot_session(paths["journal"], paths["events"])
            header, records = archive.read_archive(paths["archive"], strict=True)
            return sres, (snap, explain.explain(header, records))
        if kind == "resume":
            session = RobustTuningSession(
                t.device, PAPER_GRID, faults=faults,
                journal_path=paths["resume"], resume=True,
            )
            return session.run(build, method="exhaustive"), None
        session = RobustTuningSession(t.device, PAPER_GRID, faults=faults)
        if kind in ("auto", "model"):
            return session.run(build, method=kind), None
        walk = t.walk_seeds[int(kind[-1])]
        return session.run(build, method="stochastic", budget=30, seed=walk), None

    def check(self, op: tuple, out: Any) -> str | None:
        from repro.obs.archive import validate_archive
        from repro.obs.events import validate_stream

        i, kind = op
        sres, extra = out
        clean, rejected = self.clean[i], self.rejected[i]
        result = sres.result
        quarantined = result.info.get("quarantined", 0)
        rates = {e.config.label(): e.mpoints_per_s for e in result.entries}
        for label, rate in rates.items():
            if rate > 0.0 and rate != clean.get(label):
                return f"{op}: {label} measured {rate!r}, clean {clean.get(label)!r}"
        zeros = {label for label, rate in rates.items() if rate == 0.0}
        if result.method == "stochastic":
            # The walk lists what it could not measure at 0.0: exactly the
            # clean engine's rejects, plus configs quarantined by the storm.
            if not (rejected & set(rates)) <= zeros:
                return f"{op}: a clean-rejected config got a positive rate"
            if len(zeros - rejected) != quarantined:
                return f"{op}: 0.0 entries {sorted(zeros - rejected)} not quarantined"
        elif zeros:
            return f"{op}: {result.method} listed an unlaunchable config"
        if kind in ("logged", "resume") and len(rates) + quarantined != len(clean):
            return f"{op}: {len(rates)} measured + {quarantined} quarantined != {len(clean)}"
        if kind == "resume":
            reference, ref_quarantined, replay = self.uninterrupted[i]
            # Quarantine depends on how launches line up with the fault
            # stream, which a resume shifts; only then may the sets differ.
            if rates != reference and not (quarantined or ref_quarantined):
                return f"{op}: resumed result differs from the uninterrupted one"
            if sres.stats.get("replayed") != replay:
                return f"{op}: replayed {sres.stats.get('replayed')} != {replay}"
        if kind == "logged":
            paths = self._paths(i)
            try:
                validate_stream(paths["events"])
                validate_archive(paths["archive"])
            except ValueError as exc:
                return f"{op}: written files fail validation: {exc}"
            snap, report = extra
            if snap.crashed or report.winner is None or (
                report.winner.label != result.best_config.label()
            ):
                return f"{op}: snapshot/explain disagree with the session"
        return None

    def work(self, op: tuple, out: Any) -> dict[str, float]:
        i, kind = op
        sres, _extra = out
        result = sres.result
        counts: dict[str, float] = {
            "configs": result.evaluated if kind.startswith("stoch") else result.space_size,
            "retries": sres.stats.get("retries", 0),
            "quarantined": sres.stats.get("quarantined_configs", 0),
            "replayed": sres.stats.get("replayed", 0),
        }
        paths = self._paths(i)
        if kind == "logged":
            counts["journal_bytes"] = _file_size(paths["journal"])
            counts["events_bytes"] = _file_size(paths["events"])
            counts["archive_bytes"] = _file_size(paths["archive"])
        elif kind == "resume":
            counts["journal_bytes"] = _file_size(paths["resume"])
        return counts


# -- cli_oneshot ---------------------------------------------------------------

#: One fresh ``python -m repro.cli`` process per op.  Grids are trimmed
#: where the default would make one command dominate the round.
CLI_COMMANDS: dict[str, list[str]] = {
    "list-devices": ["list-devices"],
    "simulate": ["simulate", "--order", "4", "--block", "32,4,1,4"],
    "tune-json": ["tune", "--json", "--order", "4", "--grid", "512,512,64"],
    "tune-model": ["tune", "--method", "model", "--order", "8", "--grid", "512,512,64"],
    "tune-nvstencil": [
        "tune", "--kernel", "nvstencil", "--no-register-blocking",
        "--order", "2", "--grid", "512,512,64",
    ],
    "lint": ["lint", "--order", "4", "--block", "32,4,1,4"],
    "codegen": ["codegen", "--backend", "all", "--order", "4", "--block", "32,4,1,4"],
    "estimate": ["estimate", "--order", "4", "--block", "32,4,1,4"],
    "estimate-reconcile": ["estimate", "--reconcile", "--baseline", "BENCH_profile.json"],
    "bench-diff": ["bench", "diff", "--baseline", "BENCH_profile.json"],
    "cluster-run": [
        "cluster", "run", "--json", "--max-retries", "6",
        "--faults", "seed=7,corrupt=0.05,dropout=0.05,degrade=0.1",
    ],
    "profile": ["profile", "--json", "--order", "4", "--grid", "128,128,64"],
    # A logged storm session, what a CLI user of the fault features pays.
    # Two heavy commands of thirteen put p90 inside the heavy group rather
    # than on its edge (see README.md).
    "tune-logged": [
        "tune", "--faults", "seed=7,launch=0.1,hang=0.02",
        "--journal", "{work}/tune.journal", "--events", "{work}/tune.events",
        "--archive", "{work}/tune.archive",
    ],
}


def cli_argv(op: str, work: Path | None = None) -> list[str]:
    """The command line of one CLI op (or ``--version``); ``{work}`` in an
    argument becomes the scratch directory."""
    if op == "--version":
        args = ["--version"]
    else:
        args = ["-q", *(a.replace("{work}", str(work)) for a in CLI_COMMANDS[op])]
    return [sys.executable, "-m", "repro.cli", *args]


class CliOneshot(_Workload):
    """Fresh CLI processes: interpreter start, import, one command, exit.

    Runs from the checkout root, where the CLI finds
    ``BENCH_profile.json``.  ``setup_s`` here is ``repro --version``.
    """

    name = "cli_oneshot"

    def __init__(self, seed: int, ctx: Context) -> None:
        self.ctx = ctx
        self.rng = _rng(self.name, seed)
        self.ops = list(CLI_COMMANDS)
        self.golden: dict[str, list] = {}

    def setup_op(self) -> str:
        return "--version"

    def prepare(self) -> None:
        self.golden = self.ctx.golden()[self.name]

    def run(self, op: str, recorder: Any = None) -> Any:
        argv = cli_argv(op, self.ctx.work)
        span_file = None
        if recorder is not None:
            span_file = self.ctx.work / "cli_spans.json"
            argv = [
                sys.executable, str(self.ctx.root / "bench" / "cli_child.py"),
                str(span_file), *argv[3:],
            ]
        start = time.perf_counter_ns()
        proc = subprocess.run(
            argv, cwd=self.ctx.root, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, timeout=120,
        )
        end = time.perf_counter_ns()
        if recorder is not None:
            _merge_child_spans(recorder, span_file, start, end)
        return proc.returncode, hashlib.sha256(proc.stdout).hexdigest(), proc.stderr

    def check(self, op: str, out: Any) -> str | None:
        code, digest, stderr = out
        expected = self.golden.get(op)
        if [code, digest] != expected:
            tail = stderr.decode(errors="replace").strip().splitlines()[-1:]
            return f"{op}: exit {code} sha256 {digest[:12]} != golden {expected} {tail}"
        return None

    def work(self, op: str, out: Any) -> dict[str, float]:
        return {}

    def write_golden(self) -> dict[str, list]:
        table = {}
        for op in self.ops:
            code, digest, _ = self.run(op)
            table[op] = [code, digest]
        return table


def _merge_child_spans(recorder: Any, path: Path, start: int, end: int) -> None:
    """Adopt a traced CLI child's spans under the current op span.

    The child cannot time its own interpreter start-up and tear-down; the
    gaps between this process's spawn/wait and the child's first/last
    timestamps become ``cli.process`` spans.
    """
    data = json.loads(path.read_text())
    root = recorder.stack[-1]
    recorder.add("cli.process", start, data["t_start"], root)
    base = len(recorder.spans)
    for name, s, e, parent, _op, error in data["spans"]:
        recorder.add(name, s, e, root if parent < 0 else base + parent, error)
    recorder.add("cli.process", data["t_end"], end, root)


# -- cluster_campaign ----------------------------------------------------------

CLUSTER_SHAPE = (64, 256, 256)  # (LZ, LY, LX): 16 MiB of float32
CLUSTER_GPUS = 4
CLUSTER_STEPS = 4
CLUSTER_STORM = "corrupt=0.05,dropout=0.02,degrade=0.1"


@dataclass(frozen=True)
class ClusterInput:
    ic_seed: int
    fault_seed: int

    @property
    def spec(self) -> str:
        return f"seed={self.fault_seed},{CLUSTER_STORM}"


class ClusterCampaign(_Workload):
    """Resilient 4-GPU stepping campaigns with checkpoints.

    Six inputs (initial condition, fault seed) are drawn by the seed; per
    input and round there are two full campaigns and one resume from the
    step-2 checkpoint.  Resumes are a third of the ops, not a half, so the
    median falls inside the full-campaign cluster (see README.md).
    """

    name = "cluster_campaign"
    calibration = "python+numpy"
    INPUTS = 6
    KINDS = ("full0", "full1", "resume")

    def __init__(self, seed: int, ctx: Context) -> None:
        self.ctx = ctx
        self.rng = _rng(self.name, seed)
        self.inputs = [
            ClusterInput(self.rng.randrange(1 << 30), self.rng.randrange(1 << 30))
            for _ in range(self.INPUTS)
        ]
        self.ops = [(i, kind) for i in range(self.INPUTS) for kind in self.KINDS]
        #: input index -> (reference digest, single-grid seconds).
        self.reference: dict[int, tuple[str, float]] = {}
        #: input index -> exchange retries carried by the step-2 checkpoint.
        self.carried: dict[int, int] = {}
        self._grid: Any = None

    def setup_op(self) -> tuple:
        return (0, "full0")

    def _engine(self, inp: ClusterInput) -> Any:
        from repro.cluster import ClusterPolicy, MultiGpuStencil, ResilientClusterStencil

        return ResilientClusterStencil(
            MultiGpuStencil(self._plan, "gtx580"),
            policy=ClusterPolicy(max_exchange_retries=6, seed=inp.fault_seed),
        )

    @staticmethod
    def _plan() -> Any:
        from repro.kernels import factory
        from repro.kernels.config import BlockConfig
        from repro.stencils.spec import symmetric

        return factory.make_kernel(
            "inplane_fullslice", symmetric(4), BlockConfig(32, 4, 1, 2), "sp"
        )

    def _initial(self, inp: ClusterInput) -> Any:
        import numpy as np

        return np.random.default_rng(inp.ic_seed).random(CLUSTER_SHAPE)

    def _ckpt(self, i: int, kind: str) -> Path:
        return self.ctx.work / f"cluster{i}.{kind}.ckpt"

    def prepare(self) -> None:
        import numpy as np

        from repro.cluster.checkpoint import grid_digest
        from repro.gpusim.faults import ClusterFaultPlan

        for i, inp in enumerate(self.inputs):
            grid = self._initial(inp)
            plan = self._plan()
            start = time.perf_counter()
            ref = np.asarray(grid, dtype=plan.dtype)
            for _ in range(CLUSTER_STEPS):
                ref = plan.execute(ref)
            self.reference[i] = (grid_digest(ref), time.perf_counter() - start)
            half = self._engine(inp).run_campaign(
                grid, CLUSTER_GPUS, 2, faults=ClusterFaultPlan.parse(inp.spec),
                checkpoint_path=self._ckpt(i, "step2"), checkpoint_every=2,
            )
            self.carried[i] = half.exchange_retries

    def before(self, op: tuple) -> None:
        i, kind = op
        self._grid = self._initial(self.inputs[i])
        if kind == "resume":
            shutil.copyfile(self._ckpt(i, "step2"), self._ckpt(i, "op"))

    def run(self, op: tuple, recorder: Any = None) -> Any:
        from repro.gpusim.faults import ClusterFaultPlan

        i, kind = op
        inp = self.inputs[i]
        return self._engine(inp).run_campaign(
            self._grid, CLUSTER_GPUS, CLUSTER_STEPS,
            faults=ClusterFaultPlan.parse(inp.spec),
            checkpoint_path=self._ckpt(i, "op"), checkpoint_every=2,
            resume=kind == "resume",
        )

    def check(self, op: tuple, out: Any) -> str | None:
        i, kind = op
        if out.digest() != self.reference[i][0]:
            return f"{op}: final grid differs from the single-grid reference"
        if (kind == "resume") != (out.resumed_from == 2):
            return f"{op}: resumed from step {out.resumed_from}"
        return None

    def work(self, op: tuple, out: Any) -> dict[str, float]:
        i, kind = op
        lz, ly, lx = CLUSTER_SHAPE
        retries = out.exchange_retries - (self.carried[i] if kind == "resume" else 0)
        return {
            "points": lx * ly * lz * (out.steps - out.resumed_from),
            "exchange_retries": retries,
            "redecompositions": len(out.points) - 1,
            "checkpoint_bytes": _file_size(self._ckpt(i, "op")),
            "reference_s": self.reference[i][1] if kind != "resume" else 0.0,
        }


WORKLOADS = {
    cls.name: cls
    for cls in (PaperSweep, FaultCampaign, CliOneshot, ClusterCampaign)
}


def write_golden(root: Path, work: Path) -> Path:
    """Regenerate ``bench/golden.json`` from the current tree."""
    ctx = Context(root=root, work=work)
    table = {
        "paper_sweep": PaperSweep(0, ctx).write_golden(),
        "cli_oneshot": CliOneshot(0, ctx).write_golden(),
    }
    ctx.golden_path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return ctx.golden_path


def child_env(root: Path, work: Path) -> dict[str, str]:
    """Environment of every process the benchmark starts."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(
        PYTHONPATH=str(root / "src"),
        PYTHONHASHSEED="0",
        PYTHONPYCACHEPREFIX=str(work.parent / "pycache"),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        NUMEXPR_NUM_THREADS="1",
    )
    return env
