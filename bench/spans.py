"""A small span recorder for the traced benchmark run.

The benchmark measures the program from the outside, so it does not use
``repro.obs.tracer``: code under test must not be able to change how it
is measured.  Instead :class:`Patcher` replaces the public callables of
each layer with thin wrappers where they are looked up:

* methods on the class that defines them; every ``KernelPlan`` subclass
  that overrides ``block_workload`` / ``grid_workload`` / ``execute``
  gets its own wrapper;
* functions in their defining module *and* in every ``repro`` module that
  imported them by name (``from repro.cluster.decompose import
  exchange_halos`` binds a second reference that must be patched too).

Modules loaded while a patcher is installed are patched as they load, so
the lazy imports inside ``repro.cli`` are covered.  A wrapper opens a span
only when it is not already inside a span of the same name (a subclass
calling ``super()``, ``generate_backend`` calling ``generate_kernel``),
so each call is counted once.

Spans live in memory as ``[name, start_ns, end_ns, parent, op, error]``
and are written at the end as Chrome trace-event JSON.  All times come
from ``time.perf_counter_ns``, which on Linux reads ``CLOCK_MONOTONIC``
and is therefore comparable across the benchmark's processes.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import sys
import time
from typing import Any, Callable

#: span name -> "module:qualname" targets.  The part of the name before
#: the last dot is the layer, a module path under ``repro``.
TARGETS: dict[str, tuple[str, ...]] = {
    "cli.main": ("repro.cli:main",),
    "tuning.space.feasible": ("repro.tuning.space:ParameterSpace.feasible",),
    "kernels.make_kernel": ("repro.kernels.factory:make_kernel",),
    "gpusim.batch.blockclass": ("repro.gpusim.batch:BlockClass.of",),
    "gpusim.batch.scores": ("repro.gpusim.batch:BatchEngine.scores",),
    "gpusim.batch.outcomes": ("repro.gpusim.batch:BatchEngine.outcomes",),
    "gpusim.executor.run": ("repro.gpusim.executor:DeviceExecutor.run",),
    "tuning.perfmodel.predict_batch": (
        "repro.tuning.perfmodel:PaperModel.predict_batch",
    ),
    "tuning.exhaustive.self": ("repro.tuning.exhaustive:exhaustive_tune",),
    "tuning.modelbased.self": ("repro.tuning.modelbased:model_based_tune",),
    "tuning.stochastic.self": ("repro.tuning.stochastic:stochastic_tune",),
    "tuning.robust.session": (
        "repro.tuning.robust:RobustTuningSession.__init__",
        "repro.tuning.robust:RobustTuningSession.run",
    ),
    "tuning.robust.measure": ("repro.tuning.robust:ResilientEvaluator.measure",),
    "tuning.robust.journal_record": ("repro.tuning.robust:TrialJournal.record",),
    "obs.archive.derive": ("repro.obs.archive:derive_record",),
    "obs.archive.read": ("repro.obs.archive:read_archive",),
    "obs.events.write": ("repro.obs.events:JsonlEventSink.write",),
    "obs.live.snapshot": ("repro.obs.live:snapshot_session",),
    "obs.explain.explain": ("repro.obs.explain:explain",),
    "obs.regress.diff": ("repro.obs.regress:diff_baseline",),
    "analysis.planir.lower": ("repro.analysis.planir:lower_plan",),
    "analysis.estimate.reconcile": ("repro.analysis.estimate:reconcile_profile",),
    "analysis.srcverify.verify": ("repro.analysis.srcverify:verify_emitted",),
    "codegen.generate": (
        "repro.codegen.cuda:generate_kernel",
        "repro.codegen.opencl:generate_opencl_kernel",
        "repro.codegen.hip:generate_hip_kernel",
        "repro.codegen.manifest:generate_backend",
    ),
    "cluster.campaign": (
        "repro.cluster.resilient:ResilientClusterStencil.run_campaign",
    ),
    "cluster.exchange": ("repro.cluster.decompose:exchange_halos",),
    "cluster.validate": ("repro.cluster.decompose:validate_halos",),
    "cluster.split_merge": (
        "repro.cluster.decompose:split_grid",
        "repro.cluster.decompose:merge_slabs",
    ),
    "cluster.checkpoint_save": ("repro.cluster.checkpoint:save_checkpoint",),
    "cluster.checkpoint_load": ("repro.cluster.checkpoint:load_checkpoint",),
    "cluster.step_cost": ("repro.cluster.multigpu:MultiGpuStencil.step_cost",),
}


def _by_module() -> dict[str, list[tuple[str, str]]]:
    index: dict[str, list[tuple[str, str]]] = {}
    for name, targets in TARGETS.items():
        for target in targets:
            module, qualname = target.split(":")
            index.setdefault(module, []).append((qualname, name))
    return index


#: module -> [(qualname, span name)], the index :class:`Patcher` looks up.
_BY_MODULE = _by_module()

#: Methods wrapped on every ``KernelPlan`` subclass that defines them.
PLAN_METHODS = {
    "block_workload": "kernels.block_workload",
    "grid_workload": "kernels.grid_workload",
    "execute": "kernels.execute",
}

#: The root span of one benchmark op; its self time is what no layer covers.
OP_SPAN = "bench.op"

NAME, START, END, PARENT, OP, ERROR = range(6)


class Recorder:
    """In-memory spans of one process.

    Wrappers record only while :attr:`active` is set, so a traced run can
    alternate traced and untraced ops without reinstalling anything.
    """

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.stack: list[int] = []
        self.op: int | None = None
        self.active = False

    def open(self, name: str, start: int | None = None) -> int:
        parent = self.stack[-1] if self.stack else -1
        if start is None:
            start = time.perf_counter_ns()
        self.spans.append([name, start, 0, parent, self.op, None])
        self.stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int, end: int | None = None) -> None:
        self.spans[index][END] = time.perf_counter_ns() if end is None else end
        if self.stack.pop() != index:
            raise RuntimeError(f"span {index} closed out of order")

    def add(
        self, name: str, start: int, end: int, parent: int,
        error: str | None = None,
    ) -> int:
        """Append a finished span measured elsewhere (a child process)."""
        self.spans.append([name, start, end, parent, self.op, error])
        return len(self.spans) - 1

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.active or (stack and spans[stack[-1]][NAME] == name):
                return fn(*args, **kwargs)
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                spans[index][ERROR] = type(exc).__name__
                raise
            finally:
                self.close(index)

        traced.__bench_wrapped__ = fn  # type: ignore[attr-defined]
        return traced


def self_times(spans: list[list[Any]]) -> list[int]:
    """Each span's duration minus the part its direct children cover.

    Children of one parent never overlap (one thread, closed loop), so the
    covered part is the sum of their durations.
    """
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_table(spans: list[list[Any]]) -> dict[str, dict[str, float]]:
    """Per span name: outermost calls, errors, total and self time in ms."""
    table: dict[str, dict[str, float]] = {}
    for s, own in zip(spans, self_times(spans)):
        row = table.setdefault(
            s[NAME], {"calls": 0, "errors": 0, "total_ms": 0.0, "self_ms": 0.0}
        )
        row["calls"] += 1
        row["errors"] += s[ERROR] is not None
        row["total_ms"] += (s[END] - s[START]) / 1e6
        row["self_ms"] += own / 1e6
    return table


def chrome_trace(spans: list[list[Any]]) -> dict[str, Any]:
    """Chrome trace-event JSON: one complete (``X``) event per span."""
    t0 = min((s[START] for s in spans), default=0)
    events = []
    for i, s in enumerate(spans):
        args: dict[str, Any] = {"id": i, "parent": s[PARENT], "op": s[OP]}
        if s[ERROR] is not None:
            args["error"] = s[ERROR]
        events.append({
            "name": s[NAME], "cat": s[NAME].rsplit(".", 1)[0], "ph": "X",
            "ts": (s[START] - t0) / 1e3, "dur": (s[END] - s[START]) / 1e3,
            "pid": 1, "tid": 1, "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# -- patching ------------------------------------------------------------------


def _is_repro(name: str) -> bool:
    return name == "repro" or name.startswith("repro.")


class Patcher:
    """Installs and removes the span wrappers of :data:`TARGETS`."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._sites: list[tuple[Any, str, Any]] = []  # (owner, attr, original)
        self._wrappers: dict[int, Callable[..., Any]] = {}  # id(original) ->
        self._hook: _PostImportHook | None = None

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if _is_repro(n)]
        for module in modules:
            self._patch_targets(module)
        self._patch_plans(None)
        for module in modules:
            self._rebind(module)
        self._hook = _PostImportHook(self._on_import)
        sys.meta_path.insert(0, self._hook)

    def uninstall(self) -> None:
        if self._hook is not None:
            sys.meta_path.remove(self._hook)
            self._hook = None
        for owner, attr, original in reversed(self._sites):
            setattr(owner, attr, original)
        self._sites.clear()
        self._wrappers.clear()

    def _on_import(self, module: Any) -> None:
        self._patch_targets(module)
        self._patch_plans(module.__name__)
        self._rebind(module)

    def _set(self, owner: Any, attr: str, name: str) -> None:
        raw = vars(owner)[attr]
        descriptor = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if descriptor else raw
        if hasattr(fn, "__bench_wrapped__"):
            return
        wrapper = self._wrappers.get(id(fn))
        if wrapper is None:
            wrapper = self._wrappers[id(fn)] = self.recorder.wrap(name, fn)
        self._sites.append((owner, attr, raw))
        setattr(owner, attr, descriptor(wrapper) if descriptor else wrapper)

    def _patch_targets(self, module: Any) -> None:
        for qualname, name in _BY_MODULE.get(module.__name__, ()):
            owner = module
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            # A target the program no longer has just records nothing (its
            # metric reads 0), so refactors do not break the traced run.
            if owner is not None and attr in vars(owner):
                self._set(owner, attr, name)

    def _patch_plans(self, mod_name: str | None) -> None:
        """Wrap plan methods on loaded ``KernelPlan`` subclasses (of one
        module, or all of them)."""
        # Absent, or still executing while the modules it imports load.
        plan = getattr(sys.modules.get("repro.kernels.base"), "KernelPlan", None)
        if plan is None:
            return
        todo = [plan]
        while todo:
            cls = todo.pop()
            todo.extend(cls.__subclasses__())
            if mod_name is not None and cls.__module__ != mod_name:
                continue
            for method, name in PLAN_METHODS.items():
                raw = cls.__dict__.get(method)
                if raw is not None and not getattr(raw, "__isabstractmethod__", False):
                    self._set(cls, method, name)

    def _rebind(self, module: Any) -> None:
        """Point by-name imports of wrapped functions at their wrappers."""
        for attr, value in list(vars(module).items()):
            wrapper = self._wrappers.get(id(value))
            if wrapper is not None and value is not wrapper:
                self._sites.append((module, attr, value))
                setattr(module, attr, wrapper)


class _PostImportHook(importlib.abc.MetaPathFinder):
    """Patches each ``repro`` module right after it executes."""

    def __init__(self, patch: Callable[[Any], None]) -> None:
        self.patch = patch

    def find_spec(self, fullname: str, path: Any, target: Any = None) -> Any:
        if not fullname.startswith("repro."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path, target)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module
        patch = self.patch

        def exec_and_patch(module: Any) -> None:
            exec_module(module)
            patch(module)

        spec.loader.exec_module = exec_and_patch  # type: ignore[method-assign]
        return spec
