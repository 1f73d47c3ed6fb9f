"""Command-line interface.

Usage::

    repro list-devices
    repro list-kernels
    repro simulate --kernel inplane_fullslice --order 4 --device gtx580 \
                   --block 32,4,1,4 [--dtype dp] [--grid 512,512,256] \
                   [--trace trace.json]
    repro tune --kernel inplane_fullslice --order 2 --device gtx680 \
               [--method model --beta 0.05] [--no-register-blocking] \
               [--trace trace.json]
    repro tune --method auto --faults 'seed=7,launch=0.1,hang=0.02' \
               --journal tune.journal [--resume] [--retries 3] \
               [--watchdog 1e9] [--budget 30] [--seed 0] \
               [--events tune.events] [--metrics-out tune.prom]
    repro top --journal tune.journal [--events tune.events] \
              [--json] [--once] [--interval 1.0]
    repro profile --kernel inplane_fullslice --order 4 --device gtx580 \
                  [--trace-out trace.json] [--json] [--top 8]
    repro profile --compare --order 4 --block 32,4,1,2
    repro bench diff --baseline BENCH_profile.json [--tolerance 0.0] [--json]
    repro experiment fig7 [--out fig7.csv]
    repro experiment all --out-dir results/
    repro codegen --kernel inplane_fullslice --order 4 --block 32,4,1,4 \
                  [--out kernel.cu] [--driver]
    repro scaling --gpus 1,2,4,8 [--weak] [--order 2] [--device gtx580]
    repro cluster run --gpus 4 --steps 8 \
                      [--faults 'seed=7,corrupt=0.2,dropout=0.05'] \
                      [--checkpoint grid.ckpt --every 2] [--resume] \
                      [--events cluster.events] [--json]
    repro lint --kernel inplane_fullslice --order 4 --block 32,4,1,4 \
               [--device gtx580] [--grid 512,512,256] [--json] \
               [--suppress RULE] [--tile-stride SX,SY]
    repro lint --stencil-file heat.stencil

``repro experiment`` regenerates any table/figure of the paper by name
(table1, table2, table3, table4, fig7, fig8, fig9, fig10, fig11, fig12,
crossover); ``repro codegen`` emits the CUDA C for a kernel plan;
``repro scaling`` runs the multi-GPU slab-decomposition cost model;
``repro lint`` runs the static analyzer (``repro.analysis``) over a plan
or a DSL program without executing anything, exiting 1 when any
error-level diagnostic fires; ``repro profile`` runs the simulated-GPU
profiler (``repro.obs``) and can export Perfetto-viewable Chrome traces
(exit 1 when the timeline fails reconciliation); ``repro bench diff``
resimulates a recorded ``BENCH_profile.json`` trajectory against the
current tree and exits nonzero on regressions, naming the counter that
moved.

Every ``repro tune`` runs one tuning session
(:mod:`repro.tuning.robust`); ``--faults``, ``--journal``/``--resume``,
``--retries``, ``--watchdog`` or a ``stochastic``/``auto`` method engage
its retries, quarantine and crash-safe journal, and add ``session`` and
``stats`` to the ``--json`` result.  Its exit codes are stable: 0
success, 1 tuning failed (every tier exhausted or all configs
quarantined), 2 bad ``--faults`` spec or unusable journal (missing,
corrupt, or from a different session).
``--events`` streams the session's structured events
(:mod:`repro.obs.events`) to a JSONL file, and ``repro top`` follows
that stream plus the journal live (or ``--json`` for scripts; exit 1
when the watched session crashed).  ``--metrics-out`` on ``tune`` and ``profile`` exports the
run's metrics registry in Prometheus text exposition (``.prom`` /
``.txt``) or OTLP-style JSON (:mod:`repro.obs.export`).

``repro cluster run`` steps a fault-tolerant multi-GPU campaign
(:mod:`repro.cluster.resilient`): deterministic link corruption is
retried with backoff, dead GPUs are quarantined with the grid
re-decomposed over survivors, and ``--checkpoint``/``--resume`` make
the campaign crash-safe (a killed-and-resumed run is bit-identical to
an uninterrupted one; the printed grid digest is the witness).  Exit
codes are stable: 0 success, 1 unrecoverable fleet, 2 bad ``--faults``
spec or unusable checkpoint.

Output conventions: primary and machine-readable results go to stdout
(``--json`` modes stay pipe-clean); diagnostics ("wrote ...", progress)
go through :mod:`logging` to stderr, at a verbosity set by ``-v`` / ``-q``.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from repro import __version__
from repro.gpusim.device import get_device, list_devices
from repro.gpusim.executor import simulate
from repro.kernels.config import BlockConfig
from repro.kernels.factory import KERNEL_FAMILIES, make_kernel
from repro.stencils.spec import symmetric

log = logging.getLogger("repro")


def _setup_logging(verbosity: int) -> None:
    """stderr diagnostics at WARNING/INFO/DEBUG per -q/-v count."""
    level = (
        logging.ERROR if verbosity < 0
        else logging.INFO if verbosity == 0
        else logging.DEBUG
    )
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    root = logging.getLogger("repro")
    root.handlers[:] = [handler]
    root.setLevel(level)


def _parse_ints(text: str, n: int | None = None) -> tuple[int, ...]:
    parts = tuple(int(p) for p in text.split(","))
    if n is not None and len(parts) != n:
        raise argparse.ArgumentTypeError(f"expected {n} comma-separated ints")
    return parts


def _cmd_list_devices(_args: argparse.Namespace) -> int:
    for name in list_devices():
        dev = get_device(name)
        print(
            f"{name:8s} {dev.display_name:18s} {dev.sm_count:3d} SMs  "
            f"{dev.peak_sp_gflops:7.0f} SP GFlop/s  "
            f"{dev.measured_bandwidth_gbs:6.1f} GB/s measured"
        )
    return 0


def _cmd_list_kernels(_args: argparse.Namespace) -> int:
    for name in sorted(KERNEL_FAMILIES):
        print(name)
    return 0


def _maybe_tracing(args: argparse.Namespace):
    """An active tracer context when ``--trace`` (or ``--metrics-out``,
    which needs a live metrics registry) was given, inert otherwise."""
    from contextlib import nullcontext

    from repro.obs import tracing

    if getattr(args, "trace", None) or getattr(args, "metrics_out", None):
        return tracing()
    return nullcontext(None)


def _maybe_events(args: argparse.Namespace):
    """An installed JSONL event sink when ``--events`` was given.

    Used by ``cluster run``; a tune's session wires its own sink (tee'd
    with the flight recorder) from ``events_path``.
    """
    from contextlib import nullcontext

    path = getattr(args, "events", None)
    if not path:
        return nullcontext(None)

    from repro.obs.events import JsonlEventSink, event_stream

    return event_stream(JsonlEventSink(path))


def _finish_trace(tracer, path: str | None) -> None:
    """Write the Chrome trace (if requested) and log where it went."""
    if tracer is None or not path:
        return
    from repro.obs import write_chrome_trace

    write_chrome_trace(tracer, path)
    log.info("wrote trace %s (open in https://ui.perfetto.dev)", path)


def _finish_metrics(tracer, path: str | None) -> None:
    """Export the tracer's metrics registry (if requested) and log it."""
    if tracer is None or not path:
        return
    from repro.obs.export import write_metrics

    out = Path(path)
    fmt = "prometheus" if out.suffix in (".prom", ".txt") else "otlp-json"
    write_metrics(tracer.metrics, out)
    log.info("wrote metrics %s (%s)", out, fmt)


def _cmd_simulate(args: argparse.Namespace) -> int:
    block = BlockConfig(*_parse_ints(args.block))
    plan = make_kernel(args.kernel, symmetric(args.order), block, args.dtype)
    with _maybe_tracing(args) as tracer:
        report = simulate(plan, args.device, _parse_ints(args.grid, 3))
    print(report.summary())
    for key, value in sorted(report.breakdown.items()):
        print(f"  {key}: {value:.1f}")
    _finish_trace(tracer, args.trace)
    return 0


# Stable ``repro tune`` exit codes (documented in docs/ROBUSTNESS.md and
# pinned by tests/test_tuning_robust.py): 0 success, 1 tuning failed
# (every tier exhausted / all trials quarantined), 2 journal unusable
# (missing, unreadable, or bound to a different session) or bad spec.
EXIT_TUNE_OK = 0
EXIT_TUNE_FAILED = 1
EXIT_TUNE_JOURNAL = 2


def _print_tune_entries(result) -> None:
    for entry in result.entries[:10]:
        line = f"  {entry.config.label():>18} {entry.mpoints_per_s:10.1f} MPt/s"
        if entry.predicted is not None:
            line += f"  (model: {entry.predicted:10.1f})"
        print(line)


def _cmd_tune(args: argparse.Namespace) -> int:
    from repro.errors import ConfigurationError, JournalError, TuningError
    from repro.gpusim.faults import FaultPlan
    from repro.tuning.robust import RetryPolicy, RobustTuningSession
    from repro.tuning.space import THREAD_ONLY_SPACE

    grid = _parse_ints(args.grid, 3)
    device = get_device(args.device)
    spec = symmetric(args.order)

    def build(cfg: BlockConfig):
        return make_kernel(args.kernel, spec, cfg, args.dtype)

    space = THREAD_ONLY_SPACE if args.no_register_blocking else None
    try:
        faults = FaultPlan.parse(args.faults) if args.faults else None
    except ConfigurationError as exc:
        log.error("bad --faults spec: %s", exc)
        return EXIT_TUNE_JOURNAL
    session_key = (
        f"{args.kernel}:o{args.order}:{args.dtype}:"
        + RobustTuningSession.default_session_key(device, grid, faults)
    )
    retries = 3 if args.retries is None else args.retries
    try:
        session = RobustTuningSession(
            device, grid,
            faults=faults,
            policy=RetryPolicy(max_retries=retries),
            journal_path=args.journal,
            resume=args.resume,
            session_key=session_key,
            watchdog_cycles=args.watchdog,
            events_path=args.events,
            archive_path=args.archive,
        )
        with _maybe_tracing(args) as tracer:
            sres = session.run(
                build, method=args.method, space=space, beta=args.beta,
                budget=args.budget, seed=args.seed,
            )
    except JournalError as exc:
        log.error("journal error: %s", exc)
        return EXIT_TUNE_JOURNAL
    except TuningError as exc:
        log.error("tuning failed: %s", exc)
        return EXIT_TUNE_FAILED
    stats = sres.stats
    if args.json:
        import json

        obj = sres.result.to_json_obj()
        # A plain tune (no robustness option) keeps the bare result shape.
        if (
            args.faults or args.journal or args.resume
            or args.retries is not None or args.watchdog is not None
            or args.method in ("stochastic", "auto")
        ):
            obj["session"] = session_key
            obj["stats"] = dict(sorted(stats.items()))
        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
        print(sres.summary())
        _print_tune_entries(sres.result)
    log.info(
        "trials: %d live, %d replayed, %d retries, %d quarantined",
        stats.get("live_trials", 0), stats.get("replayed", 0),
        stats.get("retries", 0), stats.get("quarantined_configs", 0),
    )
    _finish_trace(tracer, args.trace)
    _finish_metrics(tracer, args.metrics_out)
    return EXIT_TUNE_OK


def _cmd_explain(args: argparse.Namespace) -> int:
    import json

    from repro.obs.archive import ArchiveError, read_archive
    from repro.obs.explain import (
        calibration_registry,
        dump_landscape,
        explain,
    )

    try:
        header, records = read_archive(args.archive, strict=True)
    except ArchiveError as exc:
        log.error("unusable archive: %s", exc)
        return EXIT_TUNE_JOURNAL
    report = explain(header, records, top=args.top)
    if args.json:
        print(json.dumps(report.to_json_obj(), indent=2, sort_keys=True))
    else:
        print(report.render())
    if args.landscape_out:
        names = dump_landscape(records, args.landscape_out)
        log.info(
            "wrote %d landscape file(s) to %s", len(names), args.landscape_out
        )
    if args.metrics_out:
        from repro.obs.export import write_metrics

        write_metrics(
            calibration_registry(report.calibration), Path(args.metrics_out)
        )
        log.info("wrote calibration metrics %s", args.metrics_out)
    return EXIT_TUNE_OK


_EXPERIMENTS = {
    "table1": "table1_specs",
    "table2": "table2_opcounts",
    "table3": "table3_devices",
    "table4": "table4_autotune",
    "fig7": "fig7_variants",
    "fig8": "fig8_surface",
    "fig9": "fig9_load_efficiency",
    "fig10": "fig10_breakdown",
    "fig11": "fig11_applications",
    "fig12": "fig12_modelbased",
    "crossover": "high_order_crossover",
}


def _cmd_experiment(args: argparse.Namespace) -> int:
    import repro.harness as harness
    from repro.harness.export import write_result

    names = list(_EXPERIMENTS) if args.name == "all" else [args.name]
    for name in names:
        func = getattr(harness, _EXPERIMENTS[name])
        result = func()
        if args.out and args.name != "all":
            path = write_result(result, args.out)
            log.info("wrote %s", path)
        elif args.out_dir:
            out = Path(args.out_dir)
            out.mkdir(parents=True, exist_ok=True)
            path = write_result(result, out / f"{name}.txt")
            log.info("wrote %s", path)
        else:
            print(result.render())
            print()
    return 0


def _cmd_codegen(args: argparse.Namespace) -> int:
    from repro.codegen import generate_host_driver, generate_kernel
    from repro.codegen.manifest import BACKENDS, generate_backend
    from repro.errors import UnsupportedPlanError

    block = BlockConfig(*_parse_ints(args.block))
    plan = make_kernel(args.kernel, symmetric(args.order), block, args.dtype)
    backends = BACKENDS if args.backend == "all" else (args.backend,)
    for backend in backends:
        try:
            if backend == "cuda":
                src = generate_kernel(plan, grid_shape=_parse_ints(args.grid, 3))
            else:
                src = generate_backend(plan, backend)
        except UnsupportedPlanError as exc:
            log.error("cannot generate code: %s", exc)
            return 1
        text = src.text
        if args.driver and backend == "cuda":
            text += "\n" + generate_host_driver(plan, _parse_ints(args.grid, 3))
        if args.out:
            out = args.out if len(backends) == 1 else f"{args.out}.{backend}"
            Path(out).write_text(text)
            log.info("wrote %s (%d kernel lines)", out, src.line_count())
        else:
            print(text)
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """Static analysis of a kernel plan or DSL program (no execution)."""
    from repro.analysis import analyze_plan, analyze_source
    from repro.analysis.diagnostics import AnalysisReport
    from repro.analysis.dsl import diagnostic_from_error
    from repro.analysis.rules import CFG_POSITIVE
    from repro.errors import ReproError, UnsupportedPlanError

    suppress = tuple(args.suppress or ())

    if args.emitted:
        from repro.analysis import analyze_emitted
        from repro.codegen.manifest import BACKENDS, generate_backend

        block = BlockConfig(*_parse_ints(args.block))
        plan = make_kernel(args.kernel, symmetric(args.order), block, args.dtype)
        report = AnalysisReport(
            subject=f"emitted sources of {plan.name}", suppressed=suppress
        )
        for backend in BACKENDS:
            # Generate unverified: the point of lint is to *report* the
            # SRC-* findings, not to have the emitter refuse first.
            try:
                src = generate_backend(plan, backend, verify=False)
            except UnsupportedPlanError as exc:
                log.error("cannot generate code: %s", exc)
                return 1
            report.merge(analyze_emitted(src, suppress=suppress))
        print(report.to_json() if args.json else report.render())
        return report.exit_code()

    if args.stencil or args.stencil_file:
        source = (
            args.stencil
            if args.stencil
            else Path(args.stencil_file).read_text()
        )
        name = args.stencil_file or "<inline>"
        report = analyze_source(source, name, suppress=suppress)
    else:
        subject = f"{args.kernel} order-{args.order} ({args.block})"
        stride_x = stride_y = None
        if args.tile_stride:
            stride_x, stride_y = _parse_ints(args.tile_stride, 2)
        try:
            block = BlockConfig(*_parse_ints(args.block))
            plan = make_kernel(
                args.kernel, symmetric(args.order), block, args.dtype
            )
        except ReproError as exc:
            # Construction-time rejections carry the same rule ids the
            # analyzer would report; surface them as a one-finding report.
            report = AnalysisReport(subject=subject, suppressed=suppress)
            report.add(diagnostic_from_error(exc, subject, CFG_POSITIVE))
        else:
            device = get_device(args.device) if args.device else None
            grid = _parse_ints(args.grid, 3) if args.grid else None
            report = analyze_plan(
                plan,
                device=device,
                grid_shape=grid,
                stride_x=stride_x,
                stride_y=stride_y,
                suppress=suppress,
            )

    print(report.to_json() if args.json else report.render())
    return report.exit_code()


def _cmd_profile(args: argparse.Namespace) -> int:
    """The simulated-GPU profiler (``repro.obs``).

    Default mode traces one kernel and prints the flame/summary report
    plus the ranked bottleneck attribution; ``--compare`` prints the
    nvprof-style counter table (with each variant's primary limiter) over
    all loading variants instead.  ``--trace-out`` exports a
    Perfetto-viewable Chrome trace; ``--json`` replaces stdout with
    machine-readable telemetry.  Exits 1 when the reconstructed timeline
    fails wave-sum reconciliation (in every output mode).
    """
    from repro.metrics.roofline import roofline
    from repro.obs import (
        TelemetryCollector,
        Tracer,
        summarize,
        tracing,
        write_chrome_trace,
    )
    from repro.obs.attribution import attribute, limiter_name
    from repro.obs.summary import reconcile_failures
    from repro.utils.tables import format_table

    block = BlockConfig(*_parse_ints(args.block))
    grid = _parse_ints(args.grid, 3)
    dev = get_device(args.device)
    families = (
        ("nvstencil", "inplane_classical", "inplane_vertical",
         "inplane_horizontal", "inplane_fullslice")
        if args.compare else (args.kernel,)
    )

    collector = TelemetryCollector()
    rows = []
    plan = rep = None
    with tracing(Tracer(plane_limit=max(1, args.top))) as tracer:
        for family in families:
            plan = make_kernel(family, symmetric(args.order), block, args.dtype)
            wl = plan.block_workload(dev, grid)
            rep = simulate(plan, dev, grid)
            collector.add_report(rep, order=args.order, source="cli.profile")
            mem = wl.memory
            rows.append((
                family,
                round(rep.mpoints_per_s, 1),
                f"{rep.load_efficiency:.1%}",
                round(mem.load_instructions, 1),
                round(mem.load_transactions, 1),
                round(mem.camped_bytes),
                mem.load_phases,
                f"{rep.occupancy.occupancy:.0%}",
                wl.regs_per_thread,
                limiter_name(rep.counters),
            ))

    if args.json:
        print(collector.to_json(), end="")
    elif args.compare:
        print(format_table(
            ("variant", "MPt/s", "ld eff", "ld instr", "ld tx", "camped B",
             "phases", "occ", "regs", "limiter"),
            rows,
            title=(f"profile: order {args.order} {args.dtype.upper()} "
                   f"{block.label()} on {args.device}"),
        ))
    else:
        print(summarize(tracer, top=args.top))
        print()
        print(attribute(rep, roofline(plan, dev, grid, rep)).render())
    if args.trace_out:
        write_chrome_trace(tracer, args.trace_out)
        log.info(
            "wrote trace %s (open in https://ui.perfetto.dev)", args.trace_out
        )
    _finish_metrics(tracer, args.metrics_out)
    failures = reconcile_failures(tracer)
    for failure in failures:
        log.error("reconciliation failure: %s", failure)
    return 1 if failures else 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    """Codegen-time performance estimation from the access-plan IR.

    Default mode lowers one plan and prints the prediction the emitters
    attach as the source header; ``--reconcile`` instead resimulates a
    recorded trajectory and cross-checks the estimator against the
    measured counters (and every distinct plan's emitted sources against
    the IR), exiting 1 on any mismatch — the ``tools/check.py`` gate.
    """
    import json

    from repro.analysis.estimate import estimate_plan, reconcile_profile
    from repro.errors import UnsupportedPlanError

    if args.reconcile:
        report = reconcile_profile(
            args.baseline, verify_sources=not args.no_verify_sources
        )
        if args.json:
            print(json.dumps(report.to_json_obj(), indent=1))
        else:
            print(report.render())
        return report.exit_code()

    block = BlockConfig(*_parse_ints(args.block))
    plan = make_kernel(args.kernel, symmetric(args.order), block, args.dtype)
    try:
        est = estimate_plan(plan, args.device, _parse_ints(args.grid, 3))
    except UnsupportedPlanError as exc:
        log.error("cannot estimate: %s", exc)
        return 1
    if args.json:
        print(json.dumps(est.to_json_obj(), indent=1))
    else:
        print(est.render())
    return 0


def _cmd_bench_diff(args: argparse.Namespace) -> int:
    """Perf-regression sentinel over a recorded trajectory document."""
    import json

    from repro.obs.regress import diff_baseline

    report = diff_baseline(args.baseline, tolerance=args.tolerance)
    if args.json:
        print(json.dumps(report.to_json_obj(), indent=1))
    else:
        print(report.render(verbose=args.verbose > 0))
    return report.exit_code()


def _cmd_top(args: argparse.Namespace) -> int:
    """Live view of a tuning session from its on-disk artifacts.

    A pure reader: it tails the crash-safe journal and/or the structured
    event stream (both torn-line tolerant, so tailing a *running*
    session is safe) and renders a refreshing panel.  ``--json`` prints
    one machine-readable snapshot instead — the trial/retry/quarantine
    counts are journal-authoritative, i.e. exactly what a ``--resume``
    of that session would replay.  Exits 1 when the watched session
    recorded a crash, 0 otherwise.
    """
    import json

    from repro.obs.live import (
        follow_session,
        render_snapshot,
        snapshot_session,
    )

    if not args.journal and not args.events:
        log.error("repro top needs --journal and/or --events")
        return 2
    if args.json:
        snap = snapshot_session(args.journal, args.events)
        print(json.dumps(snap.to_obj(), indent=1, sort_keys=True))
        return 1 if snap.crashed else 0
    if args.once or not sys.stdout.isatty():
        snap = snapshot_session(args.journal, args.events)
        print(render_snapshot(snap))
        return 1 if snap.crashed else 0

    def redraw(panel: str) -> None:
        # Home + clear-to-end keeps the panel in place without the
        # full-screen flash a clear-screen-per-refresh would cause.
        sys.stdout.write("\x1b[H\x1b[J" + panel + "\n")
        sys.stdout.flush()

    last = None
    try:
        for last in follow_session(
            args.journal, args.events,
            interval_s=args.interval, refreshes=args.refreshes, emit=redraw,
        ):
            pass
    except KeyboardInterrupt:
        pass
    return 1 if last is not None and last.crashed else 0


def _cmd_scaling(args: argparse.Namespace) -> int:
    from repro.cluster import MultiGpuStencil, PCIE_GEN2_X16

    sim = MultiGpuStencil(
        lambda: make_kernel(args.kernel, symmetric(args.order),
                            BlockConfig(*_parse_ints(args.block)), args.dtype),
        args.device,
        link=PCIE_GEN2_X16,
        overlap=args.overlap,
    )
    counts = _parse_ints(args.gpus)
    grid = _parse_ints(args.grid, 3)
    points = (
        sim.weak_scaling(grid, counts) if args.weak else sim.strong_scaling(grid, counts)
    )
    mode = "weak" if args.weak else "strong"
    print(f"{mode} scaling of order-{args.order} {args.kernel} on {args.device}:")
    for p in points:
        print(
            f"  {p.gpus:3d} GPUs: {p.mpoints_per_s:10.0f} MPt/s  "
            f"speedup {p.speedup:6.2f}  efficiency {p.efficiency:6.1%}"
        )
    return 0


# Stable ``repro cluster`` exit codes (documented in docs/CLUSTER.md and
# pinned by tests/test_cluster_resilient.py): 0 success, 1 unrecoverable
# fleet (every retry ladder exhausted or too few GPUs survive), 2 bad
# request (malformed --faults spec, unusable/corrupt checkpoint, bad grid).
EXIT_CLUSTER_OK = 0
EXIT_CLUSTER_FLEET = 1
EXIT_CLUSTER_SPEC = 2


def _cmd_cluster_run(args: argparse.Namespace) -> int:
    import json

    import numpy as np

    from repro.cluster import (
        ClusterPolicy,
        MultiGpuStencil,
        ResilientClusterStencil,
    )
    from repro.errors import (
        CheckpointError,
        ClusterError,
        ConfigurationError,
        GridShapeError,
    )
    from repro.gpusim.faults import ClusterFaultPlan

    try:
        faults = (
            ClusterFaultPlan.parse(args.faults) if args.faults else None
        )
        policy = ClusterPolicy(
            max_exchange_retries=args.max_retries,
            min_gpus=args.min_gpus,
            seed=faults.seed if faults is not None else 0,
        )
        lx, ly, lz = _parse_ints(args.grid, 3)
    except (ConfigurationError, ValueError, argparse.ArgumentTypeError) as exc:
        log.error("bad cluster spec: %s", exc)
        return EXIT_CLUSTER_SPEC

    engine = ResilientClusterStencil(
        MultiGpuStencil(
            lambda: make_kernel(
                args.kernel, symmetric(args.order),
                BlockConfig(*_parse_ints(args.block)), args.dtype,
            ),
            args.device,
            overlap=args.overlap,
        ),
        policy=policy,
    )
    # Deterministic initial condition: the grid is a pure function of
    # --grid-seed and the shape, so two invocations (e.g. a full run and
    # a kill/resume pair) start from bit-identical state.
    grid = np.random.default_rng(args.grid_seed).random((lz, ly, lx))

    with _maybe_tracing(args) as tracer, _maybe_events(args):
        try:
            result = engine.run_campaign(
                grid,
                args.gpus,
                args.steps,
                faults=faults,
                checkpoint_path=args.checkpoint,
                checkpoint_every=args.every,
                resume=args.resume,
            )
        except ClusterError as exc:
            log.error("fleet unrecoverable: %s", exc)
            return EXIT_CLUSTER_FLEET
        except (CheckpointError, ConfigurationError, GridShapeError) as exc:
            log.error("cannot run campaign: %s", exc)
            return EXIT_CLUSTER_SPEC
    _finish_trace(tracer, args.trace)
    _finish_metrics(tracer, args.metrics_out)

    if args.json:
        print(json.dumps({
            "digest": result.digest(),
            "steps": result.steps,
            "resumed_from": result.resumed_from,
            "alive": list(result.alive),
            "quarantined": list(result.quarantined),
            "exchange_retries": result.exchange_retries,
            "backoff_s": result.backoff_s,
            "checkpoints_written": result.checkpoints_written,
            "exchange_time_s": result.exchange_time_s,
        }, sort_keys=True))
    else:
        print(f"cluster: {result.summary()}")
        for p in result.points:
            print(
                f"  fleet {p.gpus:3d}: {p.mpoints_per_s:10.0f} MPt/s  "
                f"speedup {p.speedup:6.2f}  efficiency {p.efficiency:6.1%}"
            )
        print(f"  grid sha256 {result.digest()}")
    return EXIT_CLUSTER_OK


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="In-plane stencil method reproduction (Tang et al., 2013)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="more stderr diagnostics (-v: info is default; -vv: debug)",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true",
        help="errors only on stderr (keeps --json pipelines silent)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-devices", help="list simulated GPUs").set_defaults(
        func=_cmd_list_devices
    )
    sub.add_parser("list-kernels", help="list kernel families").set_defaults(
        func=_cmd_list_kernels
    )

    sim = sub.add_parser("simulate", help="simulate one kernel configuration")
    sim.add_argument("--kernel", default="inplane_fullslice")
    sim.add_argument("--order", type=int, default=2)
    sim.add_argument("--device", default="gtx580")
    sim.add_argument("--block", default="32,4,1,4", help="TX,TY[,RX,RY]")
    sim.add_argument("--dtype", default="sp", choices=("sp", "dp"))
    sim.add_argument("--grid", default="512,512,256")
    sim.add_argument("--trace", metavar="PATH",
                     help="write a Chrome trace of the launch here")
    sim.set_defaults(func=_cmd_simulate)

    tune = sub.add_parser("tune", help="auto-tune a kernel family")
    tune.add_argument("--kernel", default="inplane_fullslice")
    tune.add_argument("--order", type=int, default=2)
    tune.add_argument("--device", default="gtx580")
    tune.add_argument("--dtype", default="sp", choices=("sp", "dp"))
    tune.add_argument("--grid", default="512,512,256")
    tune.add_argument(
        "--method", default="exhaustive",
        choices=("exhaustive", "model", "stochastic", "auto"),
        help="tuner tier; 'auto' degrades model -> stochastic -> exhaustive",
    )
    tune.add_argument("--beta", type=float, default=0.05)
    tune.add_argument("--budget", type=int, default=30,
                      help="trial budget for the stochastic tier")
    tune.add_argument("--seed", type=int, default=0,
                      help="seed for stochastic search and retry jitter")
    tune.add_argument("--no-register-blocking", action="store_true")
    tune.add_argument("--faults", metavar="SPEC",
                      help="inject simulated faults, e.g. "
                           "'seed=7,launch=0.1,hang=0.02,throttle=0.05' "
                           "(see repro.gpusim.faults.FaultPlan.parse)")
    tune.add_argument("--journal", metavar="PATH",
                      help="crash-safe trial journal for this session")
    tune.add_argument("--resume", action="store_true",
                      help="replay journaled trials instead of re-running "
                           "them; exits 2 if the journal is missing or "
                           "belongs to a different session")
    tune.add_argument("--retries", type=int, metavar="N",
                      help="max retries per faulted trial (default 3)")
    tune.add_argument("--watchdog", type=float, metavar="CYCLES",
                      help="kill any launch exceeding this many simulated "
                           "cycles")
    tune.add_argument("--trace", metavar="PATH",
                      help="write a Chrome trace of the whole sweep here "
                           "(one tune.trial span per evaluated config)")
    tune.add_argument("--events", metavar="PATH",
                      help="stream structured events (repro.obs.events "
                           "JSONL) here, tailed live by 'repro top "
                           "--events'")
    tune.add_argument("--metrics-out", metavar="PATH",
                      help="export the run's metrics registry here "
                           "(.prom/.txt: Prometheus exposition; else "
                           "OTLP-style JSON)")
    tune.add_argument("--archive", metavar="PATH",
                      help="write the per-trial decision-provenance "
                           "archive (repro.obs.archive JSONL: rate, model "
                           "prediction, estimate, counters, disposition) "
                           "here, read by 'repro explain'")
    tune.add_argument("--json", action="store_true",
                      help="print the full ranked result as JSON (every "
                           "entry with its predicted score and "
                           "occupancy/load-efficiency diagnostics)")
    tune.set_defaults(func=_cmd_tune)

    explain = sub.add_parser(
        "explain",
        help="why the winner won: differential attribution, landscape "
             "export and model calibration from a trial archive",
    )
    explain.add_argument("--archive", required=True, metavar="PATH",
                         help="trial archive written by 'repro tune "
                              "--archive' (exit 2 if unusable)")
    explain.add_argument("--top", type=int, default=3, metavar="N",
                         help="ranking depth to print and the k of top-k "
                              "regret (default 3)")
    explain.add_argument("--json", action="store_true",
                         help="machine-readable report")
    explain.add_argument("--landscape-out", metavar="DIR",
                         help="write landscape.csv plus one Vega-Lite "
                              "heatmap spec per (RX,RY) slice here")
    explain.add_argument("--metrics-out", metavar="PATH",
                         help="export the calibration gauges "
                              "(model/estimate rank_corr and topk_regret) "
                              "here (.prom/.txt: Prometheus; else OTLP "
                              "JSON)")
    explain.set_defaults(func=_cmd_explain)

    top = sub.add_parser(
        "top", help="live view of a (running) tuning session's artifacts"
    )
    top.add_argument("--journal", metavar="PATH",
                     help="the session's crash-safe trial journal "
                          "(authoritative trial/retry counts)")
    top.add_argument("--events", metavar="PATH",
                     help="the session's structured event stream "
                          "(tier/sweep/replay state)")
    top.add_argument("--json", action="store_true",
                     help="print one machine-readable snapshot and exit")
    top.add_argument("--once", action="store_true",
                     help="render one panel and exit (implied when stdout "
                          "is not a tty)")
    top.add_argument("--interval", type=float, default=1.0, metavar="S",
                     help="refresh period in seconds (default 1.0)")
    top.add_argument("--refreshes", type=int, metavar="N",
                     help="stop after N refreshes even if the session is "
                          "still running (default: until finish/crash)")
    top.set_defaults(func=_cmd_top)

    exp = sub.add_parser("experiment", help="regenerate a paper table/figure")
    exp.add_argument("name", choices=(*_EXPERIMENTS, "all"))
    exp.add_argument("--out", help="output file (.csv/.json/.txt)")
    exp.add_argument("--out-dir", help="directory for 'all'")
    exp.set_defaults(func=_cmd_experiment)

    cg = sub.add_parser("codegen", help="emit kernel source for a plan")
    cg.add_argument("--kernel", default="inplane_fullslice")
    cg.add_argument("--order", type=int, default=4)
    cg.add_argument("--block", default="32,4,1,4")
    cg.add_argument("--dtype", default="sp", choices=("sp", "dp"))
    cg.add_argument("--grid", default="512,512,256")
    cg.add_argument(
        "--backend", default="cuda", choices=("cuda", "opencl", "hip", "all"),
        help="emitter backend; 'all' emits every backend "
             "(--out gains a .<backend> suffix)",
    )
    cg.add_argument("--out", help="write the source file here")
    cg.add_argument("--driver", action="store_true",
                    help="append host driver (CUDA backend only)")
    cg.set_defaults(func=_cmd_codegen)

    lint = sub.add_parser(
        "lint", help="statically analyze a kernel plan or DSL program"
    )
    lint.add_argument("--kernel", default="inplane_fullslice")
    lint.add_argument("--order", type=int, default=2)
    lint.add_argument("--block", default="32,4,1,4", help="TX,TY[,RX,RY]")
    lint.add_argument("--dtype", default="sp", choices=("sp", "dp"))
    lint.add_argument(
        "--device", default="gtx580",
        help="device for the resource/memory families ('' to skip them)",
    )
    lint.add_argument(
        "--grid", default="512,512,256",
        help="grid for coverage/halo families ('' to skip them)",
    )
    lint.add_argument("--json", action="store_true", help="machine-readable output")
    lint.add_argument(
        "--suppress", action="append", metavar="RULE",
        help="drop diagnostics of this rule id (repeatable)",
    )
    lint.add_argument(
        "--tile-stride", metavar="SX,SY",
        help="override the launch-grid tile stride (defect injection: "
             "a stride below the tile overlaps, above it leaves gaps)",
    )
    lint.add_argument("--stencil", help="inline DSL source to lint instead")
    lint.add_argument("--stencil-file", help="DSL source file to lint instead")
    lint.add_argument(
        "--emitted", action="store_true",
        help="generate all three backends (CUDA/OpenCL/HIP) for the plan "
             "and run the SRC-* emitted-source verification on each "
             "against the shared access-plan IR",
    )
    lint.set_defaults(func=_cmd_lint)

    est = sub.add_parser(
        "estimate",
        help="codegen-time performance prediction from the access-plan IR",
    )
    est.add_argument("--kernel", default="inplane_fullslice")
    est.add_argument("--order", type=int, default=4)
    est.add_argument("--block", default="32,4,1,4", help="TX,TY[,RX,RY]")
    est.add_argument("--dtype", default="sp", choices=("sp", "dp"))
    est.add_argument("--device", default="gtx580")
    est.add_argument("--grid", default="512,512,256")
    est.add_argument(
        "--reconcile", action="store_true",
        help="cross-check the estimator against the measured counters of "
             "every record in --baseline (faulted records skipped) and "
             "verify every distinct plan's emitted sources; exit 1 on "
             "any mismatch",
    )
    est.add_argument(
        "--baseline", default="BENCH_profile.json",
        help="trajectory document for --reconcile",
    )
    est.add_argument(
        "--no-verify-sources", action="store_true",
        help="skip the emitted-source verification leg of --reconcile",
    )
    est.add_argument("--json", action="store_true",
                     help="machine-readable output")
    est.set_defaults(func=_cmd_estimate)

    prof = sub.add_parser(
        "profile", help="profile on the simulated GPU (nvprof/Nsight analogue)"
    )
    prof.add_argument("--kernel", default="inplane_fullslice")
    prof.add_argument("--order", type=int, default=4)
    prof.add_argument("--block", default="32,4,1,2")
    prof.add_argument("--dtype", default="sp", choices=("sp", "dp"))
    prof.add_argument("--device", default="gtx580")
    prof.add_argument("--grid", default="512,512,256")
    prof.add_argument("--compare", action="store_true",
                      help="counter table over all loading variants instead "
                           "of the single-kernel flame report")
    prof.add_argument("--trace-out", metavar="PATH",
                      help="write a Chrome trace (Perfetto-viewable) here")
    prof.add_argument("--json", action="store_true",
                      help="machine-readable telemetry on stdout")
    prof.add_argument("--top", type=int, default=5, metavar="N",
                      help="hot planes listed in the summary (default 5)")
    prof.add_argument("--metrics-out", metavar="PATH",
                      help="export the profiler's metrics registry here "
                           "(.prom/.txt: Prometheus exposition; else "
                           "OTLP-style JSON)")
    prof.set_defaults(func=_cmd_profile)

    bench = sub.add_parser(
        "bench", help="benchmark-trajectory tools (BENCH_profile.json)"
    )
    bsub = bench.add_subparsers(dest="bench_command", required=True)
    bdiff = bsub.add_parser(
        "diff",
        help="resimulate a recorded baseline and report regressions "
             "(exit 1 on any slowdown; deterministic, so exact by default)",
    )
    bdiff.add_argument(
        "--baseline", default="BENCH_profile.json",
        help="trajectory document to diff against (v1 or v2)",
    )
    bdiff.add_argument(
        "--tolerance", type=float, default=0.0, metavar="REL",
        help="relative MPoint/s slack before a move counts (default exact)",
    )
    bdiff.add_argument("--json", action="store_true",
                       help="machine-readable diff on stdout")
    bdiff.set_defaults(func=_cmd_bench_diff)

    sc = sub.add_parser("scaling", help="multi-GPU slab scaling cost model")
    sc.add_argument("--kernel", default="inplane_fullslice")
    sc.add_argument("--order", type=int, default=2)
    sc.add_argument("--block", default="64,4,4,2")
    sc.add_argument("--dtype", default="sp", choices=("sp", "dp"))
    sc.add_argument("--device", default="gtx580")
    sc.add_argument("--grid", default="512,512,256")
    sc.add_argument("--gpus", default="1,2,4,8")
    sc.add_argument("--weak", action="store_true")
    sc.add_argument("--overlap", type=float, default=0.0)
    sc.set_defaults(func=_cmd_scaling)

    cluster = sub.add_parser(
        "cluster",
        help="fault-tolerant multi-GPU stepping campaigns",
    )
    csub = cluster.add_subparsers(dest="cluster_command", required=True)
    crun = csub.add_parser(
        "run",
        help="run a resilient stepping campaign (retry/quarantine/resume)",
    )
    crun.add_argument("--kernel", default="inplane_fullslice")
    crun.add_argument("--order", type=int, default=2)
    crun.add_argument("--block", default="16,4,1,2")
    crun.add_argument("--dtype", default="sp", choices=("sp", "dp"))
    crun.add_argument("--device", default="gtx580")
    crun.add_argument("--grid", default="32,16,48", help="LX,LY,LZ")
    crun.add_argument("--grid-seed", type=int, default=20130520,
                      help="seed of the deterministic initial condition")
    crun.add_argument("--gpus", type=int, default=4)
    crun.add_argument("--steps", type=int, default=8)
    crun.add_argument("--overlap", type=float, default=0.0)
    crun.add_argument("--faults", metavar="SPEC",
                      help="cluster fault plan, e.g. "
                           "'seed=7,corrupt=0.2,dropout=0.05,degrade=0.1'")
    crun.add_argument("--max-retries", type=int, default=3,
                      help="halo-exchange retries before the fleet gives up")
    crun.add_argument("--min-gpus", type=int, default=1,
                      help="smallest fleet the campaign may shrink to")
    crun.add_argument("--checkpoint", metavar="PATH",
                      help="crash-safe grid snapshot file")
    crun.add_argument("--every", type=int, default=0,
                      help="checkpoint after every N completed steps")
    crun.add_argument("--resume", action="store_true",
                      help="resume from --checkpoint instead of step 0")
    crun.add_argument("--events", metavar="PATH",
                      help="stream cluster.* events to this JSONL file")
    crun.add_argument("--trace", metavar="PATH")
    crun.add_argument("--metrics-out", metavar="PATH")
    crun.add_argument("--json", action="store_true",
                      help="machine-readable result (digest, fleet, retries)")
    crun.set_defaults(func=_cmd_cluster_run)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    _setup_logging(-1 if args.quiet else args.verbose)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early — not an error.
        return 0


if __name__ == "__main__":
    sys.exit(main())
