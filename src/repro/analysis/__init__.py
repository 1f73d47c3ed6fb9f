"""Static analysis of kernel plans, DSL programs and tuning configurations.

A rule-based analyzer that proves plan properties without executing a
sweep: exact tiling coverage (races / holes), halo sufficiency, coalescing
and bank-conflict behaviour, and device resource limits.  Diagnostics are
structured (:class:`Diagnostic`: rule id, severity, location, message, fix
hint) and aggregate into an :class:`AnalysisReport` with stable exit codes
for the ``repro lint`` CLI.

Two integration layers consume it:

* ``repro lint`` — text/JSON reports over plans and DSL source; its
  ``RES-*`` rules explain the launch check every price runs (the tuners
  read that verdict from the price itself, with no separate pre-filter);
* codegen — :func:`gate_codegen` refuses to emit error-level plans.

Two further passes ride on the access-plan IR (:mod:`repro.analysis.planir`)
that every emitter lowers through: the emitted-source verifier
(:func:`analyze_emitted`, the ``SRC-*`` family) and the codegen-time
performance estimator (:mod:`repro.analysis.estimate`).

The rule catalog lives in :mod:`repro.analysis.rules`; the user-facing
version is ``docs/ANALYSIS.md``.
"""

from repro.analysis.diagnostics import AnalysisReport, Diagnostic, Severity
from repro.analysis.engine import (
    analyze_emitted,
    analyze_expr,
    analyze_plan,
    analyze_slabs,
    analyze_source,
    gate_codegen,
)
from repro.analysis.estimate import (
    PerfEstimate,
    estimate_ir,
    estimate_plan,
    prediction_header,
    reconcile_profile,
)
from repro.analysis.planir import AccessPlanIR, LoweringError, lower_plan
from repro.analysis.rules import Rule, catalog

__all__ = [
    "AccessPlanIR",
    "AnalysisReport",
    "Diagnostic",
    "LoweringError",
    "PerfEstimate",
    "Rule",
    "Severity",
    "analyze_emitted",
    "analyze_expr",
    "analyze_plan",
    "analyze_slabs",
    "analyze_source",
    "catalog",
    "estimate_ir",
    "estimate_plan",
    "gate_codegen",
    "lower_plan",
    "prediction_header",
    "reconcile_profile",
]
