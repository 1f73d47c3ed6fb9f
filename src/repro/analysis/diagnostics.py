"""Structured diagnostics — the output format of the static analyzer.

A :class:`Diagnostic` is one finding of one rule over one object (a kernel
plan, a tuning configuration, a stencil expression, a slab decomposition):
rule id, severity, a human location string, the message, and an optional
fix hint.  An :class:`AnalysisReport` aggregates the findings of one
analyzer run and owns presentation (text and JSON) plus the exit-code
policy the CLI exposes.

Nothing in this module executes a kernel or prices a cycle; diagnostics
are produced purely from the plan's declared geometry and resources.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field


class Severity(enum.IntEnum):
    """Diagnostic severity, ordered so ``max()`` picks the worst."""

    INFO = 0
    WARNING = 1
    ERROR = 2

    @property
    def label(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Diagnostic:
    """One finding of one analysis rule.

    Attributes
    ----------
    rule:
        Stable rule id from the catalog (e.g. ``"COV-TILE-OVERLAP"``).
    severity:
        :class:`Severity` of the finding.
    location:
        Human-readable anchor: a plan name, ``"block (32, 4, 1, 4)"``, a
        DSL source position, a slab index.
    message:
        What is wrong, with the concrete numbers that prove it.
    hint:
        How to fix or suppress it (may be empty).
    """

    rule: str
    severity: Severity
    location: str
    message: str
    hint: str = ""

    def render(self) -> str:
        """``error[COV-TILE-GAP] at <loc>: <message>`` (+ indented hint)."""
        text = f"{self.severity.label}[{self.rule}] {self.location}: {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text

    def as_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity.label,
            "location": self.location,
            "message": self.message,
            "hint": self.hint,
        }


@dataclass
class AnalysisReport:
    """All diagnostics of one analyzer run, with presentation helpers."""

    subject: str
    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: Rule ids explicitly suppressed for this run (recorded for the JSON
    #: output so a clean report is distinguishable from a silenced one).
    suppressed: tuple[str, ...] = ()

    def add(self, diag: Diagnostic) -> None:
        if diag.rule not in self.suppressed:
            self.diagnostics.append(diag)

    def extend(self, diags: list[Diagnostic]) -> None:
        for diag in diags:
            self.add(diag)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def by_severity(self, severity: Severity) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == severity]

    @property
    def errors(self) -> list[Diagnostic]:
        return self.by_severity(Severity.ERROR)

    @property
    def warnings(self) -> list[Diagnostic]:
        return self.by_severity(Severity.WARNING)

    @property
    def ok(self) -> bool:
        """True when no error-level diagnostics were found."""
        return not self.errors

    def exit_code(self) -> int:
        """Stable CLI exit code: 0 clean (warnings allowed), 1 errors."""
        return 0 if self.ok else 1

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------
    def render(self) -> str:
        """Text report: one block per diagnostic plus a one-line summary."""
        lines = [f"lint {self.subject}:"]
        order = (Severity.ERROR, Severity.WARNING, Severity.INFO)
        for severity in order:
            lines.extend(d.render() for d in self.by_severity(severity))
        n_err, n_warn = len(self.errors), len(self.warnings)
        n_info = len(self.by_severity(Severity.INFO))
        lines.append(
            f"{n_err} error(s), {n_warn} warning(s), {n_info} note(s)"
        )
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {
                "subject": self.subject,
                "ok": self.ok,
                "suppressed": list(self.suppressed),
                "diagnostics": [d.as_dict() for d in self.diagnostics],
            },
            indent=2,
        )

    def merge(self, other: "AnalysisReport") -> None:
        """Fold another report's diagnostics into this one."""
        self.extend(other.diagnostics)
