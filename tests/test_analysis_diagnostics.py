"""Diagnostics data model, report presentation, and the rule catalog."""

import json

import pytest

from repro.analysis import catalog
from repro.analysis.diagnostics import AnalysisReport, Diagnostic, Severity
from repro.analysis.rules import COV_TILE_GAP, RES_SPILL


def _diag(rule="X-RULE", severity=Severity.ERROR, hint=""):
    return Diagnostic(
        rule=rule, severity=severity, location="plan", message="boom", hint=hint
    )


class TestSeverity:
    def test_ordering(self):
        assert Severity.INFO < Severity.WARNING < Severity.ERROR
        assert max([Severity.INFO, Severity.ERROR]) is Severity.ERROR

    def test_labels(self):
        assert Severity.ERROR.label == "error"
        assert Severity.WARNING.label == "warning"
        assert Severity.INFO.label == "info"


class TestDiagnostic:
    def test_render_without_hint(self):
        assert _diag().render() == "error[X-RULE] plan: boom"

    def test_render_with_hint(self):
        text = _diag(hint="fix it").render()
        assert text.splitlines() == [
            "error[X-RULE] plan: boom", "    hint: fix it",
        ]

    def test_as_dict_round_trips_through_json(self):
        d = json.loads(json.dumps(_diag(hint="h").as_dict()))
        assert d == {
            "rule": "X-RULE", "severity": "error", "location": "plan",
            "message": "boom", "hint": "h",
        }


class TestRuleCatalog:
    def test_ids_are_unique_and_well_formed(self):
        cat = catalog()
        assert len(cat) >= 30
        for rule_id, rule in cat.items():
            assert rule.id == rule_id
            assert rule_id == rule_id.upper()
            assert "-" in rule_id
            assert rule.summary

    def test_rule_diag_carries_severity(self):
        d = COV_TILE_GAP.diag("loc", "msg")
        assert d.severity is Severity.ERROR
        assert RES_SPILL.diag("loc", "msg").severity is Severity.WARNING


class TestAnalysisReport:
    def test_empty_report_is_ok(self):
        report = AnalysisReport(subject="s")
        assert report.ok
        assert report.exit_code() == 0
        assert "0 error(s)" in report.render()

    def test_warnings_do_not_fail(self):
        report = AnalysisReport(subject="s")
        report.add(_diag(severity=Severity.WARNING))
        assert report.ok and report.exit_code() == 0
        assert report.warnings and not report.errors

    def test_errors_fail(self):
        report = AnalysisReport(subject="s")
        report.add(_diag())
        assert not report.ok
        assert report.exit_code() == 1

    def test_suppression_drops_matching_rules(self):
        report = AnalysisReport(subject="s", suppressed=("X-RULE",))
        report.extend([_diag(), _diag(rule="KEPT", severity=Severity.INFO)])
        assert [d.rule for d in report.diagnostics] == ["KEPT"]
        assert report.ok

    def test_render_orders_by_severity(self):
        report = AnalysisReport(subject="s")
        report.add(_diag(rule="NOTE", severity=Severity.INFO))
        report.add(_diag(rule="ERR", severity=Severity.ERROR))
        text = report.render()
        assert text.index("ERR") < text.index("NOTE")
        assert text.startswith("lint s:")

    def test_to_json_shape(self):
        report = AnalysisReport(subject="s", suppressed=("Q",))
        report.add(_diag())
        data = json.loads(report.to_json())
        assert data["subject"] == "s"
        assert data["ok"] is False
        assert data["suppressed"] == ["Q"]
        assert len(data["diagnostics"]) == 1

    def test_merge_respects_suppression(self):
        a = AnalysisReport(subject="a", suppressed=("X-RULE",))
        b = AnalysisReport(subject="b")
        b.add(_diag())
        b.add(_diag(rule="OTHER"))
        a.merge(b)
        assert [d.rule for d in a.diagnostics] == ["OTHER"]


def test_duplicate_rule_registration_rejected():
    from repro.analysis.rules import _rule

    with pytest.raises(ValueError):
        _rule("COV-TILE-GAP", Severity.ERROR, "dup")
