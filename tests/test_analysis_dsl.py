"""DSL semantic checks and error-to-diagnostic bridging."""

from repro.analysis import analyze_expr, analyze_source
from repro.analysis.dsl import diagnostic_from_error, expr_diagnostics, source_diagnostics
from repro.analysis.rules import DSL_PARSE
from repro.errors import StencilDefinitionError
from repro.stencils.applications import APPLICATIONS
from repro.stencils.expr import OutputSpec, StencilExpr, Tap
from repro.stencils.parser import parse_stencil


def expr_of(*taps, n_grids=1, name="t"):
    return StencilExpr(
        name=name, n_grids=n_grids,
        outputs=(OutputSpec(name="out", taps=tuple(taps)),),
    )


CENTRE = Tap(grid=0, offset=(0, 0, 0), coeff=0.5)


class TestExprDiagnostics:
    def test_paper_applications_have_no_error_level_findings(self):
        for expr in APPLICATIONS.values():
            assert analyze_expr(expr).ok, expr.name

    def test_missing_centre_tap(self):
        expr = expr_of(Tap(grid=0, offset=(1, 0, 0), coeff=1.0))
        assert "DSL-NO-CENTRE" in {d.rule for d in expr_diagnostics(expr)}

    def test_duplicate_tap(self):
        expr = expr_of(CENTRE, Tap(grid=0, offset=(0, 0, 0), coeff=0.25))
        assert "DSL-DUP-TAP" in {d.rule for d in expr_diagnostics(expr)}

    def test_zero_coefficient(self):
        expr = expr_of(CENTRE, Tap(grid=0, offset=(1, 0, 0), coeff=0.0))
        assert "DSL-ZERO-COEFF" in {d.rule for d in expr_diagnostics(expr)}

    def test_pointwise_program(self):
        assert "DSL-POINTWISE" in {
            d.rule for d in expr_diagnostics(expr_of(CENTRE))
        }

    def test_asymmetric_z_reach(self):
        expr = expr_of(
            CENTRE,
            Tap(grid=0, offset=(0, 0, -2), coeff=1.0),
            Tap(grid=0, offset=(0, 0, 1), coeff=1.0),
        )
        assert "DSL-ASYM-Z" in {d.rule for d in expr_diagnostics(expr)}

    def test_upstream_is_the_canonical_asymmetric_case(self):
        report = analyze_expr(APPLICATIONS["upstream"])
        assert "DSL-ASYM-Z" in {d.rule for d in report.diagnostics}


class TestSourceDiagnostics:
    GOOD = "out[i,j,k] = 0.5*u[i,j,k] + 0.25*u[i-1,j,k] + 0.25*u[i+1,j,k]"

    def test_valid_source_parses_clean(self):
        expr, diags = source_diagnostics(self.GOOD, "good")
        assert expr is not None
        assert analyze_source(self.GOOD).ok

    def test_syntax_error_becomes_one_diagnostic(self):
        expr, diags = source_diagnostics("out = %%% nonsense", "bad")
        assert expr is None
        assert [d.rule for d in diags] == ["DSL-PARSE"]
        assert not analyze_source("out = %%% nonsense").ok

    def test_rule_tagged_errors_keep_their_id(self):
        try:
            parse_stencil(self.GOOD)  # establishes the parser works at all
            raise StencilDefinitionError("synthetic", rule="DSL-UNDEF-GRID")
        except StencilDefinitionError as exc:
            diag = diagnostic_from_error(exc, "loc", DSL_PARSE)
        assert diag.rule == "DSL-UNDEF-GRID"
        assert diag.severity.label == "error"

    def test_unknown_rule_falls_back(self):
        diag = diagnostic_from_error(ValueError("plain"), "loc", DSL_PARSE)
        assert diag.rule == "DSL-PARSE"

    def test_undef_grid_raises_with_rule(self):
        try:
            expr_of(CENTRE, Tap(grid=3, offset=(1, 0, 0), coeff=1.0))
        except StencilDefinitionError as exc:
            assert exc.rule == "DSL-UNDEF-GRID"
        else:
            raise AssertionError("expected StencilDefinitionError")
