"""Model-based (beta-cutoff) tuner tests — the section VI procedure."""

import math

import pytest

from repro.errors import TuningError
from repro.kernels.factory import make_kernel
from repro.stencils.spec import symmetric
from repro.tuning.exhaustive import exhaustive_tune, feasible_configs
from repro.tuning.modelbased import model_based_tune

GRID = (512, 512, 256)


def builder(order=2):
    spec = symmetric(order)
    return lambda cfg: make_kernel("inplane_fullslice", spec, cfg)


class TestProcedure:
    def test_executes_exactly_beta_fraction(self, gtx580):
        build = builder()
        configs = feasible_configs(build, gtx580, GRID)
        res = model_based_tune(build, gtx580, GRID, beta=0.05)
        assert res.space_size == len(configs)
        assert res.evaluated <= math.ceil(0.05 * len(configs))
        assert res.method == "model"

    def test_entries_carry_predictions(self, gtx580):
        res = model_based_tune(builder(), gtx580, GRID, beta=0.05)
        assert all(e.predicted is not None for e in res.entries)

    def test_beta_one_equals_exhaustive_best(self, gtx580):
        """Executing the whole ranked space must find the true optimum."""
        exh = exhaustive_tune(builder(), gtx580, GRID)
        mb = model_based_tune(builder(), gtx580, GRID, beta=1.0)
        assert mb.best_mpoints == pytest.approx(exh.best_mpoints)

    def test_larger_beta_never_worse(self, gtx580):
        lo = model_based_tune(builder(), gtx580, GRID, beta=0.05)
        hi = model_based_tune(builder(), gtx580, GRID, beta=0.25)
        assert hi.best_mpoints >= lo.best_mpoints

    @pytest.mark.parametrize("beta", [0.0, -0.1, 1.5])
    def test_invalid_beta(self, gtx580, beta):
        with pytest.raises(TuningError):
            model_based_tune(builder(), gtx580, GRID, beta=beta)

    @pytest.mark.parametrize("order", [2, 8, 12])
    def test_gap_to_exhaustive_reasonable(self, gtx580, order):
        """Fig 12's claim, reproduced loosely: the beta=5% result lands
        within a modest fraction of the exhaustive optimum."""
        exh = exhaustive_tune(builder(order), gtx580, GRID)
        mb = model_based_tune(builder(order), gtx580, GRID, beta=0.05)
        gap = 1.0 - mb.best_mpoints / exh.best_mpoints
        assert gap <= 0.25

    def test_minimum_one_candidate(self, gtx580):
        """Even a tiny beta executes at least one configuration."""
        res = model_based_tune(builder(), gtx580, GRID, beta=1e-9)
        assert res.evaluated >= 1
