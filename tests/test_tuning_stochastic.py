"""Stochastic (simulated annealing) tuner tests."""

import pytest

from repro.errors import TuningError
from repro.kernels.factory import make_kernel
from repro.stencils.spec import symmetric
from repro.tuning.exhaustive import exhaustive_tune
from repro.tuning.stochastic import stochastic_tune

GRID = (512, 512, 256)


def builder(order=2):
    spec = symmetric(order)
    return lambda cfg: make_kernel("inplane_fullslice", spec, cfg)


class TestStochastic:
    def test_respects_budget(self, gtx580):
        res = stochastic_tune(builder(), gtx580, GRID, budget=12, seed=1)
        assert res.evaluated <= 12
        assert res.method == "stochastic"

    def test_deterministic_per_seed(self, gtx580):
        a = stochastic_tune(builder(), gtx580, GRID, budget=15, seed=3)
        b = stochastic_tune(builder(), gtx580, GRID, budget=15, seed=3)
        assert a.best_config == b.best_config
        assert a.best_mpoints == b.best_mpoints

    def test_different_seeds_explore_differently(self, gtx580):
        a = stochastic_tune(builder(), gtx580, GRID, budget=10, seed=1)
        b = stochastic_tune(builder(), gtx580, GRID, budget=10, seed=2)
        assert {e.config for e in a.entries} != {e.config for e in b.entries}

    def test_entries_sorted(self, gtx580):
        res = stochastic_tune(builder(), gtx580, GRID, budget=20, seed=5)
        rates = [e.mpoints_per_s for e in res.entries]
        assert rates == sorted(rates, reverse=True)

    def test_finds_reasonable_optimum(self, gtx580):
        """With a third of the space as budget, annealing lands within 15%
        of the exhaustive optimum."""
        exh = exhaustive_tune(builder(), gtx580, GRID)
        res = stochastic_tune(
            builder(), gtx580, GRID, budget=exh.space_size // 3, seed=7
        )
        assert res.best_mpoints >= 0.85 * exh.best_mpoints

    def test_model_based_beats_stochastic_at_equal_budget(self, gtx580):
        """The section VI pitch: model guidance beats blind search for the
        same number of executed configurations."""
        from repro.tuning.modelbased import model_based_tune

        mb = model_based_tune(builder(), gtx580, GRID, beta=0.05)
        st = stochastic_tune(builder(), gtx580, GRID, budget=mb.evaluated, seed=11)
        assert mb.best_mpoints >= st.best_mpoints * 0.95

    def test_budget_validation(self, gtx580):
        with pytest.raises(TuningError):
            stochastic_tune(builder(), gtx580, GRID, budget=0)

    def test_budget_one(self, gtx580):
        res = stochastic_tune(builder(), gtx580, GRID, budget=1, seed=0)
        assert res.evaluated == 1

    def test_nothing_launchable_raises(self, gtx580):
        """A walk in which no trial measured ``ok`` has no winner: it
        raises exactly as the exhaustive tuner does, instead of returning
        an unlaunchable config at 0.0 MPoint/s."""
        from repro.tuning.space import ParameterSpace

        space = ParameterSpace(
            tx_values=(32,), ty_values=(32,), rx_values=(1,), ry_values=(4,)
        )
        spec = symmetric(8)

        def build(cfg):
            return make_kernel("inplane_fullslice", spec, cfg, "dp")

        grid = (512, 512, 64)
        message = f"no configuration could be launched on {gtx580.name} for {grid}"
        with pytest.raises(TuningError) as exhaustive_err:
            exhaustive_tune(build, gtx580, grid, space)
        with pytest.raises(TuningError) as stochastic_err:
            stochastic_tune(build, gtx580, grid, budget=4, space=space)
        assert str(exhaustive_err.value) == str(stochastic_err.value) == message
