"""Bottleneck-attribution engine tests.

The ranked limiter report must (a) rank exactly the five stall counters,
largest cycle share first; (b) explain each limiter from the counters
that drive it; (c) cross-reference only rule ids that actually exist in
the static-analysis catalog; and (d) merge with the roofline verdict
into the one-line headline.
"""

from __future__ import annotations

import pytest

from repro.analysis.rules import catalog
from repro.gpusim.device import get_device
from repro.gpusim.executor import simulate
from repro.gpusim.report import SimReport
from repro.kernels.factory import make_kernel
from repro.metrics.roofline import roofline
from repro.obs.attribution import (
    LIMITER_NAMES,
    AttributionReport,
    attribute,
    limiter_name,
    rank_limiters,
)
from repro.obs.counters import STALL_KEYS
from repro.stencils.spec import symmetric

GRID = (128, 128, 64)

CASES = [
    ("gtx580", "inplane_fullslice", 2, (32, 4, 1, 2), "sp"),
    ("gtx580", "inplane_fullslice", 10, (32, 4, 2, 2), "dp"),
    ("gtx680", "inplane_vertical", 4, (32, 4, 1, 2), "sp"),
    ("c2070", "nvstencil", 8, (32, 4, 1, 1), "sp"),
    ("c2070", "inplane_horizontal", 6, (64, 2, 1, 2), "dp"),
]


def _report(device, family, order, block, dtype):
    plan = make_kernel(family, symmetric(order), block, dtype)
    return simulate(plan, device, GRID)


@pytest.fixture(params=CASES, ids=lambda c: "-".join(map(str, c[:3])))
def report(request):
    return _report(*request.param)


class TestRanking:
    def test_all_five_limiters_ranked_by_share(self, report):
        limiters = rank_limiters(report.counters)
        assert len(limiters) == len(STALL_KEYS)
        assert {x.counter for x in limiters} == set(STALL_KEYS)
        shares = [x.share for x in limiters]
        assert shares == sorted(shares, reverse=True)
        assert sum(shares) == pytest.approx(1.0)
        assert all(x.name == LIMITER_NAMES[x.counter] for x in limiters)

    def test_limiter_name_agrees_on_both_forms(self, report):
        top = rank_limiters(report.counters)[0].name
        assert limiter_name(report.counters) == top
        assert limiter_name(report.counters.as_dict()) == top

    def test_hints_reference_real_analysis_rules(self, report):
        known = set(catalog())
        for lim in rank_limiters(report.counters):
            for hint in lim.hints:
                assert hint in known, f"{lim.counter} hints unknown rule {hint}"

    def test_details_are_counter_backed(self, report):
        by_counter = {x.counter: x for x in rank_limiters(report.counters)}
        c = report.counters
        assert f"{c['dram_bw_fraction']:.0%}" in by_counter["stall_mem_frac"].detail
        assert f"IPC {c['ipc']:.2f}" in by_counter["stall_compute_frac"].detail
        assert c.occupancy_limiter in by_counter["stall_latency_frac"].detail


class TestAttribute:
    def test_headline_without_roofline_leads_with_primary(self, report):
        rep = attribute(report)
        assert isinstance(rep, AttributionReport)
        assert rep.kernel == report.kernel_name
        assert rep.headline.startswith(rep.limiters[0].name)

    def test_roofline_headline_names_bound_and_next_limiter(self, report):
        point = next(
            roofline(p, get_device(device), GRID, report)
            for device, family, order, block, dtype in CASES
            for p in [make_kernel(family, symmetric(order), block, dtype)]
            if p.name == report.kernel_name and device == report.device_name
        )
        rep = attribute(report, point)
        bound = "bandwidth" if point.bandwidth_bound else "compute"
        assert rep.headline.startswith(f"{bound}-bound at ")
        if "next limiter:" in rep.headline:
            nxt = next(x for x in rep.limiters if x.name != bound)
            assert nxt.detail in rep.headline

    def test_render_lists_every_limiter_and_hints(self, report):
        text = attribute(report).render()
        for lim in rank_limiters(report.counters):
            assert lim.name in text
            for hint in lim.hints:
                assert hint in text

    def test_counterless_report_rejected(self, report):
        bare = SimReport(
            device_name=report.device_name,
            kernel_name=report.kernel_name,
            total_cycles=report.total_cycles,
            time_s=report.time_s,
            mpoints_per_s=report.mpoints_per_s,
            gflops=report.gflops,
            load_efficiency=report.load_efficiency,
            bandwidth_gbs=report.bandwidth_gbs,
            occupancy=report.occupancy,
            stages=report.stages,
            active_blocks=report.active_blocks,
            blocks=report.blocks,
        )
        with pytest.raises(ValueError, match="no counters"):
            attribute(bare)


class TestSummaryIntegration:
    """The flame summary prints the same primary limiter the report ranks."""

    def test_summary_limiter_line_matches_attribution(self, capsys):
        from repro import obs
        from repro.gpusim.executor import DeviceExecutor
        from repro.obs.summary import summarize

        plan = make_kernel("inplane_fullslice", symmetric(4), (32, 4, 1, 2), "sp")
        with obs.tracing() as tracer:
            report = DeviceExecutor("gtx580").run(plan, GRID)
        text = summarize(tracer)
        rep = attribute(report)
        assert f"limiter: {rep.limiters[0].name}" in text
        assert f"limited by {report.counters.occupancy_limiter}" in text


def _counterset(**overrides):
    """A schema-complete CounterSet with chosen values overridden."""
    from repro.obs.counters import COUNTER_KEYS, CounterSet

    values = {k: 0.0 for k in COUNTER_KEYS}
    values.update(
        stall_mem_frac=0.4, stall_compute_frac=0.3, stall_latency_frac=0.2,
        stall_sync_frac=0.06, stall_sched_frac=0.04,
        achieved_occupancy=0.5, ipc=1.0, gld_efficiency=1.0,
        gst_efficiency=1.0, dram_bw_fraction=0.5,
    )
    values.update(overrides)
    return CounterSet(values=values, occupancy_limiter="registers")


class TestTieBreaking:
    """Equal stall shares must rank in STALL_KEYS order (stable sort)."""

    def test_all_equal_shares_rank_in_stall_key_order(self):
        equal = _counterset(**{k: 0.2 for k in STALL_KEYS})
        limiters = rank_limiters(equal)
        assert [x.counter for x in limiters] == list(STALL_KEYS)
        assert limiter_name(equal) == LIMITER_NAMES[STALL_KEYS[0]]

    def test_partial_tie_keeps_stall_key_order_within_the_tie(self):
        c = _counterset(
            stall_mem_frac=0.2, stall_compute_frac=0.3,
            stall_latency_frac=0.3, stall_sync_frac=0.1,
            stall_sched_frac=0.1,
        )
        ranked = [x.counter for x in rank_limiters(c)]
        # compute and latency tie at 0.3: compute first (STALL_KEYS order);
        # sync and sched tie at 0.1: sync first.
        assert ranked == [
            "stall_compute_frac", "stall_latency_frac", "stall_mem_frac",
            "stall_sync_frac", "stall_sched_frac",
        ]

    def test_rank_is_deterministic_across_calls(self):
        c = _counterset(**{k: 0.2 for k in STALL_KEYS})
        assert rank_limiters(c) == rank_limiters(c)


class TestDifferential:
    """Winner-vs-runner-up counter attribution (the `repro explain` core)."""

    def winner(self):
        return {"gld_transactions": 690.0, "achieved_occupancy": 0.48,
                "ipc": 1.2}

    def runner_up(self):
        return {"gld_transactions": 1000.0, "achieved_occupancy": 0.50,
                "ipc": 1.2}

    def diff(self, **kwargs):
        from repro.obs.attribution import differential

        defaults = dict(
            winner_label="W", runner_up_label="R",
            winner_rate=150.0, runner_up_rate=100.0,
        )
        defaults.update(kwargs)
        return differential(self.winner(), self.runner_up(), **defaults)

    def test_headline_names_the_trade(self):
        rep = self.diff()
        assert rep.speedup == pytest.approx(1.5)
        assert rep.headline == (
            "winner trades 4% lower achieved occupancy "
            "for 31% fewer gld transactions"
        )

    def test_deltas_rank_by_absolute_relative_change(self):
        rels = [abs(d.rel) for d in self.diff().deltas]
        assert rels == sorted(rels, reverse=True)

    def test_delta_ties_break_on_counter_name(self):
        from repro.obs.attribution import differential

        # Both counters move by exactly -50%: alphabetical order decides.
        rep = differential(
            {"b_counter": 1.0, "a_counter": 2.0},
            {"b_counter": 2.0, "a_counter": 4.0},
            winner_label="W", runner_up_label="R",
            winner_rate=2.0, runner_up_rate=1.0,
        )
        assert [d.counter for d in rep.deltas] == ["a_counter", "b_counter"]

    def test_zero_baseline_clamps_not_crashes(self):
        from repro.obs.attribution import differential

        rep = differential(
            {"local_spill_bytes": 64.0}, {"local_spill_bytes": 0.0},
            winner_label="W", runner_up_label="R",
            winner_rate=2.0, runner_up_rate=1.0,
        )
        assert rep.deltas[0].rel == 1.0
        assert not rep.deltas[0].improved

    def test_identical_counters_make_a_noise_headline(self):
        from repro.obs.attribution import differential

        same = {"ipc": 1.0, "gld_transactions": 10.0}
        rep = differential(
            same, dict(same), winner_label="W", runner_up_label="R",
            winner_rate=1.0, runner_up_rate=1.0,
        )
        assert "noise-level" in rep.headline

    def test_render_and_json_round_trip(self):
        import json

        rep = self.diff()
        text = rep.render()
        assert "W vs R (1.50x)" in text
        assert "gld_transactions" in text
        obj = json.loads(json.dumps(rep.to_json_obj()))
        assert obj["winner"] == "W"
        assert obj["deltas"][0]["improved"] is True

    def test_non_numeric_and_unshared_keys_skipped(self):
        from repro.obs.attribution import differential

        rep = differential(
            {"ipc": 1.0, "occupancy_limiter": "registers", "only_w": 1.0},
            {"ipc": 2.0, "occupancy_limiter": "smem"},
            winner_label="W", runner_up_label="R",
            winner_rate=1.0, runner_up_rate=1.0,
        )
        assert [d.counter for d in rep.deltas] == ["ipc"]
