"""Bottleneck attribution: counters + roofline → a ranked limiter report.

The paper's own analysis narrative — "the 2nd order SP stencil is
bandwidth-limited", "DP high orders are register-pressure-limited" — is
reproduced here as a queryable object: the stall breakdown of one
launch's :class:`~repro.obs.counters.CounterSet` is ranked into
:class:`Limiter` entries, each explained from the counters that drive it
(achieved-bandwidth fraction, load efficiency, replay rate, occupancy
with its binding resource) and cross-referenced to the static-analysis
rule ids (:mod:`repro.analysis.rules`) that tell the user *what to do
about it*.  Merged with a :class:`~repro.metrics.roofline.RooflinePoint`
it yields the one-line verdict the issue demands: "bandwidth-bound at
83% of ceiling; next limiter: exposed latency from occupancy 0.33,
limited by registers".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from repro.obs.counters import STALL_KEYS, CounterSet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.gpusim.report import SimReport
    from repro.metrics.roofline import RooflinePoint

#: stall counter → human limiter name (stable API: summary + CLI print these).
LIMITER_NAMES: dict[str, str] = {
    "stall_mem_frac": "bandwidth",
    "stall_compute_frac": "compute",
    "stall_latency_frac": "exposed latency",
    "stall_sync_frac": "barrier sync",
    "stall_sched_frac": "block scheduling",
}

#: occupancy limiter resource → the analysis rule that pre-checks it.
_OCC_RULE = {
    "registers": "RES-REGS",
    "smem": "RES-SMEM",
    "warps": "RES-THREADS",
    "blocks": "RES-NOFIT",
}

#: gld efficiency below this is worth a coalescing hint (the Fig 9
#: plateau for well-coalesced kernels sits above it).
_GLD_EFF_HINT = 0.95


@dataclass(frozen=True)
class Limiter:
    """One ranked bottleneck: where the cycles went and why."""

    name: str              #: human name (a ``LIMITER_NAMES`` value)
    counter: str           #: the stall counter that scored it
    share: float           #: fraction of total cycles it claims
    detail: str            #: counter-backed explanation
    hints: tuple[str, ...] = ()  #: ``repro.analysis`` rule ids to act on


@dataclass(frozen=True)
class AttributionReport:
    """Ranked limiters of one launch, with the roofline verdict."""

    kernel: str
    device: str
    headline: str
    limiters: tuple[Limiter, ...]

    def render(self) -> str:
        lines = [f"{self.kernel} on {self.device}: {self.headline}"]
        for i, lim in enumerate(self.limiters, 1):
            lines.append(
                f"  {i}. {lim.name:<16s} {lim.share:6.1%} of cycles — {lim.detail}"
            )
            if lim.hints:
                lines.append(f"     hints: {', '.join(lim.hints)}")
        return "\n".join(lines)


#: counters where a larger value is the *good* direction; everything else
#: (stall fractions, replay rates, spill bytes, transaction counts) is a
#: cost.  Drives the trades/for phrasing in :func:`differential`.
_HIGHER_IS_BETTER: frozenset[str] = frozenset({
    "dram_bw_fraction",
    "gld_efficiency",
    "gst_efficiency",
    "ipc",
    "achieved_occupancy",
})


@dataclass(frozen=True)
class CounterDelta:
    """One counter's move between two configs (winner minus runner-up)."""

    counter: str       #: counter key (a ``CounterSet.as_dict()`` key)
    winner: float      #: winner's value
    runner_up: float   #: runner-up's value
    rel: float         #: signed relative change vs the runner-up

    @property
    def improved(self) -> bool:
        """Did the winner move this counter in its good direction?"""
        if self.counter in _HIGHER_IS_BETTER:
            return self.rel > 0
        return self.rel < 0

    def describe(self) -> str:
        """``"31% fewer gld transactions"``-style phrase."""
        label = self.counter.replace("_", " ")
        pct = abs(self.rel)
        if self.counter in _HIGHER_IS_BETTER:
            word = "higher" if self.rel > 0 else "lower"
        else:
            word = "fewer" if self.rel < 0 else "more"
        return f"{pct:.0%} {word} {label}"


@dataclass(frozen=True)
class DifferentialReport:
    """Why the winner beat the runner-up, in counter terms."""

    winner_label: str
    runner_up_label: str
    speedup: float                      #: winner rate / runner-up rate
    headline: str
    deltas: tuple[CounterDelta, ...]    #: largest relative move first

    def render(self) -> str:
        lines = [
            f"{self.winner_label} vs {self.runner_up_label} "
            f"({self.speedup:.2f}x): {self.headline}"
        ]
        for d in self.deltas:
            lines.append(
                f"  {d.counter:<22s} {d.winner:>12.4g} vs {d.runner_up:>12.4g}"
                f"  ({d.describe()})"
            )
        return "\n".join(lines)

    def to_json_obj(self) -> dict[str, object]:
        return {
            "winner": self.winner_label,
            "runner_up": self.runner_up_label,
            "speedup": self.speedup,
            "headline": self.headline,
            "deltas": [
                {
                    "counter": d.counter,
                    "winner": d.winner,
                    "runner_up": d.runner_up,
                    "rel": d.rel,
                    "improved": d.improved,
                }
                for d in self.deltas
            ],
        }


def _rel_change(winner: float, runner_up: float) -> float:
    """Signed relative change, defined for zero baselines.

    A zero runner-up value with a non-zero winner value is an unbounded
    relative move; it is clamped to ±1 so ranking and rendering stay
    finite and deterministic.
    """
    if runner_up:
        return (winner - runner_up) / abs(runner_up)
    if winner == runner_up:
        return 0.0
    return 1.0 if winner > runner_up else -1.0


def differential(
    winner: Mapping[str, float],
    runner_up: Mapping[str, float],
    *,
    winner_label: str,
    runner_up_label: str,
    winner_rate: float,
    runner_up_rate: float,
    top: int = 5,
) -> DifferentialReport:
    """Winner-vs-runner-up attribution over two counter dicts.

    Takes ``CounterSet.as_dict()``-shaped mappings (which is what the
    trial archive stores), ranks the shared numeric counters by absolute
    relative change — ties broken by counter name so the report is a pure
    function of its inputs — and phrases the headline as the trade the
    winner made: its largest sacrificed counter against its largest
    gained one.
    """
    keys = sorted(
        k for k in winner
        if k in runner_up
        and isinstance(winner[k], (int, float))
        and isinstance(runner_up[k], (int, float))
        and not isinstance(winner[k], bool)
    )
    deltas = sorted(
        (
            CounterDelta(
                counter=k,
                winner=float(winner[k]),
                runner_up=float(runner_up[k]),
                rel=_rel_change(float(winner[k]), float(runner_up[k])),
            )
            for k in keys
        ),
        key=lambda d: (-abs(d.rel), d.counter),
    )
    speedup = (
        winner_rate / runner_up_rate if runner_up_rate else float(bool(winner_rate))
    )
    moved = [d for d in deltas if d.rel]
    gains = [d for d in moved if d.improved]
    costs = [d for d in moved if not d.improved]
    if gains and costs:
        headline = f"winner trades {costs[0].describe()} for {gains[0].describe()}"
    elif gains:
        headline = f"winner gains {gains[0].describe()} at no counter cost"
    elif costs:
        headline = (
            f"winner pays {costs[0].describe()} yet still wins on rate"
        )
    else:
        headline = "counters are identical; rate difference is noise-level"
    return DifferentialReport(
        winner_label=winner_label,
        runner_up_label=runner_up_label,
        speedup=speedup,
        headline=headline,
        deltas=tuple(deltas[:top]),
    )


def limiter_name(counters: CounterSet | Mapping[str, float]) -> str:
    """The primary limiter's human name (what the flame summary prints).

    Accepts a :class:`CounterSet` or its ``as_dict()`` form (trace span
    args), so the flame summary and the attribution report rank with the
    same function.
    """
    top = max(STALL_KEYS, key=lambda k: counters[k])
    return LIMITER_NAMES[top]


def rank_limiters(counters: CounterSet) -> tuple[Limiter, ...]:
    """All five limiters, largest cycle share first, each explained."""
    details = {
        "stall_mem_frac": _mem_detail(counters),
        "stall_compute_frac": _compute_detail(counters),
        "stall_latency_frac": _latency_detail(counters),
        "stall_sync_frac": ("block-wide barriers serialize every plane", ()),
        "stall_sched_frac": (
            "per-block placement overhead across scheduling waves", ()
        ),
    }
    ranked = sorted(STALL_KEYS, key=lambda k: counters[k], reverse=True)
    return tuple(
        Limiter(
            name=LIMITER_NAMES[key],
            counter=key,
            share=counters[key],
            detail=details[key][0],
            hints=details[key][1],
        )
        for key in ranked
    )


def _mem_detail(c: CounterSet) -> tuple[str, tuple[str, ...]]:
    detail = (
        f"DRAM stream at {c['dram_bw_fraction']:.0%} of measured bandwidth, "
        f"gld efficiency {c['gld_efficiency']:.0%}"
    )
    hints: tuple[str, ...] = ()
    if c["gld_efficiency"] < _GLD_EFF_HINT:
        hints = ("MEM-UNCOALESCED-STRIP", "MEM-MISALIGNED")
    return detail, hints


def _compute_detail(c: CounterSet) -> tuple[str, tuple[str, ...]]:
    detail = f"issue/arithmetic pipes at IPC {c['ipc']:.2f}"
    hints: list[str] = []
    if c["shared_replay_rate"] > 0:
        detail += (
            f", smem replay rate {c['shared_replay_rate']:.2f} per instruction"
        )
        hints += ["MEM-BANK-CONFLICT", "MEM-DP-BANKS"]
    if c["local_spill_bytes"] > 0:
        detail += ", register spill traffic in the stream"
        hints.append("RES-SPILL")
    return detail, tuple(hints)


def _latency_detail(c: CounterSet) -> tuple[str, tuple[str, ...]]:
    detail = (
        f"exposed DRAM latency from occupancy "
        f"{c['achieved_occupancy']:.2f}, limited by {c.occupancy_limiter}"
    )
    rule = _OCC_RULE.get(c.occupancy_limiter)
    return detail, (rule,) if rule else ()


def attribute(
    report: "SimReport", point: "RooflinePoint | None" = None
) -> AttributionReport:
    """Build the ranked limiter report for one simulated launch.

    ``point`` (from :func:`repro.metrics.roofline.roofline`) upgrades the
    headline from the stall ranking to the roofline verdict; without it
    the primary limiter leads.
    """
    counters = report.counters
    if counters is None:
        raise ValueError(
            "report carries no counters (hand-built SimReport?); "
            "run it through the executor"
        )
    limiters = rank_limiters(counters)
    if point is not None:
        bound = "bandwidth" if point.bandwidth_bound else "compute"
        headline = f"{bound}-bound at {point.efficiency:.0%} of ceiling"
        next_up = next((x for x in limiters if x.name != bound), None)
    else:
        headline = (
            f"{limiters[0].name} claims {limiters[0].share:.0%} of cycles"
        )
        next_up = limiters[1] if len(limiters) > 1 else None
    if next_up is not None and next_up.share > 0:
        headline += f"; next limiter: {next_up.detail}"
    return AttributionReport(
        kernel=report.kernel_name,
        device=report.device_name,
        headline=headline,
        limiters=limiters,
    )
