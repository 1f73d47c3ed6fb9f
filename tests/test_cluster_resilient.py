"""Resilient cluster engine: recovery ladder, checkpoints, bit-identity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    CheckpointState,
    ClusterPolicy,
    MultiGpuStencil,
    ResilientClusterStencil,
    grid_digest,
    load_checkpoint,
    save_checkpoint,
)
from repro.errors import CheckpointError, ClusterError, ConfigurationError
from repro.gpusim.faults import ClusterFaultPlan
from repro.kernels.factory import make_kernel
from repro.stencils.spec import symmetric

STORM = ClusterFaultPlan(
    seed=11, link_corrupt_rate=0.3, dropout_rate=0.08, link_degrade_rate=0.2
)


def plan_builder(order=2, block=(16, 4, 1, 2)):
    return lambda: make_kernel("inplane_fullslice", symmetric(order), block)


@pytest.fixture
def engine():
    return ResilientClusterStencil(MultiGpuStencil(plan_builder(), "gtx580"))


class TestPolicy:
    def test_delay_is_deterministic_and_jittered(self):
        policy = ClusterPolicy(seed=3)
        assert policy.delay_s("k", 0) == ClusterPolicy(seed=3).delay_s("k", 0)
        base = policy.backoff_base_s
        for attempt in range(4):
            expect = base * policy.backoff_factor**attempt
            got = policy.delay_s("k", attempt)
            assert expect * (1 - policy.jitter) <= got <= expect * (1 + policy.jitter)

    def test_zero_jitter_is_pure_exponential(self):
        policy = ClusterPolicy(jitter=0.0, backoff_base_s=1.0, backoff_factor=3.0)
        assert [policy.delay_s("k", a) for a in range(3)] == [1.0, 3.0, 9.0]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ClusterPolicy(max_exchange_retries=-1)
        with pytest.raises(ConfigurationError):
            ClusterPolicy(backoff_factor=0.5)
        with pytest.raises(ConfigurationError):
            ClusterPolicy(jitter=1.0)
        with pytest.raises(ConfigurationError):
            ClusterPolicy(min_gpus=0)


class TestCleanPath:
    def test_byte_identical_to_plain_run_steps(self, engine, rng):
        """With no fault plan the resilient path performs exactly the
        plain engine's operations — byte-identical output."""
        g = rng.random((24, 12, 16))
        got = engine.run_campaign(g, 3, 4, cost_points=False)
        want = engine.base.run_steps(g, 3, 4)
        assert got.grid.tobytes() == want.tobytes()
        assert got.exchange_retries == 0
        assert got.quarantined == ()
        assert got.alive == (0, 1, 2)

    def test_zero_steps_returns_input_grid(self, engine, rng):
        g = rng.random((16, 8, 8)).astype(np.float32)
        got = engine.run_campaign(g, 2, 0, cost_points=False)
        assert np.array_equal(got.grid, g)

    def test_cost_points_price_the_fleet(self, engine, rng):
        got = engine.run_campaign(rng.random((24, 12, 16)), 3, 1)
        assert len(got.points) == 1
        assert got.points[0].gpus == 3


class TestStormNumerics:
    def test_storm_stays_exact(self, engine, rng):
        """Quarantine + re-decomposition + retries never change numerics:
        the surviving fleet's grid equals the single-grid sweep."""
        g = rng.random((24, 12, 16))
        got = engine.run_campaign(g, 4, 6, faults=STORM, cost_points=False)
        want = engine.base.run_steps(g, 1, 6)
        assert np.array_equal(got.grid, want)
        assert got.quarantined  # the storm actually bit
        assert got.exchange_retries > 0

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 500), gpus=st.integers(2, 4))
    def test_storm_property(self, seed, gpus):
        rng = np.random.default_rng(seed)
        g = rng.random((20, 8, 8))
        engine = ResilientClusterStencil(
            MultiGpuStencil(plan_builder(), "gtx580"),
            policy=ClusterPolicy(max_exchange_retries=6),
        )
        faults = ClusterFaultPlan(
            seed=seed, link_corrupt_rate=0.25, dropout_rate=0.1
        )
        try:
            got = engine.run_campaign(
                g, gpus, 4, faults=faults, cost_points=False
            )
        except ClusterError:
            return  # the whole fleet died — a legal storm outcome
        want = engine.base.run_steps(g, 1, 4)
        assert np.array_equal(got.grid, want)

    def test_total_dropout_raises_cluster_error(self, engine, rng):
        faults = ClusterFaultPlan(seed=1, dropout_rate=1.0)
        with pytest.raises(ClusterError, match="survive"):
            engine.run_campaign(
                rng.random((16, 8, 8)), 3, 2, faults=faults, cost_points=False
            )

    def test_min_gpus_floor_is_enforced(self, rng):
        engine = ResilientClusterStencil(
            MultiGpuStencil(plan_builder(), "gtx580"),
            policy=ClusterPolicy(min_gpus=4),
        )
        faults = ClusterFaultPlan(seed=11, dropout_rate=0.08)
        with pytest.raises(ClusterError, match="minimum 4"):
            engine.run_campaign(
                rng.random((24, 12, 16)), 4, 6, faults=faults, cost_points=False
            )

    def test_unrecoverable_corruption_raises(self, rng):
        """corrupt_rate=1.0 re-corrupts every retry: ladder exhausted."""
        engine = ResilientClusterStencil(
            MultiGpuStencil(plan_builder(), "gtx580"),
            policy=ClusterPolicy(max_exchange_retries=2),
        )
        faults = ClusterFaultPlan(seed=1, link_corrupt_rate=1.0)
        with pytest.raises(ClusterError, match="3 attempt"):
            engine.run_campaign(
                rng.random((16, 8, 8)), 2, 1, faults=faults, cost_points=False
            )

    def test_degraded_link_prices_higher(self, engine, rng):
        g = rng.random((24, 12, 16))
        clean = engine.run_campaign(g, 4, 6, cost_points=False)
        stormy = engine.run_campaign(
            g, 4, 6,
            faults=ClusterFaultPlan(seed=11, link_degrade_rate=1.0),
            cost_points=False,
        )
        assert stormy.exchange_time_s > clean.exchange_time_s
        # Degradation is pricing-only: the numbers are untouched.
        assert stormy.grid.tobytes() == clean.grid.tobytes()


class TestCheckpointFile:
    def make_state(self, rng, step=3):
        return CheckpointState(
            session="s", step=step, grid=rng.random((8, 4, 4)),
            alive=(0, 2), quarantined=(1,), exchange_retries=5, backoff_s=1.5,
        )

    def test_roundtrip(self, tmp_path, rng):
        state = self.make_state(rng)
        path = save_checkpoint(tmp_path / "g.ckpt", state)
        back = load_checkpoint(path, "s")
        assert np.array_equal(back.grid, state.grid)
        assert back.step == 3
        assert back.alive == (0, 2)
        assert back.quarantined == (1,)
        assert back.exchange_retries == 5
        assert back.backoff_s == 1.5

    def test_atomic_publish_leaves_no_tempfiles(self, tmp_path, rng):
        save_checkpoint(tmp_path / "g.ckpt", self.make_state(rng))
        save_checkpoint(tmp_path / "g.ckpt", self.make_state(rng, step=4))
        assert [p.name for p in tmp_path.iterdir()] == ["g.ckpt"]
        assert load_checkpoint(tmp_path / "g.ckpt", "s").step == 4

    def test_missing_file_refused(self, tmp_path):
        with pytest.raises(CheckpointError, match="does not exist"):
            load_checkpoint(tmp_path / "nope.ckpt", "s")

    def test_foreign_session_refused(self, tmp_path, rng):
        path = save_checkpoint(tmp_path / "g.ckpt", self.make_state(rng))
        with pytest.raises(CheckpointError, match="belongs to session"):
            load_checkpoint(path, "other")

    def test_truncated_payload_refused(self, tmp_path, rng):
        path = save_checkpoint(tmp_path / "g.ckpt", self.make_state(rng))
        raw = path.read_bytes()
        path.write_bytes(raw[:-7])
        with pytest.raises(CheckpointError, match="torn write"):
            load_checkpoint(path, "s")

    def test_corrupted_payload_refused(self, tmp_path, rng):
        path = save_checkpoint(tmp_path / "g.ckpt", self.make_state(rng))
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0x40
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="SHA-256"):
            load_checkpoint(path, "s")

    def test_garbage_header_refused(self, tmp_path):
        path = tmp_path / "g.ckpt"
        path.write_bytes(b"not json\n\x00\x01")
        with pytest.raises(CheckpointError, match="unreadable header"):
            load_checkpoint(path, "s")
        path.write_bytes(b"no newline at all")
        with pytest.raises(CheckpointError, match="no header line"):
            load_checkpoint(path, "s")


class TestResume:
    def run(self, engine, g, steps, **kw):
        return engine.run_campaign(
            g, 4, steps, faults=STORM, cost_points=False, **kw
        )

    def test_kill_and_resume_is_bit_identical(self, engine, tmp_path, rng):
        """The tentpole invariant: stop after k steps, resume to N, and
        the final grid is bit-identical to the uninterrupted run."""
        g = rng.random((24, 12, 16))
        full = self.run(engine, g, 6, checkpoint_path=tmp_path / "a.ckpt",
                        checkpoint_every=2)
        self.run(engine, g, 3, checkpoint_path=tmp_path / "b.ckpt",
                 checkpoint_every=3)
        res = self.run(engine, g, 6, checkpoint_path=tmp_path / "b.ckpt",
                       checkpoint_every=3, resume=True)
        assert res.resumed_from == 3
        assert res.grid.tobytes() == full.grid.tobytes()
        assert res.digest() == full.digest()
        assert res.exchange_retries == full.exchange_retries
        assert res.backoff_s == pytest.approx(full.backoff_s)
        assert res.quarantined == full.quarantined

    def test_resume_at_final_step_is_a_noop(self, engine, tmp_path, rng):
        g = rng.random((24, 12, 16))
        full = self.run(engine, g, 4, checkpoint_path=tmp_path / "c.ckpt",
                        checkpoint_every=2)
        res = self.run(engine, g, 4, checkpoint_path=tmp_path / "c.ckpt",
                       resume=True)
        assert res.resumed_from == 4
        assert res.grid.tobytes() == full.grid.tobytes()

    def test_resume_beyond_requested_steps_refused(self, engine, tmp_path, rng):
        g = rng.random((24, 12, 16))
        self.run(engine, g, 4, checkpoint_path=tmp_path / "d.ckpt",
                 checkpoint_every=2)
        with pytest.raises(CheckpointError, match="beyond"):
            self.run(engine, g, 2, checkpoint_path=tmp_path / "d.ckpt",
                     resume=True)

    def test_resume_requires_a_path(self, engine, rng):
        with pytest.raises(ConfigurationError, match="requires a checkpoint"):
            engine.run_campaign(rng.random((16, 8, 8)), 2, 2, resume=True)

    def test_session_key_excludes_steps(self, engine):
        """--steps k then --resume --steps N must share the checkpoint."""
        key = engine.session_key((24, 12, 16), 4, STORM)
        assert "steps" not in key
        assert "gpus=4" in key
        assert STORM.describe() in key
        assert engine.session_key((24, 12, 16), 4, None).endswith("clean")

    def test_checkpoint_session_binds_campaign_identity(
        self, engine, tmp_path, rng
    ):
        g = rng.random((24, 12, 16))
        self.run(engine, g, 4, checkpoint_path=tmp_path / "e.ckpt",
                 checkpoint_every=2)
        with pytest.raises(CheckpointError, match="belongs to session"):
            # Different fault plan => different session => refused.
            engine.run_campaign(
                g, 4, 6, faults=None, cost_points=False,
                checkpoint_path=tmp_path / "e.ckpt", resume=True,
            )


class TestObservability:
    def test_campaign_emits_catalogued_events(self, engine, tmp_path, rng):
        from repro.obs.events import JsonlEventSink, event_stream, read_events

        g = rng.random((24, 12, 16))
        path = tmp_path / "run.events"
        with event_stream(JsonlEventSink(path)):
            self_run = engine.run_campaign(
                g, 4, 6, faults=STORM, cost_points=False,
                checkpoint_path=tmp_path / "f.ckpt", checkpoint_every=2,
            )
        _header, events = read_events(path, strict=True)
        names = [e.name for e in events]
        assert names[0] == "cluster.run.start"
        assert names[-1] == "cluster.run.finished"
        assert "cluster.gpu.quarantined" in names
        assert "cluster.redecompose" in names
        assert "cluster.exchange.retry" in names
        assert names.count("cluster.checkpoint.written") == \
            self_run.checkpoints_written

    def test_gauges_track_fleet_health(self, engine, rng):
        from repro.obs import tracing

        g = rng.random((24, 12, 16))
        with tracing() as tracer:
            result = engine.run_campaign(
                g, 4, 6, faults=STORM, cost_points=False
            )
        gauges = tracer.metrics.gauges
        assert gauges["cluster.gpus_alive"].value == len(result.alive)
        assert gauges["cluster.exchange_retries"].value == \
            result.exchange_retries

    def test_digest_matches_helper(self, engine, rng):
        g = rng.random((16, 8, 8))
        result = engine.run_campaign(g, 2, 2, cost_points=False)
        assert result.digest() == grid_digest(result.grid)

    def test_summary_mentions_recovery(self, engine, rng):
        result = engine.run_campaign(
            rng.random((24, 12, 16)), 4, 6, faults=STORM, cost_points=False
        )
        text = result.summary()
        assert "quarantined" in text
        assert "retr" in text


class TestCliExitCodes:
    """`repro cluster run` exit codes are stable: 0 ok / 1 fleet / 2 spec."""

    ARGS = [
        "-q", "cluster", "run", "--grid", "24,12,32", "--gpus", "4",
    ]

    def main(self, argv):
        from repro.cli import main

        return main(argv)

    def test_storm_campaign_exits_zero(self, tmp_path, capsys):
        ckpt = str(tmp_path / "g.ckpt")
        argv = self.ARGS + [
            "--steps", "6", "--faults", "seed=11,corrupt=0.3,dropout=0.08",
            "--checkpoint", ckpt, "--every", "2",
        ]
        assert self.main(argv) == 0
        assert "sha256" in capsys.readouterr().out
        assert self.main(argv + ["--resume"]) == 0

    def test_json_digest_matches_resume(self, tmp_path, capsys):
        import json

        ckpt = str(tmp_path / "g.ckpt")
        argv = self.ARGS + [
            "--faults", "seed=11,corrupt=0.3,dropout=0.08",
            "--checkpoint", ckpt, "--json",
        ]
        assert self.main(argv + ["--steps", "6", "--every", "2"]) == 0
        full = json.loads(capsys.readouterr().out)
        assert self.main(argv + ["--steps", "3", "--every", "3"]) == 0
        capsys.readouterr()
        assert self.main(
            argv + ["--steps", "6", "--every", "3", "--resume"]
        ) == 0
        resumed = json.loads(capsys.readouterr().out)
        assert resumed["resumed_from"] == 3
        assert resumed["digest"] == full["digest"]

    def test_dead_fleet_exits_one(self):
        assert self.main(self.ARGS + [
            "--steps", "2", "--faults", "seed=3,dropout=1.0",
        ]) == 1

    def test_unrecoverable_corruption_exits_one(self):
        assert self.main(self.ARGS + [
            "--steps", "1", "--faults", "corrupt=1.0", "--max-retries", "1",
        ]) == 1

    def test_bad_fault_spec_exits_two(self):
        assert self.main(self.ARGS + ["--faults", "frobnicate=1"]) == 2

    def test_missing_resume_checkpoint_exits_two(self, tmp_path):
        assert self.main(self.ARGS + [
            "--steps", "2", "--checkpoint", str(tmp_path / "absent.ckpt"),
            "--resume",
        ]) == 2

    def test_corrupt_checkpoint_exits_two(self, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"not a checkpoint\njunk")
        assert self.main(self.ARGS + [
            "--steps", "2", "--checkpoint", str(bad), "--resume",
        ]) == 2

    def test_impossible_decomposition_exits_two(self):
        assert self.main([
            "-q", "cluster", "run", "--grid", "16,16,4", "--gpus", "8",
            "--steps", "1",
        ]) == 2
