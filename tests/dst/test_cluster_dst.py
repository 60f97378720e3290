"""Tests for the cluster DST harness (repro.dst.cluster)."""

import pytest

from repro.dst import ClusterDstConfig, ClusterDstRun
from repro.dst.__main__ import _seed_worker
from repro.dst.scenarios import MODE_CLUSTER
from repro.faults import CRASH, HEAL, PARTITION, FaultSchedule, FaultSpec
from repro.perf.parallel import imap_points
from repro.sim.units import ms


pytestmark = pytest.mark.dst


class TestDeterminism:
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_same_seed_same_run(self, seed):
        """Two in-process runs of one seed are byte-identical — event log,
        verdict, final leader-log digest, and fault schedule all match."""
        a = ClusterDstRun(seed, ClusterDstConfig(num_ops=80)).run()
        b = ClusterDstRun(seed, ClusterDstConfig(num_ops=80)).run()
        assert a.events == b.events
        assert a.verdict == b.verdict
        assert a.log_digest == b.log_digest
        assert a.schedule_json == b.schedule_json

    def test_different_seeds_diverge(self):
        a = ClusterDstRun(1, ClusterDstConfig(num_ops=80)).run()
        b = ClusterDstRun(2, ClusterDstConfig(num_ops=80)).run()
        assert a.events != b.events

    def test_serial_and_parallel_sweeps_match(self):
        """Per-node/link RNG substreams make --jobs a pure speedup: the
        parallel sweep's results are byte-identical to the serial loop's."""
        items = [(MODE_CLUSTER, seed, {"num_ops": 60}, False) for seed in range(6)]
        serial = [r for r, _ in imap_points(_seed_worker, items, jobs=1)]
        parallel = [r for r, _ in imap_points(_seed_worker, items, jobs=2)]
        for a, b in zip(serial, parallel):
            assert a.events == b.events
            assert a.log_digest == b.log_digest
            assert a.verdict == b.verdict


class TestVerdicts:
    def test_clean_run_commits_everything(self):
        result = ClusterDstRun(5, ClusterDstConfig(num_ops=60, faults=False)).run()
        assert result.ok, result.reason
        assert result.crashes == 0
        assert result.writes_acked == result.writes_issued
        assert result.converged

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", range(12))
    def test_seed_sweep_holds_invariants(self, seed):
        """A slice of the CI sweep: random crash/partition/net faults, all
        cluster invariants (acked durability, prefix convergence, one
        leader per term, no resurrection)."""
        result = ClusterDstRun(seed, ClusterDstConfig()).run()
        assert result.ok, f"seed {seed}: {result.reason}\n" + "\n".join(
            result.events[-25:]
        )


class TestCrashPartitionProperty:
    """Quorum-acked writes survive crash x partition combinations, and
    divergent unacked tails are truncated, never resurrected."""

    def schedule_for(self, leader_id, horizon):
        # Isolate the current leader mid-run, crash it inside the window,
        # heal later: the classic lost-update recipe.  Writes it acked
        # before the partition must survive; whatever it appended alone
        # must be cut on rejoin.
        return FaultSchedule(
            [
                FaultSpec(PARTITION, at_time=horizon // 3, until_time=horizon, nodes=(leader_id,)),
                FaultSpec(CRASH, at_time=horizon // 2, node=leader_id),
                FaultSpec(HEAL, at_time=(2 * horizon) // 3),
            ]
        )

    @pytest.mark.parametrize("seed", [0, 2, 4, 7, 9])
    def test_acked_survive_and_tails_never_resurrect(self, seed):
        probe = ClusterDstRun(seed, ClusterDstConfig(num_ops=40, faults=False))
        probe.run()
        leader_id = probe.cluster.leader_id
        cfg = ClusterDstConfig(num_ops=100)
        schedule = self.schedule_for(leader_id, cfg.horizon_ns)
        run = ClusterDstRun(seed, ClusterDstConfig(num_ops=100, schedule=schedule))
        result = run.run()
        assert result.ok, f"seed {seed}: {result.reason}\n" + "\n".join(
            result.events[-25:]
        )
        assert result.crashes == 1
        truncated = run.cluster.truncated_identities
        for node in run.cluster.nodes:
            assert not (truncated & {g.identity for g in node.log})
