"""Tests for the YCSB workload suite and the Zipfian generator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.sim.rng import RandomStream
from repro.sim.units import seconds
from repro.storage.profiles import xpoint_ssd
from repro.workloads.prefill import PrefillSpec, prefill
from repro.workloads.ycsb import (
    CORE_WORKLOADS,
    OP_INSERT,
    OP_READ,
    OP_RMW,
    OP_SCAN,
    OP_UPDATE,
    LatestGenerator,
    YcsbRunner,
    YcsbSpec,
    ZipfianGenerator,
)
from tests.conftest import make_db, tiny_options


class TestZipfian:
    def test_range_respected(self):
        gen = ZipfianGenerator(1000)
        rng = RandomStream(1, "z")
        for _ in range(2000):
            assert 0 <= gen.next(rng) < 1000

    def test_skew_head_is_hot(self):
        """With theta=0.99, the hottest ~1% of keys draw a large share."""
        gen = ZipfianGenerator(10_000)
        rng = RandomStream(2, "z")
        draws = [gen.next(rng) for _ in range(5000)]
        head = sum(1 for d in draws if d < 100)
        assert head / len(draws) > 0.3

    def test_higher_theta_more_skew(self):
        def head_share(theta):
            gen = ZipfianGenerator(10_000, theta)
            rng = RandomStream(3, f"z{theta}")
            draws = [gen.next(rng) for _ in range(4000)]
            return sum(1 for d in draws if d < 100) / len(draws)

        assert head_share(0.99) > head_share(0.5)

    def test_validation(self):
        with pytest.raises(WorkloadError):
            ZipfianGenerator(0)
        with pytest.raises(WorkloadError):
            ZipfianGenerator(10, theta=1.5)

    @given(n=st.integers(min_value=1, max_value=50_000))
    @settings(max_examples=20, deadline=None)
    def test_any_range_stays_in_bounds(self, n):
        gen = ZipfianGenerator(n)
        rng = RandomStream(4, "zb")
        for _ in range(50):
            assert 0 <= gen.next(rng) < n


class _FixedU:
    """Stub rng whose uniform draw is pinned (boundary regression probe)."""

    def __init__(self, u: float) -> None:
        self._u = u

    def random(self) -> float:
        return self._u


class TestZipfianBoundary:
    @pytest.mark.parametrize("n", [3, 10, 1000])
    def test_draw_at_top_of_unit_interval_stays_below_n(self, n):
        """Regression: as u -> 1 the tail formula's float rounding landed on
        exactly ``n`` — one past the documented [0, n) range — sending reads
        to a key that does not exist and inserts to a colliding index."""
        gen = ZipfianGenerator(n)
        assert gen.next(_FixedU(1.0 - 2**-53)) <= n - 1
        # random.random() never returns 1.0, but the clamp must hold anyway.
        assert gen.next(_FixedU(1.0)) == n - 1

    @pytest.mark.parametrize("theta", [0.3, 0.5, 0.99])
    def test_clamp_holds_for_any_theta(self, theta):
        gen = ZipfianGenerator(100, theta)
        for u in (0.999999, 1.0 - 2**-53, 1.0):
            assert 0 <= gen.next(_FixedU(u)) < 100


class TestLatest:
    def test_prefers_recent(self):
        gen = LatestGenerator(10_000)
        rng = RandomStream(5, "l")
        draws = [gen.next(rng) for _ in range(3000)]
        recent = sum(1 for d in draws if d >= 9_900)
        assert recent / len(draws) > 0.3

    def test_grow_extends_range(self):
        gen = LatestGenerator(10)
        for _ in range(100):
            gen.grow()
        rng = RandomStream(6, "l")
        assert max(gen.next(rng) for _ in range(500)) > 10


class TestSpecs:
    def test_core_workloads_registered(self):
        assert sorted(CORE_WORKLOADS) == ["A", "B", "C", "D", "E", "F"]

    def test_mix_fractions_sum_to_one(self):
        for spec in CORE_WORKLOADS.values():
            total = spec.read + spec.update + spec.insert + spec.scan + spec.rmw
            assert total == pytest.approx(1.0), spec.name

    def test_invalid_mix_rejected(self):
        with pytest.raises(WorkloadError):
            YcsbSpec("bad", read=0.5)
        with pytest.raises(WorkloadError):
            YcsbSpec("bad", read=1.0, distribution="gaussian")

    def test_pick_op_frequencies(self):
        spec = CORE_WORKLOADS["B"]  # 95/5
        rng = RandomStream(7, "ops")
        reads = sum(spec.pick_op(rng) == OP_READ for _ in range(4000))
        assert reads / 4000 == pytest.approx(0.95, abs=0.02)

    def test_pick_op_rmw(self):
        spec = CORE_WORKLOADS["F"]
        rng = RandomStream(8, "ops")
        ops = {spec.pick_op(rng) for _ in range(200)}
        assert ops == {OP_READ, OP_RMW}


class TestRunner:
    def run_workload(self, engine, name, duration=0.15):
        db = make_db(engine, profile=xpoint_ssd(), options=tiny_options())
        prefill(db, PrefillSpec(key_count=5000, value_size=64))
        runner = YcsbRunner(
            CORE_WORKLOADS[name],
            key_count=5000,
            value_size=64,
            clients=2,
            duration_ns=seconds(duration),
            seed=9,
        )
        return runner.run(db)

    @pytest.mark.parametrize(
        "kwargs",
        [{"clients": 0}, {"clients": -1}, {"duration_ns": 0}, {"duration_ns": -5}],
        ids=["zero-clients", "negative-clients", "zero-duration", "negative-duration"],
    )
    def test_invalid_runner_rejected(self, kwargs):
        """No clients would report 0 kop/s for a run that did nothing; a
        negative duration would end the run before it starts."""
        with pytest.raises(WorkloadError):
            YcsbRunner(CORE_WORKLOADS["A"], key_count=100, **kwargs)

    @pytest.mark.parametrize("name", ["A", "B", "C", "D", "E", "F"])
    def test_all_core_workloads_run(self, engine, name):
        result = self.run_workload(engine, name)
        assert result.ops > 0
        assert result.kops > 0
        assert result.latency.count == result.ops

    def test_workload_c_pure_reads(self, engine):
        result = self.run_workload(engine, "C")
        assert set(result.op_counts) == {OP_READ}

    def test_workload_d_inserts_fresh_keys(self, engine):
        result = self.run_workload(engine, "D")
        assert result.op_counts.get(OP_INSERT, 0) > 0

    def test_workload_e_scans(self, engine):
        result = self.run_workload(engine, "E")
        assert result.op_counts.get(OP_SCAN, 0) > 0

    def test_summary_keys(self, engine):
        summary = self.run_workload(engine, "A").summary()
        assert {"workload", "kops", "p50_us", "p99_us"} <= set(summary)

    def test_deterministic(self):
        from repro.sim.engine import Engine

        def run():
            engine = Engine()
            return self.run_workload(engine, "A")

        a, b = run(), run()
        assert a.ops == b.ops
        assert a.latency.total == b.latency.total

    def test_runner_is_reentrant(self):
        """Regression: ``_next_insert`` leaked across ``run()`` calls, so a
        reused runner's second run keyed inserts past the first run's end
        and clamped lookups against a stale key-space bound."""
        from repro.sim.engine import Engine

        runner = YcsbRunner(
            CORE_WORKLOADS["D"],
            key_count=3000,
            value_size=64,
            clients=2,
            duration_ns=seconds(0.1),
            seed=13,
        )

        def run_once():
            engine = Engine()
            db = make_db(engine, profile=xpoint_ssd(), options=tiny_options())
            prefill(db, PrefillSpec(key_count=3000, value_size=64))
            return runner.run(db)

        first = run_once()
        inserted = runner._next_insert - runner.key_count
        assert inserted == first.op_counts.get(OP_INSERT, 0)
        second = run_once()
        # Fresh run, fresh key space: the counter restarts at key_count
        # instead of continuing where the first run stopped.
        assert runner._next_insert - runner.key_count == second.op_counts.get(
            OP_INSERT, 0
        )
        assert first.ops == second.ops
        assert first.op_counts == second.op_counts


class TestChooserRanges:
    """Seed-swept property: every distribution stays inside the key space."""

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=1, max_value=5000),
        dist=st.sampled_from(["zipfian", "latest", "uniform"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_pick_key_in_range_for_all_ops(self, seed, n, dist):
        runner = YcsbRunner(
            YcsbSpec("probe", read=1.0, distribution=dist), key_count=n
        )
        if dist == "latest":
            chooser = LatestGenerator(n)
        elif dist == "zipfian":
            chooser = ZipfianGenerator(n)
        else:
            chooser = None
        rng = RandomStream(seed, "chooser-range")
        for step in range(120):
            assert 0 <= runner._pick_key(rng, chooser) < runner._next_insert
            if step % 10 == 9:  # interleave inserts: the bound must track
                runner._next_insert += 1
                if isinstance(chooser, LatestGenerator):
                    chooser.grow()
