"""Pinned md5 digests of seeded workload and DST runs.

Each digest covers everything observable about a run — summaries, op
counts, DB tickers, raw histogram buckets, timelines, event logs — so any
drift in the op stream, RNG draw order, clock or stats recording fails
loudly.  A model change that legitimately moves a digest must say so and
re-pin it.

The solo configs exercise ``DB.put_fast``/``get_fast`` under ``drive()``;
the 4-process configs run the plain generator path.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.harness.experiments import DEVICES
from repro.harness.machine import Machine
from repro.harness.presets import preset_by_name
from repro.lsm.db import DB
from repro.sim.units import ms, seconds
from repro.workloads.db_bench import DbBench, DbBenchConfig
from repro.workloads.generators import BurstSchedule
from repro.workloads.prefill import prefill
from repro.workloads.ycsb import CORE_WORKLOADS, YcsbRunner, YcsbSpec

#: Uniform keys plus inserts: the key-draw bound grows with every insert.
UNIFORM_INSERT = YcsbSpec("U", read=0.5, insert=0.5, distribution="uniform")


def _digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.md5(blob.encode()).hexdigest()


def _tiny_db():
    preset = preset_by_name("tiny")
    machine = Machine.create(
        DEVICES["pcie-flash"](), preset.page_cache_bytes, seed=11
    )
    db = machine.open_db(preset.options())
    prefill(db, preset.prefill_spec())
    return preset, db


def _db_bench_digest(write_fraction: float, processes: int, schedule=None) -> str:
    preset, db = _tiny_db()
    duration = int(seconds(0.1))
    cfg = DbBenchConfig(
        processes=processes,
        duration_ns=duration,
        write_fraction=write_fraction,
        value_size=preset.value_size,
        key_count=preset.key_count,
        seed=11,
        timeline_bucket_ns=max(1, duration // 10),
        schedule=schedule,
    )
    result = DbBench(cfg).run(db)
    return _digest(
        {
            "summary": result.summary(),
            "ops": [result.ops, result.reads, result.writes],
            "tickers": result.db_tickers,
            "timeline": sorted(result.timeline._buckets.items()),
            "l0": result.l0_file_counts,
            "rlat": sorted(result.read_latency._buckets.items()),
            "wlat": sorted(result.write_latency._buckets.items()),
        }
    )


def _ycsb_digest(spec: YcsbSpec, clients: int) -> str:
    preset, db = _tiny_db()
    runner = YcsbRunner(
        spec,
        key_count=preset.key_count,
        value_size=preset.value_size,
        clients=clients,
        duration_ns=int(seconds(0.08)),
        seed=11,
    )
    result = runner.run(db)
    return _digest(
        {
            "summary": result.summary(),
            "ops": result.ops,
            "op_counts": result.op_counts,
            "tickers": db.stats.tickers(),
            "lat": sorted(result.latency._buckets.items()),
            "rlat": sorted(result.read_latency._buckets.items()),
            "ulat": sorted(result.update_latency._buckets.items()),
        }
    )


def _storm_digest(seed: int) -> str:
    from repro.dst.storm import StormConfig, StormRun

    result = StormRun(seed, StormConfig(num_ops=200)).run()
    assert result.ok, result.reason
    return _digest(
        {
            "verdict": result.verdict,
            "writes": [
                result.writes_issued,
                result.writes_acked,
                result.writes_rejected,
            ],
            "degraded": [result.degraded_entries, result.resume_successes],
            "quiesce_ns": result.quiesce_ns,
            "events": result.events,
        }
    )


def _serving_digest(seed: int) -> str:
    from repro.dst.serving import ServingDstConfig, ServingDstRun

    cfg = ServingDstConfig(duration_ns=ms(40), settle_ns=ms(120))
    result = ServingDstRun(seed, cfg).run()
    assert result.ok, result.reason
    return _digest(
        {
            "verdict": result.verdict,
            "ops": [result.ops, result.shed, result.errors],
            "acked": result.writes_acked,
            "failovers": result.failovers,
            "log_digest": result.log_digest,
            "tenants": result.tenant_rows,
            "events": result.events,
        }
    )


def _burst() -> BurstSchedule:
    """1:1 baseline with all-write bursts (the write chance saturates)."""
    return BurstSchedule(0.5, 1.0, ms(20), ms(5))


class TestDbBenchDigests:
    @pytest.mark.parametrize(
        "write_fraction,processes,expected",
        [
            (0.0, 1, "8d1a3ec89e2dddc73720ed6c998f4991"),
            (0.0, 4, "ca0161a2abe924858ee28cbdae7a4197"),
            (0.5, 1, "1bece67fae37df74ef642b5a3c3d4be7"),
            (0.5, 4, "628c68b34f57caecba59773308f6482c"),
            (1.0, 1, "627f04c0bf98b883f63139a734f08574"),
            (1.0, 4, "dbb418eeee62aa644727d9664666c12a"),
        ],
        ids=["read-1", "read-4", "mixed-1", "mixed-4", "fill-1", "fill-4"],
    )
    def test_pinned(self, write_fraction, processes, expected):
        assert _db_bench_digest(write_fraction, processes) == expected

    @pytest.mark.parametrize(
        "processes,expected",
        [
            (1, "241f72d47b57efcabb1f144559221647"),
            (4, "ced0af17dc9e2970bda42054766ee22f"),
        ],
        ids=["1", "4"],
    )
    def test_burst_schedule_pinned(self, processes, expected):
        assert _db_bench_digest(0.5, processes, _burst()) == expected


class TestYcsbDigests:
    @pytest.mark.parametrize(
        "workload,clients,expected",
        [
            ("A", 1, "db1b33c2970c12200edbb488f0fbe2c9"),
            ("A", 4, "920f92f83302d9b2b1b9a703097ec173"),
            ("B", 1, "9ac30ec0438737b7a7e4c424f799eb1b"),
            ("B", 4, "918d517aa0fb4120a6a14f7fcc0a1416"),
            ("C", 1, "1874907addbcf16c7aadc1a226f24cd9"),
            ("C", 4, "fef56921c0ef935b0c97135fdbdd392e"),
            ("D", 1, "e2ea720ead4a4e19a4afd62789263189"),
            ("D", 4, "7088bc64a0f52ecfbf9ca800992db522"),
            ("E", 1, "6569558e8dbb652fa00ca466d17963c6"),
            ("E", 4, "5a8cc8175ed64b97ca9cbda8d19a4c76"),
            ("F", 1, "9fb34db5ca62746b9088cfaec3d7c214"),
            ("F", 4, "c976c986b308b8c002bf5d01aac76eb4"),
        ],
        ids=[f"{w}{c}" for w in "ABCDEF" for c in (1, 4)],
    )
    def test_pinned(self, workload, clients, expected):
        assert _ycsb_digest(CORE_WORKLOADS[workload], clients) == expected

    @pytest.mark.parametrize(
        "clients,expected",
        [
            (1, "9bca210d4c33a79847a00dc74a348126"),
            (4, "70dba400afaec09d95f0968069e77abc"),
        ],
        ids=["1", "4"],
    )
    def test_uniform_insert_pinned(self, clients, expected):
        assert _ycsb_digest(UNIFORM_INSERT, clients) == expected


class TestDstSeedDigests:
    def test_storm_seed(self):
        assert _storm_digest(seed=3) == "47657bb0bdd89ccaddf19b788e753fa3"

    def test_serving_chaos_seed(self):
        assert _serving_digest(seed=0) == "c32bbe74b1c46cc5b31cf48af809bab7"


@pytest.fixture
def fast_path_hits(monkeypatch):
    """Count calls of each DB fast path, and the ones that completed an op."""
    hits = {"put_fast": [0, 0], "get_fast": [0, 0]}  # [calls, completed]

    def counted(name):
        original = getattr(DB, name)

        def wrapper(self, *args):
            out = original(self, *args)
            hits[name][0] += 1
            hits[name][1] += out is not None
            return out

        monkeypatch.setattr(DB, name, wrapper)

    counted("put_fast")
    counted("get_fast")
    return hits


class TestSoloFastPath:
    def test_db_bench_solo_takes_fast_paths(self, fast_path_hits):
        _db_bench_digest(0.5, 1)
        assert fast_path_hits["put_fast"][1] > 0
        assert fast_path_hits["get_fast"][1] > 0

    def test_ycsb_solo_takes_fast_paths(self, fast_path_hits):
        _ycsb_digest(CORE_WORKLOADS["A"], 1)
        assert fast_path_hits["put_fast"][1] > 0
        assert fast_path_hits["get_fast"][1] > 0

    def test_concurrent_clients_never_call_fast_paths(self, fast_path_hits):
        _db_bench_digest(0.5, 4)
        _ycsb_digest(CORE_WORKLOADS["A"], 4)
        assert fast_path_hits == {"put_fast": [0, 0], "get_fast": [0, 0]}
