"""db_bench analog: closed-loop key-value benchmark clients.

Each simulated "process" (the paper's term; db_bench threads) runs a closed
loop of randomreadrandomwrite operations against one DB, mixing reads and
writes per the configured insertion ratio (optionally time-varying for the
burst workloads of case study A).  Latency histograms, a per-second
throughput timeline and queue statistics are collected — everything the
paper's figures plot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import WorkloadError
from repro.lsm.db import DB
from repro.sim.engine import Engine, drive
from repro.sim.rng import RandomStream
from repro.sim.stats import LatencyHistogram, TimeSeries
from repro.sim.units import SEC, seconds
from repro.workloads.generators import (
    BurstSchedule,
    KeySpace,
    ValueSpec,
)


@dataclass(frozen=True)
class DbBenchConfig:
    """Parameters of one benchmark run (paper defaults)."""

    processes: int = 4
    duration_ns: int = seconds(10)
    write_fraction: float = 0.5  # the paper's insertion ratio
    value_size: int = 1024
    key_count: int = 1_000_000
    seed: int = 1
    warmup_ns: int = 0
    schedule: Optional[BurstSchedule] = None
    timeline_bucket_ns: int = SEC

    def __post_init__(self) -> None:
        if self.processes < 1:
            raise WorkloadError(f"processes must be >= 1: {self.processes}")
        if self.duration_ns <= 0:
            raise WorkloadError(f"duration must be positive: {self.duration_ns}")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise WorkloadError(f"write_fraction out of [0,1]: {self.write_fraction}")
        if self.warmup_ns < 0 or self.warmup_ns >= self.duration_ns:
            if self.warmup_ns != 0:
                raise WorkloadError("warmup must fall inside the run")


@dataclass
class BenchResult:
    """Everything a figure needs from one run."""

    config: DbBenchConfig
    ops: int = 0
    reads: int = 0
    writes: int = 0
    measured_ns: int = 0
    read_latency: LatencyHistogram = field(default_factory=LatencyHistogram)
    write_latency: LatencyHistogram = field(default_factory=LatencyHistogram)
    timeline: TimeSeries = field(default_factory=TimeSeries)
    mean_waiting_writers: float = 0.0
    db_tickers: Dict[str, int] = field(default_factory=dict)
    l0_file_counts: List[Tuple[int, int]] = field(
        default_factory=list
    )  # sampled (t, count)

    @property
    def kops(self) -> float:
        """Measured throughput in thousands of operations per second."""
        if self.measured_ns <= 0:
            return 0.0
        return self.ops * SEC / self.measured_ns / 1e3

    @property
    def l0_max(self) -> int:
        """Peak sampled Level-0 file count over the run."""
        return max((count for _t, count in self.l0_file_counts), default=0)

    def summary(self) -> Dict[str, float]:
        return {
            "kops": round(self.kops, 1),
            "read_p50_us": round(self.read_latency.percentile(50) / 1e3, 1),
            "read_p90_us": round(self.read_latency.percentile(90) / 1e3, 1),
            "read_p99_us": round(self.read_latency.percentile(99) / 1e3, 1),
            "write_p50_us": round(self.write_latency.percentile(50) / 1e3, 1),
            "write_p90_us": round(self.write_latency.percentile(90) / 1e3, 1),
            "write_p99_us": round(self.write_latency.percentile(99) / 1e3, 1),
            "mean_waiting": round(self.mean_waiting_writers, 2),
            "l0_max": float(self.l0_max),
        }


class DbBench:
    """Runs one configured workload against one DB."""

    def __init__(self, config: DbBenchConfig) -> None:
        self.config = config

    def run(self, db: DB) -> BenchResult:
        """Execute the workload; returns the collected measurements.

        The engine is run up to the configured duration; background work
        keeps competing with the clients exactly as in the real system.
        """
        cfg = self.config
        engine: Engine = db.engine
        start = engine.now
        end = start + cfg.duration_ns
        measure_from = start + cfg.warmup_ns
        result = BenchResult(config=cfg)
        result.timeline = TimeSeries(bucket_ns=cfg.timeline_bucket_ns)
        keyspace = KeySpace(cfg.key_count)
        values = ValueSpec(cfg.value_size)

        solo = cfg.processes == 1
        for pid in range(cfg.processes):
            rng = RandomStream(cfg.seed, f"db_bench/client{pid}")
            gen = self._client(
                engine, db, rng, keyspace, values, end, measure_from, result,
                solo,
            )
            if solo:
                # The DB fast paths advance the clock synchronously; drive()
                # rebases the client's later kernel sleeps past those warps.
                gen = drive(engine, gen)
            engine.process(gen, name=f"db_bench-{pid}")
        engine.process(
            self._sampler(engine, db, end, result), name="db_bench-sampler"
        )
        engine.run(until=end)

        result.measured_ns = end - measure_from
        result.mean_waiting_writers = db.mean_waiting_writers()
        result.db_tickers = db.stats.tickers()
        return result

    def _client(
        self,
        engine: Engine,
        db: DB,
        rng: RandomStream,
        keyspace: KeySpace,
        values: ValueSpec,
        end: int,
        measure_from: int,
        result: BenchResult,
        solo: bool,
    ):
        """One closed-loop db_bench process.

        Each op sleeps the client overhead, then draws its kind (the write
        chance, read off the burst schedule when one is set) and its key.
        A ``solo`` client first tries ``DB.put_fast``/``get_fast``, which
        finish an op synchronously when nothing else could observe it; it
        must run under :func:`drive`.
        """
        overhead = db.costs.client_op_overhead_ns
        schedule = self.config.schedule
        fraction_at = schedule.write_fraction_at if schedule is not None else None
        write_fraction = self.config.write_fraction
        chance = rng.chance
        randbelow = rng.randbelow
        count = keyspace.count
        key_at = keyspace.key_at
        value_for = values.value_for
        put = db.put
        get = db.get
        put_fast = db.put_fast if solo else None
        get_fast = db.get_fast if solo else None
        record_write = result.write_latency.record
        record_read = result.read_latency.record
        record_finished = result.timeline.record
        version_counter = 1
        while engine.now < end:
            if overhead:
                yield overhead
            write = chance(
                fraction_at(engine.now) if fraction_at else write_fraction
            )
            key_index = randbelow(count)
            key = key_at(key_index)
            began = engine.now
            if write:
                version_counter += 1
                value = value_for(key_index, version_counter)
                if put_fast is None or put_fast(key, value) is None:
                    yield from put(key, value)
            elif get_fast is None or get_fast(key) is None:
                yield from get(key)
            if began >= measure_from:
                finished = engine.now
                if write:
                    result.writes += 1
                    record_write(finished - began)
                else:
                    result.reads += 1
                    record_read(finished - began)
                result.ops += 1
                record_finished(finished)

    def _sampler(self, engine: Engine, db: DB, end: int, result: BenchResult):
        """Sample the Level-0 file count once per timeline bucket."""
        bucket = self.config.timeline_bucket_ns
        while engine.now < end:
            result.l0_file_counts.append(
                (engine.now, db.versions.current.num_files(0))
            )
            yield bucket
