"""The benchmark workloads: set-up, timed run, checks and counters.

Three db_bench workloads run the ``small`` preset (1M keys x 1 KB values,
84 MB page cache, 8 MB block cache) with 4 closed-loop simulated clients
on one device each.  ``serving_steady`` runs the serving DST harness
(2 shards x 3 replicas on XPoint, 3 tenants) with fault injection off, and
``serving_chaos`` the same harness with a seed-drawn leader crash or
partition per episode; both on episode seeds derived from the benchmark
seed.  ``serving_chaos`` is not in ``BENCHMARK.json``: the program fails
its DST invariants on some seeds (see README.md).

A workload's simulated length is fixed by ``--seconds`` times a
per-workload constant, never by the host clock, so every ``sim_*`` number
and the ``sim_digest`` depend on the seed and ``--seconds`` alone.  Only
the ``host_*`` and ``*_s`` figures vary from run to run.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import resource
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.dst.serving import ServingDstConfig, ServingDstRun
from repro.harness.experiments import DEVICES
from repro.harness.machine import Machine
from repro.harness.presets import SMALL
from repro.sim.stats import LatencyHistogram
from repro.sim.units import ms
from repro.workloads.db_bench import DbBench, DbBenchConfig

import hostclock

# The package re-exports the function under the module's name.
prefill_module = importlib.import_module("repro.workloads.prefill")

#: Per-type latency floor: p99 then has >= 100 samples beyond it.
MIN_SAMPLES = 10_000
#: Closed-loop db_bench clients, as in the paper's runs.
CLIENTS = 4
#: Set-ups per db_bench run (``setup_s`` is their median); the last
#: ``REPEATS`` of them are each followed by the timed run.
SETUPS = 2
REPEATS = 2
USER_BYTES_PER_PUT = 16 + SMALL.value_size  # key + value


@dataclass
class Outcome:
    """Everything one timed pass of a workload produced."""

    e2e: Dict[str, float]
    layer: Dict[str, float]  # program counters; span times come from tracing
    #: Output checks: one failing makes the run incorrect.
    checks: List[Tuple[str, bool, str]]
    #: Op-failure checks (an op or a whole episode raised): a failing one
    #: counts the ops it took down in ``failed``; ``correct`` is unaffected.
    failures: List[Tuple[str, bool, str]]
    attempted: int
    failed: int
    digest: str
    setup_phases: Dict[str, List[float]]
    lines: List[str] = field(default_factory=list)
    #: Simulated seconds and simulated ops the host-time metrics divide by.
    sim_s: float = 0.0
    host_ops: int = 0
    host_timed_s: float = 0.0
    #: End-to-end op counts the traced spans must match (see tracing.py).
    reconcile: Dict[str, int] = field(default_factory=dict)
    #: Traced runs: (host s inside layer spans, host s between the hostclock
    #: marks around the timed run), summed over timed repeats or episodes.
    coverage: Tuple[float, float] = (0.0, 0.0)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _digest(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, default=repr).encode()
    return hashlib.md5(blob).hexdigest()


def _us(hist: LatencyHistogram, p: float) -> float:
    return hist.percentile(p) / 1e3


def _merged(*hists: LatencyHistogram) -> LatencyHistogram:
    out = LatencyHistogram()
    for hist in hists:
        out.merge(hist)
    return out


def _type_latencies(reads: LatencyHistogram, writes: LatencyHistogram) -> Dict[str, float]:
    return {
        "workloads.sim_read_p50_us": _us(reads, 50),
        "workloads.sim_read_p99_us": _us(reads, 99),
        "workloads.sim_write_p50_us": _us(writes, 50),
        "workloads.sim_write_p99_us": _us(writes, 99),
    }


def _lsm_counters(tickers: Dict[str, int]) -> Dict[str, float]:
    """Per-layer LSM counters from one DB's (or several summed) tickers."""
    gets, puts = tickers.get("gets", 0), tickers.get("puts", 0)
    bg_bytes = tickers.get("flush.bytes", 0) + tickers.get("compaction.bytes_written", 0)
    return {
        "lsm.read.gets": gets,
        "lsm.read.l0_probes_per_get": tickers.get("get.l0_probes", 0) / max(1, gets),
        "lsm.read.device_reads_per_get": tickers.get("get.block_device_reads", 0) / max(1, gets),
        "lsm.read.miss": tickers.get("get.miss", 0),
        "lsm.read.bloom_useful": tickers.get("bloom.useful", 0),
        "lsm.write.puts": puts,
        "lsm.write.stall_delay_ms": tickers.get("stall.delay_ns", 0) / 1e6,
        "lsm.write.stops_hit": tickers.get("stall.stops_hit", 0),
        "lsm.bg.flushes": tickers.get("flush.count", 0),
        "lsm.bg.compactions": tickers.get("compaction.count", 0),
        "lsm.bg.write_amp": bg_bytes / (puts * USER_BYTES_PER_PUT) if puts else 0.0,
    }


def _sample_check(reads: LatencyHistogram, writes: LatencyHistogram):
    short = [
        f"{kind} {hist.count}"
        for kind, hist in (("reads", reads), ("writes", writes))
        if 0 < hist.count < MIN_SAMPLES
    ]
    return ("samples_per_type", not short, ", ".join(short) or f">= {MIN_SAMPLES}")


#: Simulated-time slices per timed run for the host-time estimate.
SLICES = 100


def _host_probe(slice_ns: int, marks: List[hostclock.Mark], mark):
    """Simulated process timing the reference kernel at each slice boundary.

    It touches no simulation state, so the simulation is unchanged (the
    ``sim_digest`` is the same with and without it).
    """
    while True:
        marks.append(mark())
        yield slice_ns


def _set_host(out: Outcome, host: float) -> None:
    out.host_timed_s = host
    out.e2e["host_s_per_sim_s"] = host / out.sim_s
    out.e2e["host_ops_per_s"] = out.host_ops / host


def _combine(outcomes: List[Outcome], slices: List[List[float]],
             raw: List[float]) -> Outcome:
    """Fold repeats of one seeded timed run into the newest repeat's outcome.

    Every repeat does identical simulated work, so slice ``j`` of each
    repeat is the same work timed at a different moment.  Disturbances from
    other jobs only ever slow a slice down, so the host time is the sum over
    slices of the fastest repeat of that slice (normalised seconds, see
    ``hostclock``).
    """
    out = outcomes[-1]
    host = sum(min(column) for column in zip(*slices))
    _set_host(out, host)
    digests = {o.digest for o in outcomes}
    out.checks.append((
        "repeat_digest", len(digests) == 1,
        f"{len(outcomes)} repeats, {len(digests)} distinct sim_digest",
    ))
    for o in outcomes[:-1]:
        out.checks.extend((f"repeat.{n}", p, d) for n, p, d in o.checks if not p)
        out.failures.extend((f"repeat.{n}", p, d) for n, p, d in o.failures if not p)
    out.coverage = tuple(map(sum, zip(*(o.coverage for o in outcomes))))
    out.lines.append(
        "timed repeats raw host_s=[" + " ".join(f"{r:.3f}" for r in raw)
        + "] normalised=[" + " ".join(f"{sum(s):.3f}" for s in slices)
        + f"] slice-min={host:.3f}"
    )
    return out


# ---------------------------------------------------------------------------
# db_bench workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DbBenchWorkload:
    device: str
    write_fraction: float
    #: Simulated seconds per ``--seconds``: sized so one timed repeat takes
    #: about that many host seconds on the development host.
    sim_per_host_s: float
    #: Completed (flush, compaction) cycles a converged run must reach.
    bg_floor: Tuple[int, int] = (0, 0)

    def config(self, seed: int, seconds: float) -> DbBenchConfig:
        duration = ms(max(1, round(seconds * self.sim_per_host_s * 1000)))
        return DbBenchConfig(
            processes=CLIENTS,
            duration_ns=duration,
            write_fraction=self.write_fraction,
            value_size=SMALL.value_size,
            key_count=SMALL.key_count,
            seed=seed,
            warmup_ns=duration // 5,
            timeline_bucket_ns=duration // 50,
        )

    def setup(self, seed: int):
        """Machine build, DB open and prefill, each timed (normalised s)."""
        start = hostclock.mark()
        t0 = perf_counter()
        machine = Machine.create(
            DEVICES[self.device](), SMALL.page_cache_bytes, seed=seed
        )
        t1 = perf_counter()
        db = machine.open_db(SMALL.options())
        t2 = perf_counter()
        prefill_module.prefill(db, SMALL.prefill_spec())
        t3 = perf_counter()
        end = hostclock.mark()
        scale = hostclock.interval(start, end) / hostclock.raw_interval(start, end)
        phases = {"machine_s": t1 - t0, "open_s": t2 - t1, "prefill_s": t3 - t2}
        return (machine, db), {k: v * scale for k, v in phases.items()}

    def measure(self, seed: int, seconds: float, setups: Optional[int] = None,
                repeats: Optional[int] = None, tracer=None) -> Outcome:
        """Set up ``setups`` times; the last ``repeats`` set-ups each run the
        timed workload (identical simulated work, same seed)."""
        setups = setups or SETUPS
        repeats = min(setups, repeats or REPEATS)
        cfg = self.config(seed, seconds)
        phases: Dict[str, List[float]] = {"machine_s": [], "open_s": [], "prefill_s": [], "setup_s": []}
        outcomes: List[Outcome] = []
        slices: List[List[float]] = []
        raw: List[float] = []
        for i in range(setups):
            machine = db = result = None  # free the previous machine first
            gc.collect()
            (machine, db), times = self.setup(seed)
            for key, value in times.items():
                phases[key].append(value)
            phases["setup_s"].append(sum(times.values()))
            if i < setups - repeats:
                continue
            gc.collect()
            if tracer is not None:
                tracer.engine = db.engine
                tracer.window_from_ns = db.engine.now + cfg.warmup_ns
                tracer.end_setup()
            mark = hostclock.mark if tracer is None else tracer.own(hostclock.mark)
            marks = [mark()]
            db.engine.process(_host_probe(cfg.duration_ns // SLICES, marks, mark),
                              name="perfbench-probe")
            error = ""
            result = None
            covered = tracer.covered_s() if tracer is not None else 0.0
            try:
                result = DbBench(cfg).run(db)
            except Exception as exc:  # a client raised: reported, never dropped
                error = f"{type(exc).__name__}: {exc}"
            covered = tracer.covered_s() - covered if tracer is not None else 0.0
            marks.append(mark())
            slices.append(hostclock.intervals(marks))
            raw.append(hostclock.raw_interval(marks[0], marks[-1]))
            outcomes.append(self._outcome(machine, db, cfg, result, error, phases))
            outcomes[-1].coverage = (covered, raw[-1])
        return _combine(outcomes, slices, raw)

    def _outcome(self, machine, db, cfg, result, error, phases) -> Outcome:
        tickers = db.stats.tickers()
        gets, puts = tickers.get("gets", 0), tickers.get("puts", 0)
        sim_s = cfg.duration_ns / 1e9
        failures = [("client_raised", not error, error or "no client raised")]
        checks = []
        reads_h = result.read_latency if result else LatencyHistogram()
        writes_h = result.write_latency if result else LatencyHistogram()
        lat = _merged(reads_h, writes_h)
        misses = tickers.get("get.miss", 0)
        checks.append(("read_miss", misses == 0, f"lsm.read.miss={misses}"))
        try:
            db.versions.current.check_invariants()
            checks.append(("version_invariants", True, "ok"))
        except Exception as exc:
            checks.append(("version_invariants", False, repr(exc)))
        if result is not None:
            checks.append((
                "op_accounting",
                result.reads + result.writes == result.ops,
                f"reads {result.reads} + writes {result.writes} vs ops {result.ops}",
            ))
        checks.append(_sample_check(reads_h, writes_h))

        attempted = max(1, result.ops if result else gets + puts)
        ok = all(passed for _n, passed, _d in checks + failures)
        failed = 0 if ok else attempted
        e2e = {
            "setup_s": statistics.median(phases["setup_s"]),
            "host_s_per_sim_s": 0.0,  # set from the timed repeats (_set_host)
            "host_ops_per_s": 0.0,
            "peak_rss_mb": _peak_rss_mb(),
            "sim_kops": result.kops if result else 0.0,
            "sim_p50_us": _us(lat, 50),
            "sim_p99_us": _us(lat, 99),
            "sim_ok_frac": (attempted - failed) / attempted,
        }

        device = machine.device
        snap = device.snapshot()
        flushes = tickers.get("flush.count", 0)
        compactions = tickers.get("compaction.count", 0)
        layer = {
            "storage.reads": snap["reads"],
            "storage.writes": snap["writes"],
            "storage.bytes_read": snap["bytes_read"],
            "storage.bytes_written": snap["bytes_written"],
            "storage.gc_pauses": snap["gc_pauses"],
            "storage.utilization": device.utilization(cfg.duration_ns),
            "storage.read_wait_p50_us": _us(device.read_latency, 50),
            "storage.read_wait_p99_us": _us(device.read_latency, 99),
            "fs.page_cache.hit_rate": machine.page_cache.hit_rate(),
            "fs.page_cache.evictions": machine.page_cache.stats.get("pages_evicted"),
            "fs.syncs": machine.fs.stats.get("fsyncs"),
            "lsm.block_cache.hit_rate": db.block_cache.hit_rate(),
            "lsm.write.mean_waiting_writers": db.mean_waiting_writers(),
            "lsm.bg.l0_max": result.l0_max if result else 0,
            "workloads.prefill_s": statistics.median(phases["prefill_s"]),
            "harness.machine_s": statistics.median(
                [a + b for a, b in zip(phases["machine_s"], phases["open_s"])]
            ),
        }
        layer.update(_lsm_counters(tickers))
        layer.update(_type_latencies(reads_h, writes_h))
        lines: List[str] = []
        if result is not None:
            layer.update(self._steady_state(cfg, result, flushes, compactions, lines))

        sim_metrics = {k: v for k, v in e2e.items() if k.startswith("sim_")}
        digest = _digest({
            "sim": sim_metrics,
            "types": _type_latencies(reads_h, writes_h),
            "device": snap,
            "tickers": tickers,
            "l0": result.l0_file_counts if result else [],
            "ops": [result.ops, result.reads, result.writes] if result else [],
        })
        outcome = Outcome(e2e, layer, checks, failures, attempted, failed, digest, phases,
                          lines, sim_s=sim_s, host_ops=gets + puts)
        if result is not None:
            outcome.reconcile = {"reads": result.reads, "writes": result.writes}
        return outcome

    def _steady_state(self, cfg, result, flushes, compactions, lines) -> Dict[str, float]:
        """First- vs second-half throughput, L0 trend, background-cycle floor."""
        begin = cfg.warmup_ns
        end = cfg.duration_ns
        mid = (begin + end) // 2
        first = result.timeline.rate_between(begin, mid)
        second = result.timeline.rate_between(mid, end)
        ratio = second / first if first else 0.0
        l0 = [(t, n) for t, n in result.l0_file_counts if t >= begin]
        l0_first = [n for t, n in l0 if t < mid] or [0]
        l0_second = [n for t, n in l0 if t >= mid] or [0]
        trend = statistics.mean(l0_second) - statistics.mean(l0_first)
        min_flushes, min_compactions = self.bg_floor
        problems = []
        if not 0.8 <= ratio <= 1.25:
            problems.append(f"halves ratio {ratio:.3f} outside [0.8, 1.25]")
        if trend > 4:
            problems.append(f"L0 grew by {trend:.1f} files between halves")
        if flushes < min_flushes or compactions < min_compactions:
            problems.append(
                f"{flushes} flushes / {compactions} compactions below floor "
                f"{min_flushes} / {min_compactions}"
            )
        lines.append(
            f"steady-state: halves_kops_ratio={ratio:.4f} l0_trend={trend:+.2f} "
            f"flushes={flushes} compactions={compactions} -> "
            + ("converged" if not problems else "UNCONVERGED: " + "; ".join(problems))
        )
        return {"workloads.halves_kops_ratio": ratio, "workloads.steady": float(not problems)}


# ---------------------------------------------------------------------------
# replicated serving (the serving DST harness)
# ---------------------------------------------------------------------------


class _ServingTally:
    """Sums one pass of serving DST episodes into workload-level figures."""

    DEVICE_KEYS = ("reads", "writes", "bytes_read", "bytes_written", "gc_pauses")

    def __init__(self) -> None:
        self.attempted = self.completed = self.ok_ops = self.failed = 0
        self.resolved = 0
        self.sim_ns = self.traffic_ns = 0
        self.reads, self.writes = LatencyHistogram(), LatencyHistogram()
        self.read_wait = LatencyHistogram()
        #: (p50, p99) in us of each episode's ops.
        self.episode_pcts: List[Tuple[float, float]] = []
        self.tickers: Dict[str, int] = {}
        self.busy: List[float] = []
        self.bad: List[str] = []  # episodes whose DST verdict failed
        self.crashed: List[str] = []  # episodes that raised out of the run
        self.counts: Dict[str, float] = dict.fromkeys(
            ["net.messages", "net.dropped", "cluster.failovers", "serving.retries",
             "serving.hedges_launched", "serving.hedges_won", "serving.shed",
             "serving.breaker_fastfail", "serving.errors", "fs.page_cache.evictions",
             "fs.syncs"] + [f"storage.{k}" for k in self.DEVICE_KEYS], 0)

    def add(self, ep_seed: int, ep: "_Episode") -> None:
        run, res, error, fleet = ep.run, ep.res, ep.error, ep.fleet
        counts = self.counts
        stack = run.stack
        self.sim_ns += run.engine.now
        self.traffic_ns += run.config.duration_ns
        self.resolved += stack.ops_resolved
        attempted = ok = 0
        lat = LatencyHistogram()
        for wl in fleet:
            st = wl.stats
            attempted += st.ops + st.shed_ops + st.error_ops
            ok += st.ops
            counts["serving.shed"] += st.shed_ops
            counts["serving.errors"] += st.error_ops
            lat.merge(st.latency)
            self.reads.merge(st.read_latency)
            self.writes.merge(st.write_latency)
        if lat.count:
            self.episode_pcts.append((_us(lat, 50), _us(lat, 99)))
        self.attempted += attempted
        self.completed += ok
        if error:
            (self.crashed if ep.raised else self.bad).append(f"seed {ep_seed}: {error}")
            self.failed += attempted
        else:
            self.ok_ops += ok
        for group in stack.groups:
            net = group.network.stats
            counts["net.messages"] += net.get("net.sends")
            counts["net.dropped"] += sum(
                net.get(k) for k in ("net.dropped_down", "net.dropped_partition",
                                     "net.dropped_loss"))
            for node in group.cluster.nodes:
                fs = node.fs
                snap = fs.device.snapshot()
                for key in self.DEVICE_KEYS:
                    counts[f"storage.{key}"] += snap[key]
                counts["fs.page_cache.evictions"] += fs.page_cache.stats.get("pages_evicted")
                counts["fs.syncs"] += fs.stats.get("fsyncs")
                self.busy.append(fs.device.utilization(run.engine.now))
                self.read_wait.merge(fs.device.read_latency)
                if node.db is not None:  # the node's current DB incarnation
                    for key, n in node.db.stats.tickers().items():
                        self.tickers[key] = self.tickers.get(key, 0) + n
        for client in stack.clients:
            st = client.stats
            counts["serving.retries"] += st.get("read_retries", 0) + st.get("write_retries", 0)
            counts["serving.hedges_launched"] += st.get("hedges_launched", 0)
            counts["serving.hedges_won"] += st.get("hedges_won", 0)
            counts["serving.breaker_fastfail"] += st.get("breaker_fastfail", 0)
        if res is not None:
            counts["cluster.failovers"] += res.failovers

    def layer(self) -> Dict[str, float]:
        counts = self.counts
        layer = {k: v for k, v in counts.items() if not k.startswith("serving.hedges")}
        layer.update(_lsm_counters(self.tickers))
        launched = counts["serving.hedges_launched"]
        layer["serving.hedge_win_frac"] = counts["serving.hedges_won"] / launched if launched else 0.0
        layer["storage.utilization"] = statistics.mean(self.busy) if self.busy else 0.0
        layer["storage.read_wait_p50_us"] = _us(self.read_wait, 50)
        layer["storage.read_wait_p99_us"] = _us(self.read_wait, 99)
        layer.update(_type_latencies(self.reads, self.writes))
        return layer


class _Episode(NamedTuple):
    setup_s: float  # normalised host s to build the stack
    host_s: float  # normalised host s of the run
    run: ServingDstRun
    res: object  # ServingDstResult, or None when the run raised
    error: str
    raised: bool
    fleet: list
    digest: str
    coverage: Tuple[float, float]


@dataclass(frozen=True)
class ServingWorkload:
    #: Inject the DST's seed-drawn faults (a leader crash or partition, and
    #: sometimes a disk-quota squeeze) into each episode.
    faults: bool
    episode_ms: int = 700
    #: Distinct DST episodes per requested host second.  Each draws its own
    #: schedule, so the run's figures average over that many episodes.
    episodes_per_host_s: float = 6.4

    def episodes(self, seconds: float) -> int:
        return max(1, round(seconds * self.episodes_per_host_s))

    def _episode(self, ep_seed: int, tracer) -> _Episode:
        """Build (timed as set-up) and run one DST episode."""
        gc.collect()
        start = hostclock.mark()
        run = ServingDstRun(ep_seed, ServingDstConfig(duration_ns=ms(self.episode_ms),
                                                     faults=self.faults))
        built = hostclock.mark()
        fleets: List[list] = []
        build = run.stack.build_fleet

        def capture(tenants):
            fleets.append(build(tenants))
            return fleets[-1]

        run.stack.build_fleet = capture
        if tracer is not None:
            tracer.engine = run.engine
            tracer.shipped.clear()
        begun = hostclock.mark()
        covered = tracer.covered_s() if tracer is not None else 0.0
        raised = False
        try:
            res = run.run()
            error = "" if res.ok else res.reason
        except Exception as exc:  # the program crashed mid-episode
            res, error, raised = None, f"{type(exc).__name__}: {exc}", True
        covered = tracer.covered_s() - covered if tracer is not None else 0.0
        end = hostclock.mark()
        digest = _digest([res.verdict, res.log_digest, res.tenant_rows] if res else error)
        return _Episode(hostclock.interval(start, built), hostclock.interval(begun, end),
                        run, res, error, raised, fleets[0] if fleets else [], digest,
                        (covered, hostclock.raw_interval(begun, end)))

    def measure(self, seed: int, seconds: float, setups: Optional[int] = None,
                repeats: Optional[int] = None, tracer=None) -> Outcome:
        """Run the episodes once each; with ``repeats`` > 1 (the default)
        the first episode runs again to prove the run is deterministic."""
        del setups  # every episode builds its own stack, and each is timed
        n = self.episodes(seconds)
        tally = _ServingTally()
        episodes: List[_Episode] = []
        for i in range(n):
            ep = self._episode(seed * 1000 + i, tracer)
            episodes.append(ep)
            tally.add(seed * 1000 + i, ep)

        checks = [
            ("dst_verdicts", not tally.bad,
             "; ".join(tally.bad) or f"no invariant violated in {n} episodes"),
            _sample_check(tally.reads, tally.writes),
        ]
        if (repeats or 2) > 1:
            again = self._episode(seed * 1000, tracer).digest
            checks.append(("repeat_digest", again == episodes[0].digest,
                           f"episode {seed * 1000} run twice: {episodes[0].digest[:8]} "
                           f"vs {again[:8]}"))
        failures = [("dst_episodes_raised", not tally.crashed,
                     "; ".join(tally.crashed) or f"no episode of {n} raised")]
        attempted = max(1, tally.attempted)
        e2e = {
            "setup_s": statistics.median(ep.setup_s for ep in episodes),
            "host_s_per_sim_s": 0.0,  # set by _set_host
            "host_ops_per_s": 0.0,
            "peak_rss_mb": _peak_rss_mb(),
            "sim_kops": tally.completed / (tally.traffic_ns / 1e9) / 1e3,
            # Median over episodes: about 1% of all ops sit in fault-hit
            # tails near 0.4-10 ms, so the merged p99 flips between ~0.2 and
            # ~0.4 ms from seed to seed.  The merged per-type tails are the
            # per-layer workloads.sim_*_us metrics.
            "sim_p50_us": statistics.median(p50 for p50, _ in tally.episode_pcts),
            "sim_p99_us": statistics.median(p99 for _, p99 in tally.episode_pcts),
            "sim_ok_frac": tally.ok_ops / attempted,
        }
        layer = tally.layer()
        digest = _digest({
            "sim": {k: v for k, v in e2e.items() if k.startswith("sim_")},
            "layer": {k: v for k, v in layer.items() if not k.endswith("_s")},
            "episodes": [ep.digest for ep in episodes],
        })
        counts = tally.counts
        lines = [
            f"episodes={n} x {self.episode_ms} ms traffic; "
            f"attempted={attempted} ok={tally.completed} reads={tally.reads.count} "
            f"writes={tally.writes.count} shed={counts['serving.shed']} "
            f"errors={counts['serving.errors']} failovers={counts['cluster.failovers']} "
            f"failed={tally.failed}",
            "per-episode normalised host_s: " + " ".join(f"{ep.host_s:.3f}" for ep in episodes),
        ]
        outcome = Outcome(e2e, layer, checks, failures, attempted, tally.failed, digest,
                          {"setup_s": [ep.setup_s for ep in episodes]}, lines,
                          sim_s=tally.sim_ns / 1e9, host_ops=attempted)
        _set_host(outcome, sum(ep.host_s for ep in episodes))
        outcome.reconcile = {"serving_ops": tally.resolved}
        outcome.coverage = tuple(map(sum, zip(*(ep.coverage for ep in episodes))))
        return outcome


WORKLOADS = {
    "read_xpoint": DbBenchWorkload("xpoint", 0.0, sim_per_host_s=0.135),
    "write_sata": DbBenchWorkload("sata-flash", 1.0, sim_per_host_s=0.76, bg_floor=(20, 5)),
    "mixed_pcie": DbBenchWorkload("pcie-flash", 0.5, sim_per_host_s=0.38, bg_floor=(10, 3)),
    "serving_steady": ServingWorkload(faults=False, episodes_per_host_s=5.0),
    "serving_chaos": ServingWorkload(faults=True),
}
