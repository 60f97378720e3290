"""Host-time spans around the calls into each layer of the simulator.

The traced run patches the public entry points listed in ``TARGETS`` with
timing wrappers, runs the workload, and restores them.  Nothing under
``src/`` knows about it: the wrappers only observe (no RNG draws, no
scheduling), and the benchmark proves it by comparing the traced run's
``sim_digest`` with an untraced run of the same seed.

A span records its name, host start and end, and its parent (the span
below it on the host call stack).  A generator op (``DB.get``,
``FlushJob.run`` ...) gets one span per resumption, and additionally a
simulated start (first resumption) and end (completion).  Self time is a
span's duration minus its children's; it is summed per span name and per
layer as spans close, so memory stays flat however long the run.  The
first ``RAW_SPANS`` spans are also kept raw for a Perfetto-loadable export.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import types
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.cluster.replication import Cluster
from repro.dst.serving import ServingDstRun
from repro.faults.device import FaultyDevice
from repro.faults.filesystem import FaultyFile
from repro.faults.injector import FaultInjector
from repro.fs.filesystem import SimFile
from repro.fs.page_cache import PageCache
from repro.harness.machine import Machine
from repro.lsm.block_cache import BlockCache
from repro.lsm.bloom import BloomFilter
from repro.lsm.compaction import CompactionJob
from repro.lsm.db import DB
from repro.lsm.flush import FlushJob
from repro.lsm.memtable import MemTable
from repro.lsm.pipelined_write import WriteQueue
from repro.lsm.sst import SSTable
from repro.lsm.wal import WalManager
from repro.lsm.write_controller import WriteController
from repro.net.network import Network
from repro.obs.tracer import NullTracer
from repro.serving.admission import AdmissionController, BrownoutAdmission
from repro.serving.client import ShardClient
from repro.serving.resilient import ResilientServingStack
from repro.sim.engine import Engine, Event
from repro.sim.stats import LatencyHistogram, TimeSeries
from repro.storage.device import StorageDevice
from repro.workloads.generators import ValueSpec

# The package re-exports the function under the module's name.
prefill_module = importlib.import_module("repro.workloads.prefill")

#: The benchmark's own code between layer calls (setup glue, checks).
ROOT_LAYER = "perfbench"

#: (owner, attribute, layer).  ``DB._write_ops`` is listed on purpose:
#: batched db_bench clients call it directly, so spans on ``DB.put`` alone
#: would count zero writes (the reconciliation check catches exactly that).
TARGETS: List[Tuple[object, str, str]] = [
    (Engine, "run", "sim"),
    (Engine, "process", "sim"),
    (Engine, "event", "sim"),
    (Engine, "timeout", "sim"),
    (Engine, "all_of", "sim"),
    (Engine, "any_of", "sim"),
    # Every Event built, through the factories above or directly (resource
    # grants, Store/Condition waits); Process inlines its init and is
    # counted by Engine.process.  Integer sleeps build no event.
    (Event, "__init__", "sim"),
    (LatencyHistogram, "record", "sim.stats"),
    (LatencyHistogram, "record_many", "sim.stats"),
    (TimeSeries, "record", "sim.stats"),
    (TimeSeries, "record_many", "sim.stats"),
    (StorageDevice, "read", "storage"),
    (StorageDevice, "write", "storage"),
    (StorageDevice, "flush", "storage"),
    (SimFile, "read", "fs"),
    (SimFile, "append", "fs"),
    (SimFile, "sync", "fs"),
    (PageCache, "read_through", "fs.page_cache"),
    (PageCache, "access", "fs.page_cache"),
    (PageCache, "fill", "fs.page_cache"),
    (DB, "get", "lsm.read"),
    (DB, "get_fast", "lsm.read"),
    (MemTable, "get", "lsm.read"),
    (SSTable, "find", "lsm.read"),
    (BloomFilter, "may_contain", "lsm.read"),
    (BlockCache, "lookup", "lsm.read"),
    (BlockCache, "insert", "lsm.read"),
    (DB, "put", "lsm.write"),
    (DB, "_write_ops", "lsm.write"),
    (DB, "put_fast", "lsm.write"),
    (DB, "apply_replicated", "lsm.write"),
    (WalManager, "add_group", "lsm.write"),
    (MemTable, "add", "lsm.write"),
    (WriteQueue, "join", "lsm.write"),
    (WriteController, "get_delay", "lsm.write"),
    (FlushJob, "run", "lsm.bg"),
    (CompactionJob, "run", "lsm.bg"),
    (prefill_module, "prefill", "workloads"),
    (ValueSpec, "value_for", "workloads"),
    (Machine, "create", "harness"),
    (Machine, "open_db", "harness"),
    (Network, "send", "net"),
    (Network, "partition", "net"),
    (Network, "heal", "net"),
    (Network, "partitioned", "net"),
    (Cluster, "put", "cluster"),
    (Cluster, "delete", "cluster"),
    (Cluster, "get", "cluster"),
    (Cluster, "get_from", "cluster"),
    (Cluster, "scan", "cluster"),
    (Cluster, "applied_seq", "cluster"),
    (Cluster, "write_quorum_reachable", "cluster"),
    (Cluster, "elect", "cluster"),
    (Cluster, "crash_node", "cluster"),
    (Cluster, "restart_node", "cluster"),
    (ResilientServingStack, "get", "serving"),
    (ResilientServingStack, "put", "serving"),
    (ResilientServingStack, "scan", "serving"),
    (ResilientServingStack, "build_fleet", "serving"),
    (ResilientServingStack, "spawn_fleet", "serving"),
    (ShardClient, "read", "serving"),
    (ShardClient, "write", "serving"),
    (AdmissionController, "admit", "serving"),
    (BrownoutAdmission, "check", "serving"),
    (FaultInjector, "on_device_op", "faults"),
    (FaultInjector, "on_append", "faults"),
    (FaultInjector, "poll", "faults"),
    (FaultyDevice, "read", "faults"),
    (FaultyDevice, "write", "faults"),
    (FaultyFile, "append", "faults"),
    (ServingDstRun, "run", "dst"),
    (ResilientServingStack, "verify_writes", "dst"),
] + [
    (NullTracer, name, "obs")
    for name, fn in vars(NullTracer).items()
    if inspect.isfunction(fn) and not name.startswith("_")
]

LAYERS = sorted({layer for _o, _a, layer in TARGETS} | {ROOT_LAYER})

#: Spans kept raw for the Perfetto export (the first ones of the run).
RAW_SPANS = 100_000


class SpanTracer:
    """Aggregates host self time per span name as spans close."""

    def __init__(self) -> None:
        self.stack: List[list] = []  # frames: [name, host_start, child_s]
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)  # inclusive
        self.calls: Dict[str, int] = defaultdict(int)  # completed calls/ops
        self.calls_from: Dict[str, int] = defaultdict(int)  # ... in window
        self.sim_ns: Dict[str, int] = defaultdict(int)  # generator ops only
        self.counters: Dict[str, int] = defaultdict(int)
        self.layer_of: Dict[str, str] = {ROOT_LAYER: ROOT_LAYER}
        self.engine: Optional[Engine] = None
        #: Generator ops whose simulated start is at or after this count in
        #: ``calls_from`` (the workload's measured window).
        self.window_from_ns = 0
        self.raw: List[tuple] = []
        #: (network, term, follower, index) of every append shipped; the
        #: caller clears it whenever a new stack (and term numbering) starts.
        self.shipped: set = set()
        self._patched: List[Tuple[object, str, object]] = []
        #: Per-layer self time when the timed run started (set-up before it).
        self.setup_layer_s: Dict[str, float] = {}

    # -- span bookkeeping ----------------------------------------------------

    def _close(self, frame: list, parent: Optional[str], sim=None) -> float:
        """Close a span; ``sim`` is (start, end) ns on a generator op's end."""
        end = perf_counter()
        dur = end - frame[1]
        name = frame[0]
        self.self_s[name] += dur - frame[2]
        self.total_s[name] += dur
        if self.stack:
            self.stack[-1][2] += dur
        if len(self.raw) < RAW_SPANS:
            self.raw.append((name, frame[1], end, parent, sim))
        return dur

    def covered_s(self) -> float:
        """Host seconds inside closed spans so far.  Between two readings
        taken outside every layer span, the difference is the time spent
        inside the layer spans that ran in between."""
        return sum(self.self_s.values())

    def root(self) -> "_Root":
        """Context manager for the span covering the whole traced region."""
        return _Root(self)

    def own(self, fn: Callable) -> Callable:
        """Wrap a benchmark-side function so its time counts as ``perfbench``
        rather than as the layer span it happens to run under."""
        name = f"{ROOT_LAYER}.{fn.__name__}"
        self.layer_of[name] = ROOT_LAYER
        return self.plain(fn, name)

    def _now(self) -> int:
        engine = self.engine
        return engine.now if engine is not None else 0

    def plain(self, fn: Callable, name: str, on_return=None) -> Callable:
        stack = self.stack
        calls = self.calls
        close = self._close
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                close(frame, parent)
                calls[name] += 1
            if on_return is not None:
                on_return(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def generator(self, fn: Callable, name: str) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            outer = tracer._drive(inner, name)
            outer.__name__ = inner.__name__  # process names stay unchanged
            return outer

        wrapper.__wrapped__ = fn
        return wrapper

    def _drive(self, gen, name: str):
        """Re-yield ``gen``'s yields, timing each resumption as one span."""
        stack = self.stack
        close = self._close
        sim_start = self._now()
        value = None
        pending: Optional[BaseException] = None
        while True:
            parent = stack[-1][0] if stack else None
            frame = [name, perf_counter(), 0.0]
            stack.append(frame)
            try:
                if pending is None:
                    yielded = gen.send(value)
                else:
                    exc, pending = pending, None
                    yielded = gen.throw(exc)
            except StopIteration as stop:
                stack.pop()
                close(frame, parent, self._finish_op(name, sim_start))
                return stop.value
            except BaseException:
                stack.pop()
                close(frame, parent, self._finish_op(name, sim_start))
                raise
            stack.pop()
            close(frame, parent)
            try:
                value = yield yielded
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # thrown in by the kernel
                pending, value = exc, None

    def _finish_op(self, name: str, sim_start: int) -> Tuple[int, int]:
        sim_end = self._now()
        self.calls[name] += 1
        self.sim_ns[name] += sim_end - sim_start
        if sim_start >= self.window_from_ns:
            self.calls_from[name] += 1
        return sim_start, sim_end

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        for owner, attr, layer in TARGETS:
            raw = vars(owner)[attr]
            # A module-level function is named bare, a method Class.method.
            name = attr if isinstance(owner, types.ModuleType) else f"{owner.__name__}.{attr}"
            self.layer_of[name] = layer
            kind = type(raw)
            fn = raw.__func__ if kind in (classmethod, staticmethod) else raw
            if inspect.isgeneratorfunction(fn):
                wrapped = self.generator(fn, name)
            else:
                wrapped = self.plain(fn, name, HOOKS.get(name))
            if kind in (classmethod, staticmethod):
                wrapped = kind(wrapped)
            self._patched.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    # -- reports ---------------------------------------------------------------

    def end_setup(self) -> None:
        """Mark the start of the timed run, splitting set-up from it.

        The still-open root span's share so far is the set-up wall time not
        covered by closed layer spans."""
        layers = self.layer_self_s()
        if self.stack:
            layers[ROOT_LAYER] = perf_counter() - self.stack[0][1] - sum(
                secs for name, secs in layers.items() if name != ROOT_LAYER
            )
        self.setup_layer_s = layers

    def layer_self_s(self) -> Dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, secs in self.self_s.items():
            out[self.layer_of[name]] += secs
        return out

    def span_rows(self) -> List[Tuple[str, str, float, int, int]]:
        """(name, layer, self_s, calls, sim_ns) per span name, by self time."""
        rows = [
            (name, self.layer_of[name], secs, self.calls[name], self.sim_ns[name])
            for name, secs in self.self_s.items()
        ]
        return sorted(rows, key=lambda r: -r[2])

    def export(self, path: str) -> None:
        """Write the kept raw spans as a Chrome/Perfetto trace (host time)."""
        if not self.raw:
            return
        t0 = min(row[1] for row in self.raw)
        events = [
            {
                "name": name,
                "cat": self.layer_of[name],
                "ph": "X",
                "ts": (start - t0) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"parent": parent, "sim_ns": sim},
            }
            for name, start, end, parent, sim in self.raw
        ]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump({"traceEvents": events}, f)


class _Root:
    def __init__(self, tracer: SpanTracer) -> None:
        self.tracer = tracer
        self.wall_s = 0.0

    def __enter__(self) -> "_Root":
        self.frame = [ROOT_LAYER, perf_counter(), 0.0]
        self.tracer.stack.append(self.frame)
        return self

    def __exit__(self, *exc) -> None:
        stack = self.tracer.stack
        if not stack or stack[-1] is not self.frame:
            raise RuntimeError("unbalanced span stack at end of traced run")
        stack.pop()
        self.wall_s = self.tracer._close(self.frame, None)


def _counter(key: str, size=None):
    def hook(tracer: SpanTracer, args, result) -> None:
        tracer.counters[key] += 1 if size is None else size(args, result)
    return hook


def _count_reship(tracer: SpanTracer, args, _result) -> None:
    """Count an append re-sent for a (network, term, follower, index) seen before."""
    network, _src, dst, msg = args[:4]
    if isinstance(msg, tuple) and msg and msg[0] == "append":
        key = (id(network), msg[1], dst, msg[4])
        if key in tracer.shipped:
            tracer.counters["cluster.ship_retries"] += 1
        else:
            tracer.shipped.add(key)


def _hit(_args, result) -> int:
    return result is not None


def _batch(args, _result) -> int:
    return len(args[1])


#: Span name -> observer called with (tracer, args, result) after the call.
#: Fast-path hits are whole-run counts (the fast paths warp the clock).
HOOKS = {
    "DB.put_fast": _counter("fast.put", _hit),
    "DB.get_fast": _counter("fast.get", _hit),
    "Network.send": _count_reship,
    "LatencyHistogram.record": _counter("sim.stats.samples"),
    "TimeSeries.record": _counter("sim.stats.samples"),
    "LatencyHistogram.record_many": _counter("sim.stats.samples", _batch),
    "TimeSeries.record_many": _counter("sim.stats.samples", _batch),
}

#: End-to-end op count (``Outcome.reconcile`` label) -> the same count
#: taken from spans.  Windowed counts only include ops whose simulated start
#: lies in the measured window, exactly like the db_bench clients' counters.
RECONCILE = {
    "reads": lambda t: t.calls_from["DB.get"] + t.counters["fast.get"],
    "writes": lambda t: t.calls_from["DB._write_ops"] + t.counters["fast.put"],
    "serving_ops": lambda t: sum(
        t.calls[f"ResilientServingStack.{m}"] for m in ("get", "put", "scan")
    ),
}
