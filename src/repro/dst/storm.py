"""Storm-then-clear DST: degraded-mode entry, auto-resume, and liveness.

Where the crash harness (:mod:`repro.dst.harness`) asks "did the crash
lose acked data?", this one asks the graceful-degradation questions: when
a *transient* fault storm or a *temporary* disk-full squeeze hits the
background machinery, does the DB (a) enter degraded mode instead of
dying, (b) keep detecting and rejecting what it must (typed errors to the
client, never silent loss), (c) auto-resume once the storm clears, and
(d) quiesce within a bounded amount of virtual time?

Three storm kinds, chosen per seed under ``auto``:

- ``io``    — a window of injected transient write (and sometimes read)
  faults.  The WAL runs buffered so the faults surface at background
  fsyncs (flush / compaction / manifest), exercising the error handler
  rather than the client's own retry path.
- ``space`` — a timed quota squeeze: at the window start the filesystem
  quota drops to just above current usage, so flushes, compactions and
  synced WAL writes start seeing ENOSPC; at the window end it lifts.
- ``mixed`` — both at once.

Because there is no crash, the durability contract is *exact*: every
acked write is visible, every unacked write is not (single client, so a
failed group can't be half-applied).  The final probe write must succeed
— a DB that stays read-only after the storm cleared fails ``liveness``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.dst.harness import DELETE, GET, PUT, _Op
from repro.errors import (
    CorruptionError,
    DBError,
    DBReadOnlyError,
    IOFaultError,
    OutOfSpaceError,
)
from repro.faults import (
    READ_ERROR,
    WRITE_ERROR,
    FaultInjector,
    FaultSchedule,
    FaultSpec,
    FaultyDevice,
    FaultyFileSystem,
)
from repro.fs.page_cache import PageCache
from repro.lsm.db import DB
from repro.lsm.options import HASH_REP, WAL_BUFFERED, WAL_SYNC, Options
from repro.sim.engine import Engine
from repro.sim.rng import RandomStream
from repro.sim.units import kb, mb, ms, us
from repro.storage.profiles import xpoint_ssd

STORM_IO = "io"
STORM_SPACE = "space"
STORM_MIXED = "mixed"
STORM_AUTO = "auto"
STORM_KINDS = (STORM_IO, STORM_SPACE, STORM_MIXED)


def _sleep(ns: int):
    """Generator: advance virtual time by ``ns``."""
    yield ns


@dataclass
class StormConfig:
    """Knobs of one storm run (all defaulted; the seed does the exploring)."""

    kind: str = STORM_AUTO
    num_ops: int = 400
    num_keys: int = 48
    pace_ns: int = us(30)  # mean think time between client ops
    # Storm window as fractions of the workload horizon: opens early
    # enough that background work is flowing, closes with time to spare.
    window_open_frac: float = 0.25
    window_close_frac: float = 0.55
    # Quota headroom left at the squeeze.  Extents are 1 MB, so zero slack
    # means the very next file creation (flush output, WAL roll) hits
    # ENOSPC — the squeeze bites immediately instead of depending on how
    # many extents the window's workload happens to allocate.
    squeeze_slack_bytes: int = 0
    drain_ns: int = ms(120)  # quiesce budget after the window closes
    # Explicit fault schedule (e.g. a fuzzer genome or a replayed corpus
    # entry).  None keeps the seed-derived storm schedule.
    schedule: Optional[FaultSchedule] = None

    @property
    def horizon_ns(self) -> int:
        return self.num_ops * self.pace_ns

    @property
    def window_ns(self) -> "tuple[int, int]":
        h = self.horizon_ns
        return int(h * self.window_open_frac), int(h * self.window_close_frac)


@dataclass
class StormResult:
    """Outcome of one run: verdict plus the degraded-mode trajectory."""

    seed: int
    kind: str  # resolved kind (never "auto")
    ok: bool
    reason: str  # "" when ok
    writes_issued: int
    writes_acked: int
    writes_rejected: int  # typed failures surfaced to the client
    degraded_entries: int  # times the DB entered degraded mode
    resume_successes: int
    went_read_only: bool  # reached hard/fatal at least once
    quiesce_ns: int  # virtual ns from window close to idle (-1: never)
    faults_fired: int
    schedule_json: str
    events: List[str] = field(default_factory=list)

    @property
    def verdict(self) -> str:
        return "PASS" if self.ok else f"FAIL({self.reason})"


def _storm_options() -> Options:
    """Small and fast-resuming; WAL mode is set per kind by the run."""
    return Options(
        write_buffer_size=kb(8),
        max_bytes_for_level_base=kb(64),
        target_file_size_base=kb(32),
        block_cache_bytes=kb(32),
        memtable_rep=HASH_REP,
        paranoid_checks=True,
        bg_error_resume_interval_ns=us(200),
        bg_error_resume_backoff=2.0,
        bg_error_resume_max_interval_ns=ms(5),
        max_bg_error_resume_count=3,
        name="storm",
    )


class StormRun:
    """One seeded storm/clear/resume/verify cycle (no crash)."""

    def __init__(self, seed: int, config: Optional[StormConfig] = None) -> None:
        self.seed = seed
        self.config = config or StormConfig()
        self.rng = RandomStream(seed, "storm")
        self.events: List[str] = []
        self.issued: List[_Op] = []
        self.acked: List[_Op] = []
        self.rejected = 0
        self.engine = Engine()

        kind = self.config.kind
        if kind == STORM_AUTO:
            kind = STORM_KINDS[self.rng.fork("kind").randint(0, len(STORM_KINDS) - 1)]
        if kind not in STORM_KINDS:
            raise DBError(f"unknown storm kind {kind!r}")
        self.kind = kind

        w0, w1 = self.config.window_ns
        self.window = (w0, w1)
        if self.config.schedule is not None:
            self.schedule = self.config.schedule
        else:
            self.schedule = self._build_schedule(w0, w1)
        self.injector = FaultInjector(self.engine, self.schedule)
        self.device = FaultyDevice(
            self.engine, xpoint_ssd(), self.injector, self.rng.fork("device")
        )
        self.fs = FaultyFileSystem(
            self.engine, self.device, PageCache(mb(16)), self.injector
        )
        self.options = _storm_options()
        # io storms usually keep the WAL buffered so injected write faults
        # surface at background fsyncs (the error handler's job, soft
        # path); some seeds sync instead, so a WAL-sync fault classifies
        # hard and the read-only + typed-rejection path gets exercised
        # too.  Space storms always sync: every ack is a durability
        # promise made against a disk that is about to fill up.
        if kind == STORM_SPACE or self.rng.fork("walmode").chance(0.4):
            self.options.wal_mode = WAL_SYNC
        else:
            self.options.wal_mode = WAL_BUFFERED

    def _build_schedule(self, w0: int, w1: int) -> FaultSchedule:
        schedule = FaultSchedule()
        if self.kind in (STORM_IO, STORM_MIXED):
            rng = self.rng.fork("faults")
            schedule.add(
                FaultSpec(
                    WRITE_ERROR,
                    at_time=w0,
                    until_time=w1,
                    count=1_000_000,
                    transient=True,
                )
            )
            if rng.chance(0.5):
                schedule.add(
                    FaultSpec(
                        READ_ERROR,
                        at_time=w0,
                        until_time=w1,
                        count=1_000_000,
                        transient=True,
                    )
                )
        return schedule

    # -- workload ----------------------------------------------------------

    def _key(self, key_id: int) -> bytes:
        return b"k%04d" % key_id

    def _gen_ops(self) -> List[_Op]:
        rng = self.rng.fork("workload")
        ops: List[_Op] = []
        write_index = 0
        for _ in range(self.config.num_ops):
            key = self._key(rng.randint(0, self.config.num_keys - 1))
            roll = rng.uniform(0.0, 1.0)
            if roll < 0.70:
                write_index += 1
                pad = rng.randint(64, 512)  # fat values: flushes land in-window
                value = b"op%06d:%s:" % (write_index, key) + b"x" * pad
                ops.append(_Op(PUT, key, value, write_index))
            elif roll < 0.85:
                write_index += 1
                ops.append(_Op(DELETE, key, None, write_index))
            else:
                ops.append(_Op(GET, key))
        return ops

    def _log(self, line: str) -> None:
        self.events.append(f"t={self.engine.now} {line}")

    def _client(self, db: DB, ops: List[_Op]):
        """Generator: paced ops; typed failures are counted, never fatal."""
        rng = self.rng.fork("pace")
        for op in ops:
            think = rng.randint(self.config.pace_ns // 4, self.config.pace_ns)
            if think:
                yield think
            try:
                if op.kind == PUT:
                    self.issued.append(op)
                    yield from db.put(op.key, op.value)
                    self.acked.append(op)
                elif op.kind == DELETE:
                    self.issued.append(op)
                    yield from db.delete(op.key)
                    self.acked.append(op)
                else:
                    try:
                        yield from db.get(op.key)
                    except (CorruptionError, IOFaultError):
                        pass  # reads may fail during the storm; that's fine
            except DBReadOnlyError as exc:
                self.rejected += 1
                self._log(f"reject #{op.index} read-only ({exc.severity})")
            except OutOfSpaceError:
                self.rejected += 1
                self._log(f"reject #{op.index} enospc")
            except IOFaultError as exc:
                self.rejected += 1
                self._log(f"reject #{op.index} io fault (transient={exc.transient})")

    def _quota_squeeze(self, w0: int, w1: int):
        """Generator: squeeze the quota over [w0, w1), then lift it."""
        if w0 > self.engine.now:
            yield w0 - self.engine.now
        quota = self.fs.used_bytes() + self.config.squeeze_slack_bytes
        self.fs.set_quota(quota)
        self._log(f"quota squeezed to {quota} bytes ({self.fs.free_bytes()} free)")
        yield w1 - self.engine.now
        self.fs.set_quota(None)
        self._log("quota lifted")

    # -- scheduler loop ----------------------------------------------------

    def _run_proc(self, gen, name: str):
        """Drive one generator to completion; raise what it raised."""
        proc = self.engine.process(gen, name=name)
        proc.callbacks.append(lambda _ev: None)
        while not proc.done:
            nxt = self.engine.peek()
            if nxt is None:
                raise DBError(f"storm: {name} deadlocked")
            self.engine.run(until=nxt)
        if proc.exception is not None:
            raise proc.exception
        return proc.value

    def _drain(self, db: DB):
        """Generator: True once healthy *and* idle, False past the budget."""
        deadline = self.engine.now + self.config.drain_ns
        while True:
            busy = (
                db.error_handler.severity
                or db.memtables.immutables
                or db._active_flushes
                or db._active_compactions
                or db.versions.manifest_dirty
            )
            if not busy:
                return True
            if self.engine.now >= deadline:
                return False
            yield us(20)

    # -- verification ------------------------------------------------------

    def _expected_state(self) -> Dict[bytes, bytes]:
        """Exact replay of the acked writes (no crash: no prefix cut)."""
        state: Dict[bytes, bytes] = {}
        for op in self.acked:
            if op.kind == PUT:
                state[op.key] = op.value
            elif op.kind == DELETE:
                state.pop(op.key, None)
        return state

    def _collect(self, db: DB) -> Dict[bytes, object]:
        observed: Dict[bytes, object] = {}

        def reader():
            keys = [self._key(k) for k in range(self.config.num_keys)]
            for key in keys + [b"probe"]:
                value = yield from db.get(key)
                if value is not None:
                    observed[key] = value

        self._run_proc(reader(), "storm-verify")
        return observed

    # -- the run -----------------------------------------------------------

    def run(self) -> StormResult:
        cfg = self.config
        w0, w1 = self.window
        ops = self._gen_ops()
        self._log(
            f"storm seed={self.seed} kind={self.kind} ops={cfg.num_ops} "
            f"keys={cfg.num_keys} window=[{w0},{w1})"
        )
        db = DB(self.engine, self.fs, self.options, rng=self.rng.fork("db"))
        if self.kind in (STORM_SPACE, STORM_MIXED):
            squeeze = self.engine.process(self._quota_squeeze(w0, w1), name="squeeze")
            squeeze.callbacks.append(lambda _ev: None)

        failure: Optional[str] = None
        try:
            self._run_proc(self._client(db, ops), name="storm-client")
        except DBError as exc:
            failure = f"client died: {exc}"
        self._log(
            f"workload done: acked={len(self.acked)} rejected={self.rejected}"
        )

        # Make sure the window has actually closed (a short workload can
        # finish inside it), then demand bounded quiesce + auto-resume.
        quiesce_ns = -1
        if failure is None:
            if self.engine.now < w1:
                self._run_proc(_sleep(w1 - self.engine.now), name="storm-wait")
            drain_from = self.engine.now
            drained = self._run_proc(self._drain(db), name="storm-drain")
            if drained:
                quiesce_ns = self.engine.now - drain_from
                self._log(f"quiesced in {quiesce_ns}ns after window close")
            else:
                failure = (
                    f"liveness: not idle {cfg.drain_ns}ns after the storm "
                    f"cleared (severity={db.error_handler.severity or 'none'}, "
                    f"immutables={len(db.memtables.immutables)})"
                )
                self._log(failure)

        # The storm is over: the DB must accept writes again.
        probe_key, probe_value = b"probe", b"post-storm"
        if failure is None:
            try:
                self._run_proc(db.put(probe_key, probe_value), name="storm-probe")
            except (DBReadOnlyError, OutOfSpaceError, IOFaultError) as exc:
                failure = f"probe write rejected after storm: {exc!r}"
                self._log(failure)

        if failure is None:
            expected = self._expected_state()
            observed = self._collect(db)
            probe = observed.pop(probe_key, None)
            if probe != probe_value:
                failure = "probe write not readable after ack"
            else:
                for key, value in expected.items():
                    if observed.get(key) != value:
                        failure = (
                            f"acked write lost: {key.decode()} "
                            f"expected {len(value)}B, "
                            f"got {'miss' if key not in observed else 'other'}"
                        )
                        break
                else:
                    for key in observed:
                        if key not in expected:
                            failure = f"phantom key {key.decode()} (never acked)"
                            break

        stats = db.stats
        degraded_entries = int(stats.get("bg_error.degraded_entries"))
        resume_successes = int(stats.get("bg_error.resume_successes"))
        went_read_only = bool(
            stats.get("bg_error.to_hard") or stats.get("bg_error.to_fatal")
        )
        ok = failure is None
        self._log(
            f"verdict={'PASS' if ok else 'FAIL'} degraded={degraded_entries} "
            f"resumes={resume_successes} read_only={went_read_only}"
        )
        self.events.append("-- faults --")
        self.events.extend(self.injector.log)

        return StormResult(
            seed=self.seed,
            kind=self.kind,
            ok=ok,
            reason=failure or "",
            writes_issued=len([op for op in self.issued if op.kind != GET]),
            writes_acked=len(self.acked),
            writes_rejected=self.rejected,
            degraded_entries=degraded_entries,
            resume_successes=resume_successes,
            went_read_only=went_read_only,
            quiesce_ns=quiesce_ns,
            faults_fired=len(self.injector.log),
            schedule_json=self.schedule.to_json(),
            events=self.events,
        )
