"""One table of the DST harness modes: ``SCENARIOS``.

Every consumer that needs to know what a mode *is* — the
``python -m repro.dst`` sweep loop, the fuzz executor and the fuzz
corpus bootstrap — reads it from this registry instead of re-deriving
it.  An entry names the mode's config and run classes, the CLI flags it
consumes, how to build its config from CLI flags or from a fuzz genome
(and back), its per-seed summary line, and an optional sweep footer.
Adding a scenario is one entry here.

``repro.matrix`` and ``perfbench`` call :class:`ServingDstRun` directly:
they need its ``tenant_rows`` and device knob, which a table entry would
only pass through.
"""

from __future__ import annotations

import argparse
import operator
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.dst.cluster import ClusterDstConfig, ClusterDstRun
from repro.dst.harness import DstConfig, DstRun
from repro.dst.serving import ServingDstConfig, ServingDstRun
from repro.dst.storm import StormConfig, StormRun
from repro.faults import FaultSchedule
from repro.sim.units import us

MODE_DST = "dst"
MODE_STORM = "storm"
MODE_CLUSTER = "cluster"
MODE_SERVING = "serving"


@dataclass(frozen=True)
class Scenario:
    """How one harness mode is configured, run, and reported."""

    config_cls: type
    run_cls: type
    #: Mode-specific CLI flag (``argparse`` dest) -> config field, in
    #: repro-line order; the CLI rejects any other mode's flag.
    flags: Dict[str, str]
    #: Config kwargs from a fuzz genome.
    from_genome: Callable[[Any], Dict[str, Any]]
    #: Genome workload knobs from a constructed (not yet executed) run.
    genome_knobs: Callable[[Any], Dict[str, Any]]
    #: Virtual time a genome grants per op (``horizon = num_ops * this``).
    horizon_per_op_ns: int
    #: Per-seed summary fields printed after ``seed=N VERDICT``.
    summary: Callable[[Any], str]
    #: Multi-seed sweeps: ``tally`` counts something per seed result and
    #: ``footer(total, n_seeds)`` reports it as ``(text, ok)``.
    tally: Optional[Callable[[Any], int]] = None
    footer: Optional[Callable[[int, int], Tuple[str, bool]]] = None
    #: Help for the mode's CLI switch (the default mode has none).
    help: str = ""
    #: Config values the CLI uses where a flag is unset and the CLI's
    #: default differs from the config's.
    cli_defaults: Dict[str, Any] = field(default_factory=dict)

    def from_args(self, args: argparse.Namespace) -> Dict[str, Any]:
        """Config kwargs from parsed CLI flags (unset flags are ``None``)."""
        kwargs = dict(self.cli_defaults)
        for dest, name in self.flags.items():
            value = getattr(args, dest)
            if value is not None:
                kwargs[name] = _FLAG_VALUE.get(dest, _same)(value)
        return kwargs

    def make_run(self, seed: int, kwargs: Dict[str, Any]):
        """A fresh run (fresh config instance) for ``seed``."""
        return self.run_cls(seed, self.config_cls(**kwargs))


@dataclass
class RaisedRun:
    """A run whose harness raised instead of returning a verdict."""

    reason: str  # "<type>: <message>"
    traceback: str
    events: List[str]
    schedule_json: str  # "" when the run was never constructed
    ok = False

    @property
    def verdict(self) -> str:
        return f"EXCEPTION({self.reason})"


def run_guarded(make_run: Callable[[], Any]):
    """Build and run one scenario; an escaping exception becomes the result."""
    run = None
    try:
        run = make_run()
        return run.run()
    except Exception as exc:  # noqa: BLE001 — an escaping exception IS the finding
        built = run is not None
        return RaisedRun(
            reason=f"{type(exc).__name__}: {exc}",
            traceback=traceback.format_exc(),
            events=list(run.events) if built else [],
            schedule_json=run.schedule.to_json() if built else "",
        )


def fingerprint(result) -> tuple:
    """What ``--selfcheck`` demands be byte-identical across reruns."""
    return result.verdict, result.events, getattr(result, "log_digest", None)


# -- config builders: CLI flag values and fuzz genomes ---------------------------

#: CLI flags whose config value is not the flag's own value.
_FLAG_VALUE: Dict[str, Callable[[Any], Any]] = {
    "no_faults": operator.not_,
    "replay": FaultSchedule.from_file,
}


def _same(value):
    return value


def _workload_genome(g) -> Dict[str, Any]:
    return {"num_ops": g.num_ops, "num_keys": g.num_keys, "schedule": g.schedule}


def _storm_genome(g) -> Dict[str, Any]:
    return {"kind": g.storm_kind} | _workload_genome(g)


def _cluster_genome(g) -> Dict[str, Any]:
    return {"n_nodes": g.n_nodes} | _workload_genome(g)


def _serving_genome(g) -> Dict[str, Any]:
    return {
        "shards": g.shards,
        "replicas": g.n_nodes,
        "key_count": g.num_keys,
        "duration_ns": g.horizon_ns,
        "schedule": g.schedule,
    }


def _workload_knobs(run) -> Dict[str, Any]:
    return {"num_ops": run.config.num_ops, "num_keys": run.config.num_keys}


def _storm_knobs(run) -> Dict[str, Any]:
    return _workload_knobs(run) | {"storm_kind": run.kind}


def _cluster_knobs(run) -> Dict[str, Any]:
    return _workload_knobs(run) | {"n_nodes": run.config.n_nodes}


#: Serving runs have no op count (the fleet is open-loop over a duration),
#: so a serving genome's ``num_ops`` sizes the duration: the 400-op genome
#: is exactly the harness's 100ms default.
_SERVING_NS_PER_OP = us(250)


def _serving_knobs(run) -> Dict[str, Any]:
    cfg = run.config
    return {
        "num_ops": cfg.duration_ns // _SERVING_NS_PER_OP,
        "num_keys": cfg.key_count,
        "n_nodes": cfg.replicas,
        "shards": cfg.shards,
    }


# -- per-seed summaries and sweep footers ----------------------------------------


def _yn(flag: bool) -> str:
    return "y" if flag else "n"


def _dst_summary(r) -> str:
    crash = "clean" if r.crash_ns < 0 else f"t={r.crash_ns}"
    return (
        f"cut={r.cut}/{r.writes_issued} acked={r.writes_acked} "
        f"crash={crash} faults={r.faults_fired}"
    )


def _storm_summary(r) -> str:
    quiesce = "never" if r.quiesce_ns < 0 else f"{r.quiesce_ns}ns"
    return (
        f"kind={r.kind} acked={r.writes_acked}/{r.writes_issued} "
        f"rejected={r.writes_rejected} degraded={r.degraded_entries} "
        f"resumes={r.resume_successes} read_only={_yn(r.went_read_only)} "
        f"quiesce={quiesce}"
    )


def _cluster_summary(r) -> str:
    return (
        f"cut={r.cut}/{r.writes_issued} acked={r.writes_acked} "
        f"failovers={r.failovers} crashes={r.crashes} "
        f"converged={_yn(r.converged)} log={r.log_digest[:8]}"
        + (" gave_up" if r.gave_up else "")
    )


def _serving_summary(r) -> str:
    return (
        f"ops={r.ops} shed={r.shed} errors={r.errors} acked={r.writes_acked} "
        f"failovers={r.failovers} leader_faults={r.leader_faults} "
        f"ryw={r.ryw_violations} unresolved={r.unresolved} "
        f"max_op={r.max_elapsed_us}us converged={_yn(r.converged)} "
        f"log={r.log_digest[:8]}"
    )


def _storm_footer(degraded: int, n_seeds: int) -> Tuple[str, bool]:
    text = f"storm sweep: {degraded}/{n_seeds} seeds entered degraded mode"
    if degraded:
        return text, True
    return text + "\n  FAIL: no seed ever degraded — the storm is not storming", False


def _failover_footer(mode: str):
    def footer(failovers: int, n_seeds: int) -> Tuple[str, bool]:
        return f"{mode} sweep: {failovers} failover(s) across {n_seeds} seeds", True

    return footer


def _failovers(r) -> int:
    return r.failovers


# -- the table -------------------------------------------------------------------

#: Mode name -> scenario, in the fuzzer's default mode order.
SCENARIOS: Dict[str, Scenario] = {
    MODE_DST: Scenario(
        config_cls=DstConfig,
        run_cls=DstRun,
        flags={
            "ops": "num_ops",
            "keys": "num_keys",
            "no_faults": "faults",
            "max_faults": "max_faults",
            "replay": "schedule",
        },
        from_genome=_workload_genome,
        genome_knobs=_workload_knobs,
        horizon_per_op_ns=DstConfig.horizon_per_op_ns,
        summary=_dst_summary,
    ),
    MODE_STORM: Scenario(
        config_cls=StormConfig,
        run_cls=StormRun,
        help="storm-then-clear mode: degraded-mode entry, auto-resume, liveness",
        flags={
            "storm_kind": "kind",
            "ops": "num_ops",
            "keys": "num_keys",
            "replay": "schedule",
        },
        from_genome=_storm_genome,
        genome_knobs=_storm_knobs,
        horizon_per_op_ns=StormConfig.pace_ns,
        summary=_storm_summary,
        tally=lambda r: int(r.degraded_entries > 0),
        footer=_storm_footer,
    ),
    MODE_CLUSTER: Scenario(
        config_cls=ClusterDstConfig,
        run_cls=ClusterDstRun,
        help="replicated-cluster mode: WAL shipping, quorum acks, partition/failover",
        flags={
            "nodes": "n_nodes",
            "ops": "num_ops",
            "keys": "num_keys",
            "no_faults": "faults",
            "max_faults": "max_faults",
            "replay": "schedule",
        },
        # The CLI has always drawn up to 5 cluster faults per seed; fuzz
        # bootstrap genomes keep the config default of 4.
        cli_defaults={"max_faults": 5},
        from_genome=_cluster_genome,
        genome_knobs=_cluster_knobs,
        horizon_per_op_ns=ClusterDstConfig.horizon_per_op_ns,
        summary=_cluster_summary,
        tally=_failovers,
        footer=_failover_footer(MODE_CLUSTER),
    ),
    MODE_SERVING: Scenario(
        config_cls=ServingDstConfig,
        run_cls=ServingDstRun,
        help="serving-chaos mode: replicated shards + tenant fleet + "
        "failover/partition/storms injected mid-traffic",
        flags={
            "shards": "shards",
            "replicas": "replicas",
            "keys": "key_count",
            "no_faults": "faults",
            "replay": "schedule",
        },
        from_genome=_serving_genome,
        genome_knobs=_serving_knobs,
        horizon_per_op_ns=_SERVING_NS_PER_OP,
        summary=_serving_summary,
        tally=_failovers,
        footer=_failover_footer(MODE_SERVING),
    ),
}


__all__ = [
    "RaisedRun",
    "MODE_CLUSTER",
    "MODE_DST",
    "MODE_SERVING",
    "MODE_STORM",
    "SCENARIOS",
    "Scenario",
    "fingerprint",
    "run_guarded",
]
