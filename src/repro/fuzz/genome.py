"""The fuzzer's genome: one executable scenario.

A :class:`Genome` is everything needed to deterministically re-run one
scenario through an existing harness: which harness (``mode``), the
workload knobs (seed, op/key counts, node count, storm kind) and the
full :class:`~repro.faults.FaultSchedule` (schema v2) to inject.  It
serialises to a small JSON envelope embedding the schedule in its native
schema, so corpus artifacts under ``tests/corpus/`` are plain replayable
schedule files with a workload header.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Tuple

from repro.dst.scenarios import (
    MODE_CLUSTER,
    MODE_DST,
    MODE_SERVING,
    MODE_STORM,
    SCENARIOS,
)
from repro.dst.storm import STORM_KINDS, StormConfig
from repro.errors import FaultConfigError
from repro.faults import FaultSchedule
from repro.faults.mutate import (
    CLUSTER_MUTATION_KINDS,
    DST_MUTATION_KINDS,
    SERVING_MUTATION_KINDS,
    STORM_MUTATION_KINDS,
    MutationContext,
)

MODES: Tuple[str, ...] = tuple(SCENARIOS)

#: Workload-size bounds per mode (keeps mutated runs affordable).
OPS_BOUNDS = {
    MODE_DST: (60, 600),
    MODE_STORM: (120, 800),
    MODE_CLUSTER: (40, 320),
    MODE_SERVING: (120, 400),
}
KEYS_BOUNDS = {
    MODE_DST: (8, 96),
    MODE_STORM: (8, 96),
    MODE_CLUSTER: (8, 48),
    MODE_SERVING: (8, 32),
}

GENOME_SCHEMA = 1


@dataclass(frozen=True)
class Genome:
    """One scenario: harness mode + workload knobs + fault schedule."""

    mode: str
    workload_seed: int
    num_ops: int
    num_keys: int
    schedule: FaultSchedule = field(default_factory=FaultSchedule)
    n_nodes: int = 0  # cluster: cluster size; serving: replicas per shard
    storm_kind: str = ""  # storm mode only; always resolved (never "auto")
    shards: int = 0  # serving mode only

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise FaultConfigError(f"unknown genome mode {self.mode!r}")
        lo, hi = OPS_BOUNDS[self.mode]
        if not lo <= self.num_ops <= hi:
            raise FaultConfigError(
                f"{self.mode} num_ops {self.num_ops} outside [{lo}, {hi}]"
            )
        klo, khi = KEYS_BOUNDS[self.mode]
        if not klo <= self.num_keys <= khi:
            raise FaultConfigError(
                f"{self.mode} num_keys {self.num_keys} outside [{klo}, {khi}]"
            )
        if self.mode == MODE_CLUSTER:
            if self.n_nodes < 2:
                raise FaultConfigError("cluster genomes need n_nodes >= 2")
        elif self.mode == MODE_SERVING:
            if self.n_nodes < 2:
                raise FaultConfigError("serving genomes need n_nodes (replicas) >= 2")
            if self.shards < 1:
                raise FaultConfigError("serving genomes need shards >= 1")
        elif self.n_nodes:
            raise FaultConfigError(
                f"n_nodes is cluster/serving-only, not {self.mode}"
            )
        if self.mode != MODE_SERVING and self.shards:
            raise FaultConfigError(f"shards is serving-only, not {self.mode}")
        if self.mode == MODE_STORM:
            if self.storm_kind not in STORM_KINDS:
                raise FaultConfigError(
                    f"storm genomes need a resolved kind, got {self.storm_kind!r}"
                )
        elif self.storm_kind:
            raise FaultConfigError(f"storm_kind is storm-only, not {self.mode}")

    @property
    def horizon_ns(self) -> int:
        return self.num_ops * SCENARIOS[self.mode].horizon_per_op_ns

    def mutation_context(self) -> MutationContext:
        """The bounds any mutation of this genome's schedule must respect."""
        if self.mode == MODE_STORM:
            # Triggers are clamped into the harness's storm window, so
            # mutations explore the storm, not the bounded out-of-window
            # auto-resume budget.
            return MutationContext(
                horizon_ns=self.horizon_ns,
                kinds=STORM_MUTATION_KINDS,
                window=StormConfig(num_ops=self.num_ops).window_ns,
                transient_only=True,
            )
        if self.mode == MODE_CLUSTER:
            return MutationContext(
                horizon_ns=self.horizon_ns,
                kinds=CLUSTER_MUTATION_KINDS,
                n_nodes=self.n_nodes,
            )
        if self.mode == MODE_SERVING:
            # Serving chaos addresses the *global* node space: node
            # g*replicas+r of shard group g.
            return MutationContext(
                horizon_ns=self.horizon_ns,
                kinds=SERVING_MUTATION_KINDS,
                n_nodes=self.shards * self.n_nodes,
                transient_only=True,
            )
        return MutationContext(horizon_ns=self.horizon_ns, kinds=DST_MUTATION_KINDS)

    def with_schedule(self, schedule: FaultSchedule) -> "Genome":
        return replace(self, schedule=schedule)

    # -- serialisation -----------------------------------------------------

    def to_json(self) -> str:
        """Stable JSON: fixed key order, schedule in its native schema."""
        head = {
            "fuzz_genome": GENOME_SCHEMA,
            "mode": self.mode,
            "workload_seed": self.workload_seed,
            "num_ops": self.num_ops,
            "num_keys": self.num_keys,
        }
        if self.mode in (MODE_CLUSTER, MODE_SERVING):
            head["n_nodes"] = self.n_nodes
        if self.mode == MODE_SERVING:
            head["shards"] = self.shards
        if self.mode == MODE_STORM:
            head["storm_kind"] = self.storm_kind
        head["schedule"] = json.loads(self.schedule.to_json())
        return json.dumps(head, indent=2)

    @classmethod
    def from_dict(cls, data: dict) -> "Genome":
        if data.get("fuzz_genome") != GENOME_SCHEMA:
            raise FaultConfigError(
                f"not a fuzz genome (fuzz_genome={data.get('fuzz_genome')!r})"
            )
        schedule = FaultSchedule.from_json(json.dumps(data.get("schedule", [])))
        try:
            return cls(
                mode=data["mode"],
                workload_seed=data["workload_seed"],
                num_ops=data["num_ops"],
                num_keys=data["num_keys"],
                schedule=schedule,
                n_nodes=data.get("n_nodes", 0),
                storm_kind=data.get("storm_kind", ""),
                shards=data.get("shards", 0),
            )
        except KeyError as exc:
            raise FaultConfigError(f"genome missing field {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "Genome":
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise FaultConfigError(f"unparseable genome: {exc}") from exc
        if not isinstance(data, dict):
            raise FaultConfigError("genome JSON must be an object")
        return cls.from_dict(data)


__all__ = [
    "GENOME_SCHEMA",
    "KEYS_BOUNDS",
    "MODE_CLUSTER",
    "MODE_DST",
    "MODE_SERVING",
    "MODE_STORM",
    "MODES",
    "OPS_BOUNDS",
    "Genome",
]
