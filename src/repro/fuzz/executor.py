"""Run one genome through its harness, under a tracer, into an Outcome.

The executor is the fuzzer's oracle boundary: a genome goes in, the
matching DST harness runs it with a fresh :class:`~repro.obs.Tracer`
bound, and what comes out is (a) the harness's own invariant verdict and
(b) the run's coverage vocabulary (trace items + event-log shapes +
outcome tokens).  A harness that *raises* instead of returning a verdict
is itself a finding — the exception becomes a failing outcome rather
than killing the fuzz loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet

from repro.dst.scenarios import SCENARIOS, run_guarded
from repro.fuzz.genome import Genome
from repro.obs import Tracer, set_active_tracer
from repro.obs.vocab import log_vocabulary, normalize_log_line, trace_vocabulary


@dataclass(frozen=True)
class Outcome:
    """What one genome execution produced."""

    ok: bool
    verdict: str  # "PASS" | "FAIL(<reason>)" | "EXCEPTION(<type: msg>)"
    reason: str  # "" when ok
    vocab: FrozenSet[str]
    faults_fired: int
    trace_events: int

    @property
    def signature(self) -> str:
        """Normalised failure class (for crasher dedup); "" when ok."""
        if self.ok:
            return ""
        return normalize_log_line(self.reason)


def build_run(genome: Genome):
    """Instantiate the harness run a genome describes (not yet executed)."""
    scenario = SCENARIOS[genome.mode]
    return scenario.make_run(genome.workload_seed, scenario.from_genome(genome))


def execute(genome: Genome, max_trace_events: int = 200_000) -> Outcome:
    """Run ``genome`` deterministically; never raises for harness failures."""
    tracer = Tracer(max_events=max_trace_events)
    set_active_tracer(tracer)
    try:
        result = run_guarded(lambda: build_run(genome))
    finally:
        set_active_tracer(None)

    vocab = set(trace_vocabulary(tracer))
    vocab |= log_vocabulary(result.events)
    vocab.add(f"outcome|{genome.mode}|{'pass' if result.ok else 'fail'}")
    if not result.ok:
        vocab.add(f"outcome|{genome.mode}|{normalize_log_line(result.reason)}")
    return Outcome(
        ok=result.ok,
        verdict=result.verdict,
        reason=result.reason,
        vocab=frozenset(vocab),
        faults_fired=getattr(result, "faults_fired", 0),
        trace_events=tracer.num_events,
    )


__all__ = ["Outcome", "build_run", "execute"]
