"""The fuzzer's corpus: bootstrap seeds + persisted crashers.

A corpus entry under ``tests/corpus/`` is one replayable JSON artifact:
a :class:`~repro.fuzz.genome.Genome` plus the verdict its replay must
produce.  The regression tier (``tests/fuzz/test_corpus.py``) collects
every ``*.json`` in that directory into parametrized pytest cases, so a
fuzzer find — once minimized, fixed and flipped to ``expect.ok: true``
— can never silently regress.

Bootstrap genomes mirror the schedules the existing DST / storm /
cluster / serving harnesses would draw for their first few seeds, so
the fuzzer starts from scenarios that are known-meaningful rather than
from noise.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import List, Sequence

from repro.dst.scenarios import (
    MODE_CLUSTER,
    MODE_DST,
    MODE_SERVING,
    MODE_STORM,
    SCENARIOS,
)
from repro.errors import FaultConfigError
from repro.fuzz.genome import MODES, Genome

CORPUS_SCHEMA = 1
DEFAULT_CORPUS_DIR = os.path.join("tests", "corpus")


@dataclass(frozen=True)
class CorpusEntry:
    """One persisted scenario and the verdict its replay must produce."""

    name: str
    origin: str  # "bootstrap" | "fuzzer"
    note: str
    genome: Genome
    expect_ok: bool
    #: Normalised failure class (``Outcome.signature``); "" when expect_ok.
    expect_signature: str = ""

    def to_json(self) -> str:
        data = {
            "fuzz_corpus": CORPUS_SCHEMA,
            "name": self.name,
            "origin": self.origin,
            "note": self.note,
            "expect": {"ok": self.expect_ok, "signature": self.expect_signature},
            "genome": json.loads(self.genome.to_json()),
        }
        return json.dumps(data, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "CorpusEntry":
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise FaultConfigError(f"unparseable corpus entry: {exc}") from exc
        if not isinstance(data, dict) or data.get("fuzz_corpus") != CORPUS_SCHEMA:
            raise FaultConfigError("not a fuzz corpus entry")
        expect = data.get("expect", {})
        return cls(
            name=data["name"],
            origin=data.get("origin", "fuzzer"),
            note=data.get("note", ""),
            genome=Genome.from_dict(data["genome"]),
            expect_ok=bool(expect.get("ok", True)),
            expect_signature=expect.get("signature", ""),
        )

    def to_file(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")

    @classmethod
    def from_file(cls, path: str) -> "CorpusEntry":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())


def corpus_files(dirpath: str) -> List[str]:
    """Sorted ``*.json`` paths under ``dirpath`` ([] when absent)."""
    if not os.path.isdir(dirpath):
        return []
    return [
        os.path.join(dirpath, name)
        for name in sorted(os.listdir(dirpath))
        if name.endswith(".json")
    ]


def load_corpus(dirpath: str) -> List[CorpusEntry]:
    return [CorpusEntry.from_file(path) for path in corpus_files(dirpath)]


#: Seeds each mode's bootstrap genomes are drawn from.
_BOOTSTRAP_SEEDS = {
    MODE_DST: (0, 1, 2, 3),
    MODE_STORM: (0, 1, 2),
    MODE_CLUSTER: (0, 1),
    MODE_SERVING: (0, 1),
}


def bootstrap_genomes(modes: Sequence[str] = MODES) -> List[Genome]:
    """Deterministic seed scenarios mirroring the existing harnesses.

    Each genome freezes what the harness, at its default config, would
    run for that seed: the run is constructed (not executed) and its
    resolved config, schedule and storm kind are read back, so replaying
    the genome is byte-identical to letting the harness draw them.
    """
    genomes: List[Genome] = []
    for mode in (m for m in MODES if m in modes):
        scenario = SCENARIOS[mode]
        for seed in _BOOTSTRAP_SEEDS[mode]:
            run = scenario.make_run(seed, {})
            genomes.append(
                Genome(
                    mode,
                    workload_seed=seed,
                    schedule=run.schedule,
                    **scenario.genome_knobs(run),
                )
            )
    return genomes


__all__ = [
    "CORPUS_SCHEMA",
    "CorpusEntry",
    "DEFAULT_CORPUS_DIR",
    "bootstrap_genomes",
    "corpus_files",
    "load_corpus",
]
