"""Coverage-guided scenario fuzzing over the deterministic harnesses.

``repro.fuzz`` turns the repo's invariant checkers (crash, storm,
cluster and serving DST) from spot-checks into a search process:

* the **genome** (:mod:`repro.fuzz.genome`) is a harness mode, workload
  knobs and a schema-v2 :class:`~repro.faults.FaultSchedule`;
* **mutation** (:mod:`repro.fuzz.mutators` over
  :mod:`repro.faults.mutate`) perturbs schedules and workloads inside
  validity bounds;
* the **coverage signal** (:mod:`repro.obs.vocab`) is the run's
  trace-event vocabulary — distinct state transitions, error paths and
  log shapes — so a mutant is kept iff the system said something new;
* **crashers** are deduplicated by failure class, minimized
  (:mod:`repro.fuzz.minimize`) and persisted under ``tests/corpus/`` as
  replayable JSON (:mod:`repro.fuzz.corpus`), which the regression test
  tier replays forever after.

Entry point: ``python -m repro.fuzz --seed N --iters K [--jobs J]`` —
deterministic for any jobs value.
"""

from repro.fuzz.corpus import (
    CORPUS_SCHEMA,
    CorpusEntry,
    DEFAULT_CORPUS_DIR,
    bootstrap_genomes,
    corpus_files,
    load_corpus,
)
from repro.fuzz.executor import Outcome, build_run, execute
from repro.fuzz.fuzzer import Crasher, FuzzConfig, FuzzReport, run_fuzz
from repro.fuzz.genome import (
    MODE_CLUSTER,
    MODE_DST,
    MODE_SERVING,
    MODE_STORM,
    MODES,
    Genome,
)
from repro.fuzz.minimize import minimize
from repro.fuzz.mutators import mutate_genome

__all__ = [
    "CORPUS_SCHEMA",
    "Crasher",
    "CorpusEntry",
    "DEFAULT_CORPUS_DIR",
    "FuzzConfig",
    "FuzzReport",
    "Genome",
    "MODE_CLUSTER",
    "MODE_DST",
    "MODE_SERVING",
    "MODE_STORM",
    "MODES",
    "Outcome",
    "bootstrap_genomes",
    "build_run",
    "corpus_files",
    "execute",
    "load_corpus",
    "minimize",
    "mutate_genome",
    "run_fuzz",
]
