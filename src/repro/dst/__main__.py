"""CLI: ``python -m repro.dst --seed N`` (and seed sweeps for CI).

Each seed is one independent simulated universe: workload, fault
schedule and crash point all derive from it.  A failing seed prints a
minimal repro command; ``--save`` dumps the fault schedule as JSON and
``--replay`` re-runs a saved schedule under any seed's workload.
``--selfcheck`` runs every seed twice in-process and demands
byte-identical event logs — the determinism contract CI leans on.

Every mode (``--storm``, ``--cluster``, ``--serving`` or the default
crash mode) is one entry of :data:`repro.dst.scenarios.SCENARIOS`; the
single sweep loop below serves them all.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.dst.scenarios import (
    MODE_DST,
    SCENARIOS,
    RaisedRun,
    fingerprint,
    run_guarded,
)
from repro.dst.storm import STORM_AUTO, STORM_KINDS
from repro.perf.parallel import default_jobs, imap_points

#: Every mode-specific flag (argparse dest); each mode reads a subset.
_MODE_FLAGS = tuple(dict.fromkeys(f for s in SCENARIOS.values() for f in s.flags))


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _parse_seeds(args: argparse.Namespace) -> List[int]:
    if args.seeds:
        lo, _, hi = args.seeds.partition(":")
        try:
            lo_i, hi_i = int(lo), int(hi)
        except ValueError:
            raise SystemExit(f"bad --seeds range {args.seeds!r} (want A:B)")
        if hi_i <= lo_i:
            raise SystemExit(f"empty --seeds range {args.seeds!r}")
        return list(range(lo_i, hi_i))
    return [args.seed]


def _repro_line(args: argparse.Namespace, seed: int) -> str:
    parts = [f"python -m repro.dst --seed {seed}"]
    if args.mode != MODE_DST:
        parts.append(_flag(args.mode))
    for dest in SCENARIOS[args.mode].flags:
        value = getattr(args, dest)
        if value is True:
            parts.append(_flag(dest))
        elif value is not None:
            parts.append(f"{_flag(dest)} {value}")
    return " ".join(parts)


def _seed_worker(item):
    """One seed's run (plus the --selfcheck rerun), inside a --jobs worker.

    Each run gets a fresh config instance built from the same kwargs, as
    the serial loop would, so event logs are byte-identical for every
    jobs value.  Only picklable results travel back.
    """
    mode, seed, kwargs, selfcheck = item
    scenario = SCENARIOS[mode]
    result = run_guarded(lambda: scenario.make_run(seed, kwargs))
    again = run_guarded(lambda: scenario.make_run(seed, kwargs)) if selfcheck else None
    return result, again


def _sweep(args: argparse.Namespace, seeds: List[int]) -> int:
    scenario = SCENARIOS[args.mode]
    kwargs = scenario.from_args(args)
    items = [(args.mode, seed, kwargs, args.selfcheck) for seed in seeds]
    failures = 0
    total = 0
    runs = imap_points(_seed_worker, items, jobs=args.jobs)
    for seed, (result, again) in zip(seeds, runs):
        if again is not None and fingerprint(again) != fingerprint(result):
            print(f"seed={seed} NONDETERMINISTIC: reruns diverge")
            for a, b in zip(result.events, again.events):
                if a != b:
                    print(f"  first : {a}\n  second: {b}")
                    break
            failures += 1
            continue
        crashed = isinstance(result, RaisedRun)
        line = f"seed={seed} {result.verdict}"
        if not crashed:
            line += " " + scenario.summary(result)
            if scenario.tally is not None:
                total += scenario.tally(result)
        print(line + (" deterministic" if args.selfcheck else ""))
        if args.log:
            for event in result.events:
                print(f"  {event}")
            if crashed:
                print("  " + result.traceback.rstrip().replace("\n", "\n  "))
        if args.save and result.schedule_json:
            with open(args.save, "w", encoding="utf-8") as fh:
                fh.write(result.schedule_json + "\n")
            print(f"  schedule saved to {args.save}")
        if not result.ok:
            failures += 1
            if not crashed:
                print(f"  reason: {result.reason}")
            print(f"  repro: {_repro_line(args, seed)}")
    if len(seeds) > 1 and scenario.footer is not None:
        text, ok = scenario.footer(total, len(seeds))
        print(text)
        if not ok:
            failures += 1
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.dst",
        description="Deterministic crash-consistency testing of the simulated LSM stack.",
    )
    parser.add_argument("--seed", type=int, default=0, help="single seed to run")
    parser.add_argument(
        "--seeds", metavar="A:B", help="run seeds A..B-1 (overrides --seed)"
    )
    parser.add_argument(
        "--ops", type=int, help="workload operations (default: the mode's own)"
    )
    parser.add_argument(
        "--keys", type=int, help="key-space size (default: the mode's own)"
    )
    parser.add_argument(
        "--no-faults",
        action="store_true",
        default=None,
        help="clean run: no faults, power cut at end",
    )
    parser.add_argument(
        "--max-faults", type=int, help="max random fault specs per run (default 5)"
    )
    parser.add_argument(
        "--replay", metavar="FILE", help="run a saved fault schedule (JSON) instead of a random one"
    )
    parser.add_argument(
        "--save", metavar="FILE", help="write the run's fault schedule as JSON"
    )
    parser.add_argument(
        "--log", action="store_true", help="print the virtual-time event log"
    )
    parser.add_argument(
        "--selfcheck",
        action="store_true",
        help="run each seed twice; fail unless event logs are byte-identical",
    )
    modes = parser.add_mutually_exclusive_group()
    for name, scenario in SCENARIOS.items():
        if name != MODE_DST:
            modes.add_argument(
                _flag(name), dest="mode", action="store_const", const=name,
                help=scenario.help,
            )
    parser.set_defaults(mode=MODE_DST)
    parser.add_argument(
        "--storm-kind",
        choices=(STORM_AUTO,) + STORM_KINDS,
        help="storm flavour: io faults, disk-full squeeze, both, or per-seed auto "
        "(default auto)",
    )
    parser.add_argument(
        "--nodes", type=int, help="cluster size for --cluster (default 3)"
    )
    parser.add_argument(
        "--shards", type=int, help="shard groups for --serving (default 2)"
    )
    parser.add_argument(
        "--replicas", type=int, help="replicas per shard group for --serving (default 3)"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=default_jobs(),
        metavar="N",
        help="worker processes for seed sweeps (default: $REPRO_JOBS or 1); "
        "output is byte-identical for any value",
    )
    args = parser.parse_args(argv)

    # Mode-specific flags default to None ("the scenario's own default"),
    # so a flag the chosen mode would silently ignore is caught here.
    used = SCENARIOS[args.mode].flags
    for dest in _MODE_FLAGS:
        if dest not in used and getattr(args, dest) is not None:
            raise SystemExit(f"{_flag(dest)} is not used in {args.mode} mode")
    return _sweep(args, _parse_seeds(args))


if __name__ == "__main__":
    sys.exit(main())
