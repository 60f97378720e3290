"""Repository benchmark: paper-config db_bench workloads plus replicated serving.

Usage (from the repository root)::

    python3 perfbench/run.py --workload read_xpoint --seed 1 --seconds 10 --trace 0

``--trace 0`` runs the workload untraced and reports every end-to-end
metric named in ``BENCHMARK.json``; ``--trace 1`` runs it once untraced and
once with host-time spans around each layer's entry points, and reports
every per-layer metric.  Either way the last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  Lines
before it are the human-readable report: set-up split, correctness checks,
steady-state verdict, ``sim_digest`` and (traced) the per-span table.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
OUT_DIR = os.path.join(ROOT, ".bench_out")


def _load():
    """Import the simulator from this checkout's ``src/``; exit non-zero if
    it is absent (an installed copy elsewhere does not count)."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    try:
        import repro
        import tracing
        import workloads
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the simulator from src/: {exc}")
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: repro imported from {repro.__file__}, not from {src}")
    return tracing, workloads


def _metrics(spec_entries, values):
    missing = [m["name"] for m in spec_entries if m["name"] not in values]
    if missing:
        raise SystemExit(f"perfbench: metrics not computed: {missing}")
    return {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in spec_entries
    }


#: Least share of a traced timed run's host time that layer spans must
#: cover; the rest is benchmark or client code outside every wrapper.
MIN_COVERAGE = 0.97


def _print_checks(checks, failures=()):
    for name, passed, detail in checks:
        print(f"check {name:<26} {'PASS' if passed else 'FAIL'}  {detail}")
    for name, passed, detail in failures:
        verdict = "PASS" if passed else "FAIL (its ops count as failed)"
        print(f"ops   {name:<26} {verdict}  {detail}")


def _correct(checks):
    return all(passed for _n, passed, _d in checks)


def _print_setup(outcome):
    phases = outcome.setup_phases
    for i, total in enumerate(phases["setup_s"]):
        parts = " ".join(
            f"{key}={phases[key][i]:.3f}"
            for key in ("machine_s", "open_s", "prefill_s")
            if key in phases
        )
        print(f"setup[{i}] total={total:.3f}s {parts}".rstrip())


def untraced(workload, args, spec):
    outcome = workload.measure(args.seed, args.seconds)
    _print_setup(outcome)
    for line in outcome.lines:
        print(line)
    _print_checks(outcome.checks, outcome.failures)
    print(f"sim_digest={outcome.digest}")
    for name, value in outcome.e2e.items():
        print(f"{name:<18} {value:.6g}")
    correct = _correct(outcome.checks)
    return correct, outcome.attempted, outcome.failed, _metrics(
        spec["end_to_end"], outcome.e2e
    )


def traced(workload, args, spec, tracing):
    plain = workload.measure(args.seed, args.seconds, setups=1, repeats=1)
    tracer = tracing.SpanTracer()
    tracer.install()
    try:
        with tracer.root() as root:
            outcome = workload.measure(args.seed, args.seconds, setups=1, repeats=1,
                                       tracer=tracer)
    finally:
        tracer.uninstall()

    checks = [(f"untraced.{n}", p, d) for n, p, d in plain.checks] + list(outcome.checks)
    failures = [(f"untraced.{n}", p, d) for n, p, d in plain.failures] + list(outcome.failures)
    checks.append((
        "trace_observation_only",
        outcome.digest == plain.digest,
        f"traced {outcome.digest} vs untraced {plain.digest}",
    ))
    for label, expected in outcome.reconcile.items():
        got = tracing.RECONCILE[label](tracer)
        checks.append((f"reconcile_{label}", got == expected, f"spans {got} vs run {expected}"))
    # Self times sum to the traced wall time by construction (a closing span
    # hands its duration to its parent), so that sum proves nothing.  The
    # check instead compares the time inside layer spans with the host
    # interval between the hostclock marks around the timed run, taken
    # outside every span: time the wrappers miss shows up as a shortfall.
    covered, interval = outcome.coverage
    share = covered / interval if interval else 0.0
    checks.append((
        "reconcile_coverage",
        MIN_COVERAGE <= share <= 1.0 + 1e-6,
        f"layer spans {covered:.3f}s of the timed run's {interval:.3f}s ({share:.2%}, "
        f"floor {MIN_COVERAGE:.0%})",
    ))

    calls = tracer.calls
    layer = dict(outcome.layer)
    layer.update({f"{name}.self_s": secs for name, secs in tracer.layer_self_s().items()})
    probes = calls["BloomFilter.may_contain"]
    layer.update({
        "sim.processes_spawned": calls["Engine.process"],
        "sim.events_created": calls["Event.__init__"],
        "sim.stats.samples": tracer.counters["sim.stats.samples"],
        "lsm.read.bloom_useful_per_probe": layer.pop("lsm.read.bloom_useful", 0) / probes
        if probes else 0.0,
        "lsm.write.fast_path_hits": tracer.counters["fast.put"] + tracer.counters["fast.get"],
        "cluster.ship_retries": tracer.counters["cluster.ship_retries"],
        "dst.verify_s": tracer.total_s["ResilientServingStack.verify_writes"],
        "trace.overhead_x": outcome.host_timed_s / plain.host_timed_s,
        "trace.wall_s": root.wall_s,
        "trace.coverage": share,
    })
    # Set-up phase times are host timings, not spans: take the untraced ones.
    for key in ("workloads.prefill_s", "harness.machine_s"):
        layer[key] = plain.layer.get(key, 0.0)
    for entry in spec["per_layer"]:  # e.g. no steady-state verdict on serving workloads
        layer.setdefault(entry["name"], 0)
    print("per-layer: " + " ".join(f"{k}={v:.6g}" for k, v in sorted(layer.items())))

    for line in outcome.lines:
        print(line)
    print(f"{'span':<36} {'layer':<14} {'self_s':>9} {'calls':>10} {'sim_ms':>10}")
    for name, lay, secs, n, sim_ns in tracer.span_rows():
        if secs >= 1e-4:
            print(f"{name:<36} {lay:<14} {secs:9.4f} {n:10d} {sim_ns / 1e6:10.2f}")
    total = tracer.layer_self_s()
    setup = tracer.setup_layer_s or dict.fromkeys(total, 0.0)
    setup_wall = sum(setup.values()) or 1.0
    timed_wall = sum(total.values()) - sum(setup.values())
    print(f"{'layer':<16} {'setup_s':>9} {'share':>7} {'timed_s':>9} {'share':>7}")
    for name, secs in sorted(total.items(), key=lambda kv: -(kv[1] - setup[kv[0]])):
        timed = secs - setup[name]
        print(f"{name:<16} {setup[name]:9.4f} {setup[name] / setup_wall:7.1%} "
              f"{timed:9.4f} {timed / timed_wall:7.1%}")
    print(
        f"traced timed run {outcome.host_timed_s:.3f}s vs untraced "
        f"{plain.host_timed_s:.3f}s (overhead x{layer['trace.overhead_x']:.2f})"
    )
    _print_checks(checks, failures)
    print(f"sim_digest={outcome.digest}")
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}.trace.json")
    tracer.export(path)
    print(f"first {len(tracer.raw)} spans written to {os.path.relpath(path, ROOT)}")

    return _correct(checks), outcome.attempted, outcome.failed, _metrics(spec["per_layer"], layer)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tracing, workloads = _load()
    try:
        with open(SPEC_PATH) as f:
            spec = json.load(f)
    except OSError as exc:
        sys.exit(f"perfbench: cannot read BENCHMARK.json: {exc}")
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    if args.trace:
        correct, attempted, failed, metrics = traced(workload, args, spec, tracing)
    else:
        correct, attempted, failed, metrics = untraced(workload, args, spec)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
