"""Wall-clock benchmark of the warehouse: one workload per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload serve-2lupi --seed 1 --seconds 30 --trace 0

The program under test is imported from ``src/``.  Rounds of the
workload (see ``workloads.py``) repeat, untraced, until ``--seconds``
have passed (at least ``MIN_ROUNDS``); with ``--trace 1`` one more round
then runs with every layer wrapped by :class:`layertrace.LayerTracer`.
The last line of standard output is one JSON object: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  The exit status is 0 only when every correctness
check passed.

Every timing is ``time.perf_counter`` wall time of this process, never
the simulated cost-model seconds, which are outputs under test (they
enter the digest).  On a VM whose host cores are shared with other
machines, Python can run up to 1.7 times slower in spells lasting from
a fraction of a second to minutes.  Each round is therefore
bracketed by a calibration kernel, and the round's wall times are
scaled to the speed at which that kernel runs in
``REFERENCE_KERNEL_S``; each end-to-end metric takes, per timed call,
the median of these scaled times across the rounds.  The per-round
scales are printed, and the per-layer self times are unscaled.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Fewest rounds a run measures, so that every figure is a median.
MIN_ROUNDS = 3
#: Best time of :func:`_calibration_kernel` on an idle 2-vCPU VM (s).
REFERENCE_KERNEL_S = 0.00105


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile (0.0 without samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * pct / 100.0)) - 1]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _calibration_kernel() -> Any:
    """A fixed slice of interpreter work: formatting, dicts, a sort."""
    table = {}
    for i in range(2000):
        key = "k%d" % (i * 7919 % 2003)
        table[key] = (i, key, [i, i + 1])
    return sorted(table.items(), key=lambda kv: kv[1][0])[-1]


def kernel_floor(samples: int = 50) -> float:
    """Best of ``samples`` timed calibration-kernel runs (seconds)."""
    best = float("inf")
    for _ in range(samples):
        started = time.perf_counter()
        _calibration_kernel()
        best = min(best, time.perf_counter() - started)
    return best


def measure(workload: Any, seed: int, inputs: Any) -> Any:
    """One untraced round, scaled by the kernel floors around it."""
    # Each round starts from a collected heap, so no round pays for the
    # garbage of the one before.
    gc.collect()
    before = kernel_floor()
    rnd = workload.round(seed, inputs)
    # The slower of the two floors: a round that overlapped a slow spell
    # is scaled by that spell's speed.
    rnd.scale = REFERENCE_KERNEL_S / max(before, kernel_floor())
    return rnd


def typical_ops(rounds: List[Any]) -> List[Any]:
    """Each timed call's median scaled duration across the rounds.

    Every round repeats the same calls on the same inputs, so the
    rounds are repeated measurements of one sequence of calls.
    """
    return [dataclasses.replace(ops[0],
                                seconds=_median([op.seconds for op in ops]))
            for ops in zip(*(r.scaled_ops() for r in rounds))]


def _rate(ops: List[Any], phases: tuple) -> float:
    """Work per wall second over the calls of the given phases."""
    chosen = [op for op in ops if op.phase in phases]
    return _ratio(sum(op.amount for op in chosen),
                  sum(op.seconds for op in chosen))


def end_to_end(rounds: List[Any]) -> Dict[str, float]:
    """The gated end-to-end metrics of a run's untraced rounds."""
    typical = typical_ops(rounds)
    return {
        "setup_s": _median([r.setup_s * r.scale for r in rounds]),
        "index_docs_per_s": _rate(typical, ("build", "ingest")),
        "serve_qps": _rate(typical, ("serve", "query")),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def phase_metrics(rounds: List[Any]) -> Dict[str, float]:
    """Per-phase numbers of the untraced rounds (0.0 where absent)."""
    typical = typical_ops(rounds)
    latencies = [op.seconds * 1000.0 for op in typical if op.phase == "query"]
    metrics = {
        "phase.build_docs_per_s": _rate(typical, ("build",)),
        "phase.ingest_docs_per_s": _rate(typical, ("ingest",)),
        "phase.query_p50_ms": _percentile(latencies, 50),
        "phase.query_p90_ms": _percentile(latencies, 90),
        "phase.query_samples": float(len(latencies)),
    }
    # Latency by position in the round: whole-history repricing makes
    # later queries of a closed loop slower than earlier ones.
    size = len(latencies)
    for decile in range(10):
        metrics["phase.query_p50_ms.d{:02d}".format(decile + 1)] = \
            _percentile(latencies[size * decile // 10:
                                  size * (decile + 1) // 10], 50)
    return metrics


def per_layer(tracer: Any, setup_stats: Dict[str, Any], traced: Any,
              untraced_wall: float) -> Dict[str, float]:
    """Per-layer counts and self times of the traced round's timed phase.

    Corpus generation happens only in set-up, so ``xmark.generate``
    comes from ``setup_stats`` (the set-up's own statistics).
    """
    metrics: Dict[str, float] = {}
    generate = setup_stats.get("xmark.generate")
    metrics["xmark.generate.calls"] = float(generate.calls if generate else 0)
    metrics["xmark.generate.self_s"] = generate.self_s if generate else 0.0
    for key in ("xmldb.parse", "xmldb.decode",
                "indexing.extract", "indexing.write", "indexing.read",
                "lookup.pattern", "engine.twig", "engine.eval", "store.read",
                "mutations.publish", "mutations.merge_read",
                "mutations.compact", "cloud.dynamodb", "cloud.s3",
                "cloud.sqs", "telemetry.span", "telemetry.pricing",
                "costs.estimate"):
        metrics[key + ".calls"] = float(tracer.calls(key))
        metrics[key + ".self_s"] = tracer.self_s(key)
    metrics["sim.meter.self_s"] = tracer.self_s("sim.meter")
    for key, name in (("xmldb.parse", "bytes"),
                      ("indexing.extract", "entries"),
                      ("indexing.write", "items"), ("indexing.read", "keys"),
                      ("mutations.compact", "units"),
                      ("cloud.dynamodb", "items"), ("cloud.s3", "bytes"),
                      ("sim.meter", "records"),
                      ("telemetry.pricing", "records"),
                      ("costs.estimate", "records")):
        metrics["{}.{}".format(key, name)] = float(tracer.counter(key, name))
    metrics["lookup.candidates_per_match"] = _ratio(
        tracer.counter("warehouse.query", "docs_from_index"),
        tracer.counter("warehouse.query", "docs_with_results"))
    metrics["engine.eval.useful_ratio"] = _ratio(
        tracer.counter("engine.eval", "useful"),
        tracer.counter("engine.eval", "evaluated"))
    cache = traced.cache or {}
    for name in ("hit_ratio", "evictions", "invalidations"):
        metrics["store.cache." + name] = float(cache.get(name, 0.0))
    for name in ("fleets_launched", "instances_launched"):
        metrics["cloud.ec2." + name] = float(tracer.counter("cloud.ec2", name))
    metrics["cloud.ec2.self_s"] = tracer.self_s("cloud.ec2")
    metrics["sim.step.calls"] = float(tracer.calls("sim.step"))
    metrics["sim.self_s"] = (tracer.self_s("sim.step")
                             + tracer.self_s("sim.resume"))
    metrics["warehouse.loader.self_s"] = tracer.self_s("warehouse.loader")
    metrics["warehouse.worker.self_s"] = (tracer.self_s("warehouse.worker")
                                          + tracer.self_s("warehouse.query"))
    metrics["warehouse.query.calls"] = float(tracer.calls("warehouse.query"))
    metrics["warehouse.report.self_s"] = tracer.self_s("warehouse.report")
    metrics["warehouse.api.self_s"] = tracer.self_s("warehouse.api")
    metrics["serving.runtime.self_s"] = tracer.self_s("serving.runtime")
    metrics["consistency.build.self_s"] = tracer.self_s("consistency.build")
    layer_total = tracer.self_total()
    metrics["other.self_s"] = layer_total - sum(
        value for key, value in metrics.items()
        if key.endswith(".self_s") and not key.startswith("xmark."))
    timed_wall = traced.wall_s - traced.setup_s
    metrics["trace.layers_self_s"] = layer_total
    metrics["trace.wall_s"] = timed_wall
    metrics["trace.untraced_s"] = timed_wall - layer_total
    metrics["trace.overhead_ratio"] = _ratio(traced.wall_s, untraced_wall)
    return metrics


def _recorded_digest(workload: str, seed: int) -> Optional[str]:
    """The digest recorded for a default seed (None: held-out seed)."""
    recorded = json.loads((HERE / "digests.json").read_text())
    if seed not in recorded["default_seeds"]:
        return None
    return recorded["digests"][workload][str(seed)]


def _show(name: str, value: Optional[float], unit: str,
          note: str = "") -> None:
    text = "n/a" if value is None else "{:.6g}".format(value)
    print("  {:<20} {:>12} {:<10} {}".format(name, text, unit, note).rstrip())


def report_end_to_end(name: str, rounds: List[Any], checks: Any,
                      e2e: Dict[str, float]) -> None:
    """Print every end-to-end metric of the workload by name and unit."""
    phases = phase_metrics(rounds)
    latencies = int(phases["phase.query_samples"])
    ingests = any(op.phase == "ingest" for op in rounds[0].ops)
    queries = sum(op.amount for op in rounds[0].ops
                  if op.phase in ("serve", "query"))
    print("workload {}: {} rounds; per call, the median across rounds of "
          "scaled wall time".format(name, len(rounds)))
    print("  machine-speed scale per round: {}".format(
        " ".join("{:.3f}".format(r.scale) for r in rounds)))
    _show("setup_s", e2e["setup_s"], "s")
    _show("serve_qps", e2e["serve_qps"], "queries/s",
          "{} queries per round".format(queries))
    note = "{} calls".format(latencies) if latencies else ""
    _show("query_p50_ms", phases["phase.query_p50_ms"] if latencies else None,
          "ms", note)
    _show("query_p90_ms", phases["phase.query_p90_ms"] if latencies else None,
          "ms", note)
    _show("build_docs_per_s", phases["phase.build_docs_per_s"], "docs/s")
    _show("ingest_docs_per_s",
          phases["phase.ingest_docs_per_s"] if ingests else None, "docs/s")
    _show("index_docs_per_s", e2e["index_docs_per_s"], "docs/s",
          "build and ingest together")
    _show("peak_rss_mb", e2e["peak_rss_mb"], "MB")
    cache = rounds[0].cache
    if cache:
        print("  index cache: {:.0f} of {:.0f} bytes held at the end, hit "
              "ratio {:.3f}, {:.0f} invalidations".format(
                  cache["bytes"], cache["max_bytes"], cache["hit_ratio"],
                  cache["invalidations"]))
    _show("failed_ratio", _ratio(checks.failed, checks.attempted), "fraction",
          "{} of {} checks failed".format(checks.failed, checks.attempted))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: no warehouse sources at {}".format(ROOT / "src"),
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from layertrace import LayerTracer

    if args.workload not in workloads.WORKLOADS:
        print("perfbench: unknown workload {!r} (choose from {})".format(
            args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.prepare(args.seed)

    rounds = []
    started = time.perf_counter()
    while len(rounds) < MIN_ROUNDS \
            or time.perf_counter() - started < args.seconds:
        rounds.append(measure(workload, args.seed, inputs))
    e2e = end_to_end(rounds)

    checks = workloads.Checks()
    for rnd in rounds:
        checks.merge(rnd.checks)
    digest = rounds[0].digest
    for index, rnd in enumerate(rounds[1:], start=2):
        checks.check(rnd.digest == digest,
                     "round {} digest differs from round 1".format(index))
    recorded = _recorded_digest(args.workload, args.seed)
    if recorded is not None:
        checks.check(digest == recorded,
                     "digest differs from the one recorded for seed "
                     "{}".format(args.seed))

    if args.trace:
        tracer = LayerTracer()
        setup_stats: Dict[str, Any] = {}
        tracer.install()
        try:
            traced = workload.round(
                args.seed, inputs,
                after_setup=lambda: setup_stats.update(tracer.take()))
        finally:
            tracer.remove()
        checks.merge(traced.checks)
        checks.check(traced.digest == digest,
                     "traced digest differs from the untraced digest")
        computed = per_layer(tracer, setup_stats, traced,
                             _median([r.wall_s for r in rounds]))
        computed.update(phase_metrics(rounds))
        wanted = spec["per_layer"]
    else:
        computed = e2e
        wanted = spec["end_to_end"]

    report_end_to_end(args.workload, rounds, checks, e2e)
    print("  digest {} ({})".format(
        digest, "held-out seed, not compared" if recorded is None
        else "matches the recorded default-seed digest"
        if digest == recorded else "DIFFERS from the recorded digest"))
    if args.trace:
        print("per-layer (one traced round):")
        for metric in wanted:
            _show(metric["name"], computed[metric["name"]], metric["unit"])
    for failure in checks.failures:
        print("FAILED: " + failure, file=sys.stderr)

    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {metric["name"]: {"value": computed[metric["name"]],
                                     "unit": metric["unit"]}
                    for metric in wanted},
    }
    print(json.dumps(result))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
