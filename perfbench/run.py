#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload record-session --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``).  See ``perfbench/README.md`` for what each workload and
metric means.  Exits non-zero without a result if the program is missing,
a workload fails, or a process or temporary directory outlives the run.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

CHECKOUT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(CHECKOUT, "src"), CHECKOUT):
    if _path not in sys.path:
        sys.path.insert(0, _path)


def _e2e(outcome, probe, rss_mb: float) -> dict:
    """End-to-end metrics, every time at the host's reference speed."""
    at_reference = probe.reference_time
    return {
        "setup_s": (at_reference(*outcome.setup), "s"),
        "op_p50_ms": (statistics.median(at_reference(*i) for i in outcome.ops) * 1e3, "ms"),
        "records_per_s": (
            outcome.records / sum(at_reference(*i) for i in outcome.record_time),
            "1/s",
        ),
        "store_bytes_per_record": (statistics.median(outcome.store_bytes_per_record), "B"),
        "worker_rss_mb": (rss_mb, "MB"),
    }


def _as_measured(outcome, probe) -> str:
    """The timings as the clock read them, and the host's speed."""
    from perfbench.hostspeed import REFERENCE_S

    ops = [end - start for start, end in outcome.ops]
    return (
        f"as measured: setup_s={outcome.setup[1] - outcome.setup[0]:.4f} "
        f"op_p50_ms={statistics.median(ops) * 1e3:.3f} "
        f"op_p90_ms={statistics.quantiles(ops, n=10)[8] * 1e3:.3f} "
        f"records_per_s={outcome.records / sum(e - s for s, e in outcome.record_time):.2f} "
        f"reopen_s={statistics.median(outcome.reopen_s):.4f} "
        f"(reference kernel {REFERENCE_S / probe.scale() * 1e3:.3f} ms, "
        f"median of {len(probe.samples)} samples, against {REFERENCE_S * 1e3:.3f} ms)"
    )


def _layer_extras(outcome, ctx, tracer, child_cpu_s: float) -> dict:
    from perfbench import tracing

    stats = outcome.reopen_stats
    return {
        "store.backends.replay_records": (
            statistics.mean(
                sum(int(m["tail-records"]) + int(m["snapshot-records"]) for m in members)
                for members in stats
            ),
            "count",
        ),
        "store.backends.open_s": (
            statistics.mean(max(float(m["open-s"]) for m in members) for members in stats),
            "s",
        ),
        "fleet.manager.spawn_s": (tracing.spawn_seconds(tracer) / ctx.worker_starts, "s"),
        "fleet.worker.cpu_s": (child_cpu_s / max(outcome.units, 1), "s/op"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import repro  # noqa: F401  -- fails here, before any run state, without src/

    from perfbench import hygiene, tracing
    from perfbench.workloads import SINGLE_CPU, WORKLOADS, Context

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if args.workload in SINGLE_CPU and hasattr(os, "sched_setaffinity"):
        # Inherited by every worker this run starts.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    space = hygiene.RunSpace(CHECKOUT)
    tracer = tracing.Tracer() if args.trace else None
    try:
        if tracer is not None:
            os.makedirs(space.path("spans"))
            tracing.install_client(tracer, codecs=("gz-like",), dump_dir=space.path("spans"))
        ctx = Context(
            seed=args.seed, seconds=args.seconds, space=space, started=_STARTED, tracer=tracer
        )
        if tracer is not None:
            # A span of its own, so its time is no layer's self time.
            ctx.probe.sample = tracer.wrap(ctx.probe.sample, "bench.probe")
        ctx.probe.start_background()
        try:
            outcome = WORKLOADS[args.workload](ctx)
        finally:
            ctx.probe.stop_background()
        if tracer is not None:
            tracing.merge_worker_spans(tracer, space.path("spans"))
    finally:
        leftovers = space.finish()
    if leftovers:
        for problem in leftovers:
            print(f"error: {problem}", file=sys.stderr)
        return 2

    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    metrics = _e2e(outcome, ctx.probe, children.ru_maxrss / 1024.0)
    if tracer is not None:
        print("traced end-to-end: " + json.dumps({k: v[0] for k, v in metrics.items()}))
        extras = _layer_extras(outcome, ctx, tracer, children.ru_utime + children.ru_stime)
        metrics = tracing.layer_metrics(tracer, outcome.timed_ops, outcome.units, extras)
    print(
        f"workload={args.workload} seed={args.seed} ops={len(outcome.ops)} "
        f"units={outcome.units} reopens={len(outcome.reopen_s)}"
    )
    print(_as_measured(outcome, ctx.probe))
    for problem in outcome.problems:
        print(f"check failed: {problem}")
    correct = not outcome.problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": 0,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
