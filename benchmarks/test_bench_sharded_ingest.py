"""A7 — sharded KVLog: concurrent bulk-ingest throughput vs shard count.

The paper's recording evaluation drives a single Berkeley-DB-backed store;
its §7 scalability answer is parallel submission.  PR 3's
:class:`~repro.store.sharding.ShardedKVLog` applies that inside one store:
hash-partitioned log shards let concurrent recording sessions group-commit
to different append files in parallel instead of serializing behind one
fsync stream.

Shape criteria:

* with 4 shards, concurrent bulk ingest reaches at least 1.5x the 1-shard
  configuration (fsync latency is noisy on shared machines, so the sweep
  itself keeps best-of-N timings and the assertion may retry the sweep);
* throughput never *degrades* materially as shards are added;
* replay equivalence: a sharded log scans back exactly what a single log
  fed the same puts scans back (asserted structurally here, exhaustively
  in tests/test_store_sharding.py);
* the sharded ``scan()`` replay merge is **bounded-memory**: it holds at
  most one pending record per shard rather than materializing all shards
  (the instrumented peak-outstanding check below).
"""

from __future__ import annotations

from repro.figures.shards import run_shard_sweep, shard_sweep_table
from repro.store.kvlog import KVLog
from repro.store.sharding import ShardedKVLog

#: acceptance bar: 4-shard concurrent ingest vs the single-log layout.
SPEEDUP_BAR = 1.5
#: perf assertions on fsync-bound paths flake under machine noise; the
#: bar must hold on at least one of this many sweep attempts.
MAX_ATTEMPTS = 3


def test_bench_sharded_ingest_sweep(benchmark, tmp_path, report):
    attempts = []
    points = None
    for attempt in range(MAX_ATTEMPTS):
        points = run_shard_sweep(tmp_path / f"attempt-{attempt}")
        by_shards = {p.shards: p for p in points}
        base = by_shards[1].records_per_s
        ratio = by_shards[4].records_per_s / base
        # Sharding must never cost real throughput on the way up the sweep.
        min_relative = min(p.records_per_s / base for p in points)
        attempts.append((round(ratio, 2), round(min_relative, 2)))
        if ratio >= SPEEDUP_BAR and min_relative >= 0.8:
            break
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    report("A7: sharded KVLog concurrent ingest", shard_sweep_table(points))
    for p in points:
        benchmark.extra_info[f"shards_{p.shards}_rps"] = round(p.records_per_s)
    benchmark.extra_info["speedup_attempts"] = attempts
    assert any(
        ratio >= SPEEDUP_BAR and min_rel >= 0.8 for ratio, min_rel in attempts
    ), (
        f"no sweep reached a 4-shard speedup >= {SPEEDUP_BAR}x with no "
        f"shard count regressing below 0.8x the single log across "
        f"{MAX_ATTEMPTS} attempts (got (speedup, min-relative) = {attempts})"
    )


def test_bench_sharded_scan_matches_single_log(benchmark, tmp_path):
    """Replay parity: merged shard scan == single-log scan, same puts."""
    pairs = [
        (b"%04x|%016d" % (i * 2654435761 % 65536, i), b"v%d" % i * 40)
        for i in range(2000)
    ]
    single = KVLog(tmp_path / "one.kv", sync=False)
    sharded = ShardedKVLog(tmp_path / "many", shards=4, sync=False)
    single.put_many(pairs)
    sharded.put_many(pairs)

    def scan_both():
        return list(single.scan()), list(sharded.scan())

    got_single, got_sharded = benchmark.pedantic(scan_both, rounds=3, iterations=1)
    assert got_sharded == got_single
    assert got_single == pairs
    single.close()
    sharded.close()


def test_bench_sharded_scan_bounded_memory(benchmark, tmp_path, monkeypatch):
    """The k-way merge never materializes the shards it is merging.

    Instrumented peak-memory check: wrap every per-shard ``KVLog.scan``
    stream with a counter of records pulled from shards but not yet
    yielded by the merge.  A materializing merge holds every record at
    its peak; the streaming merge must never hold more than one pending
    record per shard (plus the one being delivered).
    """
    shards, records = 4, 4000
    outstanding = {"now": 0, "max": 0}
    real_scan = KVLog.scan

    def counting_scan(self):
        for pair in real_scan(self):
            outstanding["now"] += 1
            outstanding["max"] = max(outstanding["max"], outstanding["now"])
            yield pair

    with ShardedKVLog(tmp_path / "db", shards=shards, sync=False) as log:
        log.put_many(
            [(b"key-%06d" % i, b"v" * 64) for i in range(records)]
        )

        def drain():
            outstanding["now"] = 0
            outstanding["max"] = 0
            seen = 0
            monkeypatch.setattr(KVLog, "scan", counting_scan)
            try:
                for _key, _value in log.scan():
                    outstanding["now"] -= 1
                    seen += 1
            finally:
                monkeypatch.undo()
            return seen

        seen = benchmark.pedantic(drain, rounds=3, iterations=1)
        assert seen == records
        benchmark.extra_info["peak_outstanding"] = outstanding["max"]
        benchmark.extra_info["records"] = records
        # One pending record per shard plus the record in flight; a
        # materializing merge would hold all 4000.
        assert outstanding["max"] <= shards + 1, (
            f"merge held {outstanding['max']} records — not bounded memory"
        )
