"""A8 — background compaction: scheduler vs stop-the-world on a churn load.

The paper's PReServ records continuously into Berkeley DB JE, whose
cleaner reclaims dead space in the background; our log-structured layouts
previously required a stop-the-world ``compact()`` to bound their disk
footprint.  This bench drives the put/delete/re-put churn workload of
:mod:`repro.figures.compaction` — a large cold bulk plus hot keys being
overwritten by concurrent sessions — under all three reclamation
policies.

Shape criteria:

* sustained ingest with the background scheduler reaches at least 1.5x
  the stop-the-world manual ``compact()`` baseline (the scheduler only
  rewrites the pressured logs, two-phase, off the ingest clock — no
  cold-only log is ever compacted; the manual discipline stalls every
  client and rewrites the cold majority too);
* the scheduler holds the on-disk footprint bounded: the worst sampled
  footprint/live ratio stays <= 2 across the run, while the no-reclamation
  policy demonstrably exceeds it on the same workload (the bound binds);
* file-system stores: background folding collapses one-file-per-put
  debris to a bounded file count with the store's contents intact.
"""

from __future__ import annotations

from repro.figures.compaction import (
    compaction_table,
    log_name,
    run_compaction_sweep,
    run_fold_sweep,
)

#: acceptance bar: scheduler throughput vs the stop-the-world baseline.
SPEEDUP_BAR = 1.5
#: acceptance bar: worst in-flight footprint/live ratio under the scheduler.
FOOTPRINT_BAR = 2.0
#: perf assertions on I/O-bound paths flake under machine noise; the bars
#: must hold on at least one of this many sweep attempts.
MAX_ATTEMPTS = 3


def test_bench_compaction_scheduler_vs_manual(benchmark, tmp_path, report):
    attempts = []
    points = None
    for attempt in range(MAX_ATTEMPTS):
        points = run_compaction_sweep(tmp_path / f"attempt-{attempt}")
        by_policy = {p.policy: p for p in points}
        speedup = (
            by_policy["scheduler"].records_per_s / by_policy["manual"].records_per_s
        )
        max_ratio = by_policy["scheduler"].max_footprint_ratio
        attempts.append((round(speedup, 2), round(max_ratio, 2)))
        if speedup >= SPEEDUP_BAR and 0 < max_ratio <= FOOTPRINT_BAR:
            break
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    report("A8: background compaction vs stop-the-world", compaction_table(points))
    by_policy = {p.policy: p for p in points}
    for p in points:
        benchmark.extra_info[f"{p.policy}_rps"] = round(p.records_per_s)
        benchmark.extra_info[f"{p.policy}_max_ratio"] = round(
            p.max_footprint_ratio, 2
        )
    benchmark.extra_info["attempts"] = attempts

    # The scheduler must actually have run compactions and reclaimed bytes
    # (the stats the figures layer surfaces), and the no-reclamation policy
    # must show the footprint bound is non-trivial on this workload.
    assert by_policy["scheduler"].compactions > 0
    assert by_policy["scheduler"].bytes_reclaimed > 0
    hot = {log_name(c) for c in range(by_policy["scheduler"].clients)}
    assert set(by_policy["scheduler"].per_store) <= hot
    assert by_policy["none"].final_footprint_ratio > FOOTPRINT_BAR
    assert any(
        speedup >= SPEEDUP_BAR and 0 < max_ratio <= FOOTPRINT_BAR
        for speedup, max_ratio in attempts
    ), (
        f"no sweep reached a scheduler-vs-manual speedup >= {SPEEDUP_BAR}x "
        f"with the footprint/live ratio held <= {FOOTPRINT_BAR} across "
        f"{MAX_ATTEMPTS} attempts (got (speedup, max-ratio) = {attempts})"
    )


def test_bench_fs_fold_bounds_file_count(benchmark, tmp_path, report):
    point = benchmark.pedantic(
        lambda: run_fold_sweep(tmp_path / "fold", puts=192, segment_size=64),
        rounds=1,
        iterations=1,
    )
    from repro.figures.compaction import fold_table

    report("A8b: file-system segment folding", fold_table(point))
    benchmark.extra_info["files_before"] = point.files_before
    benchmark.extra_info["files_after"] = point.files_after
    assert point.files_before == 192
    # 192 single-put files fold into ceil(192/64) = 3 segments.
    assert point.files_after <= 3 + 1  # +1 tolerates an unfoldable straggler
    assert point.folds >= 3
