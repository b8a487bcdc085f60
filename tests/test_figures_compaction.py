"""Tests for the compaction sweep figure (fast, tiny configurations)."""

from __future__ import annotations

import pytest

from repro.figures.cli import main
from repro.figures.compaction import (
    compaction_table,
    fold_table,
    log_name,
    run_compaction_sweep,
    run_fold_sweep,
)


def small_sweep(tmp_path, **overrides):
    params = dict(
        logs=2,
        clients=1,
        batches_per_client=8,
        records_per_batch=8,
        keyspace=8,
        value_bytes=256,
        cold_records=40,
        cold_value_bytes=256,
        manual_every=4,
        sync=False,
        min_score=0.10,
        min_reclaim_bytes=1,
        poll_interval_s=0.001,
    )
    params.update(overrides)
    return run_compaction_sweep(tmp_path, **params)


class TestCompactionSweep:
    def test_sweep_runs_all_policies_and_reclaims(self, tmp_path):
        points = small_sweep(tmp_path)
        by_policy = {p.policy: p for p in points}
        assert set(by_policy) == {"none", "manual", "scheduler"}
        assert all(p.records == 64 for p in points)
        assert by_policy["none"].compactions == 0
        assert by_policy["manual"].compactions == 2  # 8 batches / every 4
        assert by_policy["manual"].final_dead_bytes == 0
        # The reclaiming policies end smaller than letting garbage grow.
        assert by_policy["manual"].final_bytes < by_policy["none"].final_bytes
        table = compaction_table(points)
        assert "scheduler" in table and "vs manual" in table

    def test_sweep_validates_inputs(self, tmp_path):
        with pytest.raises(ValueError, match="clients"):
            small_sweep(tmp_path, clients=3)  # more clients than logs
        with pytest.raises(ValueError, match="unknown policies"):
            small_sweep(tmp_path, policies=("none", "bogus"))
        with pytest.raises(ValueError, match="manual_every"):
            small_sweep(tmp_path, manual_every=0)

    def test_scheduler_never_compacts_a_log_without_churn(self, tmp_path):
        # The mechanism the scheduler's speedup rests on: it rewrites only
        # the pressured logs, never the cold-only ones the manual policy
        # rewrites on every stop.
        points = small_sweep(tmp_path, logs=4, clients=2)
        scheduler = next(p for p in points if p.policy == "scheduler")
        hot = {log_name(c) for c in range(2)}
        for cold in (log_name(i) for i in range(2, 4)):
            assert scheduler.per_store.get(cold, (0, 0))[0] == 0
        assert set(scheduler.per_store) <= hot
        assert sum(runs for runs, _ in scheduler.per_store.values()) == (
            scheduler.compactions
        )
        assert all(not p.per_store for p in points if p.policy != "scheduler")

    def test_fold_sweep_collapses_files(self, tmp_path):
        point = run_fold_sweep(tmp_path, puts=24, segment_size=8)
        assert point.files_before == 24
        assert point.files_after == 3
        assert point.folds == 3
        assert "files after" in fold_table(point)

    def test_cli_command(self, capsys):
        assert (
            main(
                [
                    "compaction",
                    "--logs",
                    "2",
                    "--clients",
                    "1",
                    "--batches",
                    "6",
                    "--records-per-batch",
                    "8",
                    "--keyspace",
                    "8",
                    "--value-bytes",
                    "256",
                    "--cold-records",
                    "40",
                    "--manual-every",
                    "3",
                    "--fold-puts",
                    "16",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "policy" in out and "scheduler" in out and "files after" in out
