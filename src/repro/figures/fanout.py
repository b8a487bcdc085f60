"""A13: scatter-gather fan-out — parallel commits, merges, hedged reads.

Three drills against the same fleet code, differing only in the router's
fan-out width (1, the serial baseline, against the default) or the read
client's hedge delay:

* **replica commits** — an R=2 fleet under the modeled per-group-commit
  device barrier: the width-1 router pays R barriers per write, the
  fan-out router overlaps them (``put`` commits all R shares
  concurrently), so parallel write latency approaches 1× the barrier.
* **federated merges** — an N=4 fleet whose per-member key scans carry a
  modeled read stall (2005-era store round trip): a width-1
  ``interaction_keys()`` merge pays N stalls back to back, the fan-out
  merge overlaps them.
* **hedged reads** — a process-transport fleet with one worker under a
  scripted :class:`~repro.fleet.faults.FaultRule` delay: without
  hedging, every read owned by the slow worker inherits its stall; a
  client built with ``hedge_after_s`` fires the next replica once the delay
  budget passes and takes the first success, so the p99 is bounded by
  the hedge delay, not the fault.

The first two run in-process (the barrier/stall model the other figure
sweeps already use); the hedge drill spawns real worker processes so the
delay is a genuine transport-side stall.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import List, Tuple

from repro.core.passertion import (
    InteractionKey,
    InteractionPAssertion,
    ViewKind,
)
from repro.figures.stats import format_table, percentile
from repro.soa.xmldoc import XmlElement


def _make_passertion(counter: int, prefix: str = "fanout") -> InteractionPAssertion:
    key = InteractionKey(
        interaction_id=f"{prefix}-{counter:06d}",
        sender="fanout-client",
        receiver="fanout-service",
    )
    content = XmlElement("envelope")
    content.element("body").element("data", f"payload-{counter}")
    return InteractionPAssertion(
        interaction_key=key,
        view=ViewKind.SENDER,
        asserter="fanout-client",
        local_id=f"pa-{counter}",
        operation="invoke",
        content=content,
    )


def _attach_read_stall(store: object, stall_s: float) -> None:
    """Model a per-query device/transport stall on a member's read path.

    The read-side analogue of
    :func:`~repro.fleet.worker.attach_commit_barrier`: each
    ``interaction_keys`` scan sleeps ``stall_s`` first, standing in for
    the member round trip a 2005-era deployment pays per merge leg.
    """
    real = store.interaction_keys

    def stalled_interaction_keys():
        time.sleep(stall_s)
        return real()

    store.interaction_keys = stalled_interaction_keys  # type: ignore[method-assign]


@dataclass(frozen=True)
class HedgeDrillReport:
    """The hedged-read drill's outcome (process transport)."""

    workers: int
    replicas: int
    delay_ms: float
    hedge_after_ms: float
    reads: int
    unhedged_p50_ms: float
    unhedged_p99_ms: float
    hedged_p50_ms: float
    hedged_p99_ms: float
    hedges_fired: int
    hedge_wins: int


@dataclass(frozen=True)
class FanoutReport:
    """One A13 sweep: commit + merge ratios and the hedge drill."""

    members: int
    replicas: int
    commit_barrier_ms: float
    read_stall_ms: float
    put_sequential_ms: float
    put_fanout_ms: float
    merge_sequential_ms: float
    merge_fanout_ms: float
    hedge: HedgeDrillReport

    @property
    def commit_speedup(self) -> float:
        return (
            self.put_sequential_ms / self.put_fanout_ms
            if self.put_fanout_ms
            else 0.0
        )

    @property
    def merge_speedup(self) -> float:
        return (
            self.merge_sequential_ms / self.merge_fanout_ms
            if self.merge_fanout_ms
            else 0.0
        )


def run_commit_sweep(
    tmp_dir: Path,
    replicas: int = 2,
    puts: int = 12,
    commit_barrier_s: float = 0.010,
) -> Tuple[float, float]:
    """Mean single-``put`` latency (ms): width-1 vs fan-out commits.

    An R-replica fleet under the modeled commit barrier: every put must
    persist on R members before it acks, so the width-1 router pays
    R barriers back to back and the fan-out router pays ~1.
    """
    from repro.store.distributed import sharded_store_fleet

    out = []
    for mode, workers in (("seq", 1), ("par", None)):
        router = sharded_store_fleet(
            tmp_dir / f"commit-{mode}",
            members=replicas,
            replicas=replicas,
            commit_barrier_s=commit_barrier_s,
            fanout_workers=workers,
        )
        try:
            started = time.perf_counter()
            for counter in range(puts):
                router.put(_make_passertion(counter, prefix=f"commit-{mode}"))
            elapsed = time.perf_counter() - started
        finally:
            router.close()
        out.append(elapsed / puts * 1e3)
    return out[0], out[1]


def run_merge_sweep(
    tmp_dir: Path,
    members: int = 4,
    records: int = 16,
    merges: int = 5,
    read_stall_s: float = 0.010,
) -> Tuple[float, float]:
    """Mean federated ``interaction_keys()`` merge latency (ms), width 1 vs
    fan-out.

    Each member's key scan carries the modeled read stall; a fresh
    :class:`~repro.store.distributed.FederatedQueryClient` per merge
    keeps the generation-vector cache out of the measurement.
    """
    from repro.store.distributed import FederatedQueryClient, sharded_store_fleet

    out = []
    for mode, workers in (("seq", 1), ("par", None)):
        router = sharded_store_fleet(
            tmp_dir / f"merge-{mode}",
            members=members,
            fanout_workers=workers,
        )
        try:
            router.put_many(
                [
                    _make_passertion(counter, prefix=f"merge-{mode}")
                    for counter in range(records)
                ]
            )
            for name in router.store_names:
                _attach_read_stall(router.store(name), read_stall_s)
            samples = []
            for _ in range(merges):
                client = FederatedQueryClient(router)
                started = time.perf_counter()
                client.interaction_keys()
                samples.append(time.perf_counter() - started)
        finally:
            router.close()
        out.append(sum(samples) / len(samples) * 1e3)
    return out[0], out[1]


def run_hedge_drill(
    tmp_dir: Path,
    workers: int = 2,
    replicas: int = 2,
    keys: int = 12,
    rounds: int = 2,
    delay_s: float = 0.120,
    hedge_after_s: float = 0.020,
) -> HedgeDrillReport:
    """One slow worker, real processes: hedged vs unhedged read tails.

    ``store-00`` runs under a scripted ``server-recv`` delay (every
    request it serves stalls ``delay_s``), so every key it owns drags
    an unhedged read to at least the delay.  The hedged client fires
    the peer replica after ``hedge_after_s`` and takes the first
    success — bounding the read tail near the hedge delay while the
    slow legs are abandoned.
    """
    from repro.fleet.faults import FaultRule
    from repro.store.distributed import FederatedQueryClient, sharded_store_fleet

    router = sharded_store_fleet(
        tmp_dir / "hedge",
        members=workers,
        transport="process",
        replicas=replicas,
        fault_rules={
            "store-00": (
                FaultRule("server-recv", "delay", count=-1, delay_s=delay_s),
            )
        },
    )
    try:
        batch = [_make_passertion(counter, prefix="hedge") for counter in range(keys)]
        router.put_many(batch)
        unhedged = FederatedQueryClient(router)
        hedged = FederatedQueryClient(router, hedge_after_s=hedge_after_s)

        def measure(client: "FederatedQueryClient") -> List[float]:
            samples: List[float] = []
            for _ in range(rounds):
                for assertion in batch:
                    started = time.perf_counter()
                    found = client.interaction_passertions(
                        assertion.interaction_key
                    )
                    samples.append((time.perf_counter() - started) * 1e3)
                    assert found, "drill read returned no records"
            return samples

        unhedged_ms = measure(unhedged)
        hedged_ms = measure(hedged)
        stats = router.fanout.stats
        report = HedgeDrillReport(
            workers=workers,
            replicas=replicas,
            delay_ms=delay_s * 1e3,
            hedge_after_ms=hedge_after_s * 1e3,
            reads=len(hedged_ms),
            unhedged_p50_ms=percentile(unhedged_ms, 0.50),
            unhedged_p99_ms=percentile(unhedged_ms, 0.99),
            hedged_p50_ms=percentile(hedged_ms, 0.50),
            hedged_p99_ms=percentile(hedged_ms, 0.99),
            hedges_fired=stats.hedges_fired,
            hedge_wins=stats.hedge_wins,
        )
    finally:
        router.close()
    return report


def run_fanout_sweep(
    tmp_dir: Path,
    members: int = 4,
    replicas: int = 2,
    commit_barrier_s: float = 0.010,
    read_stall_s: float = 0.010,
    puts: int = 12,
    merges: int = 5,
    hedge_delay_s: float = 0.120,
    hedge_after_s: float = 0.020,
) -> FanoutReport:
    """The full A13 sweep: commit ratio, merge ratio, hedge drill."""
    tmp_dir = Path(tmp_dir)
    put_seq, put_par = run_commit_sweep(
        tmp_dir, replicas=replicas, puts=puts, commit_barrier_s=commit_barrier_s
    )
    merge_seq, merge_par = run_merge_sweep(
        tmp_dir, members=members, merges=merges, read_stall_s=read_stall_s
    )
    hedge = run_hedge_drill(
        tmp_dir, delay_s=hedge_delay_s, hedge_after_s=hedge_after_s
    )
    return FanoutReport(
        members=members,
        replicas=replicas,
        commit_barrier_ms=commit_barrier_s * 1e3,
        read_stall_ms=read_stall_s * 1e3,
        put_sequential_ms=put_seq,
        put_fanout_ms=put_par,
        merge_sequential_ms=merge_seq,
        merge_fanout_ms=merge_par,
        hedge=hedge,
    )


def fanout_table(report: FanoutReport) -> str:
    headers = [
        "drill",
        "config",
        "sequential",
        "fan-out",
        "speedup / bound",
    ]
    hedge = report.hedge
    rows = [
        [
            "replica commit (put ms)",
            f"R={report.replicas}, barrier {report.commit_barrier_ms:.0f}ms",
            f"{report.put_sequential_ms:.2f}",
            f"{report.put_fanout_ms:.2f}",
            f"{report.commit_speedup:.2f}x",
        ],
        [
            "federated merge (ms)",
            f"N={report.members}, stall {report.read_stall_ms:.0f}ms",
            f"{report.merge_sequential_ms:.2f}",
            f"{report.merge_fanout_ms:.2f}",
            f"{report.merge_speedup:.2f}x",
        ],
        [
            "hedged read p99 (ms)",
            f"delay {hedge.delay_ms:.0f}ms, hedge {hedge.hedge_after_ms:.0f}ms",
            f"{hedge.unhedged_p99_ms:.2f}",
            f"{hedge.hedged_p99_ms:.2f}",
            f"{hedge.hedge_wins} hedge win(s)",
        ],
    ]
    return format_table(headers, rows)


def write_fanout_json(report: FanoutReport, path: Path) -> Path:
    """Machine-readable sweep output (the ``BENCH_fanout.json`` artefact)."""
    payload = asdict(report)
    payload.update(
        {
            "figure": "A13-fanout",
            "commit_speedup": report.commit_speedup,
            "merge_speedup": report.merge_speedup,
        }
    )
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


__all__ = [
    "FanoutReport",
    "HedgeDrillReport",
    "fanout_table",
    "run_commit_sweep",
    "run_fanout_sweep",
    "run_hedge_drill",
    "run_merge_sweep",
    "write_fanout_json",
]
