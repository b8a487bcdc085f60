"""``repro-figures``: regenerate the paper's evaluation artefacts as text.

Subcommands::

    repro-figures micro        # §6 PReServ record round-trip benchmark
    repro-figures fig4         # Figure 4: recording overhead
    repro-figures fig4b        # Figure 4b: concurrent-client throughput sweep
    repro-figures fig5         # Figure 5: use-case query performance
    repro-figures granularity  # A1 ablation
    repro-figures backends     # A2 ablation
    repro-figures compress     # A3 ablation (the scientific table)
    repro-figures bulk         # A5 ablation: put vs put_many group commit
    repro-figures compaction   # A8: background compaction vs stop-the-world
    repro-figures fleet        # A10: in-process bus vs process-fleet ingest
    repro-figures reopen       # A11: reopen cost vs history, ± checkpoints
    repro-figures rebalance    # A12: live fleet growth under load
    repro-figures fanout       # A13: scatter-gather fan-out + hedged reads
    repro-figures all          # everything above
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path
from typing import List, Optional

from repro.figures.ablation import (
    backends_table,
    bulk_ingest_table,
    compressibility_table,
    granularity_table,
    run_backends,
    run_bulk_ingest,
    run_compressibility,
    run_granularity,
)
from repro.figures.compaction import (
    compaction_table,
    fold_table,
    run_compaction_sweep,
    run_fold_sweep,
)
from repro.figures.distributed import run_scaling, scaling_table
from repro.figures.entropy_report import entropy_table, run_entropy_report
from repro.figures.fanout import (
    fanout_table,
    run_fanout_sweep,
    write_fanout_json,
)
from repro.figures.fleet import fleet_sweep_table, run_fleet_sweep
from repro.figures.rebalance import (
    rebalance_table,
    run_rebalance_drill,
    write_rebalance_json,
)
from repro.figures.reopen import (
    reopen_table,
    run_reopen_sweep,
    write_reopen_json,
)
from repro.figures.fig4 import fig4_table, run_fig4
from repro.figures.fig4b import fig4b_table, run_fig4b
from repro.figures.fig5 import fig5_table, run_fig5
from repro.figures.microbench import microbench_table, run_microbench


def _section(title: str) -> str:
    bar = "=" * len(title)
    return f"{bar}\n{title}\n{bar}"


def cmd_micro(args: argparse.Namespace) -> str:
    return microbench_table(run_microbench(messages=args.messages))


def cmd_fig4(args: argparse.Namespace) -> str:
    return fig4_table(run_fig4())


def cmd_fig4b(args: argparse.Namespace) -> str:
    sweep = run_fig4b(
        client_counts=tuple(args.clients),
        store_counts=tuple(args.stores),
        ops_per_client=args.ops_per_client,
        query_ratio=args.query_ratio,
        cache=not args.no_cache,
    )
    return fig4b_table(sweep)


def cmd_fig5(args: argparse.Namespace) -> str:
    sizes = tuple(args.sizes) if args.sizes else None
    series = run_fig5(sizes=sizes) if sizes else run_fig5()
    return fig5_table(series)


def cmd_granularity(args: argparse.Namespace) -> str:
    return granularity_table(run_granularity())


def cmd_backends(args: argparse.Namespace) -> str:
    with tempfile.TemporaryDirectory(prefix="repro-backends-") as tmp:
        return backends_table(run_backends(Path(tmp), records=args.records))


def cmd_compress(args: argparse.Namespace) -> str:
    return compressibility_table(
        run_compressibility(sample_bytes=args.sample_bytes, n_permutations=args.permutations)
    )


def cmd_bulk(args: argparse.Namespace) -> str:
    with tempfile.TemporaryDirectory(prefix="repro-bulk-") as tmp:
        return bulk_ingest_table(
            run_bulk_ingest(Path(tmp), records=args.records, batch_size=args.batch_size)
        )


def cmd_compaction(args: argparse.Namespace) -> str:
    with tempfile.TemporaryDirectory(prefix="repro-compaction-") as tmp:
        blocks = [
            compaction_table(
                run_compaction_sweep(
                    Path(tmp),
                    logs=args.logs,
                    clients=args.clients,
                    batches_per_client=args.batches,
                    records_per_batch=args.records_per_batch,
                    keyspace=args.keyspace,
                    value_bytes=args.value_bytes,
                    cold_records=args.cold_records,
                    manual_every=args.manual_every,
                )
            ),
            fold_table(run_fold_sweep(Path(tmp), puts=args.fold_puts)),
        ]
    return "\n\n".join(blocks)


def cmd_fleet(args: argparse.Namespace) -> str:
    with tempfile.TemporaryDirectory(prefix="repro-fleet-") as tmp:
        return fleet_sweep_table(
            run_fleet_sweep(
                Path(tmp),
                worker_counts=tuple(args.workers),
                sessions=args.sessions,
                batches_per_session=args.batches,
                records_per_batch=args.records_per_batch,
                payload_bytes=args.payload_bytes,
                commit_barrier_ms=args.commit_barrier_ms,
            )
        )


def cmd_rebalance(args: argparse.Namespace) -> str:
    with tempfile.TemporaryDirectory(prefix="repro-rebalance-") as tmp:
        report = run_rebalance_drill(
            Path(tmp),
            workers=args.workers,
            batches=args.batches,
            records_per_batch=args.records_per_batch,
            grow_after_batches=args.grow_after,
            placement=args.placement,
            transport=args.transport,
        )
    if args.json:
        write_rebalance_json(report, Path(args.json))
    return rebalance_table(report)


def cmd_fanout(args: argparse.Namespace) -> str:
    with tempfile.TemporaryDirectory(prefix="repro-fanout-") as tmp:
        report = run_fanout_sweep(
            Path(tmp),
            members=args.members,
            replicas=args.replicas,
            commit_barrier_s=args.commit_barrier_ms / 1000.0,
            read_stall_s=args.read_stall_ms / 1000.0,
            puts=args.puts,
            merges=args.merges,
            hedge_delay_s=args.hedge_delay_ms / 1000.0,
            hedge_after_s=args.hedge_after_ms / 1000.0,
        )
    if args.json:
        write_fanout_json(report, Path(args.json))
    return fanout_table(report)


def cmd_reopen(args: argparse.Namespace) -> str:
    with tempfile.TemporaryDirectory(prefix="repro-reopen-") as tmp:
        points = run_reopen_sweep(
            Path(tmp),
            backends=tuple(args.backends),
            history_sizes=tuple(args.history),
            repeats=args.repeats,
        )
    if args.json:
        write_reopen_json(points, Path(args.json))
    return reopen_table(points)


def cmd_scaling(args: argparse.Namespace) -> str:
    return scaling_table(run_scaling())


def cmd_entropy(args: argparse.Namespace) -> str:
    return entropy_table(run_entropy_report(sample_bytes=args.sample_bytes))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-figures",
        description="Regenerate the evaluation figures/tables of Groth et al. (HPDC 2005)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("micro", help="PReServ record round-trip micro-benchmark")
    p.add_argument("--messages", type=int, default=200)
    p.set_defaults(fn=cmd_micro)

    p = sub.add_parser("fig4", help="Figure 4: recording overhead")
    p.set_defaults(fn=cmd_fig4)

    p = sub.add_parser(
        "fig4b", help="Figure 4b: concurrent-client throughput sweep"
    )
    p.add_argument("--clients", type=int, nargs="*", default=[1, 2, 4, 8, 16, 32])
    p.add_argument("--stores", type=int, nargs="*", default=[1, 4])
    p.add_argument("--ops-per-client", type=int, default=40)
    p.add_argument("--query-ratio", type=float, default=0.8)
    p.add_argument("--no-cache", action="store_true")
    p.set_defaults(fn=cmd_fig4b)

    p = sub.add_parser("fig5", help="Figure 5: use-case query performance")
    p.add_argument("--sizes", type=int, nargs="*", default=None)
    p.set_defaults(fn=cmd_fig5)

    p = sub.add_parser("granularity", help="A1: granularity ablation")
    p.set_defaults(fn=cmd_granularity)

    p = sub.add_parser("backends", help="A2: store backend ablation")
    p.add_argument("--records", type=int, default=500)
    p.set_defaults(fn=cmd_backends)

    p = sub.add_parser("compress", help="A3: compressibility table")
    p.add_argument("--sample-bytes", type=int, default=2000)
    p.add_argument("--permutations", type=int, default=5)
    p.set_defaults(fn=cmd_compress)

    p = sub.add_parser("scaling", help="A4: distributed store scaling")
    p.set_defaults(fn=cmd_scaling)

    p = sub.add_parser(
        "compaction",
        help="A8: background compaction — scheduler vs stop-the-world churn",
    )
    p.add_argument(
        "--logs",
        type=int,
        default=8,
        help="separate KVLog files under churn (each hot client writes one)",
    )
    p.add_argument("--clients", type=int, default=2)
    p.add_argument("--batches", type=int, default=96)
    p.add_argument("--records-per-batch", type=int, default=16)
    p.add_argument("--keyspace", type=int, default=32)
    p.add_argument("--value-bytes", type=int, default=2048)
    p.add_argument("--cold-records", type=int, default=2000)
    p.add_argument("--manual-every", type=int, default=8)
    p.add_argument("--fold-puts", type=int, default=256)
    p.set_defaults(fn=cmd_compaction)

    p = sub.add_parser(
        "fleet",
        help="A10: out-of-process store fleet — bus vs process workers",
    )
    p.add_argument("--workers", type=int, nargs="*", default=[1, 2, 4])
    p.add_argument("--sessions", type=int, default=4)
    p.add_argument("--batches", type=int, default=12)
    p.add_argument("--records-per-batch", type=int, default=8)
    p.add_argument("--payload-bytes", type=int, default=256)
    p.add_argument(
        "--commit-barrier-ms",
        type=float,
        default=10.0,
        help="modeled device write-barrier per group commit, applied to "
        "both transports (0 = raw host device; ~10 models the paper-era "
        "disk)",
    )
    p.set_defaults(fn=cmd_fleet)

    p = sub.add_parser(
        "reopen",
        help="A11: reopen cost vs ingest history, with/without checkpoints",
    )
    p.add_argument("--backends", nargs="*", default=["kvlog"])
    p.add_argument("--history", type=int, nargs="*", default=[256, 512, 1024])
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument(
        "--json",
        default=None,
        help="also write the sweep as machine-readable JSON to this path",
    )
    p.set_defaults(fn=cmd_reopen)

    p = sub.add_parser(
        "rebalance",
        help="A12: live fleet growth — online migration under write+query load",
    )
    p.add_argument("--workers", type=int, default=3)
    p.add_argument("--batches", type=int, default=30)
    p.add_argument("--records-per-batch", type=int, default=4)
    p.add_argument(
        "--grow-after",
        type=int,
        default=10,
        help="acknowledged batches before add_worker() fires mid-stream",
    )
    p.add_argument(
        "--placement",
        choices=["ring", "modulo"],
        default="ring",
        help="placement rule (ring = consistent hashing, ~1/N moved)",
    )
    p.add_argument(
        "--transport", choices=["inprocess", "process"], default="inprocess"
    )
    p.add_argument(
        "--json",
        default=None,
        help="also write the drill report as machine-readable JSON",
    )
    p.set_defaults(fn=cmd_rebalance)

    p = sub.add_parser(
        "fanout",
        help="A13: scatter-gather fan-out — parallel commits/merges, hedged reads",
    )
    p.add_argument("--members", type=int, default=4)
    p.add_argument("--replicas", type=int, default=2)
    p.add_argument(
        "--commit-barrier-ms",
        type=float,
        default=10.0,
        help="modeled device write-barrier per group commit (commit drill)",
    )
    p.add_argument(
        "--read-stall-ms",
        type=float,
        default=10.0,
        help="modeled per-member read round trip (merge drill)",
    )
    p.add_argument("--puts", type=int, default=12)
    p.add_argument("--merges", type=int, default=5)
    p.add_argument(
        "--hedge-delay-ms",
        type=float,
        default=120.0,
        help="scripted server-recv delay on the slow worker (hedge drill)",
    )
    p.add_argument(
        "--hedge-after-ms",
        type=float,
        default=20.0,
        help="hedge budget: fire the peer replica after this long",
    )
    p.add_argument(
        "--json",
        default=None,
        help="also write the sweep report as machine-readable JSON",
    )
    p.set_defaults(fn=cmd_fanout)

    p = sub.add_parser("bulk", help="A5: bulk ingest — put vs put_many group commit")
    p.add_argument("--records", type=int, default=2000)
    p.add_argument("--batch-size", type=int, default=256)
    p.set_defaults(fn=cmd_bulk)

    p = sub.add_parser("entropy", help="A6: entropy analysis per grouping")
    p.add_argument("--sample-bytes", type=int, default=3000)
    p.set_defaults(fn=cmd_entropy)

    p = sub.add_parser("all", help="run everything")
    p.set_defaults(fn=None)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "all":
        blocks = [
            (_section("E1: PReServ micro-benchmark"), microbench_table(run_microbench())),
            (_section("E2: Figure 4 — recording overhead"), fig4_table(run_fig4())),
            (
                _section("E2b: Figure 4b — concurrent-client throughput"),
                fig4b_table(run_fig4b()),
            ),
            (_section("E3/E4: Figure 5 — use-case performance"), fig5_table(run_fig5())),
            (_section("A1: granularity ablation"), granularity_table(run_granularity())),
            (_section("A3: compressibility"), compressibility_table(run_compressibility())),
            (_section("A4: distributed store scaling"), scaling_table(run_scaling())),
            (_section("A6: entropy analysis"), entropy_table(run_entropy_report())),
        ]
        with tempfile.TemporaryDirectory(prefix="repro-backends-") as tmp:
            blocks.append(
                (_section("A2: backend ablation"), backends_table(run_backends(Path(tmp))))
            )
        with tempfile.TemporaryDirectory(prefix="repro-bulk-") as tmp:
            blocks.append(
                (
                    _section("A5: bulk ingest — put vs put_many"),
                    bulk_ingest_table(run_bulk_ingest(Path(tmp))),
                )
            )
        with tempfile.TemporaryDirectory(prefix="repro-fleet-") as tmp:
            blocks.append(
                (
                    _section("A10: out-of-process store fleet"),
                    fleet_sweep_table(
                        run_fleet_sweep(Path(tmp), worker_counts=(2, 4))
                    ),
                )
            )
        with tempfile.TemporaryDirectory(prefix="repro-reopen-") as tmp:
            blocks.append(
                (
                    _section("A11: reopen cost ± checkpoints"),
                    reopen_table(
                        run_reopen_sweep(
                            Path(tmp), history_sizes=(256, 512), repeats=2
                        )
                    ),
                )
            )
        with tempfile.TemporaryDirectory(prefix="repro-compaction-") as tmp:
            blocks.append(
                (
                    _section("A8: background compaction vs stop-the-world"),
                    compaction_table(run_compaction_sweep(Path(tmp)))
                    + "\n\n"
                    + fold_table(run_fold_sweep(Path(tmp))),
                )
            )
        for title, body in blocks:
            print(title)
            print(body)
            print()
        return 0
    print(args.fn(args))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
