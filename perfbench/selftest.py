#!/usr/bin/env python3
"""Show that every correctness check of the benchmark can fail.

    python3 perfbench/selftest.py

Builds real outputs in-process (a KVLog store, a 2-member R=2 fleet, the
two use cases over a planted store, a recorded and a nucleotide-fed
session), confirms each check accepts them, then feeds each check a
deliberately wrong output and confirms it is rejected: a dropped
p-assertion, a kind miscounted, a replica missing one key, a missed and
an extra UC2 violation, a recorded session flagged or a nucleotide-fed one
passed, a UC1 scan short by one record or merging two script classes.
Nothing here is timed.  Exits 0 when every check behaves.
"""

import collections
import os
import shutil
import sys
import tempfile

CHECKOUT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(CHECKOUT, "src"), CHECKOUT):
    if _path not in sys.path:
        sys.path.insert(0, _path)


def _expect(name: str, problems: list, should_fail: bool, results: list) -> None:
    ok = bool(problems) == should_fail
    verdict = "rejected" if problems else "accepted"
    results.append(ok)
    print(f"{'ok  ' if ok else 'FAIL'} {name}: {verdict}" + (f" ({problems[0]})" if problems else ""))


def readback_cases(scratch: str, results: list) -> None:
    from repro.store.backends import KVLogBackend

    from perfbench import checks
    from perfbench.workloads import KIND_OF, log_texts, store_kinds, synthetic_stream

    stream = synthetic_stream(seed=0, records=40)
    path = os.path.join(scratch, "readback.kv")
    store = KVLogBackend(path)
    store.put_many(stream)
    counts = store.counts()
    store.close()
    stored = log_texts(path)
    submitted = [a.to_xml().serialize() for a in stream]
    kinds = collections.Counter(KIND_OF[type(a).__name__] for a in stream)
    stored_kinds = store_kinds(counts)
    _expect("read-back, store as submitted", checks.check_readback(submitted, stored, kinds, stored_kinds), False, results)
    _expect("read-back, one p-assertion dropped", checks.check_readback(submitted, stored[1:], kinds, stored_kinds), True, results)
    miscounted = dict(stored_kinds, group=stored_kinds["group"] - 1)
    _expect("read-back, one kind miscounted", checks.check_readback(submitted, stored, kinds, miscounted), True, results)


def replica_cases(scratch: str, results: list) -> None:
    from repro.store.distributed import sharded_store_fleet
    from repro.store.kvlog import KVLog

    from perfbench import checks
    from perfbench.workloads import log_texts, replica_expectations, synthetic_stream

    stream = synthetic_stream(seed=0, records=40)
    texts = [a.to_xml().serialize() for a in stream]
    root = os.path.join(scratch, "fleet")
    router = sharded_store_fleet(root, members=2, replicas=2, placement="ring")
    router.put_many(stream)
    expected = replica_expectations(stream, texts, router)
    names = router.store_names
    router.close()
    members = {n: log_texts(os.path.join(root, n)) for n in names}
    _expect("replicas, fleet as acked", checks.check_replicas(expected, members), False, results)
    # Drop one key from one replica's log on disk, then read it back again.
    with KVLog(os.path.join(root, names[1])) as log:
        log.delete(next(log.keys()))
    members = {n: log_texts(os.path.join(root, n)) for n in names}
    _expect("replicas, one replica missing one key", checks.check_replicas(expected, members), True, results)


def usecase_cases(results: list) -> None:
    from repro.app.experiment import Experiment
    from repro.core.client import ProvenanceQueryClient
    from repro.figures.synthstore import CHAIN_TEMPLATE, populate_store
    from repro.registry.client import RegistryClient
    from repro.usecases import categorise_scripts, validate_session

    from perfbench import checks

    experiment = Experiment()
    try:
        spec = populate_store(experiment.backend, 200, script_for=experiment.script_for, session_size=50, violation_every=4)
        client = ProvenanceQueryClient(experiment.bus)
        registry = RegistryClient(experiment.bus)
        found = []
        for session in spec.sessions:
            found += [v.interaction_id for v in validate_session(client, registry, session).violations]
        _expect("UC2, planted violations found", checks.check_violations(found, spec.violations), False, results)
        _expect("UC2, one violation missed", checks.check_violations(found[1:], spec.violations), True, results)
        _expect("UC2, one extra violation", checks.check_violations(found + ["synth-msg-99999999"], spec.violations), True, results)
        _expect("UC2, one violation reported twice", checks.check_violations(found + found[:1], spec.violations), True, results)

        categorisation = categorise_scripts(client)
        services = {s for s, _ in CHAIN_TEMPLATE} | {"nucleotide-db"}
        categories = {fp: c.services() for fp, c in categorisation.categories.items()}
        scanned = categorisation.interactions_scanned
        _expect("UC1, full scan", checks.check_categorisation(scanned, categories, spec.interaction_records, services), False, results)
        _expect("UC1, one record short", checks.check_categorisation(scanned - 1, categories, spec.interaction_records, services), True, results)
        merged = dict(categories)
        first, second = sorted(merged)[:2]
        merged[first] = merged[first] | merged.pop(second)
        _expect("UC1, two script classes merged", checks.check_categorisation(scanned, merged, spec.interaction_records, services), True, results)

        good = experiment.run(session_id="selftest-good")
        bad = experiment.run(session_id="selftest-nt", sample_source_endpoint="nucleotide-db", sample_source_operation="fetch")
        good_v = validate_session(client, registry, good.session_id).violations
        bad_v = validate_session(client, registry, bad.session_id).violations
        _expect("session validation, as recorded", checks.check_session_validation(good_v, bad_v), False, results)
        _expect("session validation, nucleotide session passed", checks.check_session_validation(good_v, []), True, results)
        _expect("session validation, recorded session flagged", checks.check_session_validation(bad_v, bad_v), True, results)
    finally:
        experiment.close()


def main() -> int:
    base = os.path.join(CHECKOUT, ".perfbench-run")
    os.makedirs(base, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="selftest-", dir=base)
    results: list = []
    try:
        readback_cases(scratch, results)
        replica_cases(scratch, results)
        usecase_cases(results)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass  # a benchmark run is using it
    print(f"{sum(results)}/{len(results)} checks behave")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
