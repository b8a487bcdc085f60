"""Correctness checks on the program's outputs.

Each check compares what the store returned against facts the benchmark
computed apart from the store (what it submitted, what it planted) and
returns a list of problems; an empty list means the output is correct.
``selftest.py`` feeds each check a deliberately wrong output.
"""

from __future__ import annotations

import collections
from typing import Dict, Iterable, List, Mapping, Sequence, Set, Tuple


def _multiset_diff(expected: Iterable[str], actual: Iterable[str]) -> Tuple[int, int]:
    want = collections.Counter(expected)
    have = collections.Counter(actual)
    return sum((want - have).values()), sum((have - want).values())


def check_readback(
    submitted: Sequence[str],
    stored: Sequence[str],
    submitted_kinds: Mapping[str, int],
    stored_kinds: Mapping[str, int],
) -> List[str]:
    """The store holds exactly the submitted p-assertions, kind by kind.

    ``submitted``/``stored`` are serialized assertions; the kinds map
    assertion kinds to counts (the store's from its ``count`` query).
    """
    problems = []
    missing, extra = _multiset_diff(submitted, stored)
    if missing or extra:
        problems.append(
            f"store read-back differs from what was submitted: "
            f"{missing} missing, {extra} unexpected"
        )
    for kind in sorted(set(submitted_kinds) | set(stored_kinds)):
        want, have = submitted_kinds.get(kind, 0), stored_kinds.get(kind, 0)
        if want != have:
            problems.append(f"{kind}: submitted {want}, store counts {have}")
    return problems


def check_session_validation(valid_violations: Sequence[object], flagged: Sequence[object]) -> List[str]:
    """UC2 passes a recorded session and flags one fed nucleotide data."""
    problems = []
    if valid_violations:
        problems.append(
            f"UC2 flagged {len(valid_violations)} violation(s) in a correctly recorded session"
        )
    if not flagged:
        problems.append("UC2 did not flag the session fed by the nucleotide source")
    for violation in flagged:
        if violation.producer_service != "nucleotide-db":
            problems.append(f"UC2 blamed {violation.producer_service!r}, not the nucleotide source")
    return problems


def check_replicas(
    expected: Sequence[Tuple[str, Tuple[str, ...]]],
    members: Mapping[str, Sequence[str]],
) -> List[str]:
    """Every acked assertion is on each member of its replica set, once.

    ``expected`` pairs each acked assertion's serialized form with the
    members that must hold it; ``members`` maps each member to the
    serialized assertions its log holds.  Equal text on two members is
    byte-identical storage.  Totals must match the stream's.
    """
    problems = []
    want: Dict[str, collections.Counter] = {name: collections.Counter() for name in members}
    for text, targets in expected:
        for name in targets:
            if name not in want:
                problems.append(f"replica set names unknown member {name!r}")
                return problems
            want[name][text] += 1
    for name in sorted(members):
        have = collections.Counter(members[name])
        missing = sum((want[name] - have).values())
        extra = sum((have - want[name]).values())
        if missing or extra:
            problems.append(f"member {name}: {missing} acked assertion(s) missing, {extra} unexpected")
    total_expected = sum(len(targets) for _, targets in expected)
    total_held = sum(len(texts) for texts in members.values())
    if total_expected != total_held:
        problems.append(f"fleet holds {total_held} records, the stream needs {total_expected}")
    return problems


def check_categorisation(
    scanned: int,
    categories: Mapping[str, Set[str]],
    planted_records: int,
    planted_services: Set[str],
) -> List[str]:
    """UC1 scanned every planted record and found one script class per service.

    ``categories`` maps each script fingerprint to the services using it.
    """
    problems = []
    if scanned != planted_records:
        problems.append(f"UC1 scanned {scanned} interaction records, {planted_records} were planted")
    if len(categories) != len(planted_services):
        problems.append(
            f"UC1 found {len(categories)} script classes for {len(planted_services)} services"
        )
    seen: Set[str] = set()
    for fingerprint, services in categories.items():
        if len(services) != 1:
            problems.append(f"script class {fingerprint} spans services {sorted(services)}")
        seen |= set(services)
    if seen != planted_services:
        problems.append(f"UC1 services {sorted(seen)} != planted {sorted(planted_services)}")
    return problems


def check_violations(found: Sequence[str], planted: Sequence[str]) -> List[str]:
    """UC2 flagged exactly the planted violation ids, each once."""
    problems = []
    missed = sorted(set(planted) - set(found))
    extra = sorted(set(found) - set(planted))
    if missed:
        problems.append(f"UC2 missed {len(missed)} planted violation(s), e.g. {missed[0]}")
    if extra:
        problems.append(f"UC2 flagged {len(extra)} unplanted violation(s), e.g. {extra[0]}")
    if len(found) != len(set(found)):
        problems.append("UC2 reported a violation more than once")
    return problems
