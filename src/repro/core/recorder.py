"""Client-side provenance recording: sync, async, or off.

PReP "lets the implementor decide when to record": synchronously with
execution, or asynchronously — "all p-assertions are accumulated locally in
a file before being shipped to PReServ after execution" (Section 6), the
strategy the paper's experiment uses.  :class:`ProvenanceRecorder` implements
all three of the paper's measured configurations:

* ``NONE`` — recording disabled (the baseline curve of Figure 4),
* ``SYNCHRONOUS`` — each p-assertion is sent to the store as it is created,
* ``ASYNCHRONOUS`` — p-assertions accumulate in a :class:`Journal` (in
  memory or on disk) and :meth:`ProvenanceRecorder.flush` ships them in
  batches after the run.
"""

from __future__ import annotations

import enum
import itertools
from pathlib import Path
from typing import List, Optional, Union

from repro.core.client import ProvenanceRecordClient
from repro.core.passertion import (
    ActorStatePAssertion,
    GroupAssertion,
    GroupKind,
    InteractionKey,
    InteractionPAssertion,
    PAssertion,
    ViewKind,
)
from repro.core.prep import PrepAck, PrepRecord
from repro.soa.bus import MessageBus
from repro.soa.xmldoc import XmlElement, parse_xml

Assertion = Union[PAssertion, GroupAssertion]


class RecordingMode(enum.Enum):
    NONE = "none"
    SYNCHRONOUS = "synchronous"
    ASYNCHRONOUS = "asynchronous"


class Journal:
    """A local accumulation buffer for PReP records.

    With a ``path``, every appended record is also written through to a
    journal file (length-prefixed XML frames) so that provenance survives a
    client crash before flush; :meth:`load` replays such a file.
    """

    def __init__(self, path: Optional[Union[str, Path]] = None):
        self._records: List[PrepRecord] = []
        self._path = Path(path) if path is not None else None
        self._file = open(self._path, "a", encoding="utf-8") if self._path else None

    def __len__(self) -> int:
        return len(self._records)

    @property
    def path(self) -> Optional[Path]:
        return self._path

    def append(self, record: PrepRecord) -> None:
        self._records.append(record)
        if self._file is not None:
            payload = record.to_xml().serialize()
            self._file.write(f"{len(payload)}\n{payload}\n")
            self._file.flush()

    def drain(self) -> List[PrepRecord]:
        records, self._records = self._records, []
        return records

    def peek(self) -> List[PrepRecord]:
        return list(self._records)

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Journal":
        """Replay a journal file into a fresh in-memory journal."""
        journal = cls()
        text = Path(path).read_text(encoding="utf-8")
        pos = 0
        while pos < len(text):
            newline = text.index("\n", pos)
            length = int(text[pos:newline])
            start = newline + 1
            payload = text[start : start + length]
            if len(payload) != length:
                raise ValueError(f"truncated journal frame at offset {pos}")
            journal._records.append(PrepRecord.from_xml(parse_xml(payload)))
            pos = start + length + 1  # skip trailing newline
        return journal


class ProvenanceRecorder:
    """Creates p-assertions and submits them to a store over the bus."""

    def __init__(
        self,
        bus: MessageBus,
        store_endpoint: str = "preserv",
        client_endpoint: str = "provenance-client",
        mode: RecordingMode = RecordingMode.ASYNCHRONOUS,
        journal: Optional[Journal] = None,
        flush_batch_size: int = 64,
    ):
        if flush_batch_size < 1:
            raise ValueError("flush_batch_size must be >= 1")
        self.bus = bus
        self.store_endpoint = store_endpoint
        self.client_endpoint = client_endpoint
        self._client = ProvenanceRecordClient(
            bus, store_endpoint=store_endpoint, client_endpoint=client_endpoint
        )
        self.mode = mode
        # Not `journal or Journal()`: an empty Journal is falsy (__len__).
        self.journal = journal if journal is not None else Journal()
        self.flush_batch_size = flush_batch_size
        self._local_ids = itertools.count(1)
        self.submitted = 0
        self.acked = 0

    # -- assertion construction -----------------------------------------------
    def next_local_id(self) -> str:
        return f"pa-{next(self._local_ids):08d}"

    def record_interaction(
        self,
        key: InteractionKey,
        view: ViewKind,
        asserter: str,
        operation: str,
        content: XmlElement,
        local_id: Optional[str] = None,
    ) -> InteractionPAssertion:
        assertion = InteractionPAssertion(
            interaction_key=key,
            view=view,
            asserter=asserter,
            local_id=local_id or self.next_local_id(),
            operation=operation,
            content=content,
        )
        self.submit(assertion)
        return assertion

    def record_actor_state(
        self,
        key: InteractionKey,
        view: ViewKind,
        asserter: str,
        state_type: str,
        content: XmlElement,
        local_id: Optional[str] = None,
    ) -> ActorStatePAssertion:
        assertion = ActorStatePAssertion(
            interaction_key=key,
            view=view,
            asserter=asserter,
            local_id=local_id or self.next_local_id(),
            state_type=state_type,
            content=content,
        )
        self.submit(assertion)
        return assertion

    def record_group(
        self,
        group_id: str,
        kind: GroupKind,
        member: InteractionKey,
        asserter: str,
        sequence: Optional[int] = None,
    ) -> GroupAssertion:
        assertion = GroupAssertion(
            group_id=group_id,
            kind=kind,
            member=member,
            asserter=asserter,
            sequence=sequence,
        )
        self.submit(assertion)
        return assertion

    # -- submission -------------------------------------------------------
    def submit(self, assertion: Assertion) -> None:
        """Route one assertion according to the recording mode."""
        if self.mode is RecordingMode.NONE:
            return
        self.submitted += 1
        record = PrepRecord(assertion=assertion)
        if self.mode is RecordingMode.SYNCHRONOUS:
            ack = self._send([record])
            self.acked += ack.count
        else:
            self.journal.append(record)

    def _send(self, records: List[PrepRecord]) -> PrepAck:
        return self._client.send_records(records)

    def flush(self) -> int:
        """Ship all journalled records to the store; returns the count acked.

        The queue drains in ``flush_batch_size`` batches — each batch is one
        ``prep-record-batch`` message and one backend group commit, not one
        message per assertion.  Batches ship in journal order; a rejected
        batch stops the stream and raises ``RuntimeError``.
        """
        records = self.journal.drain()
        total = self._client.send_record_stream(
            records, batch_size=self.flush_batch_size
        )
        self.acked += total
        return total

    @property
    def pending(self) -> int:
        """Records accumulated but not yet shipped."""
        return len(self.journal)
