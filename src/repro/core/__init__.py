"""The paper's primary contribution: a technology-independent provenance model.

Provenance of a data item is "the documentation of the process that led to
the data"; an element of that documentation is a **p-assertion**.  The model
(Section 5) defines:

* **interaction p-assertions** — an actor's record of a message it sent or
  received (identified by an interaction key and a view: sender/receiver),
* **actor state p-assertions** — an actor's documentation of its internal
  state in the context of a specific interaction (scripts, resource usage,
  the workflow being executed, ...),
* **groups** — well-specified associations of interactions (sessions,
  threads) relating provenance to execution structure.

**PReP**, the Provenance Recording Protocol, specifies the messages actors
exchange with a provenance store to record these p-assertions, sync- or
asynchronously; this package implements the model, the protocol messages,
the client-side recorder, bus instrumentation, and trace queries.
"""

from repro.core.passertion import (
    ActorStatePAssertion,
    GroupAssertion,
    GroupKind,
    InteractionKey,
    InteractionPAssertion,
    PAssertion,
    ViewKind,
    parse_assertion,
    parse_passertion,
)
from repro.core.prep import (
    PrepAck,
    PrepMessage,
    PrepQuery,
    PrepRecord,
    PrepResult,
    ProtocolTracker,
    parse_prep_message,
)
from repro.core.recorder import Journal, ProvenanceRecorder, RecordingMode
from repro.core.instrument import ProvenanceInterceptor, ScriptProvider
from repro.core.client import ProvenanceQueryClient
from repro.core.prepackage import (
    InteractionTemplate,
    PrepackagedTemplates,
    analyse_workflow,
)
from repro.core.query import ProvenanceTrace, build_trace, data_lineage
from repro.core.validation import validate_passertion_xml

__all__ = [
    "ActorStatePAssertion",
    "GroupAssertion",
    "GroupKind",
    "InteractionKey",
    "InteractionPAssertion",
    "InteractionTemplate",
    "Journal",
    "PrepackagedTemplates",
    "ProvenanceQueryClient",
    "analyse_workflow",
    "PAssertion",
    "PrepAck",
    "PrepMessage",
    "PrepQuery",
    "PrepRecord",
    "PrepResult",
    "ProtocolTracker",
    "ProvenanceInterceptor",
    "ProvenanceRecorder",
    "ProvenanceTrace",
    "RecordingMode",
    "ScriptProvider",
    "ViewKind",
    "build_trace",
    "data_lineage",
    "parse_assertion",
    "parse_passertion",
    "parse_prep_message",
    "validate_passertion_xml",
]
