"""P-assertion data model and XML mapping.

The unit of provenance: "an assertion, by an actor, pertaining to the
provenance of some data".  Two kinds plus the grouping assertion:

* :class:`InteractionPAssertion` — documents one message of one interaction,
  from one *view* (the sender's or the receiver's),
* :class:`ActorStatePAssertion` — documents actor-internal state in the
  context of an interaction (a script's content, CPU used, ...),
* :class:`GroupAssertion` — places interactions into a named group
  (session, thread, or custom kinds).

All types serialize to/from the XML document model so they can be stored,
shipped in PReP messages, and queried independently of the technology that
produced them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

from repro.soa.xmldoc import XmlElement


class ViewKind(enum.Enum):
    """Whose view of an interaction a p-assertion documents."""

    SENDER = "sender"
    RECEIVER = "receiver"


class GroupKind(enum.Enum):
    """Well-understood interaction groupings from the paper."""

    #: A workflow run.
    SESSION = "session"
    #: A sequential succession of activities.
    THREAD = "thread"
    CUSTOM = "custom"


@dataclass(frozen=True, order=True)
class InteractionKey:
    """Globally identifies one interaction: message id + the two parties.

    The paper requires that provenance "maintain a link between the inputs
    and the outputs of each workflow run in an accurate manner ... even if
    multiple workflows were run simultaneously"; the three-part key provides
    that unambiguous identity.
    """

    interaction_id: str
    sender: str
    receiver: str

    def __post_init__(self) -> None:
        for name in ("interaction_id", "sender", "receiver"):
            if not getattr(self, name):
                raise ValueError(f"InteractionKey.{name} must be non-empty")

    def to_xml(self) -> XmlElement:
        return XmlElement(
            "interaction-key",
            attrs={
                "id": self.interaction_id,
                "sender": self.sender,
                "receiver": self.receiver,
            },
        )

    @classmethod
    def from_xml(cls, el: XmlElement) -> "InteractionKey":
        if el.name != "interaction-key":
            raise ValueError(f"expected <interaction-key>, got <{el.name}>")
        return cls(
            interaction_id=el.attrs["id"],
            sender=el.attrs["sender"],
            receiver=el.attrs["receiver"],
        )


@dataclass(frozen=True)
class PAssertion:
    """Common identity of all p-assertions.

    ``local_id`` disambiguates multiple assertions by the same asserter about
    the same interaction view; the store keys assertions by
    ``(interaction_key, view, asserter, local_id)``.
    """

    interaction_key: InteractionKey
    view: ViewKind
    asserter: str
    local_id: str

    def __post_init__(self) -> None:
        if not self.asserter:
            raise ValueError("asserter must be non-empty")
        if not self.local_id:
            raise ValueError("local_id must be non-empty")

    @property
    def store_key(self) -> Tuple[InteractionKey, str, str, str]:
        return (self.interaction_key, self.view.value, self.asserter, self.local_id)

    def _base_xml(self, kind: str) -> XmlElement:
        root = XmlElement("p-assertion", attrs={"kind": kind})
        root.add(self.interaction_key.to_xml())
        root.element("view", self.view.value)
        root.element("asserter", self.asserter)
        root.element("local-id", self.local_id)
        return root

    def to_xml(self) -> XmlElement:  # pragma: no cover - abstract-ish
        raise NotImplementedError


@dataclass(frozen=True)
class InteractionPAssertion(PAssertion):
    """Documentation of a message as seen from one side of an interaction."""

    operation: str
    content: XmlElement = field(compare=False)

    KIND = "interaction"

    def to_xml(self) -> XmlElement:
        root = self._base_xml(self.KIND)
        root.element("operation", self.operation)
        root.element("content").add(self.content)
        return root


@dataclass(frozen=True)
class ActorStatePAssertion(PAssertion):
    """Documentation of actor-internal state in an interaction's context.

    ``state_type`` names what is documented — e.g. ``script`` (the paper's
    use case 1 records the invoked script's content), ``resource-usage``,
    ``workflow``.
    """

    state_type: str
    content: XmlElement = field(compare=False)

    KIND = "actor-state"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.state_type:
            raise ValueError("state_type must be non-empty")

    def to_xml(self) -> XmlElement:
        root = self._base_xml(self.KIND)
        root.element("state-type", self.state_type)
        root.element("content").add(self.content)
        return root


@dataclass(frozen=True)
class GroupAssertion:
    """Asserts that an interaction belongs to a group.

    Groups give p-assertions execution structure: a *session* collects the
    interactions of one workflow run; a *thread* collects a sequential chain
    of activities.  Membership is asserted incrementally, one interaction
    per assertion, by the asserting actor.
    """

    group_id: str
    kind: GroupKind
    member: InteractionKey
    asserter: str
    #: position of the member within the group, for ordered kinds (threads).
    sequence: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.group_id:
            raise ValueError("group_id must be non-empty")
        if not self.asserter:
            raise ValueError("asserter must be non-empty")
        if self.sequence is not None and self.sequence < 0:
            raise ValueError("sequence must be non-negative")

    def to_xml(self) -> XmlElement:
        attrs = {"id": self.group_id, "kind": self.kind.value}
        if self.sequence is not None:
            attrs["sequence"] = str(self.sequence)
        root = XmlElement("group-assertion", attrs=attrs)
        root.add(self.member.to_xml())
        root.element("asserter", self.asserter)
        return root

    @classmethod
    def from_xml(cls, el: XmlElement) -> "GroupAssertion":
        if el.name != "group-assertion":
            raise ValueError(f"expected <group-assertion>, got <{el.name}>")
        seq = el.attrs.get("sequence")
        return cls(
            group_id=el.attrs["id"],
            kind=GroupKind(el.attrs["kind"]),
            member=InteractionKey.from_xml(el.require("interaction-key")),
            asserter=el.require("asserter").text,
            sequence=int(seq) if seq is not None else None,
        )


def parse_passertion(el: XmlElement) -> PAssertion:
    """Reconstruct a p-assertion from its XML form."""
    if el.name != "p-assertion":
        raise ValueError(f"expected <p-assertion>, got <{el.name}>")
    kind = el.attrs.get("kind")
    key = InteractionKey.from_xml(el.require("interaction-key"))
    view = ViewKind(el.require("view").text)
    asserter = el.require("asserter").text
    local_id = el.require("local-id").text
    content_wrapper = el.require("content")
    content = next(content_wrapper.iter_elements(), None)
    if content is None:
        raise ValueError("p-assertion <content> is empty")
    if kind == InteractionPAssertion.KIND:
        return InteractionPAssertion(
            interaction_key=key,
            view=view,
            asserter=asserter,
            local_id=local_id,
            operation=el.require("operation").text,
            content=content,
        )
    if kind == ActorStatePAssertion.KIND:
        return ActorStatePAssertion(
            interaction_key=key,
            view=view,
            asserter=asserter,
            local_id=local_id,
            state_type=el.require("state-type").text,
            content=content,
        )
    raise ValueError(f"unknown p-assertion kind {kind!r}")


def parse_assertion(el: XmlElement) -> Union[PAssertion, GroupAssertion]:
    """Reconstruct any stored assertion: a group assertion or a p-assertion."""
    if el.name == "group-assertion":
        return GroupAssertion.from_xml(el)
    return parse_passertion(el)
