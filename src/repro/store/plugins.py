"""PReServ plug-ins: message handlers behind the SOAP translator.

"Based on the port that the message was sent to, the SOAP Message Translator
strips off the HTTP and SOAP Headers and passes the contents of the SOAP
body to an appropriate PlugIn, which must conform to the schemas distributed
with PReServ." (Section 5, Figure 3)

* :class:`StorePlugIn` handles ``prep-record`` (and batch) submissions,
* :class:`QueryPlugIn` handles ``prep-query`` retrieval requests.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.passertion import InteractionKey, ViewKind
from repro.core.prep import PrepAck, PrepQuery, PrepRecord, PrepResult
from repro.soa.envelope import Fault
from repro.soa.xmldoc import XmlElement
from repro.store.interface import DuplicateAssertionError, ProvenanceStoreInterface
from repro.store.querycache import QueryCache, QueryPlan


class PlugIn(ABC):
    """A handler for one family of body documents."""

    #: element names this plug-in accepts.
    handles: Tuple[str, ...] = ()

    @abstractmethod
    def handle(
        self, body: XmlElement, backend: ProvenanceStoreInterface
    ) -> XmlElement:
        """Process ``body`` against ``backend`` and return the response body."""


class StorePlugIn(PlugIn):
    """Records p-assertions (singly or batched) into the backend."""

    handles = ("prep-record", "prep-record-batch")

    def handle(
        self, body: XmlElement, backend: ProvenanceStoreInterface
    ) -> XmlElement:
        if body.name == "prep-record":
            elements = [body]
        else:
            elements = body.find_all("prep-record")
        try:
            # Bulk ingest: the whole submission becomes one backend
            # group commit (put_many persists singles via that path).
            stored = backend.put_many(
                [PrepRecord.from_xml(el).assertion for el in elements]
            )
        except DuplicateAssertionError as exc:
            raise Fault("duplicate-assertion", str(exc)) from exc
        return PrepAck(status="ok", count=stored).to_xml()


class QueryPlugIn(PlugIn):
    """Serves PReP queries from the backend's Provenance Store Interface.

    Dispatch runs through a handler table built once in ``__init__`` (no
    per-call ``getattr`` munging).  With a :class:`QueryCache` (the default),
    parsed query plans are reused across identical bodies and whole result
    documents are memoized per backend, invalidated by the store's write
    generation; pass ``cache=None`` with ``enable_cache=False`` for the
    uncached reference path.
    """

    handles = ("prep-query",)

    def __init__(
        self,
        cache: Optional[QueryCache] = None,
        enable_cache: bool = True,
    ):
        self._handlers: Dict[
            str,
            Callable[[PrepQuery, ProvenanceStoreInterface], List[XmlElement]],
        ] = {
            "interaction": self._q_interaction,
            "interactions": self._q_interactions,
            "record": self._q_record,
            "actor-state": self._q_actor_state,
            "by-group": self._q_by_group,
            "groups": self._q_groups,
            "groups-of": self._q_groups_of,
            "count": self._q_count,
            "passertion-counts": self._q_passertion_counts,
        }
        self.cache = cache if cache is not None else (
            QueryCache() if enable_cache else None
        )

    def _build_plan(self, body: XmlElement) -> QueryPlan:
        query = PrepQuery.from_xml(body)
        handler = self._handlers.get(query.query_type)
        if handler is None:
            raise Fault("unknown-query", f"no such query type {query.query_type!r}")
        return QueryPlan(
            query=query, handler=handler, result_key=QueryPlan.key_for(query)
        )

    def handle(
        self, body: XmlElement, backend: ProvenanceStoreInterface
    ) -> XmlElement:
        if self.cache is None:
            plan = self._build_plan(body)
        else:
            plan = self.cache.plan_for(body, self._build_plan)
            cached = self.cache.lookup_result(backend, plan)
            if cached is not None:
                return cached
        try:
            items = plan.handler(plan.query, backend)
        except KeyError as exc:
            raise Fault("bad-query", f"missing parameter: {exc}") from exc
        response = PrepResult(items=items).to_xml()
        if self.cache is not None:
            response = self.cache.store_result(backend, plan, response)
        return response

    # -- individual query types ----------------------------------------------
    @staticmethod
    def _key_from_params(query: PrepQuery) -> InteractionKey:
        return InteractionKey(
            interaction_id=query.params["id"],
            sender=query.params["sender"],
            receiver=query.params["receiver"],
        )

    @staticmethod
    def _view_from_params(query: PrepQuery) -> ViewKind | None:
        view = query.params.get("view")
        return ViewKind(view) if view else None

    def _q_interaction(
        self, query: PrepQuery, backend: ProvenanceStoreInterface
    ) -> List[XmlElement]:
        key = self._key_from_params(query)
        found = backend.interaction_passertions(key, self._view_from_params(query))
        return [p.to_xml() for p in found]

    def _q_interactions(
        self, query: PrepQuery, backend: ProvenanceStoreInterface
    ) -> List[XmlElement]:
        return [key.to_xml() for key in backend.interaction_keys()]

    def _q_record(
        self, query: PrepQuery, backend: ProvenanceStoreInterface
    ) -> List[XmlElement]:
        """The full interaction record: every p-assertion about one key."""
        key = self._key_from_params(query)
        items = [p.to_xml() for p in backend.interaction_passertions(key)]
        items.extend(p.to_xml() for p in backend.actor_state_passertions(key))
        return items

    def _q_actor_state(
        self, query: PrepQuery, backend: ProvenanceStoreInterface
    ) -> List[XmlElement]:
        key = self._key_from_params(query)
        found = backend.actor_state_passertions(
            key,
            view=self._view_from_params(query),
            state_type=query.params.get("state-type"),
        )
        return [p.to_xml() for p in found]

    def _q_by_group(
        self, query: PrepQuery, backend: ProvenanceStoreInterface
    ) -> List[XmlElement]:
        members = backend.group_members(query.params["group"])
        return [m.to_xml() for m in members]

    def _q_groups(
        self, query: PrepQuery, backend: ProvenanceStoreInterface
    ) -> List[XmlElement]:
        gids = backend.group_ids(query.params.get("kind"))
        kinds = backend.group_kinds(gids)
        return [
            XmlElement("group", attrs={"id": gid, "kind": kinds.get(gid, "")})
            for gid in gids
        ]

    def _q_groups_of(
        self, query: PrepQuery, backend: ProvenanceStoreInterface
    ) -> List[XmlElement]:
        gids = backend.groups_of(self._key_from_params(query))
        kinds = backend.group_kinds(gids)
        return [
            XmlElement("group", attrs={"id": gid, "kind": kinds.get(gid, "")})
            for gid in gids
        ]

    def _q_passertion_counts(
        self, query: PrepQuery, backend: ProvenanceStoreInterface
    ) -> List[XmlElement]:
        """Both of one interaction's p-assertion counts in one round trip."""
        key = self._key_from_params(query)
        inter, state = backend.passertion_counts(key)
        el = XmlElement(
            "passertion-counts",
            attrs={
                "interaction-passertions": str(inter),
                "actor-state-passertions": str(state),
            },
        )
        return [el]

    def _q_count(
        self, query: PrepQuery, backend: ProvenanceStoreInterface
    ) -> List[XmlElement]:
        counts = backend.counts()
        el = XmlElement(
            "store-counts",
            attrs={
                "interaction-passertions": str(counts.interaction_passertions),
                "actor-state-passertions": str(counts.actor_state_passertions),
                "group-assertions": str(counts.group_assertions),
                "interaction-records": str(counts.interaction_records),
            },
        )
        return [el]
