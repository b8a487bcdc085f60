"""PReServ as a service: the message translator and the store actor.

Mirrors Figure 3's layering: envelopes arrive at the :class:`PReServActor`;
the :class:`MessageTranslator` strips them and routes the body to a plug-in
by body element name; plug-ins call the Provenance Store Interface of the
configured backend.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.soa.actor import Actor
from repro.soa.envelope import Fault
from repro.soa.xmldoc import XmlElement
from repro.store.interface import ProvenanceStoreInterface
from repro.store.plugins import PlugIn, QueryPlugIn, StorePlugIn
from repro.store.querycache import QueryCache

#: The paper's measured record round trip on the testbed: ~18 ms.
PAPER_RECORD_ROUND_TRIP_S = 0.018


class MessageTranslator:
    """Routes stripped message bodies to plug-ins by element name."""

    def __init__(self, plugins: Optional[Iterable[PlugIn]] = None):
        self._routes: Dict[str, PlugIn] = {}
        for plugin in plugins or ():
            self.register(plugin)

    def register(self, plugin: PlugIn) -> None:
        for name in plugin.handles:
            if name in self._routes:
                raise ValueError(f"body element {name!r} already routed")
            self._routes[name] = plugin

    def dispatch(
        self, body: XmlElement, backend: ProvenanceStoreInterface
    ) -> XmlElement:
        plugin = self._routes.get(body.name)
        if plugin is None:
            raise Fault(
                "no-plugin", f"no plug-in accepts body element <{body.name}>"
            )
        return plugin.handle(body, backend)

    def routes(self) -> Dict[str, str]:
        return {name: type(p).__name__ for name, p in self._routes.items()}

    def plugins(self) -> list:
        """The registered plug-ins, each once, in registration order."""
        seen: list = []
        for plugin in self._routes.values():
            if plugin not in seen:
                seen.append(plugin)
        return seen


class PReServActor(Actor):
    """The provenance store web service.

    Exposes ``record`` and ``query`` operations (the paper's two ports);
    both run through the translator so new plug-ins extend the service
    without touching this class.
    """

    def __init__(
        self,
        backend: ProvenanceStoreInterface,
        endpoint: str = "preserv",
        translator: Optional[MessageTranslator] = None,
        enable_query_cache: bool = True,
    ):
        super().__init__(endpoint, description="PReServ provenance store")
        self.backend = backend
        if translator is None:
            query_plugin = QueryPlugIn(enable_cache=enable_query_cache)
            translator = MessageTranslator([StorePlugIn(), query_plugin])
            self.query_cache: Optional[QueryCache] = query_plugin.cache
        else:
            if not enable_query_cache:
                raise ValueError(
                    "enable_query_cache only applies to the default translator; "
                    "configure caching on the supplied translator's QueryPlugIn"
                )
            self.query_cache = next(
                (
                    plugin.cache
                    for plugin in translator.plugins()
                    if isinstance(plugin, QueryPlugIn)
                ),
                None,
            )
        self.translator = translator

    @classmethod
    def with_store(
        cls,
        kind: str,
        path: Optional[str] = None,
        *,
        sync: bool = True,
        segment_size: int = 256,
        auto_compact: bool = False,
        **kwargs: object,
    ) -> "PReServActor":
        """Stand up an actor over a factory-built backend.

        The service-level way to configure storage — ``kind``/``path`` plus
        the durability and background-compaction knobs — without
        importing backend classes at the call site.  With
        ``auto_compact=True`` the attached scheduler lives as long as the
        actor's backend: :meth:`close` stops it.
        """
        from repro.store import make_backend

        backend = make_backend(
            kind,
            path,
            sync=sync,
            segment_size=segment_size,
            auto_compact=auto_compact,
        )
        return cls(backend, **kwargs)  # type: ignore[arg-type]

    def close(self) -> None:
        """Release the backend (stops attached background maintenance)."""
        self.backend.close()

    def maintenance_stats(self):
        """Background-compaction counters, or None when no scheduler runs.

        A :class:`repro.store.maintenance.CompactionStats` snapshot —
        ``compactions_run`` / ``bytes_reclaimed`` feed the figures layer.
        """
        scheduler = getattr(self.backend, "maintenance", None)
        return None if scheduler is None else scheduler.stats()

    def store_generation(self) -> int:
        """The backend's write generation (for client-side result caches)."""
        return self.backend.generation

    def op_record(self, payload: XmlElement) -> XmlElement:
        if payload.name not in ("prep-record", "prep-record-batch"):
            raise Fault(
                "bad-request", f"record port got <{payload.name}>"
            )
        return self.translator.dispatch(payload, self.backend)

    def op_query(self, payload: XmlElement) -> XmlElement:
        if payload.name != "prep-query":
            raise Fault("bad-request", f"query port got <{payload.name}>")
        return self.translator.dispatch(payload, self.backend)
