"""Query-side caching for the PReServ read path.

PReServ's query port is dominated by *repeated* traffic: provenance
navigators re-issue the same ``prep-query`` documents (list the interaction
records, fetch a session's members, poll the counts) far more often than the
store's contents change.  This module caches two things:

* **query plans** — a ``prep-query`` body parsed once into a
  :class:`QueryPlan` (resolved handler + canonical parameters + result-cache
  key), keyed by the body's compact serialized form, so repeated identical
  queries skip parsing and dispatch entirely;
* **result documents** — the fully built (and frozen, hence
  serialization-cached — see :meth:`repro.soa.xmldoc.XmlElement.freeze`)
  ``prep-result`` response for a plan, per backend.

**Invalidation contract.**  Correctness rests on the store's *write
generation*: every successful ``put``/``put_many`` bumps
:attr:`repro.store.interface.ProvenanceStoreInterface.generation` by at
least one.  A cached result is stored together with the generation observed
when it was built and is served only while the backend reports the *same*
generation; any write — single put, bulk ingest, broadcast group assertion,
replayed segment — moves the counter and silently expires every result for
that backend.  Plans carry no store state, so they never need invalidating.
A backend that does not expose ``generation`` is never result-cached (plans
still are).  Routers generalise the contract to a *generation vector*: a
federated result is valid iff no member store advanced (see
:meth:`repro.store.distributed.StoreRouter.generations`).

Two aliasing rules round out the contract.  Submitted assertions are
*snapshots*: mutating an assertion's ``content`` in place after ``put``
already diverges from what the persistent backends durably wrote (they
serialized at put time), so the cache — which likewise captures put-time
state — does not attempt to detect it.  Served result documents are
*frozen by contract*: ``freeze()`` makes structural extension raise, but
Python cannot cheaply police direct ``attrs``/``children`` edits, so
callers must treat responses as read-only.

Both caches are bounded LRU maps; result caches are held per backend in a
:class:`weakref.WeakKeyDictionary` so dropping a backend drops its cache.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, Generic, Hashable, Optional, Tuple, TypeVar

from repro.core.prep import PrepQuery
from repro.soa.xmldoc import XmlElement

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class LruMap(Generic[K, V]):
    """A small bounded mapping with least-recently-used eviction."""

    def __init__(self, max_entries: int):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._entries: "OrderedDict[K, V]" = OrderedDict()

    def get(self, key: K) -> Optional[V]:
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
        return value

    def put(self, key: K, value: V) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


@dataclass(frozen=True)
class QueryPlan:
    """A parsed, dispatch-ready query: what re-parsing would recompute."""

    query: PrepQuery
    handler: Callable[..., object]
    #: canonical identity of the query (type + sorted params) — the result
    #: cache key, shared by every body that parses to the same query.
    result_key: Tuple[str, Tuple[Tuple[str, str], ...]]

    @staticmethod
    def key_for(query: PrepQuery) -> Tuple[str, Tuple[Tuple[str, str], ...]]:
        return (query.query_type, tuple(sorted(query.params.items())))


@dataclass
class CacheStats:
    """Hit/miss counters, reported by benchmarks and asserted in tests."""

    plan_hits: int = 0
    plan_misses: int = 0
    result_hits: int = 0
    result_misses: int = 0
    #: lookups that found an entry from an older write generation.
    result_invalidations: int = 0

    def snapshot(self) -> Dict[str, int]:
        return {
            "plan_hits": self.plan_hits,
            "plan_misses": self.plan_misses,
            "result_hits": self.result_hits,
            "result_misses": self.result_misses,
            "result_invalidations": self.result_invalidations,
        }


@dataclass
class _CachedResult:
    token: object
    response: XmlElement


def _freshness_token(backend: object) -> Optional[object]:
    """The invalidation token a result from ``backend`` is stored under.

    A backend's :meth:`generation_token` when it has one (an adapter over
    a moving fleet folds its epoch in), else its ``generation`` counter.
    ``None`` means the backend offers no invalidation signal and must
    never be result-cached.
    """
    getter = getattr(backend, "generation_token", None)
    if getter is not None:
        return getter()
    return getattr(backend, "generation", None)


class QueryCache:
    """Plan + result cache for one :class:`~repro.store.plugins.QueryPlugIn`.

    The plug-in may serve several backends (the translator passes the
    backend per call), so result entries live in per-backend LRU maps keyed
    weakly by the backend object.
    """

    def __init__(self, max_plans: int = 512, max_results: int = 2048):
        self.max_plans = max_plans
        self.max_results = max_results
        self._plans: LruMap[str, QueryPlan] = LruMap(max_plans)
        self._results: "weakref.WeakKeyDictionary[object, LruMap]" = (
            weakref.WeakKeyDictionary()
        )
        self.stats = CacheStats()

    # -- plans --------------------------------------------------------------
    def plan_for(
        self,
        body: XmlElement,
        build: Callable[[XmlElement], QueryPlan],
    ) -> QueryPlan:
        """The cached plan for ``body``, parsing via ``build`` on a miss."""
        key = body.to_xml_string()
        plan = self._plans.get(key)
        if plan is not None:
            self.stats.plan_hits += 1
            return plan
        self.stats.plan_misses += 1
        plan = build(body)
        self._plans.put(key, plan)
        return plan

    # -- results ------------------------------------------------------------
    def lookup_result(self, backend: object, plan: QueryPlan) -> Optional[XmlElement]:
        """The memoized response for ``plan``, iff its token is still fresh."""
        token = _freshness_token(backend)
        if token is None:
            self.stats.result_misses += 1
            return None
        per_backend = self._results.get(backend)
        entry = per_backend.get(plan.result_key) if per_backend is not None else None
        if entry is not None and entry.token == token:
            self.stats.result_hits += 1
            return entry.response
        if entry is not None:
            self.stats.result_invalidations += 1
        self.stats.result_misses += 1
        return None

    def store_result(
        self, backend: object, plan: QueryPlan, response: XmlElement
    ) -> XmlElement:
        """Memoize ``response``; returns the element the caller should serve.

        The cached entry is a frozen deep copy (so its re-serialization is
        cached).  Freezing the original in place would recursively freeze
        assertion ``content`` subtrees that result documents embed *by
        reference* — store-owned state the asserter may still be extending.
        """
        token = _freshness_token(backend)
        if token is None:
            return response  # no invalidation signal -> never cache results
        per_backend = self._results.get(backend)
        if per_backend is None:
            per_backend = LruMap(self.max_results)
            self._results[backend] = per_backend
        frozen = response.copy().freeze()
        per_backend.put(plan.result_key, _CachedResult(token, frozen))
        return frozen

    def clear(self) -> None:
        self._plans.clear()
        for per_backend in list(self._results.values()):
            per_backend.clear()


@dataclass
class GenerationVector:
    """A multi-store freshness token: valid iff *no* member advanced.

    Routers and federated clients cache merged results under the tuple of
    member generations; one integer-tuple comparison revalidates the whole
    federation.  ``epoch`` is the placement epoch the vector was observed
    under (0 for single stores and never-rebalanced fleets): a migration
    cutover bumps it, so every cached merge built under the old placement
    — in particular the moved slice's plans — invalidates at the flip
    even if no member generation moved.
    """

    generations: Tuple[int, ...] = field(default_factory=tuple)
    epoch: int = 0

    @classmethod
    def of(cls, stores: Dict[str, object]) -> "GenerationVector":
        return cls(
            generations=tuple(
                getattr(stores[name], "generation", -1) for name in sorted(stores)
            )
        )

    def fresh(self, other: "GenerationVector") -> bool:
        return (
            self.generations == other.generations
            and self.epoch == other.epoch
        )
