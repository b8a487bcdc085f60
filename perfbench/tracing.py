"""Spans recorded from outside the program, for the traced run.

The benchmark wraps public functions of each layer (class attributes and
module functions) with a span recorder; nothing inside ``repro`` is
instrumented.  A span is ``(id, parent, name, start, end, op, tag)``:

* ``parent`` is the innermost open span on the same thread; a span that
  opens on a helper thread (the router's fan-out pool) with nothing open
  there takes the driving thread's innermost open span as its parent;
* ``op`` is the id of the benchmark operation in flight (one client, so
  one operation at a time), ``None`` outside timed operations;
* ``tag`` is a per-span figure: the remote endpoint of a transport call,
  the bytes a log append wrote, whether a result-cache lookup hit.

Store workers run in their own processes.  In a traced run they start
through :func:`traced_run_worker`, which installs the worker-side
wrappers, serves as usual, and dumps its spans to a file when the worker
stops.  :func:`merge_worker_spans` then hangs each worker-side root span
under the client transport call to that endpoint whose interval holds it
(``time.perf_counter`` is the system-wide monotonic clock on Linux, so
the two processes' timestamps compare).

A layer's self time is its span's duration minus the part of that
interval its child spans cover.
"""

from __future__ import annotations

import bisect
import collections
import functools
import itertools
import json
import os
import statistics
import threading
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Tuple

Span = Tuple[int, int, str, float, float, Optional[int], object]


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: (counter name, operation id) -> total.
        self.counts: collections.Counter = collections.Counter()
        #: id of the benchmark operation in flight (None = not timed).
        self.op: Optional[int] = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: List[int] = []

    def _stack(self) -> List[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        fn: Callable,
        name: str,
        before: Optional[Callable[[tuple, dict], object]] = None,
        after: Optional[Callable[[object, tuple, object], object]] = None,
    ) -> Callable:
        """``fn`` recording one span named ``name`` per call.

        The span's tag is ``before(args, kwargs)``, replaced by
        ``after(tag, args, result)`` when the call returns.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif tracer._main_stack:
                parent = tracer._main_stack[-1]
            else:
                parent = 0
            span_id = next(tracer._ids)
            tag = before(args, kwargs) if before is not None else None
            op = tracer.op
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    tag = after(tag, args, result)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append((span_id, parent, name, start, end, op, tag))

        return traced

    def patch(self, owner: object, attr: str, name: str, **kwargs) -> None:
        """Replace ``owner.attr`` (method or module function) by a traced one."""
        raw = getattr(owner, "__dict__", {}).get(attr)
        if isinstance(raw, staticmethod):
            setattr(owner, attr, staticmethod(self.wrap(raw.__func__, name, **kwargs)))
        else:
            setattr(owner, attr, self.wrap(getattr(owner, attr), name, **kwargs))

    def count_calls(
        self, owner: object, attr: str, counter: Callable[[object, tuple], Dict[str, int]]
    ) -> None:
        """Replace ``owner.attr`` by a version adding ``counter(result, args)``
        to this process's counters, keyed by the operation in flight."""
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            for key, value in counter(result, args).items():
                tracer.counts[(key, tracer.op)] += value
            return result

        setattr(owner, attr, counted)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


# -- wrapper installation ----------------------------------------------------

def _transport_peer(args: tuple, kwargs: dict) -> Optional[str]:
    # EnvelopeClient.call(self, source, target, operation, payload, ...)
    return kwargs.get("target", args[2] if len(args) > 2 else None)


def install_client(tracer: Tracer, codecs: Iterable[str], dump_dir: str) -> None:
    """Wrap the layers that run in the benchmark (client) process."""
    from repro.app import experiment, services, workflow
    from repro.compress.api import get_compressor
    from repro.core import client, instrument, recorder
    from repro.fleet import manager
    from repro.registry.service import GrimoiresRegistry
    from repro.soa import bus, transport
    from repro.store import distributed, fanout
    from repro.usecases import comparison, semantic

    tracer.patch(experiment.Experiment, "run", "app.experiment")
    tracer.patch(workflow.CompressibilityWorkflow, "run", "app.workflow")
    tracer.patch(services.ScriptedService, "handle", "app.services")
    for codec in codecs:
        tracer.patch(type(get_compressor(codec)), "compress", "compress")
    for fn in ("sample_of_size", "encode_by_groups", "shuffle_sequence", "average_results"):
        tracer.patch(services, fn, "bio")
    tracer.patch(instrument.ProvenanceInterceptor, "__call__", "core.instrument")
    tracer.patch(recorder.ProvenanceRecorder, "flush", "core.recorder.flush")
    tracer.patch(client.ProvenanceRecordClient, "_encode_batch", "core.client.encode")
    for method in (
        "interaction_keys",
        "interaction_passertions",
        "actor_state_passertions",
        "interaction_record",
        "group_members",
        "groups_of",
        "group_ids",
        "passertion_counts",
        "counts",
    ):
        tracer.patch(client.ProvenanceQueryClient, method, "core.client.query")
    tracer.patch(bus.MessageBus, "call", "soa.bus")
    tracer.patch(transport.EnvelopeClient, "call", "soa.transport", before=_transport_peer)
    tracer.count_calls(
        transport, "send_frame", lambda _r, args: {"soa.transport.bytes_sent": len(args[1])}
    )
    tracer.count_calls(
        transport, "recv_frame", lambda r, _a: {"soa.transport.bytes_received": len(r)}
    )
    tracer.patch(distributed.StoreRouter, "put_many", "store.distributed")
    tracer.patch(fanout.FanoutExecutor, "scatter", "store.fanout")
    tracer.patch(GrimoiresRegistry, "handle", "registry")
    tracer.patch(comparison, "categorise_scripts", "usecases")
    tracer.patch(semantic, "validate_session", "usecases")
    tracer.patch(manager.WorkerHandle, "spawn", "fleet.manager.spawn")
    tracer.patch(manager.WorkerHandle, "wait_healthy", "fleet.manager.spawn")
    # Workers start through the traced entry point (see traced_run_worker).
    manager.run_worker = functools.partial(traced_run_worker, dump_dir=dump_dir)


def install_worker(tracer: Tracer) -> None:
    """Wrap the layers that run inside a store worker process."""
    from repro.store import backends, interface, kvlog, plugins, querycache, service

    tracer.patch(service.PReServActor, "handle", "store.service")
    tracer.patch(plugins.StorePlugIn, "handle", "store.plugins.record")
    tracer.patch(plugins.QueryPlugIn, "handle", "store.plugins.query")
    tracer.patch(interface.ProvenanceStoreInterface, "put_many", "store.interface")
    tracer.patch(backends.KVLogBackend, "_persist_many", "store.backends.persist")
    tracer.patch(kvlog.KVLog, "_commit", "store.kvlog.fsync")
    tracer.patch(
        kvlog.KVLog,
        "put_many",
        "store.kvlog.append",
        before=lambda args, _kw: args[0].file_size(),
        after=lambda size, args, _r: args[0].file_size() - size,
    )
    tracer.patch(
        querycache.QueryCache,
        "lookup_result",
        "store.querycache",
        after=lambda _t, _a, result: int(result is not None),
    )


def traced_run_worker(config, dump_dir: str) -> None:
    """Worker entry point of a traced run: serve traced, then dump spans."""
    from repro.fleet.worker import run_worker

    tracer = Tracer()
    install_worker(tracer)
    try:
        run_worker(config)
    finally:
        tracer.dump(os.path.join(dump_dir, f"worker-{config.endpoint}-{os.getpid()}.json"))


# -- analysis --------------------------------------------------------------

def merge_worker_spans(tracer: Tracer, dump_dir: str) -> None:
    """Fold the workers' span dumps into ``tracer`` (see module docstring)."""
    calls: Dict[str, List[Span]] = collections.defaultdict(list)
    for span in tracer.spans:
        if span[2] == "soa.transport":
            calls[span[6]].append(span)
    starts = {}
    for peer, spans in calls.items():
        spans.sort(key=lambda s: s[3])
        starts[peer] = [s[3] for s in spans]
    dumps = sorted(n for n in os.listdir(dump_dir) if n.startswith("worker-"))
    for index, name in enumerate(dumps, start=1):
        with open(os.path.join(dump_dir, name), encoding="utf-8") as fh:
            dumped = json.load(fh)
        endpoint = name.split("-", 1)[1].rsplit("-", 1)[0]
        offset = index * 10**10
        by_id: Dict[int, Span] = {}
        for raw in sorted(dumped, key=lambda s: (s[3], -s[4])):
            span_id, parent, span_name, start, end, _op, tag = raw
            if parent:
                parent_span = by_id.get(parent + offset)
                op = parent_span[5] if parent_span is not None else None
                parent = parent + offset
            else:
                parent, op = _covering_call(calls.get(endpoint, []), starts.get(endpoint, []), start, end)
            span = (span_id + offset, parent, span_name, start, end, op, tag)
            by_id[span[0]] = span
            tracer.spans.append(span)


def _covering_call(spans: List[Span], starts: List[float], start: float, end: float):
    """The client call to this endpoint that holds ``[start, end]``.

    One client drives each endpoint, so calls to it do not overlap and the
    latest call started before the worker span is the only candidate.
    """
    i = bisect.bisect_right(starts, start) - 1
    if i >= 0 and spans[i][4] >= end:
        return spans[i][0], spans[i][5]
    return 0, None


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Each span's duration minus the union of its children's intervals."""
    children: Dict[int, List[Tuple[float, float]]] = collections.defaultdict(list)
    for span in spans:
        if span[1]:
            children[span[1]].append((span[3], span[4]))
    out = {}
    for span in spans:
        start, end = span[3], span[4]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(span[0], ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[span[0]] = (end - start) - covered
    return out


def layer_metrics(
    tracer: Tracer,
    timed_ops: set,
    units: int,
    extra: Dict[str, float],
) -> Dict[str, Tuple[float, str]]:
    """Per-layer figures over the timed operations, per unit of work."""
    spans = [s for s in tracer.spans if s[5] in timed_ops]
    own = self_times(spans)
    busy: Dict[str, float] = collections.defaultdict(float)
    self_s: Dict[str, float] = collections.defaultdict(float)
    calls: collections.Counter = collections.Counter()
    rtts: List[float] = []
    for span in spans:
        name = span[2]
        busy[name] += span[4] - span[3]
        self_s[name] += own[span[0]]
        calls[name] += 1
        if name == "soa.transport":
            rtts.append(span[4] - span[3])
    per = float(max(units, 1))
    counts: collections.Counter = collections.Counter()
    for (key, op), value in tracer.counts.items():
        if op in timed_ops:
            counts[key] += value
    tags: Dict[str, float] = collections.defaultdict(float)
    for span in spans:
        if span[2] in ("store.kvlog.append", "store.querycache"):
            tags[span[2]] += span[6] or 0
    lookups = calls["store.querycache"]
    metrics = {
        "compress.busy_s": (busy["compress"] / per, "s/op"),
        "bio.busy_s": (busy["bio"] / per, "s/op"),
        "app.services.self_s": (self_s["app.services"] / per, "s/op"),
        "app.workflow.self_s": (self_s["app.workflow"] / per, "s/op"),
        "core.instrument.self_s": (self_s["core.instrument"] / per, "s/op"),
        "core.recorder.flush_s": (busy["core.recorder.flush"] / per, "s/op"),
        "core.client.encode_s": (busy["core.client.encode"] / per, "s/op"),
        "core.client.parse_s": (self_s["core.client.query"] / per, "s/op"),
        "soa.bus.self_s": (self_s["soa.bus"] / per, "s/op"),
        "soa.bus.calls": (calls["soa.bus"] / per, "count/op"),
        "soa.transport.round_trips": (calls["soa.transport"] / per, "count/op"),
        "soa.transport.rtt_p50_ms": (
            statistics.median(rtts) * 1e3 if rtts else 0.0,
            "ms",
        ),
        "soa.transport.bytes_sent": (
            counts.get("soa.transport.bytes_sent", 0) / per,
            "B/op",
        ),
        "soa.transport.bytes_received": (
            counts.get("soa.transport.bytes_received", 0) / per,
            "B/op",
        ),
        "soa.transport.self_s": (self_s["soa.transport"] / per, "s/op"),
        "store.distributed.self_s": (self_s["store.distributed"] / per, "s/op"),
        "store.fanout.scatters": (calls["store.fanout"] / per, "count/op"),
        "store.fanout.wait_s": (busy["store.fanout"] / per, "s/op"),
        "store.service.self_s": (self_s["store.service"] / per, "s/op"),
        "store.plugins.decode_s": (self_s["store.plugins.record"] / per, "s/op"),
        "store.plugins.query_s": (busy["store.plugins.query"] / per, "s/op"),
        "store.querycache.hit_ratio": (
            tags["store.querycache"] / lookups if lookups else 0.0,
            "ratio",
        ),
        "store.interface.index_s": (self_s["store.interface"] / per, "s/op"),
        "store.backends.persist_s": (self_s["store.backends.persist"] / per, "s/op"),
        "store.kvlog.append_s": (self_s["store.kvlog.append"] / per, "s/op"),
        "store.kvlog.fsyncs": (calls["store.kvlog.fsync"] / per, "count/op"),
        "store.kvlog.fsync_s": (busy["store.kvlog.fsync"] / per, "s/op"),
        "store.kvlog.bytes_written": (tags["store.kvlog.append"] / per, "B/op"),
        "registry.calls": (calls["registry"] / per, "count/op"),
        "registry.self_s": (self_s["registry"] / per, "s/op"),
        "usecases.self_s": (self_s["usecases"] / per, "s/op"),
    }
    for name, (value, unit) in extra.items():
        metrics[name] = (value, unit)
    return metrics


def spawn_seconds(tracer: Tracer) -> float:
    """Wall time spent starting workers until they answer, all starts."""
    return sum(s[4] - s[3] for s in tracer.spans if s[2] == "fleet.manager.spawn")
