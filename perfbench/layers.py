"""Per-layer tracing, installed from outside the program.

:func:`installed` wraps the public functions of each layer (named after the
module that defines it) for the duration of a ``with`` block and then puts
the originals back.  Module-level functions are patched in every
``repro.*`` namespace that bound them by name (``endpoint`` imports
``measure`` and ``pack_batch``, ``tcp`` imports ``encode_message`` and
``decode_message``); methods are patched on the defining class and on every
subclass that overrides them.

Every wrapped call records a span — name, start, end, parent span — that
carries the trace id found in the message header among its arguments, or
its parent's.  Spans stay in memory; the first :data:`SPAN_CAPACITY` are
kept whole for :meth:`SpanTracer.write`, and every span feeds per-thread
call counts, total time and self time (duration minus child spans).
"""

from __future__ import annotations

import gzip
import importlib
import itertools
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Tuple

from repro.core.message import TRACE

SPAN_CAPACITY = 200_000

#: (layer, module, attribute, wrap subclass overrides too)
TARGETS: List[Tuple[str, str, str, bool]] = [
    ("core.endpoint", "repro.core.endpoint", "ProcessEndpoint.send", False),
    ("core.endpoint", "repro.core.endpoint", "ProcessEndpoint.receive", False),
    ("core.endpoint", "repro.core.endpoint", "ProcessEndpoint.receive_many", False),
    ("core.message", "repro.core.message", "pack_batch", False),
    ("core.message", "repro.core.message", "unpack_batch", False),
    ("core.communicator", "repro.core.communicator", "HeaderQueue.put", False),
    ("core.communicator", "repro.core.communicator", "HeaderQueue.put_many", False),
    ("core.communicator", "repro.core.communicator", "HeaderQueue.get", False),
    ("core.communicator", "repro.core.communicator", "HeaderQueue.get_many", False),
    ("core.router", "repro.core.router", "AlgorithmAgnosticRouter.route", False),
    ("core.router", "repro.core.router", "AlgorithmAgnosticRouter.on_remote_receive", False),
    ("core.object_store", "repro.core.object_store", "ObjectStore.put", True),
    ("core.object_store", "repro.core.object_store", "ObjectStore.get", True),
    ("core.object_store", "repro.core.object_store", "ObjectStore.release", True),
    ("core.arena", "repro.core.arena", "SlabArena.alloc", False),
    ("core.arena", "repro.core.arena", "SlabArena.free", False),
    ("core.serialization", "repro.core.serialization", "make_frame", False),
    ("core.serialization", "repro.core.serialization", "serialize", False),
    ("core.serialization", "repro.core.serialization", "deserialize", False),
    ("core.serialization", "repro.core.serialization", "measure", False),
    ("transport.tcp", "repro.transport.tcp", "SocketLink.send", False),
    ("transport.wire", "repro.transport.wire", "encode_message", False),
    ("transport.wire", "repro.transport.wire", "decode_message", False),
    ("api.agent", "repro.api.agent", "Agent.run_fragment", True),
    ("api.agent", "repro.api.agent", "Agent.set_weights", True),
    ("envs", "repro.api.environment", "Environment.step", True),
    ("api.algorithm", "repro.api.algorithm", "Algorithm.prepare_data", True),
    ("api.algorithm", "repro.api.algorithm", "Algorithm.train", True),
    ("api.algorithm", "repro.api.algorithm", "Algorithm.get_weights", True),
    ("cluster", "repro.cluster.cluster", "build_cluster", False),
    ("cluster", "repro.cluster.cluster", "Cluster.start", False),
    ("cluster", "repro.cluster.cluster", "Cluster.stop", False),
]


def metric_name(layer: str, attribute: str) -> str:
    """``core.endpoint`` + ``ProcessEndpoint.send`` -> ``core.endpoint.send``."""
    return f"{layer}.{attribute.rsplit('.', 1)[-1]}"


def _trace_of(args: Tuple[Any, ...]) -> int:
    """Trace id of the first message header among the call's arguments."""
    for arg in args[:3]:
        if isinstance(arg, dict):
            trace = arg.get(TRACE)
        elif isinstance(arg, tuple) and len(arg) == 2 and isinstance(arg[0], dict):
            trace = arg[0].get(TRACE)
        else:
            header = getattr(arg, "header", None)
            trace = header.get(TRACE) if isinstance(header, dict) else None
        if trace:
            return trace
    return 0


class SpanTracer:
    """In-memory spans plus per-thread aggregates."""

    def __init__(self, capacity: int = SPAN_CAPACITY):
        self.capacity = capacity
        self.spans: List[Tuple[int, int, int, str, int, float, float]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        #: one ``{name: [calls, total_s, self_s]}`` per thread that ran a
        #: span; endpoint calls also count under ``name@<endpoint name>``
        self._tables: List[Dict[str, List[float]]] = []
        #: counts taken inside wrapped calls (see :func:`_observe`)
        self.extra: Dict[str, float] = {}

    def _state(self) -> Tuple[List[List[Any]], Dict[str, List[float]]]:
        local = self._local
        try:
            return local.stack, local.table
        except AttributeError:
            local.stack, local.table = [], {}
            with self._lock:
                self._tables.append(local.table)
            return local.stack, local.table

    def wrap(self, name: str, fn: Callable, owner_key: bool = False) -> Callable:
        tracer = self
        spans = self.spans
        capacity = self.capacity
        ids = self._ids
        perf = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack, table = tracer._state()
            parent = stack[-1] if stack else None
            trace = _trace_of(args) or (parent[2] if parent else 0)
            frame = [next(ids), 0.0, trace]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                keys = [name]
                if owner_key:
                    keys.append(f"{name}@{getattr(args[0], 'name', '')}")
                for key in keys:
                    entry = table.get(key)
                    if entry is None:
                        entry = table[key] = [0, 0.0, 0.0]
                    entry[0] += 1
                    entry[1] += duration
                    entry[2] += duration - frame[1]
                if len(spans) < capacity:
                    spans.append((
                        frame[0], parent[0] if parent else 0, trace, name,
                        threading.get_ident(), start, end,
                    ))

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def table(self) -> Dict[str, List[float]]:
        """Aggregates merged across threads."""
        merged: Dict[str, List[float]] = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for key, (calls, total, self_s) in list(table.items()):
                entry = merged.setdefault(key, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += total
                entry[2] += self_s
        return merged

    def note(self, key: str, value: float, how: str = "sum") -> None:
        with self._lock:
            if how == "max":
                self.extra[key] = max(self.extra.get(key, 0.0), value)
            else:
                self.extra[key] = self.extra.get(key, 0.0) + value

    def write(self, path: str) -> int:
        """Write kept spans as gzip'd TSV; returns the number written."""
        spans = list(self.spans)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("span\tparent\ttrace\tname\tthread\tstart_s\tend_s\n")
            for span_id, parent, trace, name, thread, start, end in spans:
                out.write(
                    f"{span_id}\t{parent}\t{trace:x}\t{name}\t{thread}\t"
                    f"{start:.9f}\t{end:.9f}\n"
                )
        return len(spans)


def _observe(tracer: SpanTracer, name: str, fn: Callable) -> Callable:
    """Counts taken where the work happens, around the traced call."""
    if name == "core.communicator.put_many":

        def put_many(queue: Any, headers: Any, *args: Any, **kwargs: Any) -> Any:
            result = fn(queue, headers, *args, **kwargs)
            tracer.note("headers_put", len(headers))
            tracer.note("max_queue_depth", queue.qsize(), "max")
            return result

        return put_many
    if name == "core.message.pack_batch":

        def pack_batch(messages: Any, *args: Any, **kwargs: Any) -> Any:
            tracer.note("packed_messages", len(messages))
            return fn(messages, *args, **kwargs)

        return pack_batch
    return fn


def _classes(root: type, attribute: str, overrides: bool) -> List[type]:
    found = [root]
    if overrides:
        pending = list(root.__subclasses__())
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if attribute in cls.__dict__:
                found.append(cls)
    return found


@contextmanager
def installed(tracer: SpanTracer) -> Iterator[SpanTracer]:
    """Wrap every :data:`TARGETS` entry; restore the originals on exit."""
    restore: List[Tuple[Any, str, Any]] = []
    try:
        for layer, module_name, attribute, overrides in TARGETS:
            module = importlib.import_module(module_name)
            name = metric_name(layer, attribute)
            owner_key = layer == "core.endpoint"
            if "." in attribute:
                class_name, method = attribute.split(".")
                for cls in _classes(getattr(module, class_name), method, overrides):
                    original = cls.__dict__[method]
                    wrapped = tracer.wrap(name, _observe(tracer, name, original), owner_key)
                    restore.append((cls, method, original))
                    setattr(cls, method, wrapped)
                continue
            original = getattr(module, attribute)
            wrapped = tracer.wrap(name, _observe(tracer, name, original))
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        restore.append((loaded, key, original))
                        setattr(loaded, key, wrapped)
        yield tracer
    finally:
        for owner, key, original in reversed(restore):
            setattr(owner, key, original)
