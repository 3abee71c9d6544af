"""The shared-memory communicator (§3.2.1).

The broker process creates a shared-memory communicator holding:

* a **header queue** — senders push message headers here the instant a body
  has been inserted into the object store;
* an **object store** — message bodies live here for zero-copy transfer;
* one **ID queue per explorer/learner process** — the router drops headers
  (carrying the body's object ID) into the queues of all destinations.

All queues expose a blocking ``get`` so monitoring threads run event-driven:
the moment a header lands, the blocked ``get`` returns and transmission
continues immediately (§4.1).
"""

from __future__ import annotations

import functools
import threading
from typing import Any, Callable, Dict, List, Optional, Sequence

from .concurrency import make_lock, runtime_checks_enabled
from .config import FlowControlSpec
from .errors import BackpressureError, RoutingError
from .flowcontrol import (
    CONTROL_BLOCK,
    CONTROL_UNBOUNDED,
    TERMINAL_EXPIRED,
    TERMINAL_REJECTED,
    TERMINAL_SHED,
    header_lane,
    lanes_for,
    release_header_shares,
)
from .message import DST, LANE, SEQ, TRACE, TYPE
from .object_store import InMemoryObjectStore, ObjectStore
from .ownership import receives_ownership
from .tracing import Tracer


class HeaderQueue:
    """A closeable blocking queue of message headers on one
    :class:`~repro.core.flowcontrol.LaneChannel`.

    Without a ``flow`` spec it is an unbounded FIFO.  With one, headers are
    stamped with their lane on admission and ride two watermarked lanes.

    Ownership of headers the queue does not deliver depends on the control
    policy:

    * ``CONTROL_BLOCK`` (the broker header queue) — the queue owns every
      header handed to ``put``/``put_many``: shed, deadline-expired and
      rejected-on-close headers all go to ``reclaim`` (outside the channel
      lock), and :meth:`join_producers` lets ``Broker.stop()`` wait until
      every producer has been woken *and* finished reclaiming, so the
      shutdown refcount audit is deterministic.
    * ``CONTROL_UNBOUNDED`` (per-destination ID queues) — shed headers go
      to ``reclaim``, but a rejected put returns ``False`` and the caller
      releases (the router already does exactly that for dead
      destinations).
    """

    def __init__(
        self,
        name: str = "",
        flow: Optional[FlowControlSpec] = None,
        *,
        reclaim: Optional[Callable[[Dict[str, Any]], None]] = None,
        control_policy: str = CONTROL_BLOCK,
    ):
        self.name = name
        self._reclaim = reclaim
        self._blocking = control_policy == CONTROL_BLOCK
        self._channel = lanes_for(name, flow, control_policy)
        self._deadline = flow.control_deadline_s if flow is not None else None
        self._inflight = 0
        self._inflight_lock = make_lock(f"{name}.inflight")
        self._inflight_idle = threading.Condition(self._inflight_lock)
        #: optional :class:`Tracer` — records one terminal event per header
        #: this queue sheds, expires, or rejects, so span aggregation sees a
        #: definite outcome instead of a forever-pending entry
        self.tracer: Optional[Tracer] = None

    @receives_ownership("dropped headers still carry their senders' shares")
    def _drop(self, outcome: str, headers: Sequence[Dict[str, Any]]) -> None:
        """Trace and reclaim headers that will never be delivered."""
        tracer = self.tracer
        if tracer is not None:
            for header in headers:
                tracer.record(
                    outcome, self.name,
                    seq=header.get(SEQ), trace=header.get(TRACE),
                    dst=",".join(header.get(DST) or ()),
                    type=str(header.get(TYPE)), lane=header.get(LANE),
                )
        if self._reclaim is not None:
            for header in headers:
                self._reclaim(header)

    def _admit(self, headers: Sequence[Dict[str, Any]]) -> int:
        lanes = None
        if self._channel.laned:
            lanes = [header_lane(header) for header in headers]
            for header, lane in zip(headers, lanes):
                header[LANE] = lane.value
        accepted, shed, expired = self._channel.offer_many(
            headers, lanes, deadline_s=self._deadline
        )
        if shed:
            self._drop(TERMINAL_SHED, shed)
        if accepted < len(headers) and self._blocking:
            # Only a blocking control lane expires, so ``expired`` implies
            # CONTROL_BLOCK; an unbounded queue's caller owns its rejects.
            rest = accepted + 1 if expired else accepted
            if expired:
                self._drop(TERMINAL_EXPIRED, headers[accepted:rest])
            self._drop(TERMINAL_REJECTED, headers[rest:])
        if expired:
            raise BackpressureError(
                f"queue {self.name!r}: control-lane admission deadline "
                f"({self._deadline}s) expired",
                accepted=accepted,
            )
        return accepted

    def _admit_tracked(self, headers: Sequence[Dict[str, Any]]) -> int:
        """:meth:`_admit`, counted as in flight for :meth:`join_producers`."""
        if not self._blocking:
            return self._admit(headers)
        with self._inflight_lock:
            self._inflight += 1
        try:
            return self._admit(headers)
        finally:
            with self._inflight_lock:
                self._inflight -= 1
                if self._inflight == 0:
                    self._inflight_idle.notify_all()

    def put(self, header: Dict[str, Any]) -> bool:
        """Enqueue ``header``; ``False`` when dropped (queue closed).

        See the class docstring for who releases a rejected header's
        shares: this queue itself under ``CONTROL_BLOCK``, the caller
        under ``CONTROL_UNBOUNDED``.
        """
        return self._admit_tracked([header]) == 1

    def put_many(self, headers: Sequence[Dict[str, Any]]) -> int:
        """Enqueue several headers under one lock; returns how many were
        enqueued.

        The count falls short when the queue is (or becomes) closed; when a
        control deadline expires the raised
        :class:`~repro.core.errors.BackpressureError` carries it as
        ``accepted``.  Under ``CONTROL_BLOCK`` the unenqueued remainder is
        reclaimed here; under ``CONTROL_UNBOUNDED`` the caller releases
        ``headers[accepted:]``.
        """
        return self._admit_tracked(headers)

    def join_producers(self, timeout: float = 2.0) -> bool:
        """Wait until no ``put``/``put_many`` is in flight.

        Called by ``Broker.stop()`` after :meth:`close`: once this returns
        ``True``, every producer woken by the close has finished reclaiming
        its rejected headers, so a refcount audit cannot race them.
        """
        with self._inflight_lock:
            return self._inflight_idle.wait_for(
                lambda: self._inflight == 0, timeout
            )

    def get(self, timeout: Optional[float] = None) -> Optional[Dict[str, Any]]:
        """Blocking get; returns ``None`` on timeout or once closed and empty."""
        return self._channel.take(timeout=timeout)

    def get_many(
        self, max_items: int, timeout: Optional[float] = None
    ) -> List[Dict[str, Any]]:
        """One blocking :meth:`get` plus a same-lock drain up to
        ``max_items`` — consumers (router, receiver threads) amortize the
        queue lock over a whole wakeup's worth of headers.  The wait stays
        inside :meth:`get` so per-layer tracing can tell blocking from
        work."""
        first = self.get(timeout=timeout)
        if first is None:
            return []
        if max_items <= 1:
            return [first]
        return [first, *self._channel.take_many(max_items - 1, timeout=0)]

    @receives_ownership("drained headers still carry their senders' shares")
    def drain(self) -> List[Dict[str, Any]]:
        """Pop and return every queued header without blocking.

        Used at shutdown to recover headers nobody will consume so their
        object-store refcounts can be released.
        """
        return self._channel.drain()

    def set_pressure(self, active: bool) -> None:
        """Tighten (or relax) bulk admission; a no-op without lanes."""
        shed = self._channel.set_pressure(active)
        if shed:
            self._drop(TERMINAL_SHED, shed)

    def close(self) -> None:
        self._channel.close()

    @property
    def closed(self) -> bool:
        return self._channel.closed

    def qsize(self) -> int:
        return self._channel.qsize()

    def lane_depths(self) -> Dict[str, int]:
        return self._channel.lane_depths()

    def flow_stats(self) -> Dict[str, float]:
        return self._channel.flow_stats()


class ShareMemCommunicator:
    """Header queue + object store + per-destination ID queues.

    The communicator is algorithm-agnostic: it never inspects bodies, only
    headers (§3.2.1).  Destination processes register to receive an ID
    queue; the router resolves header destinations to these queues.
    """

    def __init__(
        self,
        name: str = "communicator",
        store: Optional[ObjectStore] = None,
        *,
        flow: Optional[FlowControlSpec] = None,
    ):
        self.name = name
        self.flow = flow
        self.object_store: ObjectStore = store if store is not None else InMemoryObjectStore()
        # Under a spec senders feel backpressure here: control blocks with
        # a deadline, bulk sheds its oldest headers.  Whatever the queue
        # sheds or rejects it reclaims — a sender never releases a header
        # it has handed over.  Reclaim callbacks bind the store, not the
        # communicator, so no queue holds its owner in a reference cycle.
        self.header_queue = HeaderQueue(
            f"{name}.headers",
            flow,
            reclaim=functools.partial(release_header_shares, self.object_store),
        )
        self._id_queues: Dict[str, HeaderQueue] = {}
        self._lock = make_lock(f"{name}.registry")
        self._tracer: Any = None

    # -- tracing -----------------------------------------------------------
    def set_tracer(self, tracer: Any) -> None:
        """Attach a tracer to every queue (current and future): shed,
        expired and rejected headers then leave terminal trace events
        instead of silently vanishing."""
        with self._lock:
            self._tracer = tracer
            queues = list(self._id_queues.values())
        for queue in [self.header_queue, *queues]:
            queue.tracer = tracer

    # -- registration -----------------------------------------------------
    def register(self, process_name: str) -> HeaderQueue:
        """Create (or return) the ID queue for a local process."""
        with self._lock:
            id_queue = self._id_queues.get(process_name)
            if id_queue is None:
                # ID queues never block the router (one slow destination
                # must not stall every other lane), so their control lane
                # is unbounded; the broker header queue already bounds
                # control volume upstream.  A shed routed header holds one
                # share.
                id_queue = HeaderQueue(
                    f"{self.name}.id.{process_name}",
                    self.flow,
                    reclaim=functools.partial(
                        release_header_shares, self.object_store, shares=1
                    ),
                    control_policy=CONTROL_UNBOUNDED,
                )
                id_queue.tracer = self._tracer
                self._id_queues[process_name] = id_queue
            return id_queue

    def unregister(self, process_name: str) -> None:
        with self._lock:
            id_queue = self._id_queues.pop(process_name, None)
        if id_queue is not None:
            id_queue.close()

    def id_queue(self, process_name: str) -> HeaderQueue:
        with self._lock:
            try:
                return self._id_queues[process_name]
            except KeyError:
                raise RoutingError(
                    f"no ID queue registered for {process_name!r} on {self.name!r}"
                ) from None

    def local_names(self) -> List[str]:
        with self._lock:
            return list(self._id_queues)

    def queue_depths(self) -> Dict[str, int]:
        """Current depth of every per-process ID queue (telemetry probe)."""
        with self._lock:
            queues = dict(self._id_queues)
        return {name: id_queue.qsize() for name, id_queue in queues.items()}

    def _per_queue(self, stat: str) -> Dict[str, Dict[str, Any]]:
        """``stat()`` of every queue that reports one (telemetry probe)."""
        with self._lock:
            queues = dict(self._id_queues)
        named = [("headers", self.header_queue)]
        named.extend((f"id.{name}", queue) for name, queue in queues.items())
        return {
            name: value for name, queue in named if (value := getattr(queue, stat)())
        }

    def lane_depths(self) -> Dict[str, Dict[str, int]]:
        """Per-lane depth of every queue; empty without a spec, when every
        queue is a single lane."""
        return self._per_queue("lane_depths")

    def flow_stats(self) -> Dict[str, Dict[str, float]]:
        """Backpressure counters of every queue; empty without a spec."""
        return self._per_queue("flow_stats")

    def set_pressure(self, active: bool) -> None:
        """Tighten (or relax) bulk admission on every queue.

        Pulled by the FlowController when arena occupancy crosses its high
        watermark; a no-op without a spec.
        """
        with self._lock:
            queues = list(self._id_queues.values())
        self.header_queue.set_pressure(active)
        for id_queue in queues:
            id_queue.set_pressure(active)

    def is_local(self, process_name: str) -> bool:
        with self._lock:
            return process_name in self._id_queues

    @receives_ownership("parked headers still carry their senders' shares")
    def drain_parked(self) -> List[Dict[str, Any]]:
        """Pop every header still parked in any ID queue (shutdown path).

        Each returned header holds one object-store refcount share that its
        destination will never fetch-and-release; the broker releases them
        so the shutdown refcount audit measures real accounting bugs, not
        teardown order.
        """
        with self._lock:
            queues = list(self._id_queues.values())
        headers: List[Dict[str, Any]] = []
        for id_queue in queues:
            headers.extend(id_queue.drain())
        return headers

    # -- shutdown ----------------------------------------------------------
    def close(self) -> None:
        self.header_queue.close()
        with self._lock:
            queues = list(self._id_queues.values())
        for id_queue in queues:
            id_queue.close()
        # OS-backed stores hold segments / arena slabs that outlive their
        # entries; in-memory stores make this a no-op.  Under runtime checks
        # the close also audits the arena's block accounting.
        self.object_store.close(audit=runtime_checks_enabled())
