"""The algorithm-agnostic router (§3.2.1).

The router monitors the communicator's header queue.  For every new header
it resolves the destination list:

* **local destinations** — the header (already carrying the body's object
  ID) is dropped into each destination's ID queue; the body never moves.
* **remote destinations** — the router fetches the body once per remote
  machine, ships (header, body) over the broker fabric, and the remote
  router re-inserts the body into *its* object store before fanning out the
  header to local ID queues.  Workhorse threads "will not perceive any
  difference" (§3.2.1).

The router never inspects bodies — it is algorithm agnostic.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

from .communicator import ShareMemCommunicator
from .concurrency import make_lock, spawn_thread
from .ownership import receives_ownership, transfers_ownership
from .errors import RoutingError, UnknownDestinationError
from .flowcontrol import release_header_shares
from .message import BATCH_SEQS, COMPRESSED, DST, OBJECT_ID, SEQ, TRACE, TYPE
from .tracing import Tracer, flight_recorder

RemoteSend = Callable[[str, Dict[str, Any], Any, int], None]
"""(remote_broker, header, body, nbytes) -> ship over the fabric."""

#: headers drained from the header queue per router wakeup — amortizes the
#: queue lock without starving shutdown checks
_ROUTE_DRAIN = 128


class AlgorithmAgnosticRouter:
    """Routes headers from the communicator's header queue to ID queues.

    ``remote_table`` maps destination process names to remote broker names;
    ``remote_send`` performs the actual cross-machine transfer.  Both are
    optional for single-machine deployments.
    """

    def __init__(
        self,
        communicator: ShareMemCommunicator,
        *,
        name: str = "router",
        remote_table: Optional[Dict[str, str]] = None,
        remote_send: Optional[RemoteSend] = None,
        on_unroutable: str = "raise",
    ):
        if on_unroutable not in ("raise", "drop"):
            raise ValueError("on_unroutable must be 'raise' or 'drop'")
        self.name = name
        self.communicator = communicator
        self.remote_table: Dict[str, str] = dict(remote_table or {})
        self._remote_send = remote_send
        self._on_unroutable = on_unroutable
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        # Counters are mutated from the router thread *and* from fabric
        # delivery threads (``on_remote_receive``), so they take a lock.
        self._counters_lock = make_lock(f"{name}.counters")
        self._routed_local = 0
        self._routed_remote = 0
        self._dropped = 0
        #: optional :class:`Tracer` — records one "routed" event per header
        #: (per *sub-message* for coalesced BATCH envelopes)
        self.tracer: Optional[Tracer] = None
        #: per-process flight recorder (None when disabled via env)
        self._flightrec = flight_recorder()

    # -- counters ------------------------------------------------------------
    @property
    def routed_local(self) -> int:
        with self._counters_lock:
            return self._routed_local

    @property
    def routed_remote(self) -> int:
        with self._counters_lock:
            return self._routed_remote

    @property
    def dropped(self) -> int:
        with self._counters_lock:
            return self._dropped

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = spawn_thread(self.name, self._run)

    def stop(self, timeout: float = 5.0) -> None:
        self._stop.set()
        self.communicator.header_queue.close()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None

    # -- routing ------------------------------------------------------------
    def _run(self) -> None:
        header_queue = self.communicator.header_queue
        while not self._stop.is_set():
            headers = header_queue.get_many(_ROUTE_DRAIN, timeout=0.25)
            if not headers:
                if header_queue.closed:
                    return
                continue
            for header in headers:
                try:
                    self.route(header)
                except UnknownDestinationError:
                    if self._on_unroutable == "raise":
                        raise
                    with self._counters_lock:
                        self._dropped += 1

    def route(self, header: Dict[str, Any]) -> None:
        """Dispatch one header to all destinations (public for tests)."""
        if self.tracer is not None or self._flightrec is not None:
            self._record_routed(header)
        local, remote_groups = self._partition(header[DST])
        if remote_groups:
            self._route_remote(header, remote_groups)
        for destination in local:
            self._deliver_local(destination, dict(header))

    def _record_routed(self, header: Dict[str, Any]) -> None:
        """Trace the routing decision.

        A coalesced BATCH envelope yields one "routed" event *per
        sub-message* (seq + trace context stamped by ``pack_batch``): the
        envelope is a transport artifact — its sub-messages got "sent" at
        the producing endpoint and will get "delivered" on unpack, so span
        accounting must see the same seqs here or every coalesced message
        shows up as unmatched in both directions.
        """
        dst = ",".join(header.get(DST, []))
        msg_type = str(header.get(TYPE))
        batch_seqs = header.get(BATCH_SEQS)
        if batch_seqs:
            for sub_seq, sub_trace in batch_seqs:
                if self.tracer is not None:
                    self.tracer.record(
                        "routed", self.name, seq=sub_seq, dst=dst,
                        type=msg_type, trace=sub_trace,
                    )
                if self._flightrec is not None:
                    self._flightrec.record(
                        "routed", self.name, sub_seq, sub_trace or 0
                    )
            return
        if self.tracer is not None:
            self.tracer.record(
                "routed", self.name, seq=header.get(SEQ), dst=dst,
                type=msg_type, trace=header.get(TRACE),
            )
        if self._flightrec is not None:
            self._flightrec.record(
                "routed", self.name, header.get(SEQ, -1),
                header.get(TRACE) or 0,
            )

    @receives_ownership("releases the share of an undeliverable destination")
    def _deliver_local(self, destination: str, header: Dict[str, Any]) -> None:
        """Put ``header`` on one local ID queue, releasing its refcount share
        when the destination is gone (queue closed or unregistered mid-route
        — routine when the supervisor is tearing a dead process down)."""
        delivered = False
        try:
            delivered = self.communicator.id_queue(destination).put(header)
        except RoutingError:
            delivered = False
        if delivered:
            with self._counters_lock:
                self._routed_local += 1
            return
        with self._counters_lock:
            self._dropped += 1
        if self.tracer is not None:
            # Terminal outcome: this (seq, dst) will never be delivered, so
            # span accounting closes its pending state instead of leaking it.
            self.tracer.record(
                "rejected", self.name, seq=header.get(SEQ),
                trace=header.get(TRACE), dst=destination,
                type=str(header.get(TYPE)),
            )
        release_header_shares(self.communicator.object_store, header, shares=1)

    def _partition(
        self, destinations: List[str]
    ) -> Tuple[List[str], Dict[str, List[str]]]:
        local: List[str] = []
        remote_groups: Dict[str, List[str]] = defaultdict(list)
        for destination in destinations:
            if self.communicator.is_local(destination):
                local.append(destination)
            elif destination in self.remote_table:
                remote_groups[self.remote_table[destination]].append(destination)
            else:
                raise UnknownDestinationError(
                    f"router {self.name!r}: no route to {destination!r}"
                )
        return local, dict(remote_groups)

    @receives_ownership("remote destinations never consume the local share")
    def _route_remote(
        self, header: Dict[str, Any], remote_groups: Dict[str, List[str]]
    ) -> None:
        if self._remote_send is None:
            raise UnknownDestinationError(
                f"router {self.name!r}: remote destinations "
                f"{sorted(remote_groups)} but no fabric attached"
            )
        store = self.communicator.object_store
        object_id = header.get(OBJECT_ID)
        body = store.get(object_id) if object_id is not None else None
        nbytes = header.get("body_size", 0)
        for remote_broker, group in remote_groups.items():
            remote_header = dict(header)
            remote_header[DST] = list(group)
            remote_header[OBJECT_ID] = None
            self._remote_send(remote_broker, remote_header, body, nbytes)
            with self._counters_lock:
                self._routed_remote += len(group)
        if object_id is not None:
            for group in remote_groups.values():
                for _ in group:
                    store.release(object_id)

    @transfers_ownership("re-inserted body is handed to local ID queues")
    def on_remote_receive(self, header: Dict[str, Any], body: Any) -> None:
        """Handle a (header, body) pair arriving from another machine.

        Local destinations get the body re-inserted into the local object
        store and the header fanned out to their ID queues.  Destinations
        homed behind *other* brokers are forwarded onward — the learner
        machine's broker is the data-transmission center (Fig. 2b), so
        edge-to-edge traffic transits through it.
        """
        destinations = []
        transit_groups: Dict[str, List[str]] = defaultdict(list)
        unroutable = []
        for destination in header[DST]:
            if self.communicator.is_local(destination):
                destinations.append(destination)
            elif destination in self.remote_table and self._remote_send is not None:
                transit_groups[self.remote_table[destination]].append(destination)
            else:
                unroutable.append(destination)
        for remote_broker, group in transit_groups.items():
            transit_header = dict(header)
            transit_header[DST] = list(group)
            transit_header[OBJECT_ID] = None
            self._remote_send(
                remote_broker, transit_header, body, header.get("body_size", 0)
            )
            with self._counters_lock:
                self._routed_remote += len(group)
        if unroutable:
            if self._on_unroutable == "raise":
                raise UnknownDestinationError(
                    f"router {self.name!r}: remote message for {unroutable} "
                    "has no local destination or onward route"
                )
            with self._counters_lock:
                self._dropped += len(unroutable)
        if not destinations:
            return
        object_id = (
            self.communicator.object_store.put(
                body,
                refcount=len(destinations),
                nbytes=header.get("body_size", 0),
            )
            if body is not None
            else None
        )
        for destination in destinations:
            local_header = dict(header)
            local_header[DST] = [destination]
            local_header[OBJECT_ID] = object_id
            local_header[COMPRESSED] = False
            self._deliver_local(destination, local_header)
