"""The broker process (§3.2.1).

A broker owns the shared-memory communicator and the algorithm-agnostic
router.  It is "totally different from the data management buffer in
existing DRL frameworks": it never interprets or stores data on behalf of
the algorithm — it only pushes messages to their destinations as fast as
possible.  Brokers in different machines are connected by a data fabric;
for PBT, brokers carry a ``rank`` and only same-rank brokers are connected
(§4.3).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..transport.fabric import Fabric
from .communicator import HeaderQueue, ShareMemCommunicator
from .concurrency import make_lock, runtime_checks_enabled
from .errors import LifecycleError
from .flowcontrol import WireCompressor, release_header_shares, wire_decode
from .object_store import ObjectStore
from .ownership import receives_ownership
from .router import AlgorithmAgnosticRouter
from .tracing import flight_dump


class Broker:
    """Communicator + router, optionally attached to an inter-machine fabric."""

    def __init__(
        self,
        name: str = "broker",
        *,
        store: Optional[ObjectStore] = None,
        fabric: Optional[Fabric] = None,
        rank: int = 0,
        on_unroutable: str = "raise",
        coalescing: Optional[Any] = None,
        flow: Optional[Any] = None,
    ):
        self.name = name
        self.rank = rank
        #: :class:`~repro.core.config.CoalescingSpec` (or None) inherited by
        #: every endpoint registered against this broker
        self.coalescing = coalescing
        #: :class:`~repro.core.config.FlowControlSpec` (or None); when set,
        #: the communicator's queues and the buffers of endpoints registered
        #: against this broker grow priority lanes and watermarks
        self.flow = flow
        self.communicator = ShareMemCommunicator(
            f"{name}.comm", store=store, flow=flow
        )
        #: adaptive fabric-boundary codec the FlowController toggles; None
        #: without flow control (and a no-op until enabled even with it)
        self.wire: Optional[WireCompressor] = None
        if flow is not None:
            self.wire = WireCompressor(
                name, min_bytes=flow.wire_compression_min_bytes
            )
            arena = getattr(self.communicator.object_store, "arena", None)
            if arena is not None and hasattr(arena, "set_watermarks"):
                arena.set_watermarks(
                    flow.arena_high_watermark, flow.arena_low_watermark
                )
        self._fabric = fabric
        self.router = AlgorithmAgnosticRouter(
            self.communicator,
            name=f"{name}.router",
            remote_send=self._remote_send if fabric is not None else None,
            on_unroutable=on_unroutable,
        )
        if fabric is not None:
            fabric.register(self.name, self._on_fabric_receive)
        self._started = False
        self._stopped = False
        self._lock = make_lock(f"{name}.lifecycle")

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        with self._lock:
            if self._started:
                raise LifecycleError(f"broker {self.name!r} already started")
            self._started = True
        self.router.start()

    def stop(self) -> None:
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
        self.router.stop()
        # Wake senders blocked on control-lane admission and wait for every
        # producer to finish its queue-side reclaims, so the refcount audit
        # below cannot race a woken producer.
        queue = self.communicator.header_queue
        queue.close()
        queue.join_producers(timeout=2.0)
        self._release_undispatched()
        try:
            if runtime_checks_enabled():
                # Refcount audit (see repro.analysis.runtime): endpoints
                # released their undrained ID queues at their own stop();
                # whatever is left in the store now is a leak.  Must run
                # before the communicator close below, which frees the
                # store's remaining entries.
                try:
                    self.communicator.object_store.assert_balanced(
                        context=f"broker {self.name!r} shutdown"
                    )
                except Exception:
                    # The channel misbehaved: preserve the last seconds of
                    # message flow for post-mortem before re-raising.
                    flight_dump("refcount_audit")
                    raise
        finally:
            self.communicator.close()
            if self._fabric is not None:
                self._fabric.unregister(self.name)

    @receives_ownership("drains shares parked by stopped senders")
    def _release_undispatched(self) -> None:
        """Release refcounts of headers the router never got to dispatch.

        The sender inserts each body with ``refcount == fan-out`` before the
        header crosses the header queue; a header still parked there at
        shutdown strands that full fan-out in the object store.
        """
        store = self.communicator.object_store
        for header in self.communicator.header_queue.drain():
            release_header_shares(store, header)
        # Headers already routed into an ID queue nobody drained (e.g. a
        # registered sink with no endpoint) hold one share each.
        for header in self.communicator.drain_parked():
            release_header_shares(store, header, shares=1)

    # -- registration -------------------------------------------------------
    def register_process(self, process_name: str) -> "HeaderQueue":
        """Register a local explorer/learner; returns its ID queue."""
        return self.communicator.register(process_name)

    def add_remote_route(self, process_name: str, remote_broker: str) -> None:
        """Teach the router that ``process_name`` lives behind another broker."""
        self.router.remote_table[process_name] = remote_broker

    # -- fabric plumbing ----------------------------------------------------
    def _remote_send(
        self, remote_broker: str, header: Dict[str, Any], body: Any, nbytes: int
    ) -> None:
        assert self._fabric is not None
        if self.wire is not None and self.wire.wants(header, body, nbytes):
            # Adaptive wire compression: trade sender CPU for link bytes
            # when the FlowController decides throughput is sagging.  The
            # reduced byte count is what a throttled NIC model charges.
            header, body, nbytes = self.wire.encode(header, body, nbytes)
        self._fabric.send(self.name, remote_broker, (header, body), nbytes)

    def _on_fabric_receive(self, item: Any) -> None:
        header, body = item
        # Always decode by header, not by local wire state: the *sending*
        # broker decides whether a body was compressed on the wire.
        header, body = wire_decode(header, body)
        self.router.on_remote_receive(header, body)
