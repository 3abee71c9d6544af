"""Process endpoints: send/receive buffers plus sender & receiver threads.

An explorer or learner process holds a send buffer, a receive buffer, a
sender thread and a receiver thread (§3.2.1).  The workhorse thread (rollout
worker or trainer) deals only with local buffer reads and writes; the
sender/receiver threads move data between the local buffers and the broker's
communicator, event-driven off blocking queue gets.

The endpoint is thread-backed: the paper runs these as OS processes, but the
push-vs-pull ordering and the communication-computation overlap — the
properties under study — are identical (see DESIGN.md §2).
"""

from __future__ import annotations

import logging
import threading
import time
import weakref
from typing import Any, Callable, List, Optional, Sequence

from .broker import Broker
from .buffers import ReceiveBuffer, SendBuffer
from .concurrency import make_lock, spawn_thread
from .config import CoalescingSpec
from .errors import BackpressureError, LifecycleError
from .flowcontrol import Lane, lane_of, release_header_shares
from .message import (
    BODY_SIZE,
    COMPRESSED,
    DST,
    LANE,
    OBJECT_ID,
    SEQ,
    SPAN,
    TRACE,
    TYPE,
    Message,
    MsgType,
    ensure_trace,
    pack_batch,
    unpack_batch,
)
from .ownership import receives_ownership, transfers_ownership
from .serialization import measure
from .stats import LatencyRecorder, ThroughputMeter
from .tracing import Tracer, flight_dump, flight_recorder

#: Per-wakeup drain bound when coalescing is off (amortizes queue locks
#: without changing what crosses the wire).
_DRAIN_LIMIT = 64

_LOG = logging.getLogger(__name__)


class ProcessEndpoint:
    """One logical XingTian process attached to a broker."""

    def __init__(
        self,
        name: str,
        broker: Broker,
        *,
        coalescing: Optional[CoalescingSpec] = None,
    ):
        self.name = name
        self.broker = broker
        #: small-message coalescing policy; inherited from the broker's
        #: deployment config unless overridden per endpoint
        self.coalescing = (
            coalescing if coalescing is not None
            else getattr(broker, "coalescing", None)
        )
        #: :class:`~repro.core.config.FlowControlSpec` inherited from the
        #: broker; when set, the local buffers grow priority lanes and the
        #: workhorse feels backpressure at :meth:`send`
        self.flow = getattr(broker, "flow", None)
        #: per-process flight recorder (None when disabled via env)
        self._flightrec = flight_recorder()
        self.send_buffer = SendBuffer(
            f"{name}.send", self.flow, on_shed=self._shed_recorder(f"{name}.send")
        )
        self.receive_buffer = ReceiveBuffer(
            f"{name}.recv", self.flow, on_shed=self._shed_recorder(f"{name}.recv")
        )
        #: control-lane sends abandoned because their backpressure deadline
        #: expired (written by the sender thread, read by telemetry)
        self.backpressure_expired = 0
        self._backpressure_warned = False
        self._backpressure_lock = make_lock(f"{name}.backpressure")
        self._id_queue = broker.register_process(name)
        self._sender: Optional[threading.Thread] = None
        self._receiver: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._started = False
        # Instrumentation.
        self.sent_meter = ThroughputMeter()
        self.received_meter = ThroughputMeter()
        self.delivery_latency = LatencyRecorder(f"{name}.delivery")
        #: optional :class:`Tracer` — records sent/delivered/consumed events
        self.tracer: Optional[Tracer] = None
        # Telemetry instruments (None until attach_metrics; hot paths only
        # pay a None check while telemetry is off).
        self._messages_sent: Optional[Any] = None
        self._bytes_sent: Optional[Any] = None
        self._messages_received: Optional[Any] = None
        self._bytes_received: Optional[Any] = None
        self._delivery_histogram: Optional[Any] = None
        self._coalesce_histogram: Optional[Any] = None

    def _shed_recorder(self, source: str) -> Callable[[Message], None]:
        """The ``on_shed`` callback of one local buffer.

        It holds the endpoint weakly: a strong reference would make
        endpoint and buffer a cycle that keeps a stopped endpoint (and its
        broker and store) alive until the cyclic collector runs.
        """
        endpoint = weakref.ref(self)

        def record(lost: Message) -> None:
            owner = endpoint()
            if owner is not None:
                owner._record_shed(lost, source)

        return record

    def _record_shed(self, message: Message, source: str) -> None:
        """Terminal "shed" event for a message lost in a local buffer."""
        header = message.header
        if self.tracer is not None:
            self.tracer.record(
                "shed", source, seq=header.get(SEQ),
                trace=header.get(TRACE), dst=",".join(header.get(DST) or ()),
                type=str(header.get(TYPE)), lane=header.get(LANE),
            )
        if self._flightrec is not None:
            self._flightrec.record(
                "shed", source, header.get(SEQ, -1), header.get(TRACE) or 0,
            )

    def attach_metrics(self, registry: Any) -> None:
        """Register this endpoint's counters/histograms on ``registry``."""
        labels = {"process": self.name}
        self._messages_sent = registry.counter(
            "endpoint_messages_sent_total", labels,
            help="messages staged for transmission by the workhorse",
        )
        self._bytes_sent = registry.counter(
            "endpoint_bytes_sent_total", labels,
            help="payload bytes staged for transmission",
        )
        self._messages_received = registry.counter(
            "endpoint_messages_received_total", labels,
            help="messages landed in the local receive buffer",
        )
        self._bytes_received = registry.counter(
            "endpoint_bytes_received_total", labels,
            help="payload bytes landed in the local receive buffer",
        )
        self._delivery_histogram = registry.histogram(
            "endpoint_delivery_latency_seconds", labels,
            help="message age when the receiver thread lands it",
        )
        self._coalesce_histogram = registry.histogram(
            "endpoint_coalesce_batch_size", labels,
            help="sub-messages per coalesced BATCH envelope",
        )

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        if self._started:
            raise LifecycleError(f"endpoint {self.name!r} already started")
        self._started = True
        self._sender = spawn_thread(f"{self.name}-sender", self._sender_loop)
        self._receiver = spawn_thread(f"{self.name}-receiver", self._receiver_loop)

    def stop(self, timeout: float = 5.0) -> None:
        self._stop.set()
        self.send_buffer.close()
        self.receive_buffer.close()
        self._id_queue.close()
        for thread in (self._sender, self._receiver):
            if thread is not None:
                thread.join(timeout=timeout)
        self._sender = None
        self._receiver = None
        self._release_unconsumed()

    @receives_ownership("drained headers carry shares acquired by senders")
    def _release_unconsumed(self) -> None:
        """Release refcounts of bodies still parked in the ID queue.

        A process that stops (or dies) before draining its ID queue would
        otherwise strand each undelivered body in the object store with a
        positive refcount — a leak per missed message.
        """
        store = self.broker.communicator.object_store
        for header in self._id_queue.drain():
            release_header_shares(store, header, shares=1)

    # -- workhorse-facing API ------------------------------------------------
    def send(self, message: Message) -> None:
        """Stage a message for transmission — returns immediately.

        This is the only "send" a workhorse thread performs: a local buffer
        write.  The sender thread pushes it onward asynchronously, which is
        what lets communication overlap with the computation that follows.
        """
        if message.body_size == 0 and message.body is not None:
            nbytes, frame = measure(message.body)
            message.header[BODY_SIZE] = nbytes
            if frame is not None:
                # The size came from a full serialization pass: keep the
                # frame so the sender thread's store insert reuses it
                # instead of pickling the same body a second time.
                message.frame = frame
        trace_id, span_id = ensure_trace(message.header)
        if self.tracer is not None:
            self.tracer.record(
                "sent", self.name, seq=message.seq,
                dst=",".join(message.dst), nbytes=message.body_size,
                type=str(message.msg_type), trace=trace_id, span=span_id,
            )
        if self._flightrec is not None:
            self._flightrec.record("sent", self.name, message.seq, trace_id)
        if self._messages_sent is not None:
            self._messages_sent.inc()
            self._bytes_sent.inc(message.body_size)
        try:
            self.send_buffer.put(message)
        except RuntimeError:
            if not self._stop.is_set() and not self.send_buffer.closed:
                raise
            # Shutdown is in progress; a workhorse mid-step may still try to
            # send.  Dropping the message mirrors a process being killed.

    def receive(self, timeout: Optional[float] = None) -> Optional[Message]:
        """Blocking read from the local receive buffer."""
        message = self.receive_buffer.get(timeout=timeout)
        if message is not None:
            if self.tracer is not None:
                self.tracer.record(
                    "consumed", self.name, seq=message.seq, src=message.src,
                    type=str(message.msg_type),
                    trace=message.header.get(TRACE),
                    span=message.header.get(SPAN),
                )
            if self._flightrec is not None:
                self._flightrec.record(
                    "consumed", self.name, message.seq,
                    message.header.get(TRACE) or 0,
                )
        return message

    def receive_many(
        self, max_items: int, timeout: Optional[float] = None
    ) -> List[Message]:
        """Drain up to ``max_items`` delivered messages in one buffer lock.

        Blocks up to ``timeout`` for the first message, then takes whatever
        else is already buffered — the batch-consuming counterpart of
        :meth:`receive` for workhorses that process deliveries in bulk.
        """
        messages = self.receive_buffer.get_many(max_items, timeout=timeout)
        if self.tracer is not None:
            for message in messages:
                self.tracer.record(
                    "consumed", self.name, seq=message.seq, src=message.src,
                    type=str(message.msg_type),
                    trace=message.header.get(TRACE),
                    span=message.header.get(SPAN),
                )
        if self._flightrec is not None:
            for message in messages:
                self._flightrec.record(
                    "consumed", self.name, message.seq,
                    message.header.get(TRACE) or 0,
                )
        return messages

    # -- internal threads -----------------------------------------------------
    @transfers_ownership("staged header carries the object ID across the queue")
    def _stage(self, message: Message) -> dict:
        """Insert ``message``'s body into the object store; build its header.

        The body goes in with a refcount equal to the destination fan-out;
        the returned header carries the object ID across the header queue.
        """
        store = self.broker.communicator.object_store
        refcount = max(1, len(message.dst))
        if message.body is not None:
            object_id: Optional[str] = store.put(
                message.body,
                refcount=refcount,
                nbytes=message.body_size,
                frame=message.frame,
            )
        else:
            object_id = None
        header = dict(message.header)
        header[OBJECT_ID] = object_id
        return header

    def _stage_coalesced(
        self, messages: Sequence[Message], spec: CoalescingSpec
    ) -> List[dict]:
        """Stage a drained batch, packing runs of small same-destination
        messages into BATCH envelopes.

        Only *consecutive* messages with an identical destination list are
        packed, so per-destination FIFO order is exactly what it was without
        coalescing.  Messages above the size threshold (or already BATCH,
        or body-less control headers) pass through individually.
        """
        staged: List[dict] = []
        run: List[Message] = []
        run_dst: Optional[tuple] = None
        for message in messages:
            packable = (
                message.body is not None
                and message.body_size <= spec.max_message_bytes
                and message.msg_type is not MsgType.BATCH
                # Under lanes a BATCH envelope rides the bulk lane, so
                # packing a control message into one would forfeit its
                # priority: control traffic then travels individually.
                and (
                    not self.send_buffer.laned
                    or lane_of(message.msg_type) is Lane.BULK
                )
            )
            dst_key = tuple(message.header.get(DST, ())) if packable else None
            if packable and dst_key == run_dst and len(run) < spec.max_batch:
                run.append(message)
                continue
            self._flush_run(run, staged)
            if packable:
                run = [message]
                run_dst = dst_key
            else:
                run = []
                run_dst = None
                staged.append(self._stage(message))
        self._flush_run(run, staged)
        return staged

    def _flush_run(self, run: List[Message], staged: List[dict]) -> None:
        if not run:
            return
        if len(run) == 1:
            staged.append(self._stage(run[0]))
            return
        staged.append(self._stage(pack_batch(run)))
        if self._coalesce_histogram is not None:
            self._coalesce_histogram.observe(len(run))

    @transfers_ownership("headers carry the object IDs across the queue")
    def _sender_loop(self) -> None:
        """Monitor the send buffer; push staged messages into the communicator.

        Each wakeup drains the send buffer (up to the batch cap), coalesces
        small same-destination runs when configured, inserts bodies into the
        object store with refcounts equal to their destination fan-out, and
        pushes all resulting headers onto the communicator's header queue in
        one batched put (§3.2.1).  The header queue reclaims whatever it
        sheds or rejects, so a dropped header needs nothing from here.
        """
        communicator = self.broker.communicator
        while not self._stop.is_set():
            # Re-read the spec every wakeup: the FlowController retunes the
            # coalescing threshold at runtime by swapping self.coalescing.
            spec = self.coalescing
            coalesce = spec is not None and spec.enabled
            drain = spec.max_batch if coalesce else _DRAIN_LIMIT
            messages = self.send_buffer.get_many(drain, timeout=0.25)
            if not messages:
                if self.send_buffer.closed:
                    return
                continue
            if coalesce:
                headers = self._stage_coalesced(messages, spec)
            else:
                headers = [self._stage(message) for message in messages]
            try:
                accepted = communicator.header_queue.put_many(headers)
            except BackpressureError as exc:
                # A control header hit its admission deadline: fail loudly
                # (once); the queue reclaimed it and the unenqueued rest.
                with self._backpressure_lock:
                    self.backpressure_expired += 1
                if not self._backpressure_warned:
                    self._backpressure_warned = True
                    _LOG.warning(
                        "endpoint %s: control-lane send expired under "
                        "backpressure (%s); further expiries counted silently",
                        self.name, exc,
                    )
                    # First escalation only: snapshot the last seconds of
                    # channel activity for post-mortem (docs/OBSERVABILITY.md).
                    flight_dump("backpressure")
                accepted = exc.accepted
            if accepted == 0:
                continue
            self.sent_meter.record_many(
                [max(message.body_size, 1) for message in messages]
            )

    @receives_ownership("releases the shares the senders acquired for us")
    def _receiver_loop(self) -> None:
        """Monitor the ID queue; copy bodies into the local receive buffer.

        BATCH envelopes are unpacked here — one store fetch covers the whole
        run, then each restored sub-message lands in the receive buffer
        individually, so workhorses never see the transport envelope.
        """
        communicator = self.broker.communicator
        while not self._stop.is_set():
            headers = self._id_queue.get_many(_DRAIN_LIMIT, timeout=0.25)
            if not headers:
                if self._id_queue.closed:
                    return
                continue
            deliveries: List[Message] = []
            for header in headers:
                object_id = header.get(OBJECT_ID)
                if object_id is not None:
                    body = communicator.object_store.get(object_id)
                    communicator.object_store.release(object_id)
                else:
                    body = None
                if header.get(TYPE) == MsgType.BATCH and body is not None:
                    envelope = Message(dict(header), body)
                    deliveries.extend(unpack_batch(envelope))
                    continue
                header = dict(header)
                header[OBJECT_ID] = None
                header[COMPRESSED] = False
                deliveries.append(Message(header, body))
            now = time.monotonic()  # one clock read ages the whole batch
            ages = [message.age(now) for message in deliveries]
            self.delivery_latency.record_many(ages)
            self.received_meter.record_many(
                [max(message.body_size, 1) for message in deliveries]
            )
            if self._messages_received is not None:
                self._messages_received.inc(len(deliveries))
                self._bytes_received.inc(
                    sum(message.body_size for message in deliveries)
                )
                for age in ages:
                    self._delivery_histogram.observe(max(age, 0.0))
            if self.tracer is not None:
                for message in deliveries:
                    self.tracer.record(
                        "delivered", self.name, seq=message.seq,
                        src=message.src, type=str(message.msg_type),
                        trace=message.header.get(TRACE),
                        span=message.header.get(SPAN),
                    )
            if self._flightrec is not None:
                for message in deliveries:
                    self._flightrec.record(
                        "delivered", self.name, message.seq,
                        message.header.get(TRACE) or 0,
                    )
            try:
                self.receive_buffer.put_many(deliveries)
            except RuntimeError:
                return  # receive buffer closed during shutdown


class WorkhorseThread:
    """A workhorse (rollout worker or trainer) running a step function.

    ``step_fn`` is called repeatedly until it returns ``False`` or the
    workhorse is stopped.  Exceptions are captured so a crashing workhorse
    surfaces at ``join`` instead of dying silently.
    """

    def __init__(self, name: str, step_fn: Callable[[], bool]):
        self.name = name
        self._step_fn = step_fn
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self.error: Optional[BaseException] = None

    def start(self) -> None:
        if self._thread is not None:
            raise LifecycleError(f"workhorse {self.name!r} already started")
        self._thread = spawn_thread(self.name, self._run)

    def _run(self) -> None:
        try:
            while not self._stop.is_set():
                if not self._step_fn():
                    return
        except BaseException as exc:  # noqa: BLE001 - surfaced via .error
            self.error = exc

    def stop(self) -> None:
        self._stop.set()

    def join(self, timeout: Optional[float] = None) -> None:
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    @property
    def stopping(self) -> bool:
        return self._stop.is_set()
