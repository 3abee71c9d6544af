"""Send and receive buffers for intra-process staging.

Each explorer/learner process maintains a send buffer and a receive buffer
(§3.2.1).  The workhorse threads only ever touch these local buffers — the
sender/receiver threads move data between the buffers and the broker's
communicator.

A buffer is one :class:`~repro.core.flowcontrol.LaneChannel` of whole
messages, so monitoring threads block on ``get`` and wake event-driven the
moment a message arrives (§4.1); a
:class:`~repro.core.config.FlowControlSpec` gives it priority lanes and
watermarks.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from .config import FlowControlSpec
from .errors import BackpressureError, BufferClosedError
from .flowcontrol import CONTROL_BLOCK, CONTROL_UNBOUNDED, lane_of, lanes_for
from .message import LANE, TYPE, Message


class MessageBuffer:
    """A closeable blocking queue of whole messages.

    ``put`` stages a message; ``get`` blocks until one is available (or the
    buffer is closed) and hands back the same object, body and cached frame
    included, so the sender thread reuses the workhorse's serialization
    work.  Order is FIFO per producer — per producer and lane under a spec.

    Under a spec the control lane follows :attr:`control_policy`:
    ``CONTROL_BLOCK`` blocks the producer up to the spec's deadline, then
    raises :class:`~repro.core.errors.BackpressureError`;
    ``CONTROL_UNBOUNDED`` never blocks.  The bulk lane sheds its oldest
    messages at the watermark and hands each to ``on_shed``; messages own
    no object-store shares, so a shed only loses the message itself.
    ``put`` raises :class:`~repro.core.errors.BufferClosedError` on a
    closed buffer — including a blocked control put woken by ``close()``.
    """

    control_policy = CONTROL_BLOCK

    def __init__(
        self,
        name: str = "",
        flow: Optional[FlowControlSpec] = None,
        *,
        on_shed: Optional[Callable[[Message], None]] = None,
    ):
        self.name = name
        self._on_shed = on_shed
        self._channel = lanes_for(f"buffer.{name}", flow, self.control_policy)
        self._deadline = flow.control_deadline_s if flow is not None else None

    def put(self, message: Message) -> None:
        self.put_many((message,))

    def put_many(self, messages: Sequence[Message]) -> None:
        """Stage several messages under one channel lock acquisition."""
        lanes = None
        if self._channel.laned:
            lanes = [lane_of(message.header.get(TYPE)) for message in messages]
            for message, lane in zip(messages, lanes):
                message.header[LANE] = lane.value
        accepted, shed, expired = self._channel.offer_many(
            messages, lanes, deadline_s=self._deadline
        )
        if shed and self._on_shed is not None:
            for lost in shed:
                self._on_shed(lost)
        if expired:
            raise BackpressureError(
                f"buffer {self.name!r}: control-lane admission deadline "
                f"({self._deadline}s) expired",
                accepted=accepted,
            )
        if accepted < len(messages):
            raise BufferClosedError(f"buffer {self.name!r} is closed")

    def get(self, timeout: Optional[float] = None) -> Optional[Message]:
        """Blocking fetch; returns ``None`` on timeout or once the buffer is
        closed and drained."""
        return self._channel.take(timeout=timeout)

    def get_many(
        self, max_items: int, timeout: Optional[float] = None
    ) -> List[Message]:
        """Block for the first message, then drain up to ``max_items`` under
        the same lock — the sender thread's per-wakeup batch."""
        return self._channel.take_many(max_items, timeout=timeout)

    def drain(self) -> List[Message]:
        """Pop every queued message without blocking."""
        return self._channel.drain()

    def empty(self) -> bool:
        return self._channel.qsize() == 0

    def qsize(self) -> int:
        return self._channel.qsize()

    @property
    def laned(self) -> bool:
        """True when a spec split the buffer into control and bulk lanes."""
        return self._channel.laned

    @property
    def total_put(self) -> int:
        return self._channel.totals()[0]

    @property
    def total_got(self) -> int:
        return self._channel.totals()[1]

    @property
    def total_shed(self) -> int:
        return self._channel.totals()[2]

    def flow_stats(self) -> dict:
        return self._channel.flow_stats()

    def close(self) -> None:
        """Wake all blocked getters and producers; ``get`` returns ``None``
        once the buffer is drained of real messages."""
        self._channel.close()

    @property
    def closed(self) -> bool:
        return self._channel.closed


class SendBuffer(MessageBuffer):
    """Staging area for messages a workhorse thread has produced.

    Under a spec, control/weights sends block the *workhorse* at the
    watermark (deadline bounded — this is where backpressure reaches the
    API surface); bulk trajectory sends shed the oldest staged rollout.
    """


class ReceiveBuffer(MessageBuffer):
    """Staging area for messages delivered to a process, awaiting use.

    The receiver thread must never block on a deadline (it would stall
    deliveries for every lane), so the control lane is unbounded here — its
    volume is already bounded upstream by the header-queue watermark.  A
    slow consumer sheds its own oldest bulk deliveries, which keeps memory
    bounded end-to-end.
    """

    control_policy = CONTROL_UNBOUNDED
