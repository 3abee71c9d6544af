"""Adaptive overload control: priority lanes, watermarks, backpressure.

The broker degrades *gracefully* instead of silently when producers outrun
consumers (docs/FLOW_CONTROL.md).  The pieces that live here:

* :class:`LaneChannel` — the one queue primitive under the broker header
  queue, the per-destination ID queues and the endpoint buffers
  (:class:`~repro.core.communicator.HeaderQueue`,
  :class:`~repro.core.buffers.MessageBuffer`).  Without a
  :class:`~repro.core.config.FlowControlSpec` it is a single unbounded
  FIFO lane.  A spec turns on two lanes: the **control** lane (weights,
  commands, heartbeats, stats) drains first and blocks its producer with
  a deadline at the high watermark; the **bulk** lane (rollouts, generic
  data, batch envelopes) sheds its *oldest* entry past the watermark — in
  DRL the freshest trajectory is the most on-policy one, so old experience
  is the right thing to lose.  Within a lane FIFO order is untouched, so
  per-(destination, lane) ordering is exactly what it was without lanes.

* :func:`release_header_shares` — the one place a header's object-store
  shares are released on a path that may race another release (shed,
  rejected, parked at shutdown).

* :class:`WireCompressor` — the broker's adaptive fabric-boundary codec
  the :class:`~repro.obs.flowcontroller.FlowController` switches on when
  link throughput sags.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from enum import Enum
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from .compression import get_codec
from .concurrency import make_lock
from .config import FlowControlSpec
from .errors import BackpressureError, UnknownObjectError
from .message import DST, LANE, OBJECT_ID, TYPE, WIRE_CODEC, MsgType
from .serialization import deserialize, serialize

#: Terminal trace-event kinds: a message that hits one of these will never
#: see "delivered"/"consumed", so span aggregation closes its pending state
#: instead of leaking it (see repro.obs.spans and docs/OBSERVABILITY.md).
TERMINAL_SHED = "shed"
TERMINAL_EXPIRED = "expired"
TERMINAL_REJECTED = "rejected"
TERMINAL_KINDS = frozenset({TERMINAL_SHED, TERMINAL_EXPIRED, TERMINAL_REJECTED})


class Lane(str, Enum):
    """Priority lanes: control overtakes bulk under load."""

    CONTROL = "control"
    BULK = "bulk"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Message types that ride the control lane.  Weight broadcasts are control
#: traffic: a stale-weights explorer produces off-policy rollouts, which is
#: strictly worse than a late trajectory.
CONTROL_TYPES = frozenset(
    {MsgType.WEIGHTS, MsgType.COMMAND, MsgType.HEARTBEAT, MsgType.STATS}
)


def lane_of(msg_type: Any) -> Lane:
    """The lane a message type rides (unknown types default to bulk)."""
    if msg_type.__class__ is not MsgType:
        try:
            msg_type = MsgType(msg_type)
        except (ValueError, TypeError):
            return Lane.BULK
    return Lane.CONTROL if msg_type in CONTROL_TYPES else Lane.BULK


def header_lane(header: Dict[str, Any]) -> Lane:
    """The lane of a header: its stamped LANE field, else its type's lane."""
    stamped = header.get(LANE)
    if stamped is not None:
        try:
            return Lane(stamped)
        except ValueError:
            return Lane.BULK
    return lane_of(header.get(TYPE))


class _LaneCounters:
    """Per-lane accounting, mutated only under the channel lock."""

    __slots__ = ("put", "got", "shed", "blocked", "block_seconds", "expired")

    def __init__(self) -> None:
        self.put = 0
        self.got = 0
        self.shed = 0
        self.blocked = 0
        self.block_seconds = 0.0
        self.expired = 0


def _pop_into(queue: Deque[Any], out: List[Any], limit: int) -> int:
    """Move up to ``limit`` entries from the front of ``queue`` to ``out``."""
    count = min(limit, len(queue))
    if count == len(queue):
        out.extend(queue)
        queue.clear()
    else:
        popleft = queue.popleft
        out.extend([popleft() for _ in range(count)])
    return count


class LaneChannel:
    """Closeable blocking channel: one FIFO lane, or two lanes with watermarks.

    Without a ``bulk_watermark`` the channel is an unbounded FIFO: every
    entry rides one lane whatever lane it is offered on, nothing is shed
    and nothing blocks.  A ``bulk_watermark`` turns on the two lanes and
    their admission control.  ``control_watermark == 0`` then leaves the
    control lane unbounded (used by per-destination ID queues, where
    blocking would stall the router for every destination; the bound is
    enforced upstream at the broker header queue).  ``set_pressure(True)``
    scales the bulk watermark by ``pressure_scale`` — the
    admission-tightening hook the FlowController pulls when arena occupancy
    crosses its watermark.

    Admission and consumption are batched: :meth:`offer_many` admits a
    whole batch and :meth:`take_many` drains one, each under a single lock
    acquisition.
    """

    def __init__(
        self,
        name: str,
        *,
        bulk_watermark: Optional[int] = None,
        control_watermark: int = 0,
        low_fraction: float = 0.5,
        pressure_scale: float = 0.5,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.name = name
        self._clock = clock
        #: False for the single-lane FIFO built without a bulk watermark
        self.laned = bulk_watermark is not None
        self._bulk_high = max(1, int(bulk_watermark)) if self.laned else 0
        self._control_high = max(0, int(control_watermark)) if self.laned else 0
        # The release point must sit strictly below the gate point or the
        # hysteresis latch opens the instant it closes (degenerate at
        # control_watermark == 1, where the low watermark must be 0).
        self._control_low = min(
            max(0, self._control_high - 1),
            int(self._control_high * low_fraction),
        )
        self._pressure_scale = pressure_scale
        self._lock = make_lock(f"flow.{name}")
        self._not_empty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)
        self._control: Deque[Any] = deque()
        self._bulk: Deque[Any] = deque()
        self._control_counts = _LaneCounters()
        self._bulk_counts = _LaneCounters()
        # Consumers parked in take_many: producers notify only when one is.
        self._waiting_takers = 0
        self._gated = False  # control-lane hysteresis latch
        self._pressure = False
        self._closed = False

    # -- admission -----------------------------------------------------------
    def _effective_bulk_high(self) -> int:
        if self._pressure:
            return max(1, int(self._bulk_high * self._pressure_scale))
        return self._bulk_high

    def _control_gated(self) -> bool:
        """Hysteresis: gate at the high watermark, release below the low."""
        depth = len(self._control)
        if self._gated:
            if depth <= self._control_low:
                self._gated = False
        elif depth >= self._control_high:
            self._gated = True
        return self._gated

    def _await_control_locked(self, deadline_s: Optional[float]) -> bool:
        """Block (lock held) until the control gate opens.

        Returns ``False`` when the deadline expires; a close also ends the
        wait, which the caller detects through ``self._closed``.
        """
        counters = self._control_counts
        counters.blocked += 1
        wait_start = self._clock()
        deadline = None if deadline_s is None else wait_start + deadline_s
        try:
            while not self._closed and self._control_gated():
                if deadline is None:
                    self._not_full.wait(1.0)
                    continue
                remaining = deadline - self._clock()
                if remaining <= 0:
                    counters.expired += 1
                    return False
                self._not_full.wait(remaining)
            return True
        finally:
            counters.block_seconds += self._clock() - wait_start

    def _wake_takers(self, count: int) -> None:
        if count and self._waiting_takers:
            self._not_empty.notify(count)

    def offer_many(
        self,
        items: Sequence[Any],
        lanes: Optional[Sequence[Lane]] = None,
        *,
        deadline_s: Optional[float] = None,
    ) -> Tuple[int, List[Any], bool]:
        """Admit ``items`` in order under one lock; returns
        ``(accepted, shed, expired)``.

        ``lanes`` names each item's lane; without it (or on a single-lane
        channel) the whole batch is appended to the FIFO in one step.  Bulk
        admission always succeeds on an open channel but may shed the
        oldest queued bulk entries (returned so the caller can reclaim any
        resources they own — never under the channel lock).  Control
        admission blocks while the lane is gated, up to ``deadline_s`` per
        item.  ``accepted`` is the admitted prefix: it falls short when the
        channel is (or becomes) closed, or when ``items[accepted]`` expired
        at its deadline (``expired`` is then True).
        """
        with self._lock:
            shed: List[Any] = []
            if self._closed:
                return 0, shed, False
            if lanes is None or not self.laned:
                self._bulk.extend(items)
                self._bulk_counts.put += len(items)
                self._wake_takers(len(items))
                return len(items), shed, False
            accepted = pending = 0
            expired = False
            bulk_counters = self._bulk_counts
            control_counters = self._control_counts
            for item, lane in zip(items, lanes):
                if lane is Lane.BULK:
                    queue = self._bulk
                    high = self._effective_bulk_high()
                    while len(queue) >= high:
                        shed.append(queue.popleft())
                        bulk_counters.shed += 1
                    queue.append(item)
                    bulk_counters.put += 1
                else:
                    if self._control_high > 0 and self._control_gated():
                        # Wake consumers for what this batch already queued:
                        # only they can drain the lane below its low mark.
                        self._wake_takers(pending)
                        pending = 0
                        if not self._await_control_locked(deadline_s):
                            expired = True
                            break
                        if self._closed:
                            break
                    self._control.append(item)
                    control_counters.put += 1
                accepted += 1
                pending += 1
            self._wake_takers(pending)
            return accepted, shed, expired

    def offer(
        self, item: Any, lane: Lane, *, deadline_s: Optional[float] = None
    ) -> Tuple[bool, List[Any]]:
        """Admit one ``item``; returns ``(admitted, shed)``.

        Raises :class:`~repro.core.errors.BackpressureError` when a gated
        control admission outlives ``deadline_s``.
        """
        accepted, shed, expired = self.offer_many(
            (item,), (lane,), deadline_s=deadline_s
        )
        if expired:
            raise BackpressureError(
                f"channel {self.name!r}: control-lane admission deadline "
                f"({deadline_s}s) expired"
            )
        return accepted == 1, shed

    # -- consumption ---------------------------------------------------------
    def _pop_locked(self, max_items: int) -> List[Any]:
        """Control-first drain of up to ``max_items`` entries (lock held)."""
        items: List[Any] = []
        if self._control:
            self._control_counts.got += _pop_into(self._control, items, max_items)
            self._not_full.notify_all()
        if self._bulk and len(items) < max_items:
            self._bulk_counts.got += _pop_into(
                self._bulk, items, max_items - len(items)
            )
        return items

    def _wait_locked(self, timeout: Optional[float]) -> bool:
        """Block (lock held) until an entry is queued; ``False`` on timeout
        or once the channel is closed and empty."""
        deadline = None if timeout is None else self._clock() + timeout
        while not (self._control or self._bulk):
            if self._closed:
                return False
            if deadline is None:
                self._not_empty.wait(1.0)
                continue
            remaining = deadline - self._clock()
            if remaining <= 0:
                return False
            self._not_empty.wait(remaining)
        return True

    def take(self, timeout: Optional[float] = None) -> Optional[Any]:
        """Blocking control-first pop; None on timeout or once closed+empty."""
        items = self.take_many(1, timeout=timeout)
        return items[0] if items else None

    def take_many(
        self, max_items: int, timeout: Optional[float] = None
    ) -> List[Any]:
        """Block for the first entry, then drain up to ``max_items`` under
        the same lock (control lane first); ``[]`` on timeout or once
        closed and empty."""
        with self._lock:
            if not (self._control or self._bulk):
                self._waiting_takers += 1
                try:
                    ready = self._wait_locked(timeout)
                finally:
                    self._waiting_takers -= 1
                if not ready:
                    return []
            return self._pop_locked(max(1, max_items))

    def drain(self) -> List[Any]:
        """Pop everything without blocking (control lane first)."""
        with self._lock:
            items = list(self._control) + list(self._bulk)
            self._control.clear()
            self._bulk.clear()
            self._not_full.notify_all()
            return items

    # -- pressure / lifecycle -------------------------------------------------
    def set_pressure(self, active: bool) -> List[Any]:
        """Tighten (or relax) bulk admission; returns freshly shed entries.

        A no-op on a single-lane channel, which has no watermark to scale.
        """
        shed: List[Any] = []
        with self._lock:
            if not self.laned or self._pressure == active:
                return shed
            self._pressure = active
            if active:
                queue = self._bulk
                high = self._effective_bulk_high()
                counters = self._bulk_counts
                while len(queue) > high:
                    shed.append(queue.popleft())
                    counters.shed += 1
            return shed

    def close(self) -> None:
        """Close and wake every blocked producer and consumer."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._not_empty.notify_all()
            self._not_full.notify_all()

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    # -- introspection --------------------------------------------------------
    def _lane_state(self) -> Tuple[Tuple[Lane, Deque[Any], _LaneCounters], ...]:
        return (
            (Lane.CONTROL, self._control, self._control_counts),
            (Lane.BULK, self._bulk, self._bulk_counts),
        )

    def qsize(self) -> int:
        with self._lock:
            return len(self._control) + len(self._bulk)

    def totals(self) -> Tuple[int, int, int]:
        """``(put, got, shed)`` summed over both lanes."""
        with self._lock:
            control, bulk = self._control_counts, self._bulk_counts
            return (
                control.put + bulk.put,
                control.got + bulk.got,
                control.shed + bulk.shed,
            )

    def lane_depths(self) -> Dict[str, int]:
        """Per-lane depth; empty for a single-lane channel."""
        if not self.laned:
            return {}
        with self._lock:
            return {str(lane): len(queue) for lane, queue, _ in self._lane_state()}

    def flow_stats(self) -> Dict[str, float]:
        """Backpressure accounting for the telemetry sampler; empty for a
        single-lane channel, which has no backpressure to report."""
        if not self.laned:
            return {}
        with self._lock:
            stats: Dict[str, float] = {"pressure": float(self._pressure)}
            for lane, queue, counters in self._lane_state():
                prefix = str(lane)
                stats[f"{prefix}_depth"] = float(len(queue))
                stats[f"{prefix}_put"] = float(counters.put)
                stats[f"{prefix}_got"] = float(counters.got)
                stats[f"{prefix}_shed"] = float(counters.shed)
                stats[f"{prefix}_blocked"] = float(counters.blocked)
                stats[f"{prefix}_block_seconds"] = counters.block_seconds
                stats[f"{prefix}_expired"] = float(counters.expired)
            return stats


#: How a queue treats its control lane once a spec turns lanes on.
CONTROL_BLOCK = "block"  # block-with-deadline (header queue, send buffer)
CONTROL_UNBOUNDED = "unbounded"  # never block (ID queues, receive buffer)


def lanes_for(
    name: str, spec: Optional[FlowControlSpec], control_policy: str
) -> LaneChannel:
    """The channel a queue of ``control_policy`` runs on under ``spec``:
    a single FIFO lane without a spec, two watermarked lanes with one."""
    if spec is None:
        return LaneChannel(name)
    return LaneChannel(
        name,
        bulk_watermark=spec.bulk_watermark,
        control_watermark=(
            spec.control_watermark if control_policy == CONTROL_BLOCK else 0
        ),
        low_fraction=spec.low_fraction,
        pressure_scale=spec.pressure_scale,
    )


class WireCompressor:
    """Adaptive fabric-boundary compression for bulk-lane bodies.

    Off by default; the FlowController enables it when a link's throughput
    sags (CPU-for-bandwidth, the same trade the store-level
    :class:`~repro.core.compression.CompressionPolicy` makes at rest).
    ``encode`` serializes+compresses the body and rewrites the wire byte
    count, so a throttled NIC model charges the compressed size; ``decode``
    on the receiving broker restores the original body before routing.
    """

    def __init__(self, name: str, *, codec: str = "zlib", min_bytes: int = 1 << 10):
        self.name = name
        self.codec = codec
        self.min_bytes = min_bytes
        self._enabled = False
        self._lock = make_lock(f"wire.{name}")
        self.compressed_total = 0
        self.bytes_in = 0
        self.bytes_out = 0

    @property
    def enabled(self) -> bool:
        with self._lock:
            return self._enabled

    def set_enabled(self, active: bool) -> None:
        with self._lock:
            self._enabled = active

    def wants(self, header: Dict[str, Any], body: Any, nbytes: int) -> bool:
        return (
            self.enabled
            and body is not None
            and nbytes >= self.min_bytes
            and header.get(WIRE_CODEC) is None
            and header_lane(header) is Lane.BULK
        )

    def encode(
        self, header: Dict[str, Any], body: Any, nbytes: int
    ) -> Tuple[Dict[str, Any], Any, int]:
        blob = get_codec(self.codec).compress(serialize(body))
        header = dict(header)
        header[WIRE_CODEC] = self.codec
        with self._lock:
            self.compressed_total += 1
            self.bytes_in += max(0, int(nbytes))
            self.bytes_out += len(blob)
        return header, blob, len(blob)

    def decode(
        self, header: Dict[str, Any], body: Any
    ) -> Tuple[Dict[str, Any], Any]:
        return wire_decode(header, body)

    def stats(self) -> Dict[str, float]:
        with self._lock:
            return {
                "enabled": float(self._enabled),
                "compressed_total": float(self.compressed_total),
                "bytes_in": float(self.bytes_in),
                "bytes_out": float(self.bytes_out),
            }


def wire_decode(header: Dict[str, Any], body: Any) -> Tuple[Dict[str, Any], Any]:
    """Restore a body the sending broker compressed at the fabric boundary.

    Driven purely by the header's ``WIRE_CODEC`` stamp so a receiving broker
    decodes correctly regardless of its own wire-compression state.
    """
    codec = header.get(WIRE_CODEC)
    if codec is None:
        return header, body
    restored = deserialize(get_codec(codec).decompress(body))
    header = dict(header)
    header[WIRE_CODEC] = None
    return header, restored


def release_header_shares(
    store: Any, header: Dict[str, Any], *, shares: Optional[int] = None
) -> None:
    """Release ``shares`` object-store refcounts held by ``header``.

    ``shares=None`` releases the full destination fan-out (a header that
    never crossed the router still owns one share per destination); ID
    queues pass ``shares=1`` (the router already split the fan-out).
    Already-released bodies are tolerated — reclamation races shutdown.
    """
    object_id = header.get(OBJECT_ID)
    if object_id is None:
        return
    if shares is None:
        shares = max(1, len(header.get(DST) or ()))
    for _ in range(shares):
        try:
            store.release(object_id)
        except UnknownObjectError:  # already freed (late shed/shutdown)
            break
