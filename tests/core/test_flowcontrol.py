"""Tests for the overload-control subsystem (docs/FLOW_CONTROL.md)."""

import sys
import threading
import time

import pytest

from repro.core.broker import Broker
from repro.core.buffers import ReceiveBuffer, SendBuffer
from repro.core.communicator import HeaderQueue
from repro.core.concurrency import spawn_thread
from repro.core.config import FlowControlSpec
from repro.core.endpoint import ProcessEndpoint
from repro.core.errors import BackpressureError, BufferClosedError
from repro.core.flowcontrol import (
    CONTROL_UNBOUNDED,
    Lane,
    LaneChannel,
    WireCompressor,
    lane_of,
    release_header_shares,
    wire_decode,
)
from repro.core.message import (
    DST,
    LANE,
    OBJECT_ID,
    SRC,
    TYPE,
    WIRE_CODEC,
    MsgType,
    make_header,
    make_message,
)
from repro.core.object_store import InMemoryObjectStore


def spec(**overrides) -> FlowControlSpec:
    base = dict(
        bulk_watermark=4,
        control_watermark=3,
        low_fraction=0.5,
        control_deadline_s=0.2,
    )
    base.update(overrides)
    return FlowControlSpec(**base)


class TestLanes:
    def test_control_types(self):
        for msg_type in (
            MsgType.WEIGHTS, MsgType.COMMAND, MsgType.HEARTBEAT, MsgType.STATS
        ):
            assert lane_of(msg_type) is Lane.CONTROL
        for msg_type in (MsgType.ROLLOUT, MsgType.DATA, MsgType.BATCH):
            assert lane_of(msg_type) is Lane.BULK

    def test_unknown_type_defaults_to_bulk(self):
        assert lane_of("no-such-type") is Lane.BULK
        assert lane_of(None) is Lane.BULK


class TestLaneChannel:
    def make(self, **kwargs):
        defaults = dict(bulk_watermark=4, control_watermark=3)
        defaults.update(kwargs)
        return LaneChannel("test", **defaults)

    def test_bulk_sheds_oldest_at_watermark(self):
        channel = self.make()
        shed_all = []
        for index in range(7):
            admitted, shed = channel.offer(index, Lane.BULK)
            assert admitted
            shed_all.extend(shed)
        # Watermark 4: the three oldest were shed, the four newest remain.
        assert shed_all == [0, 1, 2]
        assert [channel.take(timeout=0) for _ in range(4)] == [3, 4, 5, 6]

    def test_control_drains_before_bulk(self):
        channel = self.make()
        channel.offer("bulk-1", Lane.BULK)
        channel.offer("ctrl", Lane.CONTROL)
        channel.offer("bulk-2", Lane.BULK)
        assert channel.take(timeout=0) == "ctrl"
        assert channel.take(timeout=0) == "bulk-1"

    def test_fifo_within_each_lane(self):
        channel = self.make(bulk_watermark=16, control_watermark=16)
        for index in range(4):
            channel.offer(("b", index), Lane.BULK)
            channel.offer(("c", index), Lane.CONTROL)
        drained = channel.take_many(8, timeout=0)
        assert drained == [("c", 0), ("c", 1), ("c", 2), ("c", 3),
                           ("b", 0), ("b", 1), ("b", 2), ("b", 3)]

    def test_control_deadline_expires(self):
        channel = self.make(control_watermark=2)
        channel.offer("c1", Lane.CONTROL)
        channel.offer("c2", Lane.CONTROL)  # at the high watermark: gated
        started = time.monotonic()
        with pytest.raises(BackpressureError):
            channel.offer("c3", Lane.CONTROL, deadline_s=0.05)
        assert time.monotonic() - started < 2.0
        stats = channel.flow_stats()
        assert stats["control_expired"] == 1
        assert stats["control_blocked"] == 1

    def test_control_unblocks_below_low_watermark(self):
        channel = self.make(control_watermark=2, low_fraction=0.5)
        channel.offer("c1", Lane.CONTROL)
        channel.offer("c2", Lane.CONTROL)
        admitted = []

        def blocked_put():
            ok, _ = channel.offer("c3", Lane.CONTROL, deadline_s=5.0)
            admitted.append(ok)

        thread = threading.Thread(target=blocked_put)
        thread.start()
        time.sleep(0.05)
        assert not admitted  # still gated
        # Hysteresis: draining to the low watermark (1 <= 2*0.5) releases.
        assert channel.take(timeout=0) == "c1"
        thread.join(timeout=2)
        assert admitted == [True]
        channel.close()

    def test_close_wakes_blocked_control_producer(self):
        channel = self.make(control_watermark=1)
        channel.offer("c1", Lane.CONTROL)
        results = []

        def blocked_put():
            results.append(channel.offer("c2", Lane.CONTROL, deadline_s=30.0))

        thread = threading.Thread(target=blocked_put)
        thread.start()
        time.sleep(0.05)
        channel.close()
        thread.join(timeout=2)
        assert not thread.is_alive(), "close() must wake blocked producers"
        assert results[0][0] is False  # woken with a clean rejection

    def test_set_pressure_scales_watermark_and_sheds(self):
        channel = self.make(bulk_watermark=8, pressure_scale=0.5)
        for index in range(8):
            channel.offer(index, Lane.BULK)
        shed = channel.set_pressure(True)
        assert shed == [0, 1, 2, 3]  # scaled watermark 4 keeps the newest 4
        assert channel.qsize() == 4
        assert channel.set_pressure(True) == []  # idempotent
        channel.set_pressure(False)
        admitted, shed = channel.offer(99, Lane.BULK)
        assert admitted and shed == []  # back to the full watermark

    def test_lane_depths_and_stats(self):
        channel = self.make()
        channel.offer("b", Lane.BULK)
        channel.offer("c", Lane.CONTROL)
        assert channel.lane_depths() == {"control": 1, "bulk": 1}
        stats = channel.flow_stats()
        assert stats["bulk_put"] == 1 and stats["control_put"] == 1

    @pytest.mark.parametrize("laned", [False, True])
    def test_concurrent_batches_lose_nothing(self, laned):
        # More producers and consumers than cores, with a short switch
        # interval: a lost update in batch admission or drain would drop
        # or duplicate an entry, or skew the channel's counters.
        channel = (
            self.make(bulk_watermark=1 << 20, control_watermark=0)
            if laned else LaneChannel("test")
        )
        producers, batches, batch = 6, 40, 16
        received = []
        received_lock = threading.Lock()

        def produce(tag):
            for start in range(0, batches * batch, batch):
                items = [(tag, index) for index in range(start, start + batch)]
                lanes = [Lane.CONTROL if i % 5 == 0 else Lane.BULK
                         for i in range(start, start + batch)]
                accepted, shed, expired = channel.offer_many(items, lanes)
                assert (accepted, shed, expired) == (batch, [], False)

        def consume():
            while True:
                items = channel.take_many(7, timeout=5.0)
                if not items:
                    return
                with received_lock:
                    received.extend(items)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            consumers = [spawn_thread(f"take-{n}", consume) for n in range(3)]
            threads = [
                spawn_thread(f"offer-{tag}", produce, args=(tag,))
                for tag in range(producers)
            ]
            for thread in threads:
                thread.join(timeout=30)
            channel.close()
            for thread in consumers:
                thread.join(timeout=30)
            assert not any(t.is_alive() for t in consumers + threads)
        finally:
            sys.setswitchinterval(interval)
        expected = {(t, i) for t in range(producers) for i in range(batches * batch)}
        assert len(received) == len(expected)
        assert set(received) == expected
        put, got, shed = channel.totals()
        assert (put, got, shed) == (len(expected), len(expected), 0)


class TestLaneHeaderQueue:
    def test_put_stamps_lane(self):
        # reclaim=None: these headers carry no store shares to reclaim.
        queue = HeaderQueue("q", spec(), reclaim=None)
        header = make_header("a", ["b"], MsgType.WEIGHTS)
        assert queue.put(header)
        assert queue.get(timeout=0)[LANE] == "control"

    def test_shed_headers_reclaimed(self):
        store = InMemoryObjectStore()
        reclaimed = []

        def reclaim(header):
            reclaimed.append(header)
            release_header_shares(store, header)

        queue = HeaderQueue("q", spec(bulk_watermark=2), reclaim=reclaim)
        object_ids = []
        for index in range(4):
            object_id = store.put({"i": index}, refcount=1)
            header = make_header("a", ["b"], MsgType.DATA)
            header[OBJECT_ID] = object_id
            object_ids.append(object_id)
            queue.put(header)
        assert len(reclaimed) == 2  # two oldest shed at watermark 2
        # Their store entries were released; the two newest remain live.
        assert len(store) == 2
        assert store.leak_report()[0][0] in object_ids[2:]

    def test_put_many_returns_accepted_count(self):
        queue = HeaderQueue("q", spec(bulk_watermark=16), reclaim=None)
        headers = [make_header("a", ["b"], MsgType.DATA) for _ in range(5)]
        assert queue.put_many(headers) == 5
        queue.close()
        assert queue.put_many(headers) == 0

    def test_backpressure_error_carries_accepted_prefix(self):
        queue = HeaderQueue(
            "q", spec(control_watermark=2, control_deadline_s=0.05), reclaim=None
        )
        headers = [make_header("a", ["b"], MsgType.COMMAND) for _ in range(4)]
        with pytest.raises(BackpressureError) as exc_info:
            queue.put_many(headers)
        assert exc_info.value.accepted == 2  # gated at the watermark

    def test_unbounded_control_policy_never_blocks(self):
        queue = HeaderQueue(
            "q", spec(control_watermark=2), control_policy=CONTROL_UNBOUNDED
        )
        for _ in range(10):
            assert queue.put(make_header("a", ["b"], MsgType.COMMAND))
        assert queue.qsize() == 10

    def test_drain_returns_everything(self):
        queue = HeaderQueue("q", spec(), reclaim=None)
        queue.put(make_header("a", ["b"], MsgType.DATA))
        queue.put(make_header("a", ["b"], MsgType.WEIGHTS))
        drained = queue.drain()
        assert len(drained) == 2
        assert drained[0][LANE] == "control"  # control lane first


class TestFlowBuffers:
    def test_send_buffer_sheds_bulk_keeps_control(self):
        buffer = SendBuffer("s", spec(bulk_watermark=2))
        for index in range(5):
            buffer.put(make_message("a", ["b"], MsgType.ROLLOUT, index))
        buffer.put(make_message("a", ["b"], MsgType.WEIGHTS, "w"))
        assert buffer.total_shed == 3
        got = buffer.get_many(10, timeout=0)
        # Control first, then the two newest rollouts.
        assert [message.body for message in got] == ["w", 3, 4]

    def test_put_after_close_raises_buffer_closed(self):
        buffer = SendBuffer("s", spec())
        buffer.close()
        with pytest.raises(BufferClosedError):
            buffer.put(make_message("a", ["b"], MsgType.DATA, 1))
        # BufferClosedError is a RuntimeError: legacy shutdown paths that
        # catch RuntimeError keep working.
        assert issubclass(BufferClosedError, RuntimeError)

    def test_close_wakes_blocked_control_send(self):
        buffer = SendBuffer(
            "s", spec(control_watermark=1, control_deadline_s=30.0)
        )
        buffer.put(make_message("a", ["b"], MsgType.WEIGHTS, 0))
        errors = []

        def blocked_send():
            try:
                buffer.put(make_message("a", ["b"], MsgType.WEIGHTS, 1))
            except BufferClosedError as exc:
                errors.append(exc)

        thread = threading.Thread(target=blocked_send)
        thread.start()
        time.sleep(0.05)
        buffer.close()
        thread.join(timeout=2)
        assert not thread.is_alive()
        assert len(errors) == 1  # clean shutdown error, not a 30 s hang

    def test_receive_buffer_control_is_unbounded(self):
        buffer = ReceiveBuffer("r", spec(control_watermark=2))
        for index in range(10):
            buffer.put(make_message("a", ["b"], MsgType.WEIGHTS, index))
        assert buffer.qsize() == 10  # no blocking, no shedding

    def test_on_shed_callback(self):
        lost = []
        buffer = ReceiveBuffer(
            "r", spec(bulk_watermark=1), on_shed=lost.append
        )
        buffer.put(make_message("a", ["b"], MsgType.DATA, "old"))
        buffer.put(make_message("a", ["b"], MsgType.DATA, "new"))
        assert [message.body for message in lost] == ["old"]


class TestWireCompressor:
    def test_disabled_by_default(self):
        wire = WireCompressor("w")
        header = make_header("a", ["b"], MsgType.DATA, body_size=1 << 20)
        assert not wire.wants(header, b"x" * (1 << 20), 1 << 20)

    def test_round_trip(self):
        wire = WireCompressor("w", min_bytes=16)
        wire.set_enabled(True)
        body = {"payload": "z" * 4096}
        header = make_header("a", ["b"], MsgType.DATA, body_size=5000)
        assert wire.wants(header, body, 5000)
        encoded_header, blob, nbytes = wire.encode(header, body, 5000)
        assert encoded_header[WIRE_CODEC] == "zlib"
        assert nbytes < 5000  # compressible payload actually shrank
        decoded_header, restored = wire_decode(encoded_header, blob)
        assert restored == body
        assert decoded_header[WIRE_CODEC] is None

    def test_control_lane_never_compressed(self):
        wire = WireCompressor("w", min_bytes=16)
        wire.set_enabled(True)
        header = make_header("a", ["b"], MsgType.WEIGHTS, body_size=4096)
        assert not wire.wants(header, b"x" * 4096, 4096)

    def test_decode_passthrough_without_stamp(self):
        header = make_header("a", ["b"], MsgType.DATA)
        same_header, same_body = wire_decode(header, "body")
        assert same_header is header and same_body == "body"


class TestOptIn:
    def test_no_spec_means_plain_queues_and_buffers(self):
        broker = Broker("b")
        endpoint = ProcessEndpoint("p", broker)
        queue = broker.communicator.header_queue
        # One FIFO across message types: control does not overtake bulk.
        headers = [
            make_header("a", ["p"], msg_type)
            for msg_type in (MsgType.ROLLOUT, MsgType.WEIGHTS, MsgType.DATA)
        ] * 300
        assert queue.put_many(headers) == len(headers)
        drained = queue.get_many(len(headers), timeout=0)
        assert drained == headers  # same order, nothing shed
        assert all(LANE not in header for header in drained)  # unstamped
        for index in range(600):  # far past any default watermark
            endpoint.send_buffer.put(
                make_message("p", ["q"], MsgType.ROLLOUT, index)
            )
        assert endpoint.send_buffer.total_shed == 0
        assert [m.body for m in endpoint.send_buffer.get_many(600)] == list(
            range(600)
        )
        assert broker.communicator.flow_stats() == {}
        assert broker.communicator.lane_depths() == {}
        assert broker.wire is None
        assert endpoint.flow is None
        broker.communicator.close()

    def test_no_spec_delivery_keeps_exact_send_order(self):
        broker = Broker("b")
        broker.start()
        alice = ProcessEndpoint("alice", broker)
        bob = ProcessEndpoint("bob", broker)
        alice.start()
        bob.start()
        sent = [
            (MsgType.WEIGHTS if index % 3 == 0 else MsgType.ROLLOUT, index)
            for index in range(90)
        ]
        try:
            for msg_type, index in sent:
                alice.send(make_message("alice", ["bob"], msg_type, index))
            got = []
            deadline = time.monotonic() + 5
            while len(got) < len(sent) and time.monotonic() < deadline:
                got.extend(bob.receive_many(len(sent), timeout=0.2))
        finally:
            alice.stop()
            bob.stop()
            broker.stop()
        assert [(m.msg_type, m.body) for m in got] == sent


class TestFlowEndToEnd:
    def run_broker(self, flow, n_bulk=20, n_control=1):
        broker = Broker("b", flow=flow)
        broker.start()
        alice = ProcessEndpoint("alice", broker)
        bob = ProcessEndpoint("bob", broker)
        alice.start()
        bob.start()
        try:
            for index in range(n_bulk):
                alice.send(make_message("alice", ["bob"], MsgType.DATA, index))
            for index in range(n_control):
                alice.send(
                    make_message("alice", ["bob"], MsgType.WEIGHTS, f"w{index}")
                )
            got = []
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                message = bob.receive(timeout=0.2)
                if message is None:
                    if got:
                        break
                    continue
                got.append(message)
            return got, broker
        finally:
            alice.stop()
            bob.stop()
            broker.stop()

    def test_delivery_with_flow_enabled(self):
        got, broker = self.run_broker(spec(bulk_watermark=256))
        bodies = [m.body for m in got if m.msg_type is MsgType.DATA]
        assert bodies == list(range(20))  # per-lane FIFO intact
        assert any(m.msg_type is MsgType.WEIGHTS for m in got)

    def test_overload_sheds_bulk_but_delivers_control(self):
        got, broker = self.run_broker(spec(bulk_watermark=4), n_bulk=64)
        assert any(m.msg_type is MsgType.WEIGHTS for m in got)
        # Bounded admission: far fewer than 64 bulk messages arrive, and
        # the refcount audit at broker.stop() (runtime checks are on for
        # the whole suite) proves the shed bodies were reclaimed.
        bulk = [m for m in got if m.msg_type is MsgType.DATA]
        assert len(bulk) < 64

    def test_broker_stop_wakes_blocked_sender(self):
        # Regression (PR 6 satellite): a sender blocked on control-lane
        # admission at Broker.stop() must observe a clean shutdown, not
        # hang until its deadline.
        flow = spec(control_watermark=2, control_deadline_s=60.0)
        broker = Broker("b", flow=flow)
        broker.register_process("sink")  # routable, but never drained
        # The broker is never started: its router thread never drains the
        # header queue, so control admission backs up exactly as it would
        # behind a stalled router.
        # Fill the control lane to its watermark without blocking (the
        # gate trips once depth reaches the watermark).
        for _ in range(2):
            assert broker.communicator.header_queue.put(
                make_header("x", ["sink"], MsgType.COMMAND)
            )
        alice = ProcessEndpoint("alice", broker)
        alice.start()
        alice.send(make_message("alice", ["sink"], MsgType.COMMAND, 0))
        time.sleep(0.2)  # let the sender thread block on admission
        started = time.monotonic()
        alice.stop(timeout=1.0)  # sender still blocked: join times out
        broker.stop()  # wakes the sender; audits after join_producers()
        elapsed = time.monotonic() - started
        assert elapsed < 10.0, (
            f"shutdown took {elapsed:.1f}s: blocked sender was not woken"
        )


class TestReleaseHeaderShares:
    def test_releases_full_fanout(self):
        store = InMemoryObjectStore()
        object_id = store.put("body", refcount=3)
        header = {SRC: "a", DST: ["x", "y", "z"], TYPE: MsgType.DATA,
                  OBJECT_ID: object_id}
        release_header_shares(store, header)
        assert len(store) == 0

    def test_single_share(self):
        store = InMemoryObjectStore()
        object_id = store.put("body", refcount=2)
        header = {SRC: "a", DST: ["x", "y"], TYPE: MsgType.DATA,
                  OBJECT_ID: object_id}
        release_header_shares(store, header, shares=1)
        assert store.leak_report()[0][1] == 1

    def test_tolerates_missing_object(self):
        store = InMemoryObjectStore()
        header = {SRC: "a", DST: ["x"], TYPE: MsgType.DATA,
                  OBJECT_ID: "gone-1"}
        release_header_shares(store, header)  # must not raise

    def test_tolerates_already_released_object(self):
        store = InMemoryObjectStore()
        object_id = store.put("body", refcount=1)
        header = {SRC: "a", DST: ["x", "y"], TYPE: MsgType.DATA,
                  OBJECT_ID: object_id}
        store.release(object_id)  # another path got there first
        release_header_shares(store, header)  # must not raise
        assert len(store) == 0

    def test_other_store_errors_propagate(self):
        # Only UnknownObjectError means "already freed"; anything else is a
        # real store failure and must not be swallowed.
        class BrokenStore:
            def release(self, object_id):
                raise ValueError("store is broken")

        header = {SRC: "a", DST: ["x"], TYPE: MsgType.DATA, OBJECT_ID: "id-1"}
        with pytest.raises(ValueError):
            release_header_shares(BrokenStore(), header)
