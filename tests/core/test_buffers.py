"""Tests for send/receive buffers."""

import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.buffers import MessageBuffer, ReceiveBuffer, SendBuffer
from repro.core.message import MsgType, make_message


def _msg(body=None, dst=("learner",)):
    return make_message("explorer", list(dst), MsgType.DATA, body)


class TestMessageBuffer:
    def test_put_get_roundtrip(self):
        buffer = MessageBuffer("b")
        message = _msg(body={"x": 1})
        buffer.put(message)
        out = buffer.get(timeout=1)
        assert out is not None
        assert out.body == {"x": 1}
        assert out.seq == message.seq

    def test_fifo_order(self):
        buffer = MessageBuffer("b")
        for index in range(10):
            buffer.put(_msg(body=index))
        bodies = [buffer.get(timeout=1).body for _ in range(10)]
        assert bodies == list(range(10))

    def test_get_timeout_returns_none(self):
        buffer = MessageBuffer("b")
        assert buffer.get(timeout=0.01) is None

    def test_blocking_get_wakes_on_put(self):
        buffer = MessageBuffer("b")
        result = {}

        def getter():
            result["message"] = buffer.get(timeout=2)

        thread = threading.Thread(target=getter)
        thread.start()
        time.sleep(0.05)
        buffer.put(_msg(body="wake"))
        thread.join(timeout=2)
        assert result["message"].body == "wake"

    def test_close_wakes_blocked_getters(self):
        buffer = MessageBuffer("b")
        results = []

        def getter():
            results.append(buffer.get(timeout=5))

        threads = [threading.Thread(target=getter) for _ in range(3)]
        for thread in threads:
            thread.start()
        time.sleep(0.05)
        buffer.close()
        for thread in threads:
            thread.join(timeout=2)
        assert results == [None, None, None]

    def test_put_after_close_raises(self):
        buffer = MessageBuffer("b")
        buffer.close()
        with pytest.raises(RuntimeError, match="closed"):
            buffer.put(_msg())

    def test_drain_yields_all_queued(self):
        buffer = MessageBuffer("b")
        for index in range(5):
            buffer.put(_msg(body=index))
        assert [m.body for m in buffer.drain()] == list(range(5))
        assert buffer.empty()

    def test_qsize_tracks_content(self):
        buffer = MessageBuffer("b")
        assert buffer.qsize() == 0
        buffer.put(_msg())
        assert buffer.qsize() == 1

    def test_counters(self):
        buffer = MessageBuffer("b")
        buffer.put(_msg())
        buffer.put(_msg())
        buffer.get(timeout=1)
        assert buffer.total_put == 2
        assert buffer.total_got == 1

    def test_none_body_allowed(self):
        buffer = MessageBuffer("b")
        buffer.put(_msg(body=None))
        assert buffer.get(timeout=1).body is None

    def test_subclasses_exist(self):
        assert isinstance(SendBuffer("s"), MessageBuffer)
        assert isinstance(ReceiveBuffer("r"), MessageBuffer)

    @given(st.lists(st.integers(), min_size=1, max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_property_fifo_preserved(self, bodies):
        buffer = MessageBuffer("b")
        for body in bodies:
            buffer.put(_msg(body=body))
        out = [buffer.get(timeout=1).body for _ in bodies]
        assert out == bodies

    def test_concurrent_producers_lose_nothing(self):
        buffer = MessageBuffer("b")
        per_producer = 50

        def producer(tag):
            for index in range(per_producer):
                buffer.put(_msg(body=(tag, index)))

        threads = [threading.Thread(target=producer, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        received = [buffer.get(timeout=1) for _ in range(4 * per_producer)]
        assert all(message is not None for message in received)
        # Per-producer order is preserved even under interleaving.
        for tag in range(4):
            indices = [m.body[1] for m in received if m.body[0] == tag]
            assert indices == sorted(indices)
