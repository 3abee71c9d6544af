"""Tests for the shared-memory communicator."""

import threading
import time

import pytest

from repro.core.communicator import HeaderQueue, ShareMemCommunicator
from repro.core.errors import RoutingError


class TestHeaderQueue:
    def test_put_get(self):
        queue = HeaderQueue("q", reclaim=None)
        queue.put({"seq": 1})
        assert queue.get(timeout=1) == {"seq": 1}

    def test_timeout_returns_none(self):
        assert HeaderQueue("q", reclaim=None).get(timeout=0.01) is None

    def test_close_wakes_all_waiters(self):
        queue = HeaderQueue("q", reclaim=None)
        results = []

        def waiter():
            results.append(queue.get(timeout=5))

        threads = [threading.Thread(target=waiter) for _ in range(3)]
        for thread in threads:
            thread.start()
        time.sleep(0.05)
        queue.close()
        for thread in threads:
            thread.join(timeout=2)
        assert results == [None, None, None]

    def test_put_after_close_is_dropped(self):
        queue = HeaderQueue("q", reclaim=None)
        queue.close()
        queue.put({"seq": 1})
        assert queue.get(timeout=0.05) is None

    def test_event_driven_wakeup_latency(self):
        """The paper's design: a blocked get returns the moment data lands."""
        queue = HeaderQueue("q", reclaim=None)
        latency = {}

        def waiter():
            started = time.monotonic()
            queue.get(timeout=5)
            latency["value"] = time.monotonic() - started

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.2)
        queue.put({"seq": 1})
        thread.join(timeout=2)
        # Woke well before the 5s timeout: event-driven, not polled.
        assert latency["value"] < 1.0


class TestShareMemCommunicator:
    def test_register_creates_id_queue(self):
        comm = ShareMemCommunicator()
        queue = comm.register("learner")
        assert comm.id_queue("learner") is queue
        assert comm.is_local("learner")

    def test_register_idempotent(self):
        comm = ShareMemCommunicator()
        assert comm.register("a") is comm.register("a")

    def test_unknown_id_queue_raises(self):
        comm = ShareMemCommunicator()
        with pytest.raises(RoutingError):
            comm.id_queue("ghost")

    def test_unregister_closes_queue(self):
        comm = ShareMemCommunicator()
        queue = comm.register("a")
        comm.unregister("a")
        assert queue.closed
        assert not comm.is_local("a")

    def test_local_names(self):
        comm = ShareMemCommunicator()
        comm.register("a")
        comm.register("b")
        assert sorted(comm.local_names()) == ["a", "b"]

    def test_close_closes_everything(self):
        comm = ShareMemCommunicator()
        queue_a = comm.register("a")
        comm.close()
        assert comm.header_queue.closed
        assert queue_a.closed

    def test_default_store_is_in_memory(self):
        comm = ShareMemCommunicator()
        object_id = comm.object_store.put("body")
        assert comm.object_store.get(object_id) == "body"
