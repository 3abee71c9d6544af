"""Terminal span outcomes: shed/expired/rejected close pending state.

A flow-controlled queue that sheds a header used to leave its ``sent``
span pending forever (a (seq, dst) leak mislabeled as "unmatched" after
FIFO eviction).  Now every drop path emits a terminal tracer event and the
:class:`SpanAggregator` converts it into a labeled outcome counter.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.core.communicator import HeaderQueue
from repro.core.config import FlowControlSpec
from repro.core.message import SEQ, TRACE, MsgType, make_header
from repro.core.tracing import Tracer
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import TERMINAL_KINDS, SpanAggregator


def _event(kind, source, ts=0.0, **detail):
    return SimpleNamespace(kind=kind, source=source, timestamp=ts, detail=detail)


@pytest.fixture
def aggregator():
    registry = MetricsRegistry()
    return SpanAggregator(registry, max_pending=64), registry


def _counter_value(registry, name, **labels):
    # counter() is get-or-create, so this reads the existing instrument.
    return registry.counter(name, labels).value


class TestTerminalOutcomes:
    def test_shed_closes_pending_state(self, aggregator):
        spans, _ = aggregator
        spans.observe(_event("sent", "alice", 1.0, seq=7, dst="bob",
                             type="DATA", trace=0xA))
        assert spans.pending_counts()["sent"] == 1
        spans.observe(_event("shed", "q.headers", 1.1, seq=7, dst="bob",
                             trace=0xA))
        assert spans.pending_counts()["sent"] == 0
        stats = spans.stats()
        assert stats.terminated["shed"] == 1
        assert stats.total_terminated() == 1
        assert stats.total_unmatched() == 0

    def test_each_terminal_kind_counted_separately(self, aggregator):
        spans, registry = aggregator
        for index, outcome in enumerate(TERMINAL_KINDS):
            spans.observe(_event("sent", "alice", 1.0, seq=index, dst="bob",
                                 type="DATA", trace=index + 1))
            spans.observe(_event(outcome, "q", 1.1, seq=index, dst="bob"))
        stats = spans.stats()
        for outcome in TERMINAL_KINDS:
            assert stats.terminated[outcome] == 1
            assert _counter_value(
                registry, "message_spans_terminal_total", outcome=outcome
            ) == 1

    def test_duplicate_terminal_counted_once(self, aggregator):
        # The queue and the router may both report the same rejected header.
        spans, _ = aggregator
        spans.observe(_event("sent", "alice", 1.0, seq=3, dst="bob",
                             type="DATA", trace=0xB))
        spans.observe(_event("rejected", "q", 1.1, seq=3, dst="bob"))
        spans.observe(_event("rejected", "router", 1.2, seq=3, dst="bob"))
        assert spans.stats().terminated["rejected"] == 1

    def test_partial_fanout_reject_keeps_other_destinations(self, aggregator):
        # Fan-out to bob+carol; bob's copy is rejected, carol's delivery
        # must still match the (kept-alive) sent start.
        spans, _ = aggregator
        spans.observe(_event("sent", "alice", 1.0, seq=9, dst="bob,carol",
                             type="DATA", trace=0xC))
        spans.observe(_event("rejected", "router", 1.1, seq=9, dst="bob"))
        spans.observe(_event("delivered", "carol", 1.2, seq=9, trace=0xC))
        stats = spans.stats()
        assert stats.terminated["rejected"] == 1
        assert stats.matched["deliver"] == 1
        assert stats.unmatched_ends["deliver"] == 0

    def test_terminal_without_state_is_ignored(self, aggregator):
        spans, _ = aggregator
        spans.observe(_event("shed", "q", 1.0, seq=999, dst="bob"))
        assert spans.stats().total_terminated() == 0


class TestEvictionCounters:
    def test_evictions_use_their_own_counter(self, aggregator):
        """Satellite: evicted starts are evictions, not unmatched ends."""
        spans, registry = aggregator
        for seq in range(70):  # capacity 64: the oldest six spill
            spans.observe(_event("sent", "alice", float(seq), seq=seq,
                                 dst="bob", type="DATA", trace=seq + 1))
        stats = spans.stats()
        assert sum(stats.evicted_starts.values()) >= 6
        assert stats.total_unmatched() >= 6  # still visible in the total
        assert sum(stats.unmatched_ends.values()) == 0
        evicted = _counter_value(
            registry, "message_spans_evicted_total", stage="deliver"
        )
        assert evicted >= 6
        assert _counter_value(
            registry, "message_spans_unmatched_total", stage="deliver"
        ) == 0


class TestQueueEmitsTerminals:
    def _spec(self, **overrides):
        base = dict(
            bulk_watermark=2,
            control_watermark=3,
            low_fraction=0.5,
            control_deadline_s=0.05,
        )
        base.update(overrides)
        return FlowControlSpec(**base)

    def test_bulk_shed_emits_terminal_event(self):
        tracer = Tracer()
        queue = HeaderQueue("q", self._spec(), reclaim=None)
        queue.tracer = tracer
        headers = [make_header("a", ["b"], MsgType.DATA) for _ in range(4)]
        for header in headers:
            queue.put(header)
        shed = tracer.events(kind="shed")
        assert len(shed) == 2  # two oldest beyond watermark 2
        assert {e.detail["seq"] for e in shed} == {
            headers[0][SEQ], headers[1][SEQ]
        }
        for event in shed:
            assert event.detail["trace"]  # context survived to the drop

    def test_set_pressure_shed_emits_terminal_events(self):
        tracer = Tracer()
        queue = HeaderQueue(
            "q", self._spec(bulk_watermark=8), reclaim=None
        )
        queue.tracer = tracer
        for _ in range(6):
            queue.put(make_header("a", ["b"], MsgType.DATA))
        queue.set_pressure(True)  # tightened watermark reclaims the surplus
        assert tracer.events(kind="shed")

    def test_sheds_feed_span_aggregator_outcomes(self):
        registry = MetricsRegistry()
        spans = SpanAggregator(registry)
        tracer = Tracer(sink=spans.observe)
        queue = HeaderQueue("q", self._spec(), reclaim=None)
        queue.tracer = tracer
        headers = [make_header("a", ["b"], MsgType.DATA) for _ in range(4)]
        for header in headers:
            # Senders record "sent" before the queue admits the header.
            tracer.record(
                "sent", "a", seq=header[SEQ], dst="b", type="DATA",
                trace=header[TRACE],
            )
            queue.put(header)
        stats = spans.stats()
        assert stats.terminated["shed"] == 2
        assert spans.pending_counts()["sent"] == 2  # only the live ones
