"""The learner process (§3.2.1).

Hosts the trainer workhorse thread — almost symmetric to the explorer.  The
trainer consumes ROLLOUT messages from the local receive buffer (into which
the asynchronous channel has already pushed them, possibly while a previous
training session was still running — the overlap the paper exploits),
feeds them to the :class:`Algorithm`, trains whenever the algorithm says it
is ready, and stages WEIGHTS broadcasts.

Instrumented with exactly the quantities the paper's figures report:

* consumed rollout steps/second (throughput, Figs. 8–10a);
* *actual wait* — time the trainer spends blocked on data before a training
  session starts (Figs. 8–10b and the CDF in Fig. 8c);
* per-session training time.
"""

from __future__ import annotations

import time
from typing import Any, Callable, List, Optional

from ..api.algorithm import Algorithm
from .broker import Broker
from .checkpoint import Checkpointer
from .endpoint import ProcessEndpoint, WorkhorseThread
from .errors import WorkerCrashedError
from .message import CMD_SHUTDOWN, MsgType, make_message
from .serialization import payload_nbytes
from .stats import LatencyRecorder, ProcessStats, ThroughputMeter


class LearnerProcess:
    """The learner: endpoint + trainer thread + an :class:`Algorithm`."""

    def __init__(
        self,
        name: str,
        broker: Broker,
        algorithm_factory: Callable[[], Algorithm],
        explorer_names: List[str],
        *,
        controller_name: Optional[str] = None,
        stats_interval: float = 0.5,
        broadcast_initial_weights: bool = True,
        heartbeat_interval: Optional[float] = None,
        checkpointer: Optional[Checkpointer] = None,
    ):
        self.name = name
        self.endpoint = ProcessEndpoint(name, broker)
        self.algorithm = algorithm_factory()
        self.explorer_names = list(explorer_names)
        self.controller_name = controller_name
        self.stats_interval = stats_interval
        self._broadcast_initial = broadcast_initial_weights
        #: seconds between HEARTBEAT messages to the controller (None = off)
        self.heartbeat_interval = heartbeat_interval
        self._last_heartbeat = time.monotonic()
        self.heartbeats_sent = 0
        #: periodic weight + optimizer-state snapshots for crash recovery
        self.checkpointer = checkpointer
        self.workhorse = WorkhorseThread(f"{name}.trainer", self._step)
        # Instrumentation (the paper's Figs. 8-10 quantities).
        self.consumed_meter = ThroughputMeter()
        self.wait_recorder = LatencyRecorder(f"{name}.actual-wait")
        self.train_recorder = LatencyRecorder(f"{name}.train-time")
        self.train_sessions = 0
        self.broadcasts = 0
        self._wait_started: Optional[float] = None
        self._last_stats = time.monotonic()
        self._trained_steps_since_stats = 0
        self._sessions_since_stats = 0
        # Telemetry instruments (None until attach_metrics).
        self._wait_histogram: Optional[Any] = None
        self._train_histogram: Optional[Any] = None
        self._sessions_counter: Optional[Any] = None
        self._trained_steps_counter: Optional[Any] = None
        self._broadcasts_counter: Optional[Any] = None

    def attach_metrics(self, registry: Any) -> None:
        """Register trainer wait/train histograms and progress counters."""
        labels = {"process": self.name}
        self._wait_histogram = registry.histogram(
            "trainer_wait_seconds", labels,
            help="actual wait: idle time before a training session starts",
        )
        self._train_histogram = registry.histogram(
            "trainer_train_seconds", labels,
            help="wall time of one training session",
        )
        self._sessions_counter = registry.counter(
            "trainer_train_sessions_total", labels,
            help="completed training sessions",
        )
        self._trained_steps_counter = registry.counter(
            "trainer_trained_steps_total", labels,
            help="rollout steps consumed by training",
        )
        self._broadcasts_counter = registry.counter(
            "trainer_broadcasts_total", labels,
            help="weight broadcasts staged for explorers",
        )

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        self.endpoint.start()
        if self._broadcast_initial:
            self._broadcast(self.explorer_names)
        self.workhorse.start()

    def stop(self, timeout: float = 5.0) -> None:
        self.workhorse.stop()
        self.endpoint.stop(timeout=timeout)
        self.workhorse.join(timeout=timeout)

    def join(self, timeout: Optional[float] = None, *, raise_on_error: bool = True) -> None:
        """Wait for the trainer; re-raise a captured crash by default."""
        self.workhorse.join(timeout=timeout)
        error = self.workhorse.error
        if raise_on_error and error is not None:
            raise WorkerCrashedError(
                f"learner {self.name!r} workhorse crashed: {error!r}"
            ) from error

    # -- trainer loop -----------------------------------------------------------
    def _step(self) -> bool:
        self._maybe_send_heartbeat()
        if self._wait_started is None:
            self._wait_started = time.monotonic()
        message = self.endpoint.receive(timeout=0.05)
        if message is None:
            if self.endpoint.receive_buffer.closed or self.workhorse.stopping:
                return False
            return True
        if message.msg_type == MsgType.COMMAND:
            return getattr(message.body, "name", None) != CMD_SHUTDOWN
        if message.msg_type != MsgType.ROLLOUT:
            return True

        steps = len(message.body.get("reward", ())) if message.body else 0
        self.algorithm.prepare_data(message.body, source=message.src)

        trained = False
        while self.algorithm.ready_to_train():
            # A burst of back-to-back training sessions can outlast the
            # failure detector's dead_after; keep beating inside the loop.
            self._maybe_send_heartbeat()
            # "Actual wait": from going idle to having enough data to train.
            if self._wait_started is not None:
                waited = time.monotonic() - self._wait_started
                self.wait_recorder.record(waited)
                if self._wait_histogram is not None:
                    self._wait_histogram.observe(waited)
                self._wait_started = None
            train_started = time.monotonic()
            with self.train_recorder.time():
                metrics = self.algorithm.train()
            if self._train_histogram is not None:
                self._train_histogram.observe(time.monotonic() - train_started)
                self._sessions_counter.inc()
            self.train_sessions += 1
            self._sessions_since_stats += 1
            trained = True
            consumed = int(metrics.get("trained_steps", steps))
            self.consumed_meter.record(consumed)
            if self._trained_steps_counter is not None:
                self._trained_steps_counter.inc(consumed)
            self._trained_steps_since_stats += consumed
            if self.algorithm.should_broadcast():
                self._broadcast(self.algorithm.broadcast_targets(self.explorer_names))
            # Report progress inside the burst too: a replay learner catching
            # up on a large backlog (DQN right after learn_start) can train
            # for many seconds before leaving this loop, and the controller's
            # total_trained_steps stop condition must not wait for that.
            self._maybe_send_stats()
        if trained:
            self._wait_started = time.monotonic()
            if self.checkpointer is not None:
                self.checkpointer.maybe_save(self.algorithm)
        self._maybe_send_stats()
        return True

    def _broadcast(self, targets: List[str]) -> None:
        if not targets:
            return
        weights = self.algorithm.get_weights()
        message = make_message(
            self.name,
            list(targets),
            MsgType.WEIGHTS,
            weights,
            body_size=payload_nbytes(weights),
        )
        self.endpoint.send(message)
        self.broadcasts += 1
        if self._broadcasts_counter is not None:
            self._broadcasts_counter.inc()

    def _maybe_send_heartbeat(self) -> None:
        if self.heartbeat_interval is None or self.controller_name is None:
            return
        now = time.monotonic()
        if now - self._last_heartbeat < self.heartbeat_interval:
            return
        self._last_heartbeat = now
        self.endpoint.send(
            make_message(self.name, [self.controller_name], MsgType.HEARTBEAT, None)
        )
        self.heartbeats_sent += 1

    def _maybe_send_stats(self) -> None:
        if self.controller_name is None:
            return
        now = time.monotonic()
        if now - self._last_stats < self.stats_interval:
            return
        self._last_stats = now
        report = ProcessStats(
            source=self.name,
            train_iterations=self._sessions_since_stats,
            extra={"trained_steps": float(self._trained_steps_since_stats)},
        )
        self._sessions_since_stats = 0
        self._trained_steps_since_stats = 0
        self.endpoint.send(
            make_message(self.name, [self.controller_name], MsgType.STATS, report)
        )
