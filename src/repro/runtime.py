"""One-call run API: build a cluster from a config, run it, return results.

``XingTianSession`` is what the examples and benchmarks use::

    config = single_machine_config("ppo", "CartPole", "actor_critic",
                                   explorers=4,
                                   stop=StopCondition(total_trained_steps=20_000))
    result = XingTianSession(config).run()
    print(result.throughput_steps_per_s, result.average_return)
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .cluster import Cluster, build_cluster
from .core.config import XingTianConfig
from . import algorithms as _algorithms  # noqa: F401 - populate the registry
from . import envs as _envs  # noqa: F401 - populate the registry


@dataclass
class RunResult:
    """Everything the paper's figures need from one run."""

    elapsed_s: float
    shutdown_reason: str
    total_env_steps: int
    total_trained_steps: int
    train_sessions: int
    average_return: Optional[float]
    episode_count: int
    returns: List[float] = field(default_factory=list)
    #: learner-consumed rollout steps/s — the paper's throughput metric
    throughput_steps_per_s: float = 0.0
    #: (t, steps/s) series for throughput-over-time plots (Figs. 8-10a)
    throughput_series: List[Tuple[float, float]] = field(default_factory=list)
    #: trainer blocked-on-data time stats (Figs. 8-10b, 8c)
    mean_wait_s: float = 0.0
    wait_cdf: List[Tuple[float, float]] = field(default_factory=list)
    mean_train_s: float = 0.0
    extra: Dict[str, float] = field(default_factory=dict)
    #: ``repro.obs`` JSON snapshot when ``config.telemetry`` is set
    metrics: Dict[str, Any] = field(default_factory=dict)


class XingTianSession:
    """Owns a cluster for the duration of one run."""

    def __init__(self, config: XingTianConfig):
        config.validate()
        self.config = config
        self.cluster: Optional[Cluster] = None
        self.telemetry: Optional[Any] = None

    def run(self, poll_interval: float = 0.05) -> RunResult:
        """Start the deployment, wait for the stop condition, tear down."""
        cluster = build_cluster(self.config)
        self.cluster = cluster
        telemetry = None
        spec = self.config.telemetry
        flow = self.config.flow_control
        if spec is not None and spec.enabled:
            from .obs import Telemetry

            telemetry = Telemetry.from_spec(spec)
        elif flow is not None:
            # Flow control's feedback loop reads the sampler's gauges, so a
            # flow-enabled run gets an internal telemetry pipeline even when
            # the config left telemetry off.  Spans stay disabled: only the
            # sampler/controller threads run, and RunResult.metrics stays
            # empty (the user did not ask for a snapshot).
            from .obs import Telemetry

            telemetry = Telemetry(
                sample_interval=flow.adapt_interval_s, spans=False
            )
        if telemetry is not None:
            if flow is not None:
                telemetry.enable_flow_control(flow)
            telemetry.attach_cluster(cluster)
        self.telemetry = telemetry
        supervisor = cluster.center.supervisor
        started = time.monotonic()
        cluster.start()
        if telemetry is not None:
            telemetry.start()
        try:
            while True:
                reason = cluster.center.should_stop()
                if reason is not None:
                    cluster.center.shutdown_reason = reason
                    break
                if supervisor is not None:
                    # A workhorse crash may be restartable; let the
                    # supervisor decide.  It raises TrainingFailedError
                    # only once the run is unrecoverable.
                    supervisor.check()
                else:
                    cluster.raise_worker_errors()
                time.sleep(poll_interval)
        finally:
            elapsed = time.monotonic() - started
            result = self._collect(cluster, elapsed)
            if telemetry is not None:
                telemetry.stop()  # final sample before queues drain away
            cluster.stop()
            if telemetry is not None and spec is not None and spec.enabled:
                result.metrics = telemetry.snapshot(
                    meta={"elapsed_s": round(elapsed, 6)}
                )
            if supervisor is None:
                cluster.raise_worker_errors()
        return result

    def _collect(self, cluster: Cluster, elapsed: float) -> RunResult:
        learner = cluster.learner
        collector = cluster.center.collector
        meter = learner.consumed_meter
        extra: Dict[str, float] = {}
        if cluster.center.supervisor is not None:
            extra["failures"] = float(collector.failures)
            extra["restarts"] = float(collector.restarts)
        return RunResult(
            elapsed_s=elapsed,
            shutdown_reason=cluster.center.shutdown_reason or "",
            total_env_steps=collector.total_env_steps,
            total_trained_steps=int(meter.total),
            train_sessions=learner.train_sessions,
            average_return=collector.average_return(),
            episode_count=collector.episode_count(),
            returns=collector.returns(),
            throughput_steps_per_s=meter.total / max(elapsed, 1e-9),
            throughput_series=meter.series(bucket=1.0),
            mean_wait_s=learner.wait_recorder.mean(),
            wait_cdf=learner.wait_recorder.cdf(),
            mean_train_s=learner.train_recorder.mean(),
            extra=extra,
        )


def run_config(config: XingTianConfig) -> RunResult:
    """Convenience wrapper: build, run, and tear down in one call."""
    return XingTianSession(config).run()
