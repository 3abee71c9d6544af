"""The three benchmark workloads.

Each workload builds the system from inputs generated from the seed, drives
it closed-loop from this process, checks what came out, and returns a
:class:`Measurement` of raw numbers.  Every workload runs with every
modelled cost off (no ``copy_bandwidth``, no ``ThrottledLink``, no
``step_compute_s``): :func:`guard_modelled_costs` refuses to measure
otherwise, so no number ever times a ``time.sleep`` cost model.

A run is a series of sessions.  Each session builds the deployment from
scratch, which gives one set-up sample (build until the learner consumes
its first message; inputs are generated before the clock starts), then
measures, then tears down and checks.
"""

from __future__ import annotations

import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import runtime
from repro.core.broker import Broker
from repro.core.config import CoalescingSpec, StopCondition, single_machine_config
from repro.core.endpoint import ProcessEndpoint
from repro.core.message import MsgType, make_message
from repro.core.object_store import InMemoryObjectStore, SharedMemoryObjectStore
from repro.core.serialization import serialization_copies_total
from repro.transport.link import ThrottledLink
from repro.transport.tcp import SocketFabric
from repro.transport.wire import wire_header_size

LEARNER = "learner"
#: per-source sequence number stamped into every generated message header
SEQ_KEY = "bench_i"
#: a closed-loop round that is not fully received within this many seconds
#: fails the run instead of hanging it
ROUND_TIMEOUT_S = 20.0
#: share of each transfer session spent warming up before measuring
WARMUP_SHARE = 0.2


class ModelledCostError(RuntimeError):
    """A workload was about to time a cost model instead of the program."""


def cpu_ticks() -> Tuple[int, int]:
    """``(steal, total)`` CPU ticks of the whole machine so far.

    Steal is time the hypervisor ran someone else while this machine's
    CPUs had work; ``(0, 0)`` where ``/proc/stat`` does not exist.
    """
    try:
        with open("/proc/stat", encoding="ascii") as stat:
            fields = stat.readline().split()
    except OSError:
        return 0, 0
    ticks = [int(value) for value in fields[1:]]
    return (ticks[7] if len(ticks) > 7 else 0), sum(ticks)


@dataclass
class Session:
    """One freshly built deployment: its set-up and its measured window."""

    #: build → first message consumed by the learner
    setup_s: float
    #: work units completed (trained steps, megabytes or messages delivered)
    ops: float
    measured_s: float
    cpu_s: float
    #: seconds: send→learner-receive delay per message, or the interval
    #: between consecutive training sessions on ``ppo-cartpole``
    latencies: List[float]
    #: share of the machine's CPU time stolen by the hypervisor meanwhile
    steal: float


def steal_share(before: Tuple[int, int], after: Tuple[int, int]) -> float:
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0


@dataclass
class Measurement:
    """Raw numbers of one workload run."""

    sessions: List[Session] = field(default_factory=list)
    #: messages (or rollout fragments) the generator attempted
    attempted: int = 0
    #: attempted items not delivered, plus router drops, sheds, backpressure
    #: expiries and worker errors
    failed: int = 0
    #: check name -> human-readable detail; any entry fails the workload
    failures: Dict[str, str] = field(default_factory=dict)
    #: per-layer counters read from public program state at teardown
    counters: Dict[str, float] = field(default_factory=dict)
    #: per-session readings whose run value is their median
    per_session: Dict[str, List[float]] = field(default_factory=dict)
    #: names of every check made (failed or not)
    checked: List[str] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        """Record check ``name`` (``check@where`` names the component)."""
        base, _, where = name.partition("@")
        if base not in self.checked:
            self.checked.append(base)
        if not ok and base not in self.failures:
            detail = detail or "failed"
            self.failures[base] = f"{where}: {detail}" if where else detail

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + float(value)

    def sample(self, name: str, value: float) -> None:
        self.per_session.setdefault(name, []).append(float(value))

    @property
    def ops(self) -> float:
        return sum(session.ops for session in self.sessions)

    @property
    def measured_s(self) -> float:
        return sum(session.measured_s for session in self.sessions)


# ---------------------------------------------------------------------------
# guards and checks shared by every workload
# ---------------------------------------------------------------------------
def guard_modelled_costs(
    *,
    stores: List[Any] = (),
    fabrics: List[Any] = (),
    config: Any = None,
    environments: List[Any] = (),
) -> None:
    """Raise :class:`ModelledCostError` if any cost model is switched on."""
    if config is not None:
        if config.copy_bandwidth is not None:
            raise ModelledCostError("config.copy_bandwidth is set")
        if float(config.env_config.get("step_compute_s", 0.0)) > 0:
            raise ModelledCostError("env_config.step_compute_s > 0")
        if config.transport == "sim" and len(config.machines) > 1:
            raise ModelledCostError("multi-machine sim transport throttles links")
    for store in stores:
        if getattr(store, "_copy_bandwidth", None) is not None:
            raise ModelledCostError("object store charges modelled copy time")
    for fabric in fabrics:
        nodes = list(fabric.nodes())
        for src in nodes:
            for dst in nodes:
                if isinstance(fabric.link(src, dst), ThrottledLink):
                    raise ModelledCostError(f"ThrottledLink {src}->{dst}")
    for env in environments:
        if float(getattr(env, "step_compute_s", 0.0) or 0.0) > 0:
            raise ModelledCostError(f"{type(env).__name__}.step_compute_s > 0")


class OrderCheck:
    """Exactly-once, in-order delivery per source.

    ``expect(src, i)`` is fed the per-source sequence numbers in the order
    the learner consumed them; any gap, repeat or reordering is an error.
    ``received()`` then equals the number sent when nothing was lost.
    """

    def __init__(self) -> None:
        self.next: Dict[str, int] = {}
        self.errors = 0
        self.first_error = ""

    def expect(self, src: str, index: int) -> None:
        want = self.next.get(src, 0)
        if index != want:
            self.errors += 1
            if not self.first_error:
                self.first_error = f"{src}: got #{index}, expected #{want}"
        self.next[src] = index + 1

    def received(self) -> int:
        return sum(self.next.values())


def _check_store(m: Measurement, store: Any, where: str) -> None:
    leaks = store.leak_report()
    m.check(f"leaks@{where}", not leaks, f"{len(leaks)} unreleased objects")
    arena = getattr(store, "arena", None)
    if arena is not None:
        stats = arena.stats()
        blocks = arena.leak_report()
        m.check(
            f"arena-balanced@{where}",
            not blocks and arena.total_alloc == arena.total_free,
            f"{len(blocks)} unfreed blocks, alloc={arena.total_alloc} "
            f"free={arena.total_free}",
        )
        m.add("arena.slabs", arena.total_slabs)
        m.add("arena.huge_allocs", stats.get("total_huge", 0))
        m.add("arena.leaked_blocks", len(blocks))
    m.add("store.leaked_objects", len(leaks))


def _router_counters(m: Measurement, broker: Broker) -> None:
    router = broker.router
    m.add("router.routed_local", router.routed_local)
    m.add("router.routed_remote", router.routed_remote)


def _endpoint_losses(endpoint: ProcessEndpoint) -> int:
    """Shed / backpressure counters an endpoint exposes (0 without flow)."""
    lost = endpoint.backpressure_expired
    for buffer in (endpoint.send_buffer, endpoint.receive_buffer):
        lost += int(getattr(buffer, "total_shed", 0) or 0)
    return lost


# ---------------------------------------------------------------------------
# transfer workloads: a generator thread and a learner drain thread
# ---------------------------------------------------------------------------
class _Drain:
    """The learner's consuming loop: ``receive_many`` until stopped.

    Validates per-source order, checks the checksum of every
    ``crc_every``-th message, records each message's send→receive delay,
    and wakes the generator when a round is complete.
    """

    def __init__(
        self,
        endpoint: ProcessEndpoint,
        crcs: Dict[str, List[int]],
        crc_every: int,
    ):
        self.endpoint = endpoint
        self.crcs = crcs
        self.crc_every = crc_every
        self.order = OrderCheck()
        self.crc_checked = 0
        self.crc_errors = 0
        self.bytes = 0
        self.latencies: List[float] = []
        self.record = False
        self.first_at: Optional[float] = None
        self.error: Optional[BaseException] = None
        self._received = 0
        self._cond = threading.Condition()
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="bench-drain", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        try:
            while not self._stop.is_set():
                batch = self.endpoint.receive_many(256, timeout=0.1)
                if not batch:
                    continue
                now = time.monotonic()
                if self.first_at is None:
                    self.first_at = now
                for message in batch:
                    src = message.src
                    index = message.header[SEQ_KEY]
                    self.order.expect(src, index)
                    body = message.body
                    self.bytes += len(body) if isinstance(body, bytes) else body.nbytes
                    if index % self.crc_every == 0:
                        pool = self.crcs[src]
                        self.crc_checked += 1
                        if zlib.crc32(body) != pool[index % len(pool)]:
                            self.crc_errors += 1
                if self.record:
                    self.latencies.extend(now - m.created_at for m in batch)
                with self._cond:
                    self._received += len(batch)
                    self._cond.notify_all()
        except BaseException as exc:  # noqa: BLE001 - reported as a failed check
            self.error = exc
            with self._cond:
                self._cond.notify_all()

    def wait_for(self, total: int, timeout: float) -> bool:
        deadline = time.monotonic() + timeout
        with self._cond:
            while self._received < total and self.error is None:
                left = deadline - time.monotonic()
                if left <= 0:
                    return False
                self._cond.wait(left)
        return self.error is None

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)


def _payloads(rng: np.random.Generator, count: int, nbytes: int, as_bytes: bool):
    bodies: List[Any] = []
    for _ in range(count):
        raw = rng.integers(0, 256, size=nbytes, dtype=np.uint8)
        bodies.append(raw.tobytes() if as_bytes else raw)
    return bodies, [zlib.crc32(body) for body in bodies]


@dataclass
class _Deployment:
    brokers: List[Broker]
    learner: ProcessEndpoint
    explorers: List[ProcessEndpoint]
    fabric: Optional[SocketFabric] = None

    def stores(self) -> List[Any]:
        return [broker.communicator.object_store for broker in self.brokers]


def _run_transfer(
    m: Measurement,
    *,
    seed: int,
    seconds: float,
    sessions: int,
    explorers: List[str],
    build: Callable[[List[str]], _Deployment],
    body_bytes: int,
    pool_size: int,
    round_size: int,
    as_bytes: bool,
    crc_every: int,
    op_bytes: Optional[int],
) -> None:
    """Drive ``sessions`` fresh deployments closed-loop for ``seconds`` total.

    ``op_bytes`` set: one op is that many delivered bytes; else one op is
    one delivered message.
    """
    rng = np.random.default_rng(seed)
    pools = {name: _payloads(rng, pool_size, body_bytes, as_bytes) for name in explorers}
    window = seconds / sessions
    for _ in range(sessions):
        ticks = cpu_ticks()
        started = time.monotonic()
        deployment = build(explorers)
        guard_modelled_costs(
            stores=deployment.stores(),
            fabrics=[deployment.fabric] if deployment.fabric is not None else [],
        )
        m.check("modelled-costs-off", True)
        for broker in deployment.brokers:
            broker.start()
        deployment.learner.start()
        for endpoint in deployment.explorers:
            endpoint.start()
        drain = _Drain(
            deployment.learner, {name: pools[name][1] for name in explorers}, crc_every
        )
        sent = {name: 0 for name in explorers}
        copies_before = serialization_copies_total()

        def send_round() -> int:
            for endpoint in deployment.explorers:
                bodies = pools[endpoint.name][0]
                for _ in range(round_size):
                    index = sent[endpoint.name]
                    body = bodies[index % pool_size]
                    endpoint.send(
                        make_message(
                            endpoint.name, [LEARNER], MsgType.DATA, body,
                            body_size=len(body) if as_bytes else body.nbytes,
                            extra={SEQ_KEY: index},
                        )
                    )
                    sent[endpoint.name] = index + 1
            return sum(sent.values())

        ok = True
        try:
            # The first consumed message ends set-up; warm-up rounds then
            # let the allocator and socket buffers reach steady state.
            ok = drain.wait_for(send_round(), ROUND_TIMEOUT_S)
            setup_s = (drain.first_at or time.monotonic()) - started
            warm_until = time.monotonic() + window * WARMUP_SHARE
            while ok and time.monotonic() < warm_until:
                ok = drain.wait_for(send_round(), ROUND_TIMEOUT_S)
            bytes_before = drain.bytes
            drain.record = True
            cpu0 = time.process_time()
            t0 = time.monotonic()
            deadline = t0 + window * (1.0 - WARMUP_SHARE)
            while ok and time.monotonic() < deadline:
                ok = drain.wait_for(send_round(), ROUND_TIMEOUT_S)
            elapsed = time.monotonic() - t0
            cpu_s = time.process_time() - cpu0
            drain.record = False
            ops = (drain.bytes - bytes_before) / op_bytes if op_bytes else len(drain.latencies)
            m.sessions.append(Session(
                setup_s, ops, elapsed, cpu_s, drain.latencies,
                steal_share(ticks, cpu_ticks()),
            ))
        finally:
            drain.stop()
            for endpoint in deployment.explorers:
                endpoint.stop()
            deployment.learner.stop()
        m.check("rounds-complete", ok, "a round was not fully received in time")
        m.check("worker-errors", drain.error is None, repr(drain.error))
        attempted = sum(sent.values())
        delivered = drain.order.received()
        m.attempted += attempted
        lost = attempted - delivered
        m.check(
            "exactly-once-in-order",
            drain.order.errors == 0 and lost == 0,
            drain.order.first_error or f"{lost} of {attempted} not delivered",
        )
        m.check(
            "checksums", drain.crc_errors == 0 and drain.crc_checked > 0,
            f"{drain.crc_errors} of {drain.crc_checked} sampled bodies differ",
        )
        m.check(
            "bytes-delivered",
            drain.bytes == attempted * body_bytes,
            f"{drain.bytes} received vs {attempted * body_bytes} sent",
        )
        m.add("messages.delivered", delivered)
        m.add("serialization.copies", serialization_copies_total() - copies_before)
        m.sample("endpoint.deliver_p50_s", deployment.learner.delivery_latency.quantile(0.5))
        for broker in deployment.brokers:
            _router_counters(m, broker)
        dropped = sum(broker.router.dropped for broker in deployment.brokers)
        m.add("router.dropped", dropped)
        shed = sum(
            _endpoint_losses(endpoint)
            for endpoint in [deployment.learner, *deployment.explorers]
        )
        m.failed += max(0, lost) + dropped + shed
        m.check("router-drops", dropped == 0, f"{dropped} headers dropped")
        m.check("sheds", shed == 0, f"{shed} messages shed")
        if deployment.fabric is not None:
            _check_wire(m, deployment.fabric, attempted, body_bytes)
        for index, store in enumerate(deployment.stores()):
            _check_store(m, store, deployment.brokers[index].name)
        for broker in deployment.brokers:
            broker.stop()
        if deployment.fabric is not None:
            deployment.fabric.close()


def _check_wire(m: Measurement, fabric: SocketFabric, messages: int, body_bytes: int) -> None:
    stats = fabric.link_stats()
    links = {k: v for k, v in stats.items() if not k.startswith("listen:")}
    listeners = {k: v for k, v in stats.items() if k.startswith("listen:")}
    sent = sum(s.get("bytes_sent", 0.0) for s in links.values())
    items = sum(s.get("items_sent", 0.0) for s in links.values())
    received = sum(s.get("bytes_received", 0.0) for s in listeners.values())
    items_in = sum(s.get("items_received", 0.0) for s in listeners.values())
    errors = sum(s.get("protocol_errors", 0.0) for s in listeners.values())
    # Links count framing bytes (one wire header per message plus one
    # connection handshake); listeners count message payloads only.
    residue = sent - received - items * wire_header_size(2)
    m.check(
        "wire-bytes",
        items == items_in == messages and 0 < residue < 4096
        and received > messages * body_bytes,
        f"sent {sent:.0f}B/{items:.0f} msgs, received {received:.0f}B/"
        f"{items_in:.0f} msgs, residue {residue:.0f}B",
    )
    m.check("protocol-errors", errors == 0, f"{errors:.0f} protocol errors")
    try:
        fabric.raise_errors()
    except Exception as exc:  # noqa: BLE001 - reported as a failed check
        m.check("wire-errors", False, repr(exc))
    m.add("wire.bytes_sent", sent)
    m.add("wire.bytes_received", received)
    m.add("wire.items_sent", items)
    for s in links.values():
        m.add("wire.syscalls", s.get("syscalls_total", 0.0))
        m.add("wire.partial_writes", s.get("partial_writes", 0.0))


# -- rollout-1mb-wire ----------------------------------------------------------
WIRE_BODY_BYTES = 1_000_000
WIRE_ROUND = 8


def _build_wire(explorers: List[str]) -> _Deployment:
    """The paper's §5.1 dummy topology: learner on m0, one explorer on m1,
    brokers joined by real TCP over loopback (no modelled copy cost)."""
    fabric = SocketFabric("data")
    spec = CoalescingSpec()
    brokers = [
        Broker(
            f"m{index}.broker",
            store=InMemoryObjectStore(copy_on_fetch=False),
            fabric=fabric,
            coalescing=spec,
        )
        for index in range(2)
    ]
    fabric.listen(brokers[0].name)
    fabric.connect_bidirectional(brokers[1].name, brokers[0].name)
    brokers[1].add_remote_route(LEARNER, brokers[0].name)
    learner = ProcessEndpoint(LEARNER, brokers[0])
    senders = [ProcessEndpoint(name, brokers[1]) for name in explorers]
    return _Deployment(brokers, learner, senders, fabric)


def run_wire(seed: int, seconds: float) -> Measurement:
    m = Measurement()
    _run_transfer(
        m, seed=seed, seconds=seconds, sessions=20, explorers=["m1.explorer-0"],
        build=_build_wire,
        body_bytes=WIRE_BODY_BYTES, pool_size=WIRE_ROUND, round_size=WIRE_ROUND,
        as_bytes=False, crc_every=WIRE_ROUND + 1, op_bytes=WIRE_BODY_BYTES,
    )
    return m


# -- smallmsg-1kb-shm ----------------------------------------------------------
SMALL_BODY_BYTES = 1024
SMALL_ROUND = 32


def _build_small(explorers: List[str]) -> _Deployment:
    """Explorers and the learner on one broker over the slab arena."""
    broker = Broker(
        "m0.broker", store=SharedMemoryObjectStore(), coalescing=CoalescingSpec()
    )
    learner = ProcessEndpoint(LEARNER, broker)
    senders = [ProcessEndpoint(name, broker) for name in explorers]
    return _Deployment([broker], learner, senders)


def run_small(seed: int, seconds: float) -> Measurement:
    m = Measurement()
    _run_transfer(
        m, seed=seed, seconds=seconds, sessions=20,
        explorers=["m0.explorer-0", "m0.explorer-1"], build=_build_small,
        body_bytes=SMALL_BODY_BYTES, pool_size=256, round_size=SMALL_ROUND,
        as_bytes=True, crc_every=7, op_bytes=None,
    )
    return m


# ---------------------------------------------------------------------------
# ppo-cartpole: a full XingTianSession
# ---------------------------------------------------------------------------
PPO_STEPS_PER_SESSION = 16_000
#: lowest acceptable average return (last 100 episodes) after one session;
#: random play scores about 22
PPO_RETURN_FLOOR = 60.0


def _ppo_config(seed: int):
    return single_machine_config(
        "ppo", "CartPole", "actor_critic",
        explorers=2, fragment_steps=200, copy_on_fetch=True,
        stop=StopCondition(total_trained_steps=PPO_STEPS_PER_SESSION, max_seconds=60.0),
        seed=seed,
    )


def _rollout_crc(rollout: Dict[str, Any]) -> int:
    crc = 0
    for key in sorted(rollout):
        crc = zlib.crc32(np.ascontiguousarray(rollout[key]), crc)
    return crc


class _PPOProbe:
    """Hooks set on one cluster's process *instances* (not classes): the
    first consumed rollout, training-session start times, and the per-source
    sequence and checksum of every rollout sent and consumed."""

    def __init__(self, cluster: Any):
        self.cluster = cluster
        self.first_consume: Optional[float] = None
        self.first_consume_cpu = 0.0
        self.train_starts: List[float] = []
        self.sent: Dict[str, List[Tuple[int, int]]] = {}
        self.consumed: Dict[str, List[Tuple[int, int]]] = {}
        self.weights_seen: Dict[str, List[int]] = {}
        self.stop_at: Optional[Tuple[float, float]] = None
        #: router drops before teardown began (teardown drops messages
        #: addressed to endpoints that already stopped, by design)
        self.dropped_at_stop = 0
        learner = cluster.learner
        self._hook(learner.algorithm, "train", self._on_train)
        self._hook(learner.endpoint, "receive", self._on_learner_receive)
        for explorer in cluster.explorers:
            self.sent[explorer.name] = []
            self.weights_seen[explorer.name] = []
            self._hook(explorer.endpoint, "send", self._sender(explorer.name))
            self._hook(explorer.endpoint, "receive", self._receiver(explorer.name))
        self._hook(cluster, "stop", self._on_stop)

    @staticmethod
    def _hook(obj: Any, name: str, make: Callable[[Callable], Callable]) -> None:
        setattr(obj, name, make(getattr(obj, name)))

    def _on_train(self, inner):
        def train():
            self.train_starts.append(time.monotonic())
            return inner()
        return train

    def _on_learner_receive(self, inner):
        def receive(timeout=None):
            message = inner(timeout)
            if message is not None and message.msg_type == MsgType.ROLLOUT:
                if self.first_consume is None:
                    self.first_consume = time.monotonic()
                    self.first_consume_cpu = time.process_time()
                self.consumed.setdefault(message.src, []).append(
                    (message.seq, _rollout_crc(message.body))
                )
            return message
        return receive

    def _sender(self, name: str):
        def make(inner):
            def send(message):
                if message.msg_type == MsgType.ROLLOUT:
                    self.sent[name].append((message.seq, _rollout_crc(message.body)))
                return inner(message)
            return send
        return make

    def _receiver(self, name: str):
        def make(inner):
            def receive(timeout=None):
                message = inner(timeout)
                if message is not None and message.msg_type == MsgType.WEIGHTS:
                    self.weights_seen[name].append(message.seq)
                return message
            return receive
        return make

    def _on_stop(self, inner):
        def stop():
            if self.stop_at is None:
                self.stop_at = (time.monotonic(), time.process_time())
                self.dropped_at_stop = sum(
                    machine.broker.router.dropped
                    for machine in self.cluster.machines
                )
            return inner()
        return stop


def run_ppo(seed: int, seconds: float) -> Measurement:
    m = Measurement()
    deadline = time.monotonic() + seconds
    original_build = runtime.build_cluster
    session = 0
    while session < 3 or time.monotonic() < deadline:
        config = _ppo_config(seed * 1000 + session)
        guard_modelled_costs(config=config)
        probes: List[_PPOProbe] = []

        def build(cfg, **kwargs):
            cluster = original_build(cfg, **kwargs)
            guard_modelled_costs(
                stores=[mc.broker.communicator.object_store for mc in cluster.machines],
                fabrics=[cluster.data_fabric],
                environments=[e.agent.environment for e in cluster.explorers],
            )
            m.check("modelled-costs-off", True)
            probes.append(_PPOProbe(cluster))
            return cluster

        ticks = cpu_ticks()
        started = time.monotonic()
        runtime.build_cluster = build
        try:
            result = runtime.XingTianSession(config).run()
        except Exception as exc:  # noqa: BLE001 - worker errors fail the run
            m.check("worker-errors", False, repr(exc))
            m.failed += 1
            break
        finally:
            runtime.build_cluster = original_build
        m.check("worker-errors", True)
        probe = probes[0]
        cluster = probe.cluster
        if probe.first_consume is None or probe.stop_at is None:
            m.check("rollouts-consumed", False, "the learner consumed no rollout")
            break
        stop_t, stop_cpu = probe.stop_at
        m.sessions.append(Session(
            probe.first_consume - started,
            result.total_trained_steps, stop_t - probe.first_consume,
            stop_cpu - probe.first_consume_cpu,
            np.diff(probe.train_starts).tolist(),
            steal_share(ticks, cpu_ticks()),
        ))
        m.check(
            "trained-steps",
            result.total_trained_steps >= PPO_STEPS_PER_SESSION,
            f"{result.total_trained_steps} < {PPO_STEPS_PER_SESSION}",
        )
        m.check(
            "return-floor",
            (result.average_return or 0.0) >= PPO_RETURN_FLOOR,
            f"average return {result.average_return} < {PPO_RETURN_FLOOR}",
        )
        lowest = m.counters.get("ppo.lowest_return", float("inf"))
        m.counters["ppo.lowest_return"] = min(lowest, result.average_return or 0.0)
        _check_ppo_delivery(m, probe)
        learner = cluster.learner
        m.add("learner.wait_s", learner.wait_recorder.mean() * learner.wait_recorder.count)
        m.add("learner.train_s", learner.train_recorder.mean() * learner.train_recorder.count)
        m.add("learner.sessions", learner.train_sessions)
        m.sample("endpoint.deliver_p50_s", learner.endpoint.delivery_latency.quantile(0.5))
        for machine in cluster.machines:
            _router_counters(m, machine.broker)
            _check_store(m, machine.broker.communicator.object_store, machine.broker.name)
        dropped = probe.dropped_at_stop
        m.add("router.dropped", dropped)
        m.check("router-drops", dropped == 0, f"{dropped} headers dropped")
        m.failed += dropped
        session += 1
    return m


def _check_ppo_delivery(m: Measurement, probe: _PPOProbe) -> None:
    """Rollouts: consumed in send order, once each, with intact bodies;
    at most the fragment in flight at shutdown may be missing.  Weights:
    each explorer sees strictly increasing broadcasts."""
    for name, sent in probe.sent.items():
        consumed = probe.consumed.get(name, [])
        missing = len(sent) - len(consumed)
        # The fragment an explorer staged as the run stopped was never due.
        m.attempted += len(sent) - min(max(missing, 0), 1)
        m.failed += max(0, missing - 1)
        in_order = [seq for seq, _ in consumed] == [seq for seq, _ in sent[: len(consumed)]]
        m.check(
            "exactly-once-in-order",
            in_order and 0 <= missing <= 1,
            f"{name}: {len(consumed)} consumed of {len(sent)} sent, "
            f"{'in' if in_order else 'out of'} order",
        )
        sent_crc = dict(sent)
        m.check(
            "checksums",
            all(sent_crc.get(seq) == crc for seq, crc in consumed),
            f"{name}: consumed rollout bodies differ from those sent",
        )
        seen = probe.weights_seen[name]
        m.check(
            "weights-in-order",
            all(a < b for a, b in zip(seen, seen[1:])) and len(seen) > 0,
            f"{name}: weight broadcasts out of order or missing",
        )


WORKLOADS: Dict[str, Callable[[int, float], Measurement]] = {
    "ppo-cartpole": run_ppo,
    "rollout-1mb-wire": run_wire,
    "smallmsg-1kb-shm": run_small,
}
