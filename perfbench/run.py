"""The repository benchmark.

Runs one workload, checks its outputs, and prints every metric by name with
its unit; the last line of standard output is one JSON object::

    python3 perfbench/run.py --workload ppo-cartpole --seed 1 --seconds 20 --trace 0

Workloads (closed loop, driven from one process by at most two load
threads, every modelled cost off; see ``BENCHMARK.json``):

* ``ppo-cartpole`` — lock-step PPO training on CartPole, a full
  ``XingTianSession`` with 2 explorer threads and 200-step fragments;
* ``rollout-1mb-wire`` — 1 MB bodies from an explorer on m1 to the learner
  on m0 over a loopback TCP ``SocketFabric``, rounds of 8;
* ``smallmsg-1kb-shm`` — 1 KB bodies from two explorers to the learner on
  one broker over the shared-memory slab arena, rounds of 32 per explorer.

A run builds the deployment afresh several times (sessions); each session
gives one set-up time and one measured window.  Set-up time is the median
over all sessions; the other metrics are medians over the half of the
sessions during which the hypervisor stole the least CPU (other tenants
of the host), so a burst of steal does not set the figure.

``--trace 0`` runs the workload once in a fresh process and reports the
end-to-end metrics.  ``--trace 1`` runs it twice, untraced and traced, each
in a fresh process, and reports the per-layer metrics of the traced run plus
the tracing overhead (traced versus untraced end-to-end numbers); its spans
are written under ``.perfbench/`` in the checkout.

A failed correctness check prints the failure, reports no metric, and exits
with status 1.  A checkout without ``src/repro`` exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPAN_DIR = os.path.join(ROOT, ".perfbench")
#: the whole invocation must end within this many seconds
BUDGET_S = 170.0

WORKLOADS = {
    "ppo-cartpole": (
        "trained step",
        "closed loop: 2 explorer threads x 200-step fragments, lock-step PPO, "
        "fresh XingTianSession per 16k trained steps",
    ),
    "rollout-1mb-wire": (
        "MB delivered",
        "closed loop: 1 generator thread, rounds of 8 x 1 MB, m1 -> m0 over "
        "loopback TCP, fresh deployment per session",
    ),
    "smallmsg-1kb-shm": (
        "message delivered",
        "closed loop: 1 generator thread, rounds of 32 x 1 KB per explorer "
        "(2 explorers), one broker over the slab arena",
    ),
}

#: name -> unit, in print order
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "cpu_us_per_op": "us",
    "lat_p50_ms": "ms",
    "lat_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

#: the workload-specific name each generic metric stands for
ALIASES = {
    "ppo-cartpole": {
        "ops_per_s": "train_steps_per_s",
        "lat_p50_ms": "iter_p50",
        "lat_tail_ms": "iter_p90",
    },
    "rollout-1mb-wire": {
        "ops_per_s": "wire_mb_per_s",
        "lat_p50_ms": "msg_p50",
        "lat_tail_ms": "msg_p95",
    },
    "smallmsg-1kb-shm": {
        "ops_per_s": "msgs_per_s",
        "lat_p50_ms": "msg_p50",
        "lat_tail_ms": "msg_p95",
    },
}

#: wrapped functions (see layers.TARGETS) whose call count is reported
CALLS = [
    "core.endpoint.send", "core.endpoint.receive", "core.endpoint.receive_many",
    "core.message.pack_batch", "core.message.unpack_batch",
    "core.communicator.put", "core.communicator.put_many",
    "core.communicator.get", "core.communicator.get_many",
    "core.router.route", "core.router.on_remote_receive",
    "core.object_store.put", "core.object_store.get", "core.object_store.release",
    "core.arena.alloc", "core.arena.free",
    "core.serialization.make_frame", "core.serialization.serialize",
    "core.serialization.deserialize", "core.serialization.measure",
    "transport.tcp.send", "transport.wire.encode_message",
    "transport.wire.decode_message",
    "api.agent.run_fragment", "api.agent.set_weights", "envs.step",
    "api.algorithm.prepare_data", "api.algorithm.train",
    "api.algorithm.get_weights",
    "cluster.build_cluster", "cluster.start", "cluster.stop",
]
#: wrapped functions every workload calls, whose self time is reported
SELF_TIMES = [
    "core.endpoint.send",
    "core.communicator.put", "core.communicator.put_many",
    "core.communicator.get_many",
    "core.router.route",
    "core.object_store.put", "core.object_store.get", "core.object_store.release",
    "core.serialization.make_frame", "core.serialization.deserialize",
]
#: calls that block waiting for work; the rest are the blocking path's work
WAITS = {"core.communicator.get", "core.endpoint.receive", "core.endpoint.receive_many"}

PER_LAYER: Dict[str, str] = {}
PER_LAYER.update({f"{name}.calls": "count" for name in CALLS})
PER_LAYER.update({f"{name}.self_s": "s" for name in SELF_TIMES})
PER_LAYER.update({
    "core.endpoint.recv_wait_s": "s",
    "core.endpoint.deliver_p50_s": "s",
    "core.message.msgs_per_envelope": "ratio",
    "core.communicator.headers_per_put": "ratio",
    "core.communicator.max_queue_depth": "count",
    "core.router.routed_local": "count",
    "core.router.routed_remote": "count",
    "core.router.dropped": "count",
    "core.arena.slabs": "count",
    "core.arena.huge_allocs": "count",
    "core.object_store.leaked": "count",
    "core.serialization.copies": "count",
    "transport.tcp.syscalls_per_message": "ratio",
    "transport.tcp.partial_writes": "count",
    "transport.tcp.bytes_sent": "B",
    "transport.tcp.bytes_received": "B",
    "api.algorithm.learner_wait_share": "ratio",
    "cluster.first_consume_s": "s",
    "process.minor_faults_per_op": "count",
    "process.steal_share": "ratio",
    "coverage.op_s": "s",
    "coverage.explained_share": "ratio",
    "coverage.unexplained_s": "s",
    "trace_overhead.ops_per_s_pct": "%",
    "trace_overhead.lat_p50_pct": "%",
})


class BenchError(RuntimeError):
    """The benchmark could not run (not a failed correctness check)."""


def run_child(workload: str, seed: int, seconds: float, trace: bool,
              timeout: float) -> Dict[str, Any]:
    """Run measure.py in a fresh interpreter; return its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    command = [
        sys.executable, os.path.join(HERE, "measure.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    if trace:
        os.makedirs(SPAN_DIR, exist_ok=True)
        command += ["--spans", os.path.join(SPAN_DIR, f"spans-{workload}-seed{seed}.tsv.gz")]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} did not finish within {timeout:.0f}s") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(
            f"{workload} exited with status {done.returncode}:\n{done.stderr[-4000:]}"
        )
    result = json.loads(lines[-1])
    if not os.path.abspath(result["repro_file"]).startswith(SRC + os.sep):
        raise BenchError(f"repro imported from {result['repro_file']}, not {SRC}")
    return result


def end_to_end(r: Dict[str, Any]) -> Dict[str, float]:
    return {
        "setup_s": r["setup_s"],
        "ops_per_s": r["ops_per_s"],
        "cpu_us_per_op": r["cpu_s_per_op"] * 1e6,
        "lat_p50_ms": r["lat_p50_s"] * 1e3,
        "lat_tail_ms": r["lat_tail_s"] * 1e3,
        "peak_rss_mb": r["peak_rss_mb"],
    }


def per_layer(traced: Dict[str, Any], plain: Dict[str, Any]) -> Dict[str, float]:
    table = traced["layers"]
    counters = traced["counters"]
    observed = traced["observed"]

    def calls(name: str) -> float:
        return table.get(name, [0, 0.0, 0.0])[0]

    def self_s(name: str) -> float:
        return table.get(name, [0, 0.0, 0.0])[2]

    def total(name: str) -> float:
        return table.get(name, [0, 0.0, 0.0])[1]

    out: Dict[str, float] = {f"{name}.calls": calls(name) for name in CALLS}
    out.update({f"{name}.self_s": self_s(name) for name in SELF_TIMES})
    items = counters.get("wire.items_sent", 0.0)
    wait = counters.get("learner.wait_s", 0.0)
    train = counters.get("learner.train_s", 0.0)
    out.update({
        "core.endpoint.recv_wait_s": total("core.endpoint.receive@learner")
        + total("core.endpoint.receive_many@learner"),
        "core.endpoint.deliver_p50_s": traced["per_session"].get("endpoint.deliver_p50_s", 0.0),
        "core.message.msgs_per_envelope": (
            observed.get("packed_messages", 0.0) / calls("core.message.pack_batch")
            if calls("core.message.pack_batch") else 0.0
        ),
        "core.communicator.headers_per_put": (
            observed.get("headers_put", 0.0) / calls("core.communicator.put_many")
            if calls("core.communicator.put_many") else 0.0
        ),
        "core.communicator.max_queue_depth": observed.get("max_queue_depth", 0.0),
        "core.router.routed_local": counters.get("router.routed_local", 0.0),
        "core.router.routed_remote": counters.get("router.routed_remote", 0.0),
        "core.router.dropped": counters.get("router.dropped", 0.0),
        "core.arena.slabs": counters.get("arena.slabs", 0.0),
        "core.arena.huge_allocs": counters.get("arena.huge_allocs", 0.0),
        "core.object_store.leaked": counters.get("store.leaked_objects", 0.0)
        + counters.get("arena.leaked_blocks", 0.0),
        "core.serialization.copies": counters.get("serialization.copies", 0.0),
        "transport.tcp.syscalls_per_message": (
            counters.get("wire.syscalls", 0.0) / items if items else 0.0
        ),
        "transport.tcp.partial_writes": counters.get("wire.partial_writes", 0.0),
        "transport.tcp.bytes_sent": counters.get("wire.bytes_sent", 0.0),
        "transport.tcp.bytes_received": counters.get("wire.bytes_received", 0.0),
        "api.algorithm.learner_wait_share": wait / (wait + train) if wait + train else 0.0,
        "cluster.first_consume_s": traced["setup_s"],
        "process.minor_faults_per_op": traced["minor_faults"] / traced["ops"],
        "process.steal_share": traced["steal_all"],
    })
    out.update(coverage(traced))
    base, with_trace = end_to_end(plain), end_to_end(traced)
    out["trace_overhead.ops_per_s_pct"] = (
        (base["ops_per_s"] - with_trace["ops_per_s"]) / base["ops_per_s"] * 100.0
    )
    out["trace_overhead.lat_p50_pct"] = (
        (with_trace["lat_p50_ms"] - base["lat_p50_ms"]) / base["lat_p50_ms"] * 100.0
    )
    return out


def coverage(traced: Dict[str, Any]) -> Dict[str, float]:
    """How much of the time per op the blocking path's spans account for.

    ``ppo-cartpole``: per training iteration, the learner's wait for
    rollouts plus prepare/train/get-weights/broadcast.  Transfer
    workloads: per message, the self time of every traced call on the
    send -> route -> socket -> deliver path, waits excluded.
    """
    table = traced["layers"]
    if traced["workload"] == "ppo-cartpole":
        iterations = traced["counters"].get("learner.sessions", 0.0) or 1.0
        op_s = traced["measured_s"] / iterations
        path = sum(
            table.get(name, [0, 0.0, 0.0])[1]
            for name in (
                "core.endpoint.receive@learner", "core.endpoint.send@learner",
                "api.algorithm.prepare_data", "api.algorithm.train",
                "api.algorithm.get_weights",
            )
        ) / iterations
    else:
        messages = traced["counters"].get("messages.delivered", 0.0) or 1.0
        op_s = traced["measured_s"] / (traced["messages_measured"] or 1)
        path = sum(
            entry[2] for name, entry in table.items()
            if "@" not in name and name not in WAITS and not name.startswith("cluster.")
        ) / messages
    return {
        "coverage.op_s": op_s,
        "coverage.explained_share": path / op_s,
        "coverage.unexplained_s": op_s - path,
    }


def fmt(value: float) -> str:
    return f"{value:.6g}"


def describe(r: Dict[str, Any], metrics: Dict[str, float]) -> List[str]:
    name = r["workload"]
    unit, shape = WORKLOADS[name]
    alias = ALIASES[name]
    tail = r["lat_tail_pct"]
    lines = [
        f"# {name} seed={r['seed']}: {shape}; {r['wall_s']:.1f}s wall",
        f"# medians over the {r['kept']} of {r['sessions']} sessions with the least "
        f"hypervisor steal ({100 * r['steal_kept']:.1f}% vs {100 * r['steal_all']:.1f}% "
        "median of all)",
    ]
    kept = f"median of {r['kept']} sessions"
    notes = {
        "setup_s": f"median of all {r['sessions']} sessions; build -> learner "
        "consumes its first message",
        "ops_per_s": f"= {alias['ops_per_s']}; {kept}; {r['ops']:.0f} x {unit} "
        f"in {r['measured_s']:.2f}s measured over all sessions",
        "cpu_us_per_op": f"{kept}; process CPU per {unit}",
        "lat_p50_ms": f"= {alias['lat_p50_ms']}_s {metrics['lat_p50_ms'] / 1e3:.6g}; "
        f"{kept}' p50; n={r['lat_n']}",
        "lat_tail_ms": f"= {alias['lat_tail_ms']}_s {metrics['lat_tail_ms'] / 1e3:.6g}; "
        + (f"{kept}' p{tail}" if r["lat_tail_per_session"] else f"p{tail} of those sessions pooled")
        + f"; n={r['lat_n']}",
        "peak_rss_mb": "peak resident memory of the workload process",
    }
    for key, unit_name in END_TO_END.items():
        lines.append(f"  {key:<16} {fmt(metrics[key]):>12} {unit_name:<4} {notes[key]}")
    if r["lat_p99_s"] is not None:
        lines.append(
            f"  {'msg_p99_s':<16} {fmt(r['lat_p99_s']):>12} {'s':<4} "
            f"{kept}' p99 (printed, not gated); n={r['lat_n']}"
        )
    if "ppo.lowest_return" in r["counters"]:
        lines.append(
            f"  {'lowest_return':<16} {fmt(r['counters']['ppo.lowest_return']):>12} {'':<4} "
            "lowest per-session average return (last 100 episodes)"
        )
    attempted, failed = r["attempted"], r["failed"]
    lines.append(
        f"  {'fail_ratio':<16} {fmt(failed / attempted if attempted else 0.0):>12} {'':<4} "
        f"{failed} failed of {attempted} attempted (undelivered + router drops + sheds + worker errors)"
    )
    return lines


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2

    started = time.monotonic()
    try:
        plain = run_child(args.workload, args.seed, args.seconds, False, BUDGET_S / (1 + args.trace))
        traced: Optional[Dict[str, Any]] = None
        if args.trace:
            traced = run_child(
                args.workload, args.seed, args.seconds, True,
                BUDGET_S - (time.monotonic() - started),
            )
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    runs = [plain] + ([traced] if traced is not None else [])
    failures = {k: v for r in runs for k, v in r["failures"].items()}
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    checked = sorted({c for r in runs for c in r["checked"]})
    if failures or not plain["kept"]:
        for check, detail in sorted(failures.items()):
            print(f"FAILED check {check}: {detail}")
        if not failures:
            print("FAILED: the workload completed no measured work")
        print(json.dumps({
            "correct": False, "attempted": max(1, attempted), "failed": failed, "metrics": {},
        }))
        return 1

    metrics = end_to_end(plain)
    for line in describe(plain, metrics):
        print(line)
    print(f"  checks ok: {', '.join(checked)}")
    if traced is not None:
        layer_metrics = per_layer(traced, plain)
        print(f"# traced run ({traced.get('spans_written', 0)} spans kept); per-layer:")
        for key, value in layer_metrics.items():
            print(f"  {key:<46} {fmt(value):>14} {PER_LAYER[key]}")
        print("# self time of every traced function (calls, total_s, self_s):")
        for key, (n, total_s, self_s) in sorted(traced["layers"].items()):
            print(f"  {key:<46} {n:>9} {total_s:>12.6f} {self_s:>12.6f}")
        reported = {k: {"value": v, "unit": PER_LAYER[k]} for k, v in layer_metrics.items()}
    else:
        reported = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    print(json.dumps({
        "correct": True, "attempted": attempted, "failed": failed, "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
