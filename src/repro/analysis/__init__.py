"""Framework-aware static & runtime analysis for the comms stack.

XingTian's core claim rests on a hand-rolled threaded communication stack —
broker, router, header/ID queues, and a refcounted object store — exactly
the kind of code where races, lock-order inversions, and silently-unrouted
messages hide.  This package turns that debugging into tooling:

* :mod:`repro.analysis.rules` — an AST-based lint engine with
  framework-specific rules (blocking calls under a lock, unguarded shared
  mutation in threaded classes, raw ``threading.Thread`` creation bypassing
  :func:`repro.core.concurrency.spawn_thread`, and ``MsgType`` send sites
  with no registered handler);
* :mod:`repro.analysis.protocol` — extraction of the message protocol
  (who sends / who handles each :class:`~repro.core.message.MsgType`) from
  the source tree, cross-checked by the ``unrouted-msgtype`` rule and the
  routing-table exhaustiveness test;
* :mod:`repro.analysis.dataflow` / :mod:`repro.analysis.ownership` — an
  interprocedural ownership dataflow pass over per-function CFGs tracking
  ``ObjectStore.put``/``get``/``release`` handle flow: refcount leaks along
  any control-flow path, double releases of single-share handles, and
  handles escaping without a
  :func:`repro.core.ownership.transfers_ownership` annotation;
* :mod:`repro.analysis.lifetime` — a zero-copy lifetime pass over the same
  CFGs tracking views derived from ``deserialize(copy=False)``, arena
  blocks, and pool handles: view-escapes past the owning block's release,
  release-while-borrowed, writes through read-only views, and
  ``HeaderQueue`` call sites violating their CONTROL_BLOCK /
  CONTROL_UNBOUNDED reclaim contracts (``lane-contract``);
* :mod:`repro.analysis.topology` — static extraction of the communication
  topology (which component sends which ``MsgType`` to which role), the
  ``docs/topology.json``/DOT artifacts, the ``orphan-destination`` and
  ``bounded-queue-cycle`` rules, and the trace-conformance checker diffing
  :class:`repro.core.tracing.Tracer` events against the static graph;
* :mod:`repro.analysis.configcheck` — static validation of the examples'
  configuration calls against the config schema and
  :data:`repro.api.registry.registry`;
* :mod:`repro.analysis.runtime` — opt-in runtime checkers: an instrumented
  lock that records the per-thread lock-acquisition graph and reports
  cycles (potential deadlocks), and an object-store refcount auditor that
  asserts all refs are balanced at broker shutdown;
* :mod:`repro.analysis.cli` — ``python -m repro.analysis <path>`` emitting
  ``file:line severity rule message`` findings (``--format json``/``gha``
  for machine consumption), compared against a committed baseline so CI
  fails only on *new* findings.

See ``docs/STATIC_ANALYSIS.md`` for the rule catalog and workflows.
"""

from __future__ import annotations

from .engine import analyze_path, analyze_paths, analyze_source
from .findings import Baseline, Finding, Severity
from .lifetime import run_lifetime_rules
from .ownership import run_ownership_rules
from .protocol import EXPLICITLY_UNROUTED, Protocol, extract_protocol
from .topology import (
    Topology,
    conformance_violations,
    extract_topology,
    observed_edges,
)

__all__ = [
    "analyze_path",
    "analyze_paths",
    "analyze_source",
    "Baseline",
    "Finding",
    "Severity",
    "Protocol",
    "extract_protocol",
    "EXPLICITLY_UNROUTED",
    "run_ownership_rules",
    "run_lifetime_rules",
    "Topology",
    "extract_topology",
    "observed_edges",
    "conformance_violations",
]
