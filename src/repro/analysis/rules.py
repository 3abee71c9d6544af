"""Framework-specific AST lint rules.

Four rules, tuned to this codebase's concurrency idioms (every rule has a
triggering fixture and a near-miss fixture under ``tests/analysis/fixtures``):

``lock-held-blocking-call`` (error)
    A blocking call — ``sleep``, ``join``, ``recv``, ``accept``, ``select``,
    or a ``wait``/``get`` with no timeout — made inside a ``with <lock>:``
    block.  Blocking while holding a lock stalls every thread contending for
    it; with the sender/receiver/router threads all event-driven off queue
    gets, one held lock can freeze the whole comms stack.

``unguarded-shared-mutation`` (warning)
    In a threaded class (one that spawns threads, or one of the known
    framework classes: broker, router, supervisor, fabric, endpoints), a
    read-modify-write (``self.x += ...``) outside a lock, a container
    mutation (``self.d[k] = v``, ``self.items.append(...)``,
    ``.update``/``.pop``/…) outside a lock, or a plain ``self.x = ...`` to
    an attribute that *is* guarded by a lock elsewhere in the class
    (inconsistent guarding).

``raw-thread-creation`` (warning)
    ``threading.Thread(...)`` constructed anywhere but the supervision-aware
    factory :func:`repro.core.concurrency.spawn_thread`.  Raw threads bypass
    the spawn registry, so diagnostics and the supervision layer cannot see
    them.

``raw-socket-creation`` (warning)
    ``socket.socket(...)`` / ``socket.create_connection(...)`` constructed
    anywhere but :mod:`repro.transport.tcp`.  Sockets opened elsewhere
    bypass the wire protocol's framing, counters, and shutdown draining —
    their traffic is invisible to telemetry and their teardown races the
    fabric's.

``unrouted-msgtype`` (error)
    A ``make_message``/``make_header``/``Message`` call site whose literal
    ``MsgType.X`` has no handler anywhere in the analyzed tree (no ``==``,
    ``in``, dispatch-dict, or registration reference) and is not listed in
    :data:`repro.analysis.protocol.EXPLICITLY_UNROUTED` — the message would
    be delivered and silently dropped.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from .configcheck import UNKNOWN_CONFIG_KEY, UNREGISTERED_NAME
from .findings import Finding, Severity
from .lifetime import (
    LANE_CONTRACT,
    RELEASE_WHILE_BORROWED,
    VIEW_ESCAPE,
    WRITE_THROUGH_READONLY_VIEW,
)
from .ownership import DOUBLE_RELEASE, REFCOUNT_LEAK, UNANNOTATED_HANDLE_ESCAPE
from .protocol import Protocol, Site
from .topology import BOUNDED_QUEUE_CYCLE, ORPHAN_DESTINATION

LOCK_HELD_BLOCKING_CALL = "lock-held-blocking-call"
UNGUARDED_SHARED_MUTATION = "unguarded-shared-mutation"
RAW_THREAD_CREATION = "raw-thread-creation"
RAW_SOCKET_CREATION = "raw-socket-creation"
UNROUTED_MSGTYPE = "unrouted-msgtype"
SYNTAX_ERROR = "syntax-error"


@dataclass(frozen=True)
class RuleInfo:
    name: str
    severity: Severity
    summary: str


RULES: Dict[str, RuleInfo] = {
    LOCK_HELD_BLOCKING_CALL: RuleInfo(
        LOCK_HELD_BLOCKING_CALL, Severity.ERROR,
        "blocking call made while holding a lock",
    ),
    UNGUARDED_SHARED_MUTATION: RuleInfo(
        UNGUARDED_SHARED_MUTATION, Severity.WARNING,
        "shared attribute mutated outside a lock in a threaded class",
    ),
    RAW_THREAD_CREATION: RuleInfo(
        RAW_THREAD_CREATION, Severity.WARNING,
        "raw threading.Thread bypasses the spawn_thread factory",
    ),
    RAW_SOCKET_CREATION: RuleInfo(
        RAW_SOCKET_CREATION, Severity.WARNING,
        "raw socket constructed outside the wire transport module",
    ),
    UNROUTED_MSGTYPE: RuleInfo(
        UNROUTED_MSGTYPE, Severity.ERROR,
        "MsgType sent but handled nowhere and not explicitly ignored",
    ),
    SYNTAX_ERROR: RuleInfo(
        SYNTAX_ERROR, Severity.ERROR,
        "file cannot be parsed, so no rule can inspect it",
    ),
    REFCOUNT_LEAK: RuleInfo(
        REFCOUNT_LEAK, Severity.ERROR,
        "object-store handle not released on every control-flow path",
    ),
    DOUBLE_RELEASE: RuleInfo(
        DOUBLE_RELEASE, Severity.ERROR,
        "single-share object-store handle released twice on one path",
    ),
    UNANNOTATED_HANDLE_ESCAPE: RuleInfo(
        UNANNOTATED_HANDLE_ESCAPE, Severity.WARNING,
        "handle escapes its function without @transfers_ownership",
    ),
    ORPHAN_DESTINATION: RuleInfo(
        ORPHAN_DESTINATION, Severity.ERROR,
        "MsgType sent to a role that never handles it",
    ),
    BOUNDED_QUEUE_CYCLE: RuleInfo(
        BOUNDED_QUEUE_CYCLE, Severity.WARNING,
        "send/recv cycle through a bounded queue (static deadlock risk)",
    ),
    UNKNOWN_CONFIG_KEY: RuleInfo(
        UNKNOWN_CONFIG_KEY, Severity.ERROR,
        "configuration key is not a known schema field",
    ),
    UNREGISTERED_NAME: RuleInfo(
        UNREGISTERED_NAME, Severity.ERROR,
        "environment/model/algorithm/agent name is not registered",
    ),
    VIEW_ESCAPE: RuleInfo(
        VIEW_ESCAPE, Severity.WARNING,
        "zero-copy view escapes its frame without @detaches_view",
    ),
    RELEASE_WHILE_BORROWED: RuleInfo(
        RELEASE_WHILE_BORROWED, Severity.ERROR,
        "block released while a derived zero-copy view is still live",
    ),
    WRITE_THROUGH_READONLY_VIEW: RuleInfo(
        WRITE_THROUGH_READONLY_VIEW, Severity.ERROR,
        "element/slice write through a read-only deserialize view",
    ),
    LANE_CONTRACT: RuleInfo(
        LANE_CONTRACT, Severity.ERROR,
        "HeaderQueue call site violates its reclaim-ownership contract",
    ),
}

#: Attribute calls that always block.
_ALWAYS_BLOCKING = {"sleep", "join", "recv", "recv_bytes", "accept", "select"}
#: Attribute calls that block only when called without a timeout.
_BLOCKING_WITHOUT_TIMEOUT = {"wait", "get"}
#: Dotted-name suffixes that look blocking but are not (string/path joins).
_SAFE_CALL_SUFFIXES = ("path.join", "posixpath.join", "ntpath.join")

#: Framework classes whose methods run on more than one thread even though
#: the class body itself may not spawn the threads.
THREADED_CLASS_NAMES = {
    "Broker",
    "Router",
    "AlgorithmAgnosticRouter",
    "Supervisor",
    "Fabric",
    "ProcessEndpoint",
    "WorkhorseThread",
    "Controller",
    "CenterController",
    "ShareMemCommunicator",
    "HeaderQueue",
    "ThrottledLink",
    "LaneChannel",
    "MessageBuffer",
    "WireCompressor",
    "FlowController",
    "SocketLink",
    "SocketListener",
    "SocketFabric",
    "_Connection",
}

#: Files allowed to construct threading.Thread directly.
_THREAD_FACTORY_PATH_SUFFIXES = ("core/concurrency.py",)

#: Files allowed to open raw sockets (the wire transport itself).
_SOCKET_FACTORY_PATH_SUFFIXES = ("transport/tcp.py",)

#: ``socket`` module constructors that yield a live socket.
_SOCKET_CONSTRUCTORS = {
    "socket", "create_connection", "create_server", "socketpair",
}

#: Method names that mutate a container in place (``self.items.append(x)``).
_MUTATING_METHODS = {
    "append", "extend", "insert", "add", "update", "setdefault",
    "pop", "popleft", "appendleft", "remove", "discard",
}


def _dotted_name(node: ast.AST) -> str:
    """``a.b.c`` for nested attribute access; ``''`` when not a name chain."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    elif parts:
        parts.append("<expr>")
    return ".".join(reversed(parts))


def _is_lock_expr(node: ast.AST) -> bool:
    """True when a ``with`` context expression looks like a lock.

    Matches any name chain whose final component mentions ``lock`` or
    ``mutex`` (``self._lock``, ``self._counters_lock``, ``wire_lock`` …).
    """
    name = _dotted_name(node)
    leaf = name.rsplit(".", 1)[-1].lower()
    return "lock" in leaf or "mutex" in leaf


def _is_thread_call(node: ast.Call) -> bool:
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr == "Thread" and _dotted_name(func.value).endswith("threading")
    return isinstance(func, ast.Name) and func.id == "Thread"


def _is_socket_call(node: ast.Call) -> bool:
    """``socket.socket(...)`` / ``socket.create_connection(...)`` & co.

    Only the dotted ``socket.<ctor>`` forms are matched: a bare name like
    ``socket(...)`` is far more often a local factory or a type annotation
    call than the stdlib constructor, and the dotted form is the idiom this
    codebase uses everywhere.
    """
    func = node.func
    return (
        isinstance(func, ast.Attribute)
        and func.attr in _SOCKET_CONSTRUCTORS
        and _dotted_name(func.value).endswith("socket")
    )


class _FileVisitor(ast.NodeVisitor):
    """Single pass computing lock regions, scopes, and per-class mutations."""

    def __init__(self, path: str):
        self.path = path
        self.findings: List[Finding] = []
        self.scope_stack: List[str] = []
        self.lock_depth = 0
        #: per-class mutation records: (attr, under_lock, is_augassign, node)
        self.class_stack: List[_ClassRecord] = []

    # -- scope handling -----------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        record = _ClassRecord(node)
        self.class_stack.append(record)
        self.scope_stack.append(node.name)
        saved_depth, self.lock_depth = self.lock_depth, 0
        self.generic_visit(node)
        self.lock_depth = saved_depth
        self.scope_stack.pop()
        self.class_stack.pop()
        self._report_class(record)

    def _visit_function(self, node: ast.AST) -> None:
        self.scope_stack.append(getattr(node, "name", "<lambda>"))
        if self.class_stack and len(self.scope_stack) >= 1:
            self.class_stack[-1].current_method.append(getattr(node, "name", ""))
        # A function body does not execute under the lock active at its
        # *definition* site, so the lock depth resets inside it.
        saved_depth, self.lock_depth = self.lock_depth, 0
        self.generic_visit(node)
        self.lock_depth = saved_depth
        if self.class_stack:
            self.class_stack[-1].current_method.pop()
        self.scope_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        saved_depth, self.lock_depth = self.lock_depth, 0
        self.generic_visit(node)
        self.lock_depth = saved_depth

    def scope(self) -> str:
        return ".".join(self.scope_stack)

    # -- lock regions ---------------------------------------------------------
    def visit_With(self, node: ast.With) -> None:
        holds_lock = any(_is_lock_expr(item.context_expr) for item in node.items)
        for item in node.items:
            self.visit(item.context_expr)
        if holds_lock:
            self.lock_depth += 1
        for statement in node.body:
            self.visit(statement)
        if holds_lock:
            self.lock_depth -= 1

    # -- calls: blocking-under-lock and raw threads ---------------------------
    def visit_Call(self, node: ast.Call) -> None:
        if _is_thread_call(node) and not self.path.endswith(
            _THREAD_FACTORY_PATH_SUFFIXES
        ):
            self.findings.append(
                Finding(
                    self.path,
                    node.lineno,
                    RULES[RAW_THREAD_CREATION].severity,
                    RAW_THREAD_CREATION,
                    "threading.Thread() constructed directly; use "
                    "repro.core.concurrency.spawn_thread so the thread is "
                    "registered for supervision/diagnostics",
                    self.scope(),
                )
            )
        if _is_socket_call(node) and not self.path.endswith(
            _SOCKET_FACTORY_PATH_SUFFIXES
        ):
            self.findings.append(
                Finding(
                    self.path,
                    node.lineno,
                    RULES[RAW_SOCKET_CREATION].severity,
                    RAW_SOCKET_CREATION,
                    "raw socket constructed directly; open connections "
                    "through repro.transport.tcp (SocketFabric/SocketLink) "
                    "so traffic is framed, counted, and drained on shutdown",
                    self.scope(),
                )
            )
        if self.lock_depth > 0:
            blocking = self._blocking_reason(node)
            if blocking:
                self.findings.append(
                    Finding(
                        self.path,
                        node.lineno,
                        RULES[LOCK_HELD_BLOCKING_CALL].severity,
                        LOCK_HELD_BLOCKING_CALL,
                        f"{blocking} called while holding a lock",
                        self.scope(),
                    )
                )
        if self.class_stack:
            self.class_stack[-1].observe_call(node)
            self._observe_container_call(node)
        self.generic_visit(node)

    def _observe_container_call(self, node: ast.Call) -> None:
        """``self.items.append(x)`` & co — container mutation on an attribute."""
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr in _MUTATING_METHODS):
            return
        target = func.value
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            self.class_stack[-1].mutations.append(
                _Mutation(
                    attr=target.attr,
                    line=node.lineno,
                    under_lock=self.lock_depth > 0,
                    augmented=False,
                    method=self.class_stack[-1].method_name(),
                    scope=self.scope(),
                    container=f".{func.attr}()",
                )
            )

    @staticmethod
    def _blocking_reason(node: ast.Call) -> Optional[str]:
        func = node.func
        if isinstance(func, ast.Name) and func.id == "sleep":
            return "sleep()"
        if not isinstance(func, ast.Attribute):
            return None
        name = _dotted_name(func)
        if name.endswith(_SAFE_CALL_SUFFIXES):
            return None
        # str.join on a literal separator: ", ".join(parts)
        if func.attr == "join" and isinstance(func.value, ast.Constant):
            return None
        if func.attr in _ALWAYS_BLOCKING:
            return f"{func.attr}()"
        if func.attr in _BLOCKING_WITHOUT_TIMEOUT:
            has_timeout = any(kw.arg == "timeout" for kw in node.keywords)
            if not node.args and not has_timeout:
                return f"{func.attr}() with no timeout"
        return None

    # -- attribute mutations --------------------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        self._observe_mutation(node.targets, node, augmented=False)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._observe_mutation([node.target], node, augmented=True)
        self.generic_visit(node)

    def _observe_mutation(
        self, targets: List[ast.AST], node: ast.AST, *, augmented: bool
    ) -> None:
        if not self.class_stack:
            return
        record = self.class_stack[-1]
        for target in targets:
            attr = ""
            container = ""
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                attr = target.attr
            elif (
                isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Attribute)
                and isinstance(target.value.value, ast.Name)
                and target.value.value.id == "self"
            ):
                # ``self.d[k] = v`` / ``self.d[k] += v`` — container write.
                attr = target.value.attr
                container = "[...]"
            if attr:
                record.mutations.append(
                    _Mutation(
                        attr=attr,
                        line=getattr(node, "lineno", 0),
                        under_lock=self.lock_depth > 0,
                        augmented=augmented,
                        method=record.method_name(),
                        scope=self.scope(),
                        container=container,
                    )
                )

    # -- class-level reporting ------------------------------------------------
    def _report_class(self, record: "_ClassRecord") -> None:
        if not record.is_threaded():
            return
        guarded_attrs = {
            mutation.attr for mutation in record.mutations if mutation.under_lock
        }
        for mutation in record.mutations:
            if mutation.under_lock or mutation.method in ("__init__", "__post_init__"):
                continue
            if mutation.augmented and not mutation.container:
                self.findings.append(
                    Finding(
                        self.path,
                        mutation.line,
                        RULES[UNGUARDED_SHARED_MUTATION].severity,
                        UNGUARDED_SHARED_MUTATION,
                        f"read-modify-write of self.{mutation.attr} outside a "
                        f"lock in threaded class {record.name}",
                        mutation.scope,
                    )
                )
            elif mutation.container:
                self.findings.append(
                    Finding(
                        self.path,
                        mutation.line,
                        RULES[UNGUARDED_SHARED_MUTATION].severity,
                        UNGUARDED_SHARED_MUTATION,
                        f"container mutation of self.{mutation.attr}"
                        f"{mutation.container} outside a lock in threaded "
                        f"class {record.name}",
                        mutation.scope,
                    )
                )
            elif mutation.attr in guarded_attrs:
                self.findings.append(
                    Finding(
                        self.path,
                        mutation.line,
                        RULES[UNGUARDED_SHARED_MUTATION].severity,
                        UNGUARDED_SHARED_MUTATION,
                        f"self.{mutation.attr} is lock-guarded elsewhere in "
                        f"{record.name} but assigned here without the lock",
                        mutation.scope,
                    )
                )


@dataclass
class _Mutation:
    attr: str
    line: int
    under_lock: bool
    augmented: bool
    method: str
    scope: str
    container: str = ""  #: ``"[...]"`` / ``".append()"`` when a container write


class _ClassRecord:
    def __init__(self, node: ast.ClassDef):
        self.name = node.name
        self.bases = {_dotted_name(base).rsplit(".", 1)[-1] for base in node.bases}
        self.mutations: List[_Mutation] = []
        self.current_method: List[str] = []
        self.spawns_threads = False

    def method_name(self) -> str:
        return self.current_method[-1] if self.current_method else ""

    def observe_call(self, node: ast.Call) -> None:
        func = node.func
        callee = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        if _is_thread_call(node) or callee == "spawn_thread":
            self.spawns_threads = True

    def is_threaded(self) -> bool:
        return (
            self.spawns_threads
            or self.name in THREADED_CLASS_NAMES
            or bool(self.bases & THREADED_CLASS_NAMES)
        )


def run_file_rules(path: str, tree: ast.AST) -> List[Finding]:
    """Run every single-file rule over one parsed module."""
    visitor = _FileVisitor(path)
    visitor.visit(tree)
    return visitor.findings


def run_protocol_rule(
    protocol: Protocol, ignored: Optional[Set[str]] = None
) -> List[Finding]:
    """The project-wide ``unrouted-msgtype`` rule."""
    findings: List[Finding] = []
    for site in protocol.unrouted_sends(ignored or set()):
        findings.append(_unrouted_finding(site))
    return findings


def _unrouted_finding(site: Site) -> Finding:
    return Finding(
        site.path,
        site.line,
        RULES[UNROUTED_MSGTYPE].severity,
        UNROUTED_MSGTYPE,
        f"MsgType.{site.member} is sent here but no handler/route exists "
        "anywhere in the analyzed tree (add one, or list it in "
        "repro.analysis.protocol.EXPLICITLY_UNROUTED)",
        site.scope,
    )
