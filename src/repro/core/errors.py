"""Framework exceptions.

All errors raised by the framework derive from :class:`XingTianError` so
callers can catch framework failures with a single ``except`` clause while
letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class XingTianError(Exception):
    """Base class for all framework errors."""


class ConfigError(XingTianError):
    """Raised when a configuration file or object is invalid."""


class TransportError(XingTianError):
    """Raised when a communication channel fails."""


class BackpressureError(TransportError):
    """Raised when a control-lane send cannot be admitted before its deadline.

    Bounded admission (docs/FLOW_CONTROL.md) blocks control/weights
    producers at the high watermark; if the queue has not drained below the
    low watermark within the configured deadline the put fails loudly with
    this error instead of waiting forever.  ``accepted`` carries how many
    entries of a batched put were admitted before the expiry (the header
    queue has already reclaimed the shares of the unenqueued remainder).
    """

    def __init__(self, message: str, accepted: int = 0):
        super().__init__(message)
        self.accepted = accepted


class BufferClosedError(TransportError, RuntimeError):
    """Raised by :meth:`~repro.core.buffers.MessageBuffer.put` after
    ``close()``.

    Subclasses ``RuntimeError`` so callers that treat a ``RuntimeError``
    from a buffer as the shutdown signal keep working; blocked senders
    woken by a shutdown observe this instead of hanging until their
    backpressure deadline.
    """


class ObjectStoreError(XingTianError):
    """Raised on object-store failures (unknown ID, store full, ...)."""


class UnknownObjectError(ObjectStoreError):
    """Raised when an object ID is not present in the object store."""


class RoutingError(XingTianError):
    """Raised when a message cannot be routed to its destination."""


class UnknownDestinationError(RoutingError):
    """Raised when a message names a destination no broker knows about."""


class LifecycleError(XingTianError):
    """Raised on invalid lifecycle transitions (start twice, use after stop)."""


class RegistryError(XingTianError):
    """Raised when a registry lookup or registration fails."""


class CheckpointError(XingTianError):
    """Raised when saving or restoring a checkpoint fails."""


class WorkerCrashedError(XingTianError):
    """Raised when a workhorse thread died from an exception.

    Wraps the original exception (available as ``__cause__``) so a crash
    captured inside a worker thread cannot be silently lost at ``join``.
    """


class RefcountLeakError(ObjectStoreError):
    """Raised by the shutdown refcount audit when object-store refs are
    unbalanced: a body was inserted for N consumers but fewer than N
    fetch-and-release cycles happened, stranding it in the store."""


class LockOrderError(XingTianError):
    """Raised (in strict mode) by the runtime lock-order monitor when the
    lock-acquisition graph contains a cycle — two threads can take the same
    locks in opposite orders, a potential deadlock."""


class AnalysisError(XingTianError):
    """Raised on static-analysis engine failures (bad baseline file, ...)."""


class TrainingFailedError(XingTianError):
    """Raised when a run can no longer make progress.

    The supervisor raises this instead of letting ``wait()`` spin forever:
    workers are dead and the restart budget is exhausted (§3.2.2 promises a
    stop decision; a dead deployment must produce one too).
    """
