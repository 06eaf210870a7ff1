"""Exception hierarchy for the FASDA reproduction.

All library-raised exceptions derive from :class:`FasdaError` so callers can
catch everything from this package with one ``except`` clause while still
letting programming errors (``TypeError`` etc.) propagate.
"""


class FasdaError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConfigError(FasdaError):
    """An invalid or inconsistent system / machine configuration."""


class ValidationError(FasdaError):
    """An argument failed validation (bad shape, dtype, or range)."""


class NotBatchableError(ValidationError):
    """A batched segment the fused force pass cannot step bitwise.

    Raised by :class:`~repro.md.batch.BatchedEngine` when a segment's
    occupancy is not padded-viable.  Carries the refused segment's
    ``handle``, so a scheduler can swap that segment out and keep the
    rest of the batch.
    """

    def __init__(self, message: str, handle: int):
        super().__init__(message)
        self.handle = handle


class SimulationError(FasdaError):
    """The simulation reached a physically or logically invalid state.

    Examples: particle overlap below the exclusion radius, non-finite
    forces, or a synchronization deadlock in the event simulator.
    """


class TransportError(SimulationError):
    """The communication layer lost data it could not recover.

    Raised when a packet stays undelivered after the reliable
    transport's retry budget is exhausted (or immediately in bare-UDP
    mode) and the receiver has no stale fallback to degrade onto.
    """


class DeadlockError(SimulationError):
    """A synchronization protocol stopped making progress.

    Carries a diagnosis naming the first stalled node, the iteration it
    is stuck in, and the missing handshake edges — produced by the event
    kernel's progress watchdog instead of a silent drained queue.
    """


class UnknownJobError(ValidationError):
    """A job id that the queue has never issued (or no longer tracks).

    Subclasses :class:`ValidationError` so existing ``except
    ValidationError`` call sites keep working; exists so service callers
    can distinguish "you typed the wrong id" from "your input was bad".
    """


class JobPoisonedError(SimulationError):
    """A batched job tripped a numerical health guard and was quarantined.

    Carries the machine-readable poison record (handle, step, reason,
    offending magnitude) so schedulers can decide on retry policy
    without parsing the message.  Raised by
    :meth:`~repro.md.batch.BatchedEngine.add` when an input system fails
    admission screening, and by ``JobQueue.result`` for quarantined
    jobs; mid-run trips are *recorded* (``BatchedEngine.poison_log``)
    rather than raised, so one poisoned tenant never aborts the healthy
    remainder of the batch.
    """

    def __init__(self, message: str, record=None):
        super().__init__(message)
        #: The :class:`~repro.faults.health.PoisonRecord` behind this
        #: error, when one exists (admission rejections carry one too).
        self.record = record


class CheckpointError(FasdaError):
    """A checkpoint file could not be written, read, or trusted.

    Raised for truncated / bit-flipped / wrong-format files, digest
    mismatches, and configurations that fail to round-trip — instead of
    letting ``zipfile``/``zlib``/``KeyError`` internals leak to callers.
    The message always names the offending path.
    """


class NodeFailureError(SimulationError):
    """Node crashes exceeded what the recovery protocol can absorb.

    Raised when every node of a :class:`~repro.core.distributed.DistributedMachine`
    is down in the same iteration: with no surviving peer holding a
    shadow checkpoint there is nothing to replay from, so the run is
    unrecoverable in-band (restore from an interval checkpoint instead).
    """


class CampaignError(SimulationError):
    """A campaign point kept failing after its retry budget.

    Carries the first failing point's label and the underlying worker
    exception; points journaled before the failure remain resumable.
    """
