"""Exception types shared across the toolkit.

Every error raised on a documented failure path derives from
:class:`LmmkError` so callers (and the CLI) can distinguish toolkit
failures from programming mistakes.
"""


class LmmkError(Exception):
    """Base class for all toolkit errors."""


# --- recorder ---------------------------------------------------------------

class SessionSealed(LmmkError):
    """A record call arrived after the session was sealed."""


class PhaseOverlap(LmmkError):
    """A phase was begun while another phase was still open, or a Trace was
    given two phases that overlap."""


class UnknownHandle(LmmkError):
    """The phase handle does not belong to this session."""


class AlreadyEnded(LmmkError):
    """end_phase was called twice for the same handle."""


class OpenPhaseRemaining(LmmkError):
    """seal() was called while a phase handle is still open."""


class TimestampOrderViolation(LmmkError):
    """Timestamps violate queued <= submit <= start <= end (or end < start)."""


# --- sim engine -------------------------------------------------------------

class InvalidSpec(LmmkError):
    """The workload is missing a phase script or breaks a script rule."""


class UnknownKernel(LmmkError):
    """A duplication plan names a kernel absent from the workload."""


# --- timeline ---------------------------------------------------------------

class UnalignedClocks(LmmkError):
    """Cross-domain analysis requested on a trace without a clock offset."""


# --- metrics ----------------------------------------------------------------

class NonPositiveGroundTruth(LmmkError):
    """Ground-truth latency must be strictly positive."""


class NonPositiveComponent(LmmkError):
    """A harmonic-mean component ratio must be strictly positive."""


class NegativeDelta(LmmkError):
    """Duplicated run was faster than baseline: noise exceeds signal."""


class MissingPhase(LmmkError):
    """The trace lacks a phase required by the computation."""


class MissingTokenCounts(LmmkError):
    """The trace carries no prompt/output token counts, or one below 1."""


# --- sampler ----------------------------------------------------------------

class EmptyDataset(LmmkError):
    """No token lengths were supplied."""


class FractionOutOfRange(LmmkError):
    """Subset fraction must lie in (0, 1] and select at least one item."""


# --- predictor --------------------------------------------------------------

class KernelNotFound(LmmkError):
    """The named kernel does not occur in the trace."""


class InsufficientSteps(LmmkError):
    """Fewer than two decode steps are available for the series."""


class DegenerateSeries(LmmkError):
    """A line cannot be fitted: all steps are identical, or a decode step
    of the trace has a latency of 0 ns."""


class RepeatedDecodeStep(LmmkError):
    """Two decode phases carry the same token index (a multi-turn trace)."""


# --- trace io ---------------------------------------------------------------

class ParseError(LmmkError):
    """A trace file line could not be parsed; message names the line."""


class UnknownVersion(LmmkError):
    """The trace file header declares an unsupported version."""
