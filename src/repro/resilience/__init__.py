"""Fault tolerance: fault injection, numeric guardrails, recovery.

See ``docs/robustness.md`` for the fault model and recovery semantics.
"""

from repro.resilience import counters
from repro.resilience.faults import (
    ALL_KINDS,
    CHECKPOINT_KINDS,
    COLLECTIVE_KINDS,
    CORRUPT_PAYLOAD,
    DELAY,
    GRADIENT_KINDS,
    INF_GRAD,
    NAN_GRAD,
    RANK_FAILURE,
    RETRIES_EXHAUSTED,
    TIMEOUT_EXHAUSTED,
    TORN_WRITE,
    CheckpointWriteFault,
    CollectiveFault,
    FaultEvent,
    FaultInjector,
    FaultSchedule,
    RetryExhaustedError,
    RetryPolicy,
)
from repro.resilience.guardrails import (
    BAD_VERDICTS,
    GuardrailConfig,
    LossSpikeDetector,
    NumericGuard,
)

__all__ = [
    "counters",
    "ALL_KINDS",
    "CHECKPOINT_KINDS",
    "COLLECTIVE_KINDS",
    "GRADIENT_KINDS",
    "NAN_GRAD",
    "INF_GRAD",
    "RANK_FAILURE",
    "CORRUPT_PAYLOAD",
    "DELAY",
    "TORN_WRITE",
    "RETRIES_EXHAUSTED",
    "TIMEOUT_EXHAUSTED",
    "CheckpointWriteFault",
    "CollectiveFault",
    "FaultEvent",
    "FaultSchedule",
    "FaultInjector",
    "RetryExhaustedError",
    "RetryPolicy",
    "BAD_VERDICTS",
    "GuardrailConfig",
    "LossSpikeDetector",
    "NumericGuard",
]
