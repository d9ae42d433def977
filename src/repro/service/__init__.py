"""Resilient compile service: worker-pool isolation, deadlines, retry
with backoff, hedging, circuit breaking, load shedding, and shadow-AST
<-> IRBuilder graceful degradation.

Public surface::

    from repro.service import (
        CompileService, ServiceConfig, CompileRequest, CompileResponse,
    )
    with CompileService(ServiceConfig(workers=4)) as svc:
        [resp] = svc.process_batch([CompileRequest(source)])

``shared_service()`` hands out a lazily created process-wide instance
(for the fuzzer oracle and other callers that want service semantics
without owning a pool); it is shut down at interpreter exit.
"""

from __future__ import annotations

import atexit
from typing import Optional

from repro.service.breaker import CircuitBreaker
from repro.service.queue import AdmissionQueue
from repro.service.request import (
    MODES,
    STATUS_CIRCUIT_OPEN,
    STATUS_DEGRADED,
    STATUS_ERROR,
    STATUS_ICE,
    STATUS_OK,
    STATUS_RESOURCE_EXHAUSTED,
    STATUS_TIMEOUT,
    TERMINAL_STATUSES,
    CompileRequest,
    CompileResponse,
    other_mode,
)
from repro.service.retry import RetryPolicy
from repro.service.service import (
    CompileService,
    PoisonInputError,
    ServiceConfig,
    accounting_violations,
)
from repro.service.state import (
    ServiceState,
    load_state,
    save_state,
    state_path,
)

__all__ = [
    "AdmissionQueue",
    "CircuitBreaker",
    "CompileRequest",
    "CompileResponse",
    "CompileService",
    "MODES",
    "PoisonInputError",
    "RetryPolicy",
    "ServiceConfig",
    "ServiceState",
    "STATUS_CIRCUIT_OPEN",
    "STATUS_DEGRADED",
    "STATUS_ERROR",
    "STATUS_ICE",
    "STATUS_OK",
    "STATUS_RESOURCE_EXHAUSTED",
    "STATUS_TIMEOUT",
    "TERMINAL_STATUSES",
    "accounting_violations",
    "load_state",
    "other_mode",
    "save_state",
    "shared_service",
    "state_path",
]

_shared: Optional[CompileService] = None


def shared_service() -> CompileService:
    """The lazily created process-wide service (2 workers, quarantine
    disabled — shared callers don't want reproducer directories strewn
    around the cwd)."""
    global _shared
    if _shared is None:
        _shared = CompileService(
            ServiceConfig(workers=2, quarantine_dir=None)
        )
        atexit.register(_shutdown_shared)
    return _shared


def _shutdown_shared() -> None:
    global _shared
    if _shared is not None:
        _shared.shutdown()
        _shared = None
