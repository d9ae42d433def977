"""The isolated worker-process pool.

Each worker is one OS process running
:func:`repro.service.worker.worker_main` with a dedicated duplex pipe —
one compile pipeline per worker, so an ICE, OOM kill, or hang is
contained to that process and the parent can always kill-and-restart
without losing other in-flight work (the clangd/distcc worker model).

The pool is deliberately mechanism-only: it spawns, dispatches, waits,
restarts and shuts down.  Policy — deadlines, retries, hedging, circuit
breaking — lives in :mod:`repro.service.service`.
"""

from __future__ import annotations

import multiprocessing
import time
from multiprocessing import connection
from typing import Optional

from repro.instrument.stats import get_statistic
from repro.service.request import WorkPayload
from repro.service.worker import worker_main

_WORKERS_STARTED = get_statistic(
    "service", "workers-started", "Service worker processes started"
)
_WORKER_RESTARTS = get_statistic(
    "service",
    "worker-restarts",
    "Service workers killed and replaced (death, hang, shutdown)",
)


class WorkerHandle:
    """One worker process plus its parent-side pipe endpoint."""

    _next_id = 0

    def __init__(self, ctx) -> None:
        WorkerHandle._next_id += 1
        self.worker_id = WorkerHandle._next_id
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(
            target=worker_main,
            args=(child_conn, self.worker_id),
            daemon=True,
            name=f"miniclang-worker-{self.worker_id}",
        )
        self.proc.start()
        child_conn.close()
        self.conn = parent_conn
        #: parent-side attempt bookkeeping, owned by the service:
        #: None when idle, else (state, attempt_no, deadline_at)
        self.busy: Optional[tuple] = None
        #: completed attempts (drives --worker-max-requests recycling)
        self.jobs_done = 0
        _WORKERS_STARTED.inc()

    @property
    def idle(self) -> bool:
        return self.busy is None

    def send(self, payload: WorkPayload) -> bool:
        """Dispatch one payload; False when the pipe is already dead
        (the caller restarts the worker and re-dispatches elsewhere)."""
        try:
            self.conn.send(payload)
            return True
        except (BrokenPipeError, OSError):
            return False

    def kill(self) -> None:
        """Hard-stop the process (hangs don't answer sentinels)."""
        try:
            self.proc.kill()
            self.proc.join(timeout=5.0)
        except (OSError, ValueError):  # pragma: no cover - defensive
            pass
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - defensive
            pass


class WorkerPool:
    """Fixed-size pool of :class:`WorkerHandle` processes."""

    def __init__(self, size: int = 2) -> None:
        if size < 1:
            raise ValueError("pool size must be >= 1")
        # fork reuses the parent's already-imported pipeline (fast
        # start); spawn is the portable fallback.
        methods = multiprocessing.get_all_start_methods()
        self.ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        self.workers = [WorkerHandle(self.ctx) for _ in range(size)]
        self._closed = False

    # ------------------------------------------------------------------
    def idle_workers(self) -> list[WorkerHandle]:
        return [w for w in self.workers if w.idle]

    def busy_workers(self) -> list[WorkerHandle]:
        return [w for w in self.workers if not w.idle]

    def wait(
        self, timeout: float, extra_conns=()
    ) -> tuple[list[WorkerHandle], list]:
        """Block until a busy worker has a result (or died) or one of
        *extra_conns* is readable, up to *timeout* seconds.

        Returns ``(ready_workers, ready_extras)``.  *extra_conns* may
        hold anything :func:`multiprocessing.connection.wait` accepts
        (sockets included) — the service's network layer multiplexes
        its inbox wakeup with worker completions through it."""
        busy = self.busy_workers()
        by_conn = {w.conn: w for w in busy}
        conns = list(by_conn) + list(extra_conns)
        if not conns:
            if timeout > 0:
                time.sleep(timeout)
            return [], []
        ready = connection.wait(conns, timeout=timeout)
        workers = [by_conn[c] for c in ready if c in by_conn]
        extras = [c for c in ready if c not in by_conn]
        return workers, extras

    def restart(self, worker: WorkerHandle) -> WorkerHandle:
        """Kill *worker* and replace it in place with a fresh process."""
        worker.kill()
        replacement = WorkerHandle(self.ctx)
        self.workers[self.workers.index(worker)] = replacement
        _WORKER_RESTARTS.inc()
        return replacement

    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        if self._closed:
            return
        self._closed = True
        for worker in self.workers:
            if worker.idle:
                try:
                    worker.conn.send(None)  # polite sentinel
                except (BrokenPipeError, OSError):
                    pass
        deadline = time.monotonic() + 2.0
        for worker in self.workers:
            worker.proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if worker.proc.is_alive():
                worker.kill()
            else:
                try:
                    worker.conn.close()
                except OSError:  # pragma: no cover - defensive
                    pass
        self.workers = []

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
