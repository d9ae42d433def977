"""Service lifecycle: graceful drain on SIGTERM, durable state across
restarts, worker recycling, and heartbeat recovery."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.instrument.stats import STATS, stat_values
from repro.service import (
    STATUS_CIRCUIT_OPEN,
    STATUS_RESOURCE_EXHAUSTED,
    CompileRequest,
    CompileService,
    RetryPolicy,
    ServiceConfig,
    load_state,
)

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)

SOURCE = """\
int printf(const char *fmt, ...);
int main() {
  int sum = 0;
  #pragma omp tile sizes(2)
  for (int i = 0; i < 8; i += 1)
    sum += i;
  printf("sum %d\\n", sum);
  return 0;
}
"""


def _request(index: int, **kwargs) -> CompileRequest:
    kwargs.setdefault("action", "compile")
    return CompileRequest(
        source=SOURCE.replace("sum %d", f"sum[{index}] %d"),
        filename=f"life-{index}.c",
        deadline_s=10.0,
        **kwargs,
    )


def _serve(argv, tmp_path, **popen_kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    env.setdefault("MINICLANG_QUARANTINE_DIR", str(tmp_path / "q"))
    return subprocess.Popen(
        [sys.executable, "-m", "repro.driver.serve", *argv],
        env=env,
        cwd=str(tmp_path),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        **popen_kwargs,
    )


# ----------------------------------------------------------------------
# SIGTERM -> drain -> snapshot -> exit 0
# ----------------------------------------------------------------------
class TestGracefulDrain:
    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        # Each request interprets a ~2s loop: 20 of them on one worker
        # keep the service loaded far past the signal.
        slow = """\
int printf(const char *fmt, ...);
int main() {{
  int sum = 0;
  for (int i = 0; i < 40000; i += 1)
    sum += i * {index};
  printf("sum %d\\n", sum);
  return 0;
}}
"""
        sources = []
        for i in range(20):
            path = tmp_path / f"in-{i}.c"
            path.write_text(slow.format(index=i), encoding="utf-8")
            sources.append(str(path))
        state_dir = tmp_path / "state"
        proc = _serve(
            [
                *sources,
                "--run",
                "--workers",
                "1",
                "--state-dir",
                str(state_dir),
                "--drain-timeout",
                "1.0",
            ],
            tmp_path,
        )
        time.sleep(4.0)  # let the batch get going
        proc.send_signal(signal.SIGTERM)
        try:
            _, stderr = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
        assert proc.returncode == 0, stderr
        assert "SIGTERM received: draining" in stderr
        assert "drained:" in stderr
        assert "exiting 0" in stderr
        # Shed requests got a structured answer, not silence.
        assert (
            "resource-exhausted" in stderr or "shed" in stderr
        ), stderr
        # The state snapshot survived the stop.
        assert load_state(str(state_dir)) is not None

    def test_listen_sigterm_right_after_the_banner_still_drains(
        self, tmp_path
    ):
        """The banner is the supervisor's cue that the server is up, so
        the drain handler must already be installed when it appears:
        a SIGTERM sent on reading it drains instead of killing."""
        for attempt in range(3):
            proc = _serve(
                [
                    "--listen", "127.0.0.1:0",
                    "--workers", "1",
                    "--state-dir", str(tmp_path / f"state-{attempt}"),
                ],
                tmp_path,
            )
            try:
                assert "listening on" in proc.stderr.readline()
                proc.send_signal(signal.SIGTERM)
                _, stderr = proc.communicate(timeout=60)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.communicate()
            assert proc.returncode == 0, stderr
            assert "drained:" in stderr

    def test_drain_mode_rejects_new_admissions(self):
        before = STATS.snapshot()
        with CompileService(
            ServiceConfig(workers=1, quarantine_dir=None)
        ) as service:
            service.begin_drain(5.0)
            response = service.submit(_request(0))
            assert response is not None
            assert response.status == STATUS_RESOURCE_EXHAUSTED
            assert "draining" in response.detail
        delta = stat_values(STATS.delta_since(before))
        assert delta.get("service.drain-rejected", 0) == 1

    def test_drain_deadline_sheds_inflight(self):
        clock = time.monotonic
        with CompileService(
            ServiceConfig(
                workers=1,
                quarantine_dir=None,
                deadline_s=30.0,
                retry=RetryPolicy(max_attempts=1),
            )
        ) as service:
            responses = []
            service.on_response = responses.append
            # A worker hang outlives any sane drain deadline.
            service.submit(
                _request(
                    0,
                    inject_faults=("service-worker-hang",),
                    fault_attempts=-1,
                )
            )
            started = clock()
            service.begin_drain(0.3)
            service.drain()
            assert clock() - started < 10.0
            assert len(responses) == 1
            assert (
                responses[0].status == STATUS_RESOURCE_EXHAUSTED
            )
            assert "drain deadline" in responses[0].detail


# ----------------------------------------------------------------------
# Durable state across a restart
# ----------------------------------------------------------------------
class TestStateAcrossRestart:
    def test_quarantine_survives_restart(self, tmp_path):
        state_dir = str(tmp_path / "state")
        poison = _request(
            7,
            inject_faults=("service-worker",),
            fault_attempts=-1,
        )

        def config() -> ServiceConfig:
            return ServiceConfig(
                workers=1,
                quarantine_dir=str(tmp_path / "quarantine"),
                state_dir=state_dir,
                breaker_threshold=2,
                breaker_cooldown_s=600.0,
                retry=RetryPolicy(
                    max_attempts=2, base_delay_s=0.01, max_delay_s=0.02
                ),
            )

        with CompileService(config()) as first:
            [response] = first.process_batch([poison])
            assert response.status == STATUS_CIRCUIT_OPEN
            fingerprint = poison.fingerprint()
            assert fingerprint in first.quarantined

        saved = load_state(state_dir)
        assert saved is not None
        assert fingerprint in saved.quarantined
        assert saved.breakers[fingerprint]["state"] == "open"

        before = STATS.snapshot()
        with CompileService(config()) as second:
            assert fingerprint in second.quarantined
            resubmit = second.submit(poison)
            second.drain()
            assert resubmit.status == STATUS_CIRCUIT_OPEN
            # Rejected at admission: no worker attempt was re-burned.
            assert resubmit.attempts == 0
        delta = stat_values(STATS.delta_since(before))
        assert delta.get("service.quarantine-restored", 0) == 1
        assert delta.get("service.state-restores", 0) == 1

    def test_corrupt_state_degrades_to_fresh_start(self, tmp_path):
        state_dir = tmp_path / "state"
        state_dir.mkdir()
        (state_dir / "state.json").write_text("garbage")
        with CompileService(
            ServiceConfig(
                workers=1,
                quarantine_dir=None,
                state_dir=str(state_dir),
            )
        ) as service:
            [response] = service.process_batch([_request(1)])
            assert response.ok
        assert (state_dir / "state.json.corrupt").exists()


# ----------------------------------------------------------------------
# Worker recycling and heartbeat
# ----------------------------------------------------------------------
class TestWorkerLifecycle:
    def test_max_requests_recycles_without_loss(self):
        before = STATS.snapshot()
        with CompileService(
            ServiceConfig(
                workers=1,
                quarantine_dir=None,
                worker_max_requests=2,
            )
        ) as service:
            responses = service.process_batch(
                [_request(i) for i in range(6)]
            )
        assert len(responses) == 6
        assert all(r.ok for r in responses)
        delta = stat_values(STATS.delta_since(before))
        assert delta.get("service.worker-recycled", 0) >= 1

    def test_heartbeat_replaces_dead_idle_worker(self):
        before = STATS.snapshot()
        with CompileService(
            ServiceConfig(
                workers=1,
                quarantine_dir=None,
                heartbeat_interval_s=0.01,
            )
        ) as service:
            [first] = service.process_batch([_request(0)])
            assert first.ok
            worker = service.pool.workers[0]
            worker.proc.kill()
            worker.proc.join(timeout=10)
            # Force the next health check and run it.
            service._last_heartbeat_at = -1e9
            service._check_worker_health(time.monotonic())
            assert service.pool.workers[0].proc.is_alive()
            [second] = service.process_batch([_request(1)])
            assert second.ok
        delta = stat_values(STATS.delta_since(before))
        assert delta.get("service.worker-heartbeat-restarts", 0) == 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-v"]))
