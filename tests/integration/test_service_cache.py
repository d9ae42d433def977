"""Integration tests for the compile service's response cache and
single-flight dedup: real worker processes, deterministic fault
injection, no sleeps.

The contracts under test:

* a terminal ok/error response is memoized per request fingerprint and
  replayed (``cache_hit=True``) without burning a worker;
* N identical concurrent requests collapse onto one execution — one
  leader compiles, the followers receive fanned-out copies
  (``coalesced=True``), and all N are answered;
* degraded responses live under a ``#degraded``-tagged key: they can be
  replayed, but never shadow a primary-path answer;
* the circuit breaker outranks the cache in both directions — a
  tripped fingerprint is neither served from nor written to the cache.
"""

from __future__ import annotations

import pytest

from repro.cache import CompilationCache, degraded_key
from repro.service import (
    STATUS_CIRCUIT_OPEN,
    STATUS_DEGRADED,
    STATUS_ERROR,
    STATUS_OK,
    CompileRequest,
    CompileService,
    RetryPolicy,
    ServiceConfig,
)

HELLO = """\
int printf(const char *fmt, ...);
int main() {
  #pragma omp tile sizes(2)
  for (int i = 0; i < 6; i += 1)
    printf("i%d ", i);
  printf("\\n");
  return 0;
}
"""

BAD = "int main() { return undeclared; }\n"


def make_service(**overrides) -> CompileService:
    kwargs = dict(
        workers=2,
        deadline_s=15.0,
        retry=RetryPolicy(
            max_attempts=3, base_delay_s=0.01, max_delay_s=0.05
        ),
        quarantine_dir=None,
        enable_cache=True,
    )
    kwargs.update(overrides)
    return CompileService(ServiceConfig(**kwargs))


class TestResponseCache:
    def test_repeat_request_is_served_from_cache(self):
        with make_service() as svc:
            [cold] = svc.process_batch(
                [CompileRequest(source=HELLO, action="run")]
            )
            [warm] = svc.process_batch(
                [CompileRequest(source=HELLO, action="run")]
            )
        assert cold.status == warm.status == STATUS_OK
        assert not cold.cache_hit
        assert warm.cache_hit
        assert warm.attempts == 0  # no worker ran
        assert warm.output == cold.output
        assert warm.exit_code == cold.exit_code

    def test_deterministic_user_errors_are_cached_too(self):
        with make_service() as svc:
            [cold] = svc.process_batch(
                [CompileRequest(source=BAD, action="compile")]
            )
            [warm] = svc.process_batch(
                [CompileRequest(source=BAD, action="compile")]
            )
        assert cold.status == warm.status == STATUS_ERROR
        assert warm.cache_hit
        assert warm.diagnostics == cold.diagnostics

    def test_different_flags_do_not_share_entries(self):
        with make_service() as svc:
            svc.process_batch(
                [CompileRequest(source=HELLO, action="run")]
            )
            [other] = svc.process_batch(
                [
                    CompileRequest(
                        source=HELLO, action="run", mode="irbuilder"
                    )
                ]
            )
        assert other.status == STATUS_OK
        assert not other.cache_hit

    def test_filename_is_part_of_the_key(self):
        """An identical source under another name must not replay the
        first file's module (its ModuleID names the file)."""
        with make_service() as svc:
            [a] = svc.process_batch(
                [CompileRequest(source=HELLO, filename="a.c")]
            )
            [b] = svc.process_batch(
                [CompileRequest(source=HELLO, filename="b.c")]
            )
        assert a.status == b.status == STATUS_OK
        assert not b.cache_hit
        assert "; ModuleID = 'b.c'" in b.output
        assert "a.c" not in b.output

    def test_cached_diagnostics_name_their_own_file(self):
        with make_service() as svc:
            [one] = svc.process_batch(
                [CompileRequest(source=BAD, filename="one.c")]
            )
            [two] = svc.process_batch(
                [CompileRequest(source=BAD, filename="two.c")]
            )
        assert one.status == two.status == STATUS_ERROR
        assert not two.cache_hit
        assert two.diagnostics.startswith("two.c:1:")
        assert "one.c" not in two.diagnostics

    def test_disk_cache_survives_service_restart(self, tmp_path):
        d = str(tmp_path / "cache")
        with make_service(cache_dir=d) as svc:
            [cold] = svc.process_batch(
                [CompileRequest(source=HELLO, action="run")]
            )
        with make_service(cache_dir=d) as svc:
            [warm] = svc.process_batch(
                [CompileRequest(source=HELLO, action="run")]
            )
        assert not cold.cache_hit and warm.cache_hit
        assert warm.output == cold.output

    def test_cache_disabled_by_default(self):
        with CompileService(
            ServiceConfig(workers=1, quarantine_dir=None)
        ) as svc:
            svc.process_batch(
                [CompileRequest(source=HELLO, action="run")]
            )
            [again] = svc.process_batch(
                [CompileRequest(source=HELLO, action="run")]
            )
        assert not again.cache_hit


class TestSingleFlight:
    def test_identical_concurrent_requests_collapse_to_one(self):
        n = 4
        with make_service() as svc:
            responses = svc.process_batch(
                [
                    CompileRequest(source=HELLO, action="run")
                    for _ in range(n)
                ]
            )
        assert len(responses) == n  # every request answered
        leaders = [r for r in responses if not r.coalesced]
        followers = [r for r in responses if r.coalesced]
        assert len(leaders) == 1 and len(followers) == n - 1
        assert sum(r.attempts for r in responses) == 1  # one execution
        for r in responses:
            assert r.status == STATUS_OK
            assert r.output == leaders[0].output
            assert r.request_id is not None
        assert len({r.request_id for r in responses}) == n

    def test_distinct_requests_do_not_collapse(self):
        with make_service() as svc:
            responses = svc.process_batch(
                [
                    CompileRequest(source=HELLO, action="run"),
                    CompileRequest(
                        source=HELLO + "// v2\n", action="run"
                    ),
                ]
            )
        assert all(not r.coalesced for r in responses)
        assert sum(r.attempts for r in responses) == 2

    def test_single_flight_can_be_disabled(self):
        with make_service(single_flight=False, enable_cache=False) as svc:
            responses = svc.process_batch(
                [
                    CompileRequest(source=HELLO, action="run")
                    for _ in range(3)
                ]
            )
        assert all(not r.coalesced for r in responses)
        assert sum(r.attempts for r in responses) == 3


class TestDegradedTagging:
    def _degrading_request(self) -> CompileRequest:
        # IRBuilder path deterministically broken on every attempt:
        # the service falls back to the shadow path -> degraded
        return CompileRequest(
            source=HELLO,
            action="run",
            mode="irbuilder",
            inject_faults=("service-irbuilder",),
            fault_attempts=-1,
        )

    def test_degraded_response_cached_under_tagged_key(self):
        with make_service() as svc:
            [cold] = svc.process_batch([self._degrading_request()])
            assert cold.status == STATUS_DEGRADED
            fp = self._degrading_request().fingerprint()
            assert svc.cache.get_response(fp) is None
            assert (
                svc.cache.get_response(degraded_key(fp)) is not None
            )

    def test_degraded_replay_stays_tagged(self):
        with make_service() as svc:
            [cold] = svc.process_batch([self._degrading_request()])
            [warm] = svc.process_batch([self._degrading_request()])
        assert cold.status == STATUS_DEGRADED
        assert warm.cache_hit
        assert warm.status == STATUS_DEGRADED  # still marked degraded
        assert warm.degraded

    def test_degraded_entry_not_served_when_degradation_off(self):
        with make_service() as svc:
            svc.process_batch([self._degrading_request()])
            request = self._degrading_request()
            request.allow_degraded = False
            [hard] = svc.process_batch([request])
        # same fingerprint, but the degraded-tagged entry is off
        # limits: the request must run (and fail hard) instead
        assert not hard.cache_hit
        assert hard.status != STATUS_DEGRADED


class TestBreakerVsCache:
    def _poison(self) -> CompileRequest:
        return CompileRequest(
            source=HELLO,
            action="run",
            inject_faults=("service-worker",),
            fault_attempts=-1,
        )

    def test_tripped_fingerprint_is_never_cached(self):
        with make_service() as svc:
            [tripped] = svc.process_batch([self._poison()])
            assert tripped.status == STATUS_CIRCUIT_OPEN
            fp = self._poison().fingerprint()
            assert svc.cache.get_response(fp) is None
            assert svc.cache.get_response(degraded_key(fp)) is None
            # resubmission: rejected at admission, not answered from
            # the cache, no worker burned
            rejection = svc.submit(self._poison())
            assert rejection is not None
            assert rejection.status == STATUS_CIRCUIT_OPEN
            assert not rejection.cache_hit

    def test_open_breaker_outranks_an_existing_cache_entry(self):
        """Even a healthy-era cache entry must not answer for a
        fingerprint whose breaker has since opened: quarantine wins."""
        with make_service() as svc:
            request = CompileRequest(source=HELLO, action="run")
            [cold] = svc.process_batch([request])
            assert cold.status == STATUS_OK
            fp = request.fingerprint()
            assert svc.cache.get_response(fp) is not None
            breaker = svc._breakers.get(fp)
            for _ in range(svc.config.breaker_threshold):
                breaker.record_failure()
            rejection = svc.submit(
                CompileRequest(source=HELLO, action="run")
            )
            assert rejection is not None
            assert rejection.status == STATUS_CIRCUIT_OPEN
            assert not rejection.cache_hit
