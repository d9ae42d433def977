"""The quantile-accuracy gate of ``tools/service_bench.py``."""

import importlib.util
import math
import os

import pytest

_PATH = os.path.join(
    os.path.dirname(__file__), "..", "..", "tools", "service_bench.py"
)


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("service_bench", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _report(p50: float, p99: float, samples: list[float], bench) -> dict:
    snapshot = {
        "lat": {
            "series": [
                {
                    "labels": {"outcome": "shed"},
                    "count": len(samples),
                    "sum": sum(samples),
                    "p50": p50,
                    "p95": p99,
                    "p99": p99,
                }
            ]
        }
    }
    return {
        "lost": 0,
        "accounting_violations": [],
        "throughput_rps": 1.0,
        "latency_by_outcome": bench._latency_table(
            snapshot, "lat", {"shed": samples}
        ),
    }


def test_rel_error_against_an_exact_zero(bench):
    assert bench._rel_error(0.0, 0.0) == 0.0
    assert bench._rel_error(0.001, 0.0) == math.inf
    assert bench._rel_error(1.01, 1.0) == pytest.approx(0.01)


def test_gate_fails_a_nonzero_quantile_over_exact_zeros(bench):
    samples = [0.0] * 10
    assert not any(
        "off the exact" in p
        for p in bench._check_mix("m", _report(0.0, 0.0, samples, bench))
    )
    problems = bench._check_mix("m", _report(0.001, 0.0, samples, bench))
    assert any("registry p50" in p for p in problems)
