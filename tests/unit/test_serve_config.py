"""``miniclang-serve`` builds one service configuration for both modes:
the batch service and every ``--listen`` shard come from the same
command line and differ only in their state directory and in owning
their own cache and tracer objects."""

from __future__ import annotations

import os
from dataclasses import replace

from repro.driver import serve


def _argv(tmp_path) -> list[str]:
    return [
        "--workers", "3",
        "--deadline", "7",
        "--retries", "1",
        "--hedge-delay", "0.5",
        "--queue-capacity", "9",
        "--no-degrade",
        "--no-single-flight",
        "--quarantine-dir", str(tmp_path / "q"),
        "--state-dir", str(tmp_path / "state"),
        "--worker-max-requests", "5",
        "--heartbeat-interval", "2",
        f"-fcache={tmp_path / 'cache'}",
        "-fcache-durable",
        "-fcache-max-entries", "10",
        "-fcache-max-bytes", "4096",
        f"-ftrace-requests={tmp_path / 'traces'}",
        "--listen", "127.0.0.1:0",
        "--shards", "3",
    ]


def _cache_settings(cache) -> tuple:
    return (
        cache.directory,
        cache.memory.max_entries,
        cache.disk.max_bytes,
        cache.disk.durable,
    )


def test_batch_and_shard_configs_share_every_policy_value(tmp_path):
    _, args = serve._parse(_argv(tmp_path))
    batch = serve._service_config(args, None)
    assert batch.state_dir == str(tmp_path / "state")
    assert _cache_settings(batch.cache) == (
        str(tmp_path / "cache"), 10, 4096, True
    )
    assert batch.tracer.directory == str(tmp_path / "traces")
    policy = replace(batch, state_dir=None, cache=None, tracer=None)
    owned = [(batch.cache, batch.tracer)]
    for shard in range(args.shards):
        config = serve._service_config(args, None, shard)
        assert config.state_dir == os.path.join(
            str(tmp_path / "state"), f"shard-{shard}"
        )
        assert _cache_settings(config.cache) == _cache_settings(batch.cache)
        assert config.tracer.directory == batch.tracer.directory
        assert replace(config, state_dir=None, cache=None, tracer=None) == (
            policy
        )
        owned.append((config.cache, config.tracer))
    caches = {id(cache) for cache, _ in owned}
    tracers = {id(tracer) for _, tracer in owned}
    assert len(caches) == len(tracers) == len(owned)


def test_no_cache_and_no_tracing_by_default(tmp_path):
    _, args = serve._parse(["in.c"])
    config = serve._service_config(args, None)
    assert config.cache is None and config.tracer is None
    assert config.state_dir is None
    assert serve._service_config(args, None, 1).state_dir is None
