"""Unit tests for the compilation-cache building blocks: content
addressing (:mod:`repro.cache.key`), the in-memory LRU tier, the
on-disk content-addressed tier, the two-tier facade, and the
single-flight table."""

from __future__ import annotations

import json
import os

import pytest

from repro.cache import (
    CompilationCache,
    InflightTable,
    degraded_key,
    stage_key,
)
from repro.cache.cache import DEGRADED_KEY_SUFFIX
from repro.cache.disk import DiskTier
from repro.cache.key import (
    CACHE_FORMAT_VERSION,
    canonicalize_source,
    source_id,
)
from repro.cache.lru import LRUTier
from repro.invocation import CompilerInvocation


def invocation_fingerprint(source: str, **options) -> str:
    return CompilerInvocation(**options).fingerprint(source)


class TestKeys:
    def test_source_canonicalization_normalizes_line_endings(self):
        assert canonicalize_source("a\r\nb\rc\n") == "a\nb\nc\n"
        assert source_id("a\r\nb") == source_id("a\nb")

    def test_defines_are_order_insensitive(self):
        assert invocation_fingerprint(
            "x", defines={"A": "1", "B": "2"}
        ) == invocation_fingerprint("x", defines={"B": "2", "A": "1"})

    def test_stage_key_depends_on_every_ingredient(self):
        base = stage_key("codegen", "parent", ["m"])
        assert stage_key("opt", "parent", ["m"]) != base
        assert stage_key("codegen", "other", ["m"]) != base
        assert stage_key("codegen", "parent", ["n"]) != base
        assert stage_key("codegen", "parent", ["m"]) == base

    def test_fingerprint_is_deterministic_and_flag_sensitive(self):
        fp = invocation_fingerprint("int main() {}\n")
        assert fp == invocation_fingerprint("int main() {}\n")
        assert fp != invocation_fingerprint("int main() {}\n", optimize=True)
        assert fp != invocation_fingerprint(
            "int main() {}\n", enable_irbuilder=True
        )
        assert fp != invocation_fingerprint("int main( ) {}\n")

    def test_fingerprint_include_path_order_matters(self):
        a = invocation_fingerprint("x", include_paths=["inc1", "inc2"])
        b = invocation_fingerprint("x", include_paths=["inc2", "inc1"])
        assert a != b  # header search order is semantics

    def test_degraded_key_is_tagged(self):
        assert degraded_key("abc") == "abc" + DEGRADED_KEY_SUFFIX
        assert degraded_key("abc") != "abc"


class TestLRUTier:
    def test_get_refreshes_recency(self):
        tier = LRUTier(max_entries=2)
        tier.put("a", 1, 1)
        tier.put("b", 2, 1)
        tier.get("a")  # refresh: "b" is now the cold end
        tier.put("c", 3, 1)
        assert "a" in tier and "c" in tier and "b" not in tier

    def test_entry_count_bound(self):
        tier = LRUTier(max_entries=3)
        for i in range(5):
            tier.put(f"k{i}", i, 1)
        assert len(tier) == 3
        assert "k0" not in tier and "k2" in tier

    def test_byte_budget_bound(self):
        tier = LRUTier(max_entries=100, max_bytes=10)
        tier.put("a", "x", 6)
        evicted = tier.put("b", "y", 6)
        assert evicted == 1  # "a" evicted: 12 bytes > 10
        assert "b" in tier and tier.bytes == 6

    def test_replace_updates_bytes(self):
        tier = LRUTier(max_entries=10, max_bytes=100)
        tier.put("a", "x", 40)
        tier.put("a", "y", 10)
        assert tier.bytes == 10 and len(tier) == 1

    def test_rejects_degenerate_bounds(self):
        with pytest.raises(ValueError):
            LRUTier(max_entries=0)
        with pytest.raises(ValueError):
            LRUTier(max_bytes=0)


class TestDiskTier:
    def test_roundtrip_and_stamp(self, tmp_path):
        tier = DiskTier(str(tmp_path / "c"))
        tier.put("k" * 64, {"ir": "define", "diagnostics": ""})
        assert tier.get("k" * 64) == {"ir": "define", "diagnostics": ""}
        assert (tmp_path / "c" / "CACHEDIR.TAG").exists()
        stamp = (tmp_path / "c" / "format").read_text()
        assert str(CACHE_FORMAT_VERSION) in stamp

    def test_alias_roundtrip(self, tmp_path):
        tier = DiskTier(str(tmp_path / "c"))
        tier.put_alias("req" + "0" * 61, "target-key")
        assert tier.get_alias("req" + "0" * 61) == "target-key"
        assert tier.get_alias("ab" + "1" * 62) is None

    def test_corrupt_entry_is_a_miss_not_an_error(self, tmp_path):
        tier = DiskTier(str(tmp_path / "c"))
        key = "f" * 64
        tier.put(key, {"ir": "x"})
        path = tier._object_path(key)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"truncat')
        assert tier.get(key) is None
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('"a bare string, not a dict"')
        assert tier.get(key) is None

    def test_no_temp_files_left_behind(self, tmp_path):
        tier = DiskTier(str(tmp_path / "c"))
        for i in range(8):
            tier.put(f"{i:064x}", {"ir": "x" * 100})
        leftovers = [
            name
            for _, _, names in os.walk(tmp_path)
            for name in names
            if name.startswith(".tmp-")
        ]
        assert leftovers == []

    def test_byte_budget_evicts_oldest(self, tmp_path):
        tier = DiskTier(str(tmp_path / "c"), max_bytes=400)
        for i in range(10):
            tier.put(f"{i:064x}", {"ir": "x" * 80})
        assert tier.evictions > 0
        assert tier.bytes <= 400


class TestCompilationCache:
    def test_artifact_roundtrip_memory_only(self):
        cache = CompilationCache()
        assert cache.get_artifact("k") is None
        cache.put_artifact("k", {"ir": "define", "diagnostics": ""})
        assert cache.get_artifact("k")["ir"] == "define"

    def test_disk_survives_a_new_cache_instance(self, tmp_path):
        d = str(tmp_path / "cache")
        CompilationCache(d).put_artifact("k", {"ir": "persisted"})
        fresh = CompilationCache(d)
        assert fresh.get_artifact("k")["ir"] == "persisted"
        # the hit was promoted into the fresh instance's memory tier
        assert "artifact:k" in fresh.memory

    def test_alias_roundtrip_across_instances(self, tmp_path):
        d = str(tmp_path / "cache")
        CompilationCache(d).put_alias("request-key", "artifact-key")
        assert (
            CompilationCache(d).get_alias("request-key")
            == "artifact-key"
        )

    def test_module_memo_hands_out_copies(self):
        cache = CompilationCache()
        original = {"functions": ["f"]}  # stand-in for a live Module
        cache.put_module("k", original)
        copy1 = cache.get_module("k")
        copy1["functions"].append("mutated")
        copy2 = cache.get_module("k")
        assert copy2 == {"functions": ["f"]}
        assert cache.get_module("missing") is None

    def test_describe_mentions_the_directory(self, tmp_path):
        assert "<memory-only>" in CompilationCache().describe()
        d = str(tmp_path / "cache")
        assert d in CompilationCache(d).describe()


class TestInflightTable:
    def test_leader_follower_fanout(self):
        table = InflightTable()
        table.lead("fp", "leader")
        assert table.leader("fp") == "leader"
        table.follow("fp", "f1")
        table.follow("fp", "f2")
        assert table.parked == 2 and table.collapsed == 2
        assert table.resolve("fp", "leader") == ["f1", "f2"]
        assert table.leader("fp") is None and len(table) == 0

    def test_stale_resolution_cannot_hijack(self):
        table = InflightTable()
        table.lead("fp", "leader-1")
        table.follow("fp", "f1")
        assert table.resolve("fp", "someone-else") == []
        assert table.leader("fp") == "leader-1"
        assert table.resolve("fp", "leader-1") == ["f1"]
