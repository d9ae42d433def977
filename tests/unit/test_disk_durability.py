"""Crash-safety of the on-disk cache tier: self-verifying entries,
errno-class degradation with re-probe, injected I/O faults, and the
``miniclang-cache`` maintenance surface (verify / gc / doctor)."""

from __future__ import annotations

import errno
import json
import os
import sys

import pytest

from repro.cache.disk import DiskTier

REPROBE_INTERVAL_S = DiskTier.REPROBE_INTERVAL_S
from repro.cache.integrity import (
    IntegrityError,
    payload_digest,
    seal,
    unseal,
)
from repro.instrument.faultinject import FAULTS
from repro.instrument.stats import STATS, stat_values

KEY = "artifact:" + "cd" * 32
PAYLOAD = {"ir": "ret i32 7", "stage": "codegen"}


@pytest.fixture(autouse=True)
def _disarm():
    FAULTS.disarm_all()
    yield
    FAULTS.disarm_all()


def _quiet(_msg: str) -> None:
    pass


def make_tier(tmp_path, **kwargs) -> DiskTier:
    kwargs.setdefault("diagnostic", _quiet)
    return DiskTier(str(tmp_path / "cache"), **kwargs)


# ----------------------------------------------------------------------
# Integrity envelope
# ----------------------------------------------------------------------
class TestEnvelope:
    def test_roundtrip(self):
        assert unseal(seal(PAYLOAD)) == PAYLOAD

    def test_digest_is_stable_under_key_order(self):
        a = {"x": 1, "y": [1, 2]}
        b = {"y": [1, 2], "x": 1}
        assert payload_digest(a) == payload_digest(b)

    def test_tampered_payload_rejected(self):
        envelope = json.loads(seal(PAYLOAD))
        envelope["payload"]["ir"] = "ret i32 8"
        with pytest.raises(IntegrityError):
            unseal(json.dumps(envelope))

    def test_foreign_format_rejected(self):
        envelope = json.loads(seal(PAYLOAD))
        envelope["format"] = 999
        with pytest.raises(IntegrityError):
            unseal(json.dumps(envelope))


# ----------------------------------------------------------------------
# Self-healing reads
# ----------------------------------------------------------------------
class TestSelfHealing:
    def test_corrupt_object_detected_counted_deleted(self, tmp_path):
        tier = make_tier(tmp_path)
        tier.put(KEY, PAYLOAD)
        path = tier._object_path(KEY)
        with open(path, "ab") as fh:
            fh.write(b"garbage")
        before = STATS.snapshot()
        assert tier.get(KEY) is None
        assert not os.path.exists(path)
        delta = stat_values(STATS.delta_since(before))
        assert delta.get("cache.corrupt-entries", 0) == 1

    def test_corrupt_alias_detected(self, tmp_path):
        tier = make_tier(tmp_path)
        tier.put_alias("alias:" + "ee" * 32, KEY)
        path = tier._alias_path("alias:" + "ee" * 32)
        with open(path, "wb") as fh:
            fh.write(b"\x00\x01\x02")
        assert tier.get_alias("alias:" + "ee" * 32) is None
        assert not os.path.exists(path)

    def test_healed_entry_can_be_rewritten(self, tmp_path):
        tier = make_tier(tmp_path)
        tier.put(KEY, PAYLOAD)
        path = tier._object_path(KEY)
        with open(path, "wb") as fh:
            fh.write(b"torn")
        assert tier.get(KEY) is None
        assert tier.put(KEY, PAYLOAD) > 0
        assert tier.get(KEY) == PAYLOAD

    def test_default_warning_is_one_write(self, tmp_path, monkeypatch):
        """Service workers share stderr: a warning written as message
        and newline separately interleaves with another worker's."""
        writes: list[str] = []

        class Recorder:
            def write(self, text: str) -> int:
                writes.append(text)
                return len(text)

            def flush(self) -> None:
                pass

        monkeypatch.setattr(sys, "stderr", Recorder())
        tier = DiskTier(str(tmp_path / "cache"))
        tier.put(KEY, PAYLOAD)
        with open(tier._object_path(KEY), "ab") as fh:
            fh.write(b"garbage")
        assert tier.get(KEY) is None
        assert len(writes) == 1, writes
        assert writes[0].startswith("miniclang: warning: disk cache ")
        assert writes[0].endswith(")\n")


# ----------------------------------------------------------------------
# errno classification and degradation
# ----------------------------------------------------------------------
class TestDegradation:
    def test_enospc_disables_writes(self, tmp_path):
        tier = make_tier(tmp_path)
        before = STATS.snapshot()
        tier._note_write_error(
            OSError(errno.ENOSPC, "disk full"), "p"
        )
        assert tier.write_disabled
        delta = stat_values(STATS.delta_since(before))
        assert delta.get("cache.disk-disabled", 0) == 1
        assert delta.get("cache.disk-enospc", 0) == 1
        # Reads still work while writes are off.
        assert tier.get(KEY) is None

    def test_readonly_and_denied_disable(self, tmp_path):
        for code in (errno.EROFS, errno.EACCES):
            tier = make_tier(tmp_path / str(code))
            tier._note_write_error(OSError(code, "no"), "p")
            assert tier.write_disabled

    def test_transient_eio_does_not_disable(self, tmp_path):
        tier = make_tier(tmp_path)
        before = STATS.snapshot()
        tier._note_write_error(OSError(errno.EIO, "blip"), "p")
        assert not tier.write_disabled
        delta = stat_values(STATS.delta_since(before))
        assert delta.get("cache.disk-write-errors", 0) == 1

    def test_reprobe_reenables_after_interval(self, tmp_path):
        now = [0.0]
        tier = make_tier(tmp_path, clock=lambda: now[0])
        tier._note_write_error(OSError(errno.ENOSPC, "full"), "p")
        assert tier.put(KEY, PAYLOAD) == 0  # gated, not crashing
        assert tier.get(KEY) is None
        now[0] = REPROBE_INTERVAL_S + 1.0
        before = STATS.snapshot()
        assert tier.put(KEY, PAYLOAD) > 0  # the probe succeeds
        assert not tier.write_disabled
        assert tier.get(KEY) == PAYLOAD
        delta = stat_values(STATS.delta_since(before))
        assert delta.get("cache.disk-reenabled", 0) == 1

    def test_diagnostic_reported_once_per_class(self, tmp_path):
        messages: list[str] = []
        tier = DiskTier(
            str(tmp_path / "cache"), diagnostic=messages.append
        )
        err = OSError(errno.ENOSPC, "full")
        tier._note_write_error(err, "p")
        tier._note_write_error(err, "p")
        assert len(messages) == 1


# ----------------------------------------------------------------------
# Injected storage faults are absorbed in-place
# ----------------------------------------------------------------------
class TestInjectedFaults:
    def test_torn_write_detected_on_read(self, tmp_path):
        tier = make_tier(tmp_path)
        FAULTS.arm_spec("storage-write-torn")
        tier.put(KEY, PAYLOAD)
        FAULTS.disarm_all()
        before = STATS.snapshot()
        assert tier.get(KEY) is None  # torn half never served
        delta = stat_values(STATS.delta_since(before))
        assert delta.get("cache.corrupt-entries", 0) == 1

    def test_enospc_fault_degrades(self, tmp_path):
        tier = make_tier(tmp_path)
        FAULTS.arm_spec("storage-write-enospc")
        assert tier.put(KEY, PAYLOAD) == 0
        FAULTS.disarm_all()
        assert tier.write_disabled

    def test_rename_fault_leaves_no_entry(self, tmp_path):
        tier = make_tier(tmp_path)
        FAULTS.arm_spec("storage-rename-fail")
        assert tier.put(KEY, PAYLOAD) == 0
        FAULTS.disarm_all()
        assert tier.get(KEY) is None
        assert tier.verify()["tmp"] == 0  # temp file cleaned up

    def test_read_corrupt_fault_heals(self, tmp_path):
        tier = make_tier(tmp_path)
        tier.put(KEY, PAYLOAD)
        FAULTS.arm_spec("storage-read-corrupt")
        before = STATS.snapshot()
        assert tier.get(KEY) is None
        FAULTS.disarm_all()
        delta = stat_values(STATS.delta_since(before))
        assert delta.get("cache.corrupt-entries", 0) == 1

    def test_fsync_fault_durable_counts_write_error(self, tmp_path):
        tier = make_tier(tmp_path, durable=True)
        FAULTS.arm_spec("storage-fsync-fail")
        before = STATS.snapshot()
        assert tier.put(KEY, PAYLOAD) == 0
        FAULTS.disarm_all()
        delta = stat_values(STATS.delta_since(before))
        assert delta.get("cache.disk-write-errors", 0) == 1
        assert not tier.write_disabled  # EIO is transient

    def test_fsync_fault_ignored_without_durable(self, tmp_path):
        tier = make_tier(tmp_path, durable=False)
        FAULTS.arm_spec("storage-fsync-fail")
        assert tier.put(KEY, PAYLOAD) > 0
        FAULTS.disarm_all()
        assert tier.get(KEY) == PAYLOAD


# ----------------------------------------------------------------------
# Maintenance surface
# ----------------------------------------------------------------------
class TestMaintenance:
    def test_verify_reports_and_repairs(self, tmp_path):
        tier = make_tier(tmp_path)
        tier.put(KEY, PAYLOAD)
        other = "artifact:" + "ff" * 32
        tier.put(other, PAYLOAD)
        with open(tier._object_path(other), "wb") as fh:
            fh.write(b"junk")
        report = tier.verify()
        assert report["objects"] == 2
        assert report["corrupt"] == 1
        assert report["removed"] == 0
        report = tier.verify(repair=True)
        assert report["removed"] == 1
        assert tier.verify()["corrupt"] == 0

    def test_gc_drops_orphan_aliases(self, tmp_path):
        tier = make_tier(tmp_path)
        tier.put(KEY, PAYLOAD)
        tier.put_alias("alias:" + "aa" * 32, KEY)
        tier.put_alias("alias:" + "bb" * 32, "artifact:" + "00" * 32)
        report = tier.gc()
        assert report["orphan_aliases"] == 1
        assert tier.get_alias("alias:" + "aa" * 32) == KEY

    def test_cachectl_verify_exit_codes(self, tmp_path, capsys):
        from repro.driver.cachectl import main as cachectl

        tier = make_tier(tmp_path)
        tier.put(KEY, PAYLOAD)
        root = str(tmp_path / "cache")
        assert cachectl(["-d", root, "verify"]) == 0
        with open(tier._object_path(KEY), "wb") as fh:
            fh.write(b"junk")
        assert cachectl(["-d", root, "verify"]) == 1
        assert cachectl(["-d", root, "verify", "--repair"]) == 0
        assert cachectl(["-d", root, "doctor"]) == 0
        capsys.readouterr()

    def test_cachectl_doctor_missing_dir(self, tmp_path, capsys):
        from repro.driver.cachectl import main as cachectl

        assert (
            cachectl(["-d", str(tmp_path / "nowhere"), "doctor"]) == 1
        )
        capsys.readouterr()
