"""The on-disk content-addressed tier.

Layout (ccache-style two-level fan-out under the cache directory)::

    DIR/
      CACHEDIR.TAG                  # marks the tree as disposable
      format                        # human-readable format stamp
      objects/ab/abcdef....json     # one sealed artifact per content key
      aliases/12/1234....           # exact-request key -> content key

Writes are atomic (temp file + ``os.replace``) so concurrent readers —
service workers share one directory — never observe a torn entry, and
a duplicate write from two racing processes converges on identical
bytes anyway because keys are content addresses.  Every file is a
checksummed envelope (:mod:`repro.cache.integrity`): reads verify the
SHA-256 before deserializing, so a truncated or bit-rotted entry is
*detected* (``cache.corrupt-entries``), deleted (self-healing), and
reported as a miss — never served.  A cache must degrade to "slower",
not "broken", and above all never to "wrong bytes".

Write failures are classified by errno instead of being swallowed:
ENOSPC / EROFS / EACCES disable the disk tier (memory-only operation,
``cache.disk-disabled``) with a one-time diagnostic per class and a
periodic re-probe that re-enables it once the condition clears.  With
``durable=True`` (driver flag ``-fcache-durable``) data and directory
are fsynced before/after the rename — SQLite's atomic-commit ordering
— so entries survive power loss, not just process death.

Eviction is size-triggered: when a put grows the tree past
``max_bytes``, the oldest entries by mtime go first (reads refresh
mtime, making this an approximate LRU across processes).

The deterministic ``storage-*`` fault-injection sites live here, as an
I/O shim under the normal code paths; their :class:`InjectedFault` is
converted into the simulated physical condition inside this module and
never escapes it.
"""

from __future__ import annotations

import errno
import os
import sys
import tempfile
import time
from typing import Callable, Optional

from repro.cache.integrity import IntegrityError, seal, unseal
from repro.cache.key import CACHE_FORMAT_VERSION
from repro.instrument.faultinject import FAULTS, InjectedFault
from repro.instrument.stats import get_statistic

_FORMAT_STAMP = f"miniclang-cache format {CACHE_FORMAT_VERSION}\n"
_CACHEDIR_TAG = (
    "Signature: 8a477f597d28d172789f06886806bc55\n"
    "# This directory is a miniclang compilation cache.\n"
)

_CORRUPT_ENTRIES = get_statistic(
    "cache",
    "corrupt-entries",
    "Corrupt/truncated disk entries detected, deleted, not served",
)
_DISK_WRITE_ERRORS = get_statistic(
    "cache", "disk-write-errors", "Disk-tier writes that failed"
)
_DISK_ENOSPC = get_statistic(
    "cache", "disk-enospc", "Disk-tier writes failed with ENOSPC"
)
_DISK_READONLY = get_statistic(
    "cache", "disk-readonly", "Disk-tier writes failed with EROFS"
)
_DISK_DENIED = get_statistic(
    "cache", "disk-denied", "Disk-tier writes failed with EACCES/EPERM"
)
_DISK_DISABLED = get_statistic(
    "cache",
    "disk-disabled",
    "Times the disk tier degraded to memory-only operation",
)
_DISK_REPROBES = get_statistic(
    "cache",
    "disk-reprobes",
    "Write probes attempted while the disk tier was disabled",
)
_DISK_REENABLED = get_statistic(
    "cache",
    "disk-reenabled",
    "Times a re-probe brought the disk tier back online",
)
_DISK_READ_ERRORS = get_statistic(
    "cache",
    "disk-read-errors",
    "Disk-tier reads that failed for reasons other than absence",
)

#: errno values that disable the tier until a re-probe succeeds; any
#: other write error is counted but treated as transient.
_DISABLING_ERRNOS = {
    errno.ENOSPC: ("enospc", _DISK_ENOSPC, "filesystem full"),
    errno.EDQUOT: ("enospc", _DISK_ENOSPC, "disk quota exceeded"),
    errno.EROFS: ("readonly", _DISK_READONLY, "read-only filesystem"),
    errno.EACCES: ("denied", _DISK_DENIED, "permission denied"),
    errno.EPERM: ("denied", _DISK_DENIED, "permission denied"),
}


def _default_diagnostic(message: str) -> None:
    # One write per line: concurrent workers share stderr, and print()
    # issues the newline separately, which interleaves their warnings.
    sys.stderr.write(f"miniclang: warning: {message}\n")


class DiskTier:
    """Content-addressed store rooted at *directory*."""

    #: seconds a degraded tier waits before letting a put re-probe
    REPROBE_INTERVAL_S = 30.0

    def __init__(
        self,
        directory: str,
        max_bytes: int = 256 * 1024 * 1024,
        *,
        durable: bool = False,
        clock: Callable[[], float] = time.monotonic,
        diagnostic: Callable[[str], None] = _default_diagnostic,
    ) -> None:
        self.directory = directory
        self.max_bytes = max_bytes
        self.durable = durable
        self._clock = clock
        self._diagnostic = diagnostic
        self._objects = os.path.join(directory, "objects")
        self._aliases = os.path.join(directory, "aliases")
        #: total entries dropped by the byte-budget eviction sweep
        self.evictions = 0
        #: monotonic time at which a put may re-probe; None = healthy
        self._reprobe_at: Optional[float] = None
        #: error classes already surfaced via a diagnostic
        self._reported: set[str] = set()
        try:
            os.makedirs(self._objects, exist_ok=True)
            os.makedirs(self._aliases, exist_ok=True)
        except OSError as err:
            # A read-only (or otherwise unwritable) store is still
            # readable; degrade writes immediately instead of raising.
            self._note_write_error(err, self.directory)
        else:
            self._stamp()

    def _stamp(self) -> None:
        for name, text in (
            ("format", _FORMAT_STAMP),
            ("CACHEDIR.TAG", _CACHEDIR_TAG),
        ):
            path = os.path.join(self.directory, name)
            if not os.path.exists(path):
                try:
                    self._atomic_write(path, text)
                except OSError as err:
                    self._note_write_error(err, path)

    # -- health --------------------------------------------------------
    @property
    def write_disabled(self) -> bool:
        """True while the tier is degraded to memory-only writes."""
        return self._reprobe_at is not None

    def _note_write_error(self, err: OSError, path: str) -> None:
        _DISK_WRITE_ERRORS.inc()
        entry = _DISABLING_ERRNOS.get(getattr(err, "errno", None))
        if entry is None:
            # Transient (EIO, EINTR, ...): counted, not disabling.
            if "transient" not in self._reported:
                self._reported.add("transient")
                self._diagnostic(
                    f"disk cache {self.directory}: write failed "
                    f"({err}); entry skipped"
                )
            return
        cls, stat, human = entry
        stat.inc()
        if self._reprobe_at is None:
            _DISK_DISABLED.inc()
        self._reprobe_at = self._clock() + self.REPROBE_INTERVAL_S
        if cls not in self._reported:
            self._reported.add(cls)
            self._diagnostic(
                f"disk cache {self.directory}: {human} "
                f"(errno {err.errno}); continuing memory-only, will "
                f"re-probe every {self.REPROBE_INTERVAL_S:.0f}s"
            )

    def _writes_allowed(self) -> bool:
        """True when a write should be attempted — either the tier is
        healthy or the degraded tier is due for a re-probe (the
        caller's own write acts as the probe)."""
        if self._reprobe_at is None:
            return True
        if self._clock() >= self._reprobe_at:
            _DISK_REPROBES.inc()
            return True
        return False

    def _note_write_ok(self) -> None:
        if self._reprobe_at is not None:
            self._reprobe_at = None
            self._reported.clear()
            _DISK_REENABLED.inc()
            self._diagnostic(
                f"disk cache {self.directory}: write probe succeeded; "
                "disk tier re-enabled"
            )

    # ------------------------------------------------------------------
    def _object_path(self, key: str) -> str:
        return os.path.join(self._objects, key[:2], key + ".json")

    def _alias_path(self, key: str) -> str:
        return os.path.join(self._aliases, key[:2], key)

    def _atomic_write(self, path: str, text: str) -> int:
        """Temp file + rename; with :attr:`durable`, fsync the data
        before the rename and the directory after it (the SQLite
        atomic-commit ordering).  The ``storage-*`` fault sites shim in
        here, each converted to the physical condition it simulates."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        data = text.encode("utf-8")
        if FAULTS.armed:
            try:
                FAULTS.hit("storage-write-enospc")
            except InjectedFault:
                raise OSError(
                    errno.ENOSPC,
                    "no space left on device (injected)",
                    path,
                ) from None
            try:
                FAULTS.hit("storage-write-torn")
            except InjectedFault:
                # The torn half still gets renamed into place: the
                # checksum on the next read is what must catch it.
                data = data[: max(1, len(data) // 2)]
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(path), prefix=".tmp-"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
                if self.durable:
                    fh.flush()
                    if FAULTS.armed:
                        try:
                            FAULTS.hit("storage-fsync-fail")
                        except InjectedFault:
                            raise OSError(
                                errno.EIO,
                                "fsync failed (injected)",
                                path,
                            ) from None
                    os.fsync(fh.fileno())
            if FAULTS.armed:
                try:
                    FAULTS.hit("storage-rename-fail")
                except InjectedFault:
                    raise OSError(
                        errno.EIO, "rename failed (injected)", path
                    ) from None
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        if self.durable:
            self._fsync_dir(os.path.dirname(path))
        return len(data)

    @staticmethod
    def _fsync_dir(dirpath: str) -> None:
        try:
            fd = os.open(dirpath, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)

    def _read(self, path: str) -> Optional[bytes]:
        """Raw bytes, or None when the file is absent.  Read errors
        other than absence are counted and surfaced once; corruption
        detection happens in the caller via :func:`unseal`."""
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as err:
            if getattr(err, "errno", None) not in (
                errno.ENOENT,
                errno.ENOTDIR,
            ):
                _DISK_READ_ERRORS.inc()
                if "read" not in self._reported:
                    self._reported.add("read")
                    self._diagnostic(
                        f"disk cache {self.directory}: read failed "
                        f"({err}); treating as a miss"
                    )
            return None
        if FAULTS.armed and data:
            try:
                FAULTS.hit("storage-read-corrupt")
            except InjectedFault:
                # Flip the first byte: deterministic bit rot the
                # checksum verification must catch.
                data = bytes([data[0] ^ 0xFF]) + data[1:]
        return data

    def _heal(self, path: str, defect: str) -> None:
        """A corrupt entry: count it, surface the first one, delete it
        so the next lookup recomputes (self-healing)."""
        _CORRUPT_ENTRIES.inc()
        if "corrupt" not in self._reported:
            self._reported.add("corrupt")
            self._diagnostic(
                f"disk cache {self.directory}: corrupt entry "
                f"{os.path.basename(path)} removed ({defect})"
            )
        try:
            os.unlink(path)
        except OSError:
            pass

    @staticmethod
    def _touch(path: str) -> None:
        try:
            os.utime(path, None)
        except OSError:
            pass

    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[dict]:
        """Fetch one artifact; an absent entry is a plain miss, a
        present-but-invalid entry is *corruption*: detected, deleted,
        and reported as a miss — never deserialized into a result."""
        path = self._object_path(key)
        data = self._read(path)
        if data is None:
            return None
        try:
            obj = unseal(data)
        except IntegrityError as err:
            self._heal(path, str(err))
            return None
        if not isinstance(obj, dict):
            self._heal(path, "payload is not an object")
            return None
        self._touch(path)
        return obj

    def put(self, key: str, obj: dict) -> int:
        """Store one artifact; returns bytes written (0 on failure —
        a full disk must not fail the compile)."""
        try:
            text = seal(obj)
        except (TypeError, ValueError):
            return 0
        written = self._store(self._object_path(key), text)
        if written:
            self._maybe_evict()
        return written

    def get_alias(self, key: str) -> Optional[str]:
        path = self._alias_path(key)
        data = self._read(path)
        if data is None:
            return None
        try:
            obj = unseal(data)
        except IntegrityError as err:
            self._heal(path, str(err))
            return None
        target = obj.get("target") if isinstance(obj, dict) else None
        if not isinstance(target, str) or not target:
            self._heal(path, "alias payload malformed")
            return None
        self._touch(path)
        return target

    def put_alias(self, key: str, target: str) -> None:
        self._store(self._alias_path(key), seal({"target": target}))

    def _store(self, path: str, text: str) -> int:
        if not self._writes_allowed():
            return 0
        try:
            written = self._atomic_write(path, text)
        except OSError as err:
            self._note_write_error(err, path)
            return 0
        self._note_write_ok()
        return written

    # -- maintenance (miniclang-cache verify / gc / doctor) ------------
    def verify(self, repair: bool = False) -> dict:
        """Scan every entry, recomputing checksums.  With *repair*,
        corrupt entries and stale temp files are deleted."""
        report = {
            "objects": 0,
            "aliases": 0,
            "ok": 0,
            "corrupt": 0,
            "removed": 0,
            "tmp": 0,
            "corrupt_paths": [],
        }
        for root, kind in (
            (self._objects, "objects"),
            (self._aliases, "aliases"),
        ):
            for dirpath, _, filenames in os.walk(root):
                for name in filenames:
                    path = os.path.join(dirpath, name)
                    if name.startswith(".tmp-"):
                        report["tmp"] += 1
                        if repair:
                            self._unlink_quiet(path)
                            report["removed"] += 1
                        continue
                    report[kind] += 1
                    defect = self._verify_one(path, kind)
                    if defect is None:
                        report["ok"] += 1
                        continue
                    report["corrupt"] += 1
                    report["corrupt_paths"].append(path)
                    if repair:
                        self._heal(path, defect)
                        report["removed"] += 1
        return report

    def _verify_one(self, path: str, kind: str) -> Optional[str]:
        """None when the sealed entry is intact, else the defect."""
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as err:
            return f"unreadable: {err}"
        try:
            obj = unseal(data)
        except IntegrityError as err:
            return str(err)
        if kind == "objects" and not isinstance(obj, dict):
            return "payload is not an object"
        if kind == "aliases":
            target = (
                obj.get("target") if isinstance(obj, dict) else None
            )
            if not isinstance(target, str) or not target:
                return "alias payload malformed"
        return None

    def gc(self) -> dict:
        """Remove stale temp files and orphan aliases (whose target
        object no longer exists), then enforce the byte budget."""
        report = {"tmp": 0, "orphan_aliases": 0, "evicted": 0}
        for dirpath, _, filenames in os.walk(self.directory):
            for name in filenames:
                if name.startswith(".tmp-"):
                    self._unlink_quiet(os.path.join(dirpath, name))
                    report["tmp"] += 1
        for dirpath, _, filenames in os.walk(self._aliases):
            for name in filenames:
                path = os.path.join(dirpath, name)
                data = self._read(path)
                if data is None:
                    continue
                try:
                    obj = unseal(data)
                except IntegrityError as err:
                    self._heal(path, str(err))
                    continue
                target = (
                    obj.get("target")
                    if isinstance(obj, dict)
                    else None
                )
                if not isinstance(target, str) or not os.path.exists(
                    self._object_path(target)
                ):
                    self._unlink_quiet(path)
                    report["orphan_aliases"] += 1
        report["evicted"] = self._maybe_evict()
        return report

    @staticmethod
    def _unlink_quiet(path: str) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass

    # ------------------------------------------------------------------
    def _walk_entries(self) -> list[tuple[float, int, str]]:
        entries: list[tuple[float, int, str]] = []
        for root in (self._objects, self._aliases):
            for dirpath, _, filenames in os.walk(root):
                for name in filenames:
                    if name.startswith(".tmp-"):
                        continue
                    path = os.path.join(dirpath, name)
                    try:
                        st = os.stat(path)
                    except OSError:
                        continue
                    entries.append((st.st_mtime, st.st_size, path))
        return entries

    @property
    def bytes(self) -> int:
        return sum(size for _, size, _ in self._walk_entries())

    def __len__(self) -> int:
        return len(self._walk_entries())

    def _maybe_evict(self) -> int:
        """Drop oldest entries until the tree fits the byte budget."""
        entries = self._walk_entries()
        total = sum(size for _, size, _ in entries)
        if total <= self.max_bytes:
            return 0
        evicted = 0
        for _, size, path in sorted(entries):
            try:
                os.unlink(path)
            except OSError:
                continue
            total -= size
            evicted += 1
            if total <= self.max_bytes:
                break
        self.evictions += evicted
        return evicted
