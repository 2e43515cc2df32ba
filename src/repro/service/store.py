"""The durable on-disk content-addressed analysis store (DESIGN.md §13).

The in-memory caches (the :class:`~repro.service.cache.AnalysisCache`
and the per-analysis slice memos) die with the process.  This module is
the second tier: a directory of checksummed slice-result blobs, keyed by
the same content address the memory tier already uses, shared by every
worker of a cluster and surviving worker crashes and full restarts — a
restarted server answers its warm set from disk without re-running any
analysis at all.  Each exact slice is one entry under its exact-source
key (:func:`payload_store_key`); a program re-sent after a formatting
edit misses here and is served by the in-memory incremental tiers
(DESIGN.md §14).

Durability discipline, in order of importance:

**Atomic visibility.**  ``put`` writes to a temp file *in the same
directory*, flushes, ``fsync``\\ s, then ``os.replace``\\ s onto the
final name.  A crash mid-write leaves only a ``*.tmp.*`` orphan (swept
on the next startup) — a reader can never observe a half-written entry
under its real key, because the final name either does not exist or
holds complete bytes.

**Checksums over trust.**  Every entry carries a header line
``slangstore1 <sha256-of-payload> <payload-length>`` ahead of the
payload.  ``get`` re-hashes what it read; any mismatch (bit rot, a torn
page, a hostile writer) **quarantines** the entry — the file is moved
into ``quarantine/``, counted, and ``None`` is returned so the caller
recomputes.  A corrupt entry is therefore *never served*; it is also
never silently deleted, so an operator can inspect what went bad.

**Bounded size.**  The store tracks its approximate payload footprint
and evicts least-recently-*used* entries (access bumps mtime) once
``max_bytes`` is exceeded.  Multiple worker processes share one root
safely: ``os.replace`` is atomic within a filesystem, checksums catch
any interleaving the rename discipline does not, and eviction races
degrade to harmless ``FileNotFoundError``\\ s.

Fault injection: :meth:`DurableStore.arm_corruption` makes the next
``put`` flip one payload bit *after* the checksum is computed — the
deterministic ``store-corruption`` fault the chaos plan uses to prove
the quarantine path end to end.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.tracer import trace_event, trace_span

#: Default footprint bound: generous for test corpora, small enough
#: that a runaway client cannot fill a disk.
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

#: Entry-format magic; bump to invalidate every existing entry.
_MAGIC = b"slangstore1"


def payload_store_key(
    analysis_key: str,
    algorithm: str,
    line: int,
    var: str,
    proc: Optional[str] = None,
) -> str:
    """The content address of one slice-result payload: the program's
    analysis key (source hash + analysis options) plus everything else
    that determines the answer.  ``v1`` pins the stored-wrapper schema.
    """
    digest = hashlib.sha256()
    digest.update(
        f"slice-payload|v1|{analysis_key}|{algorithm}|{line}|{var}|"
        f"{proc or ''}".encode("utf-8")
    )
    return digest.hexdigest()


class DurableStore:
    """A checksummed, size-bounded, multi-process-safe blob store.

    Parameters
    ----------
    root:
        Directory holding ``objects/`` and ``quarantine/``; created on
        first use.  Workers of one cluster all point at the same root.
    max_bytes:
        Approximate payload-byte bound; least-recently-used entries are
        evicted when a ``put`` would exceed it.  ``<= 0`` disables the
        bound (never evict).
    fsync:
        Whether ``put`` fsyncs before renaming.  On by default — the
        durability story depends on it; tests that hammer the store may
        turn it off.
    """

    def __init__(
        self,
        root: str,
        max_bytes: int = DEFAULT_MAX_BYTES,
        fsync: bool = True,
    ) -> None:
        self.root = root
        self.max_bytes = max_bytes
        self.fsync = fsync
        self._objects = os.path.join(root, "objects")
        self._quarantine = os.path.join(root, "quarantine")
        os.makedirs(self._objects, exist_ok=True)
        os.makedirs(self._quarantine, exist_ok=True)
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.evictions = 0
        self.quarantined = 0
        self.errors = 0
        self._corrupt_next = 0
        self._bytes = self._sweep_and_measure()

    # -- paths ---------------------------------------------------------

    def _path(self, key: str) -> str:
        return os.path.join(self._objects, key[:2], key)

    def _sweep_and_measure(self) -> int:
        """Delete crash orphans (``*.tmp.*`` temp files) and return the
        payload footprint of the surviving entries."""
        total = 0
        for dirpath, _, filenames in os.walk(self._objects):
            for name in filenames:
                path = os.path.join(dirpath, name)
                if ".tmp." in name:
                    try:
                        os.remove(path)
                    except OSError:
                        pass
                    continue
                try:
                    total += os.stat(path).st_size
                except OSError:
                    pass
        return total

    # -- the two-tier read path ----------------------------------------

    def get(self, key: str) -> Optional[bytes]:
        """The payload stored under *key*, or ``None`` (miss *or*
        quarantined corruption — the caller recomputes either way)."""
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except FileNotFoundError:
            with self._lock:
                self.misses += 1
            return None
        except OSError:
            with self._lock:
                self.errors += 1
                self.misses += 1
            return None
        payload = self._verify(blob)
        if payload is None:
            self._do_quarantine(key, path)
            return None
        try:
            os.utime(path)  # LRU recency for the eviction scan
        except OSError:
            pass
        with self._lock:
            self.hits += 1
        return payload

    @staticmethod
    def _verify(blob: bytes) -> Optional[bytes]:
        """Parse and checksum one entry; ``None`` means corrupt."""
        header, sep, payload = blob.partition(b"\n")
        if not sep:
            return None
        parts = header.split(b" ")
        if len(parts) != 3 or parts[0] != _MAGIC:
            return None
        want_digest, want_length = parts[1], parts[2]
        try:
            length = int(want_length)
        except ValueError:
            return None
        if length != len(payload):
            return None
        digest = hashlib.sha256(payload).hexdigest().encode("ascii")
        if digest != want_digest:
            return None
        return payload

    def _do_quarantine(self, key: str, path: str) -> None:
        """Move a corrupt entry aside — never serve it, never lose it."""
        target = os.path.join(self._quarantine, os.path.basename(path))
        try:
            size = os.stat(path).st_size
        except OSError:
            size = 0
        try:
            os.replace(path, target)
        except OSError:
            try:
                os.remove(path)
            except OSError:
                pass
        with self._lock:
            self.quarantined += 1
            self.misses += 1
            self._bytes = max(0, self._bytes - size)
        trace_event("store-quarantine", key=key)

    # -- the write path ------------------------------------------------

    def put(self, key: str, payload: bytes) -> bool:
        """Durably store *payload* under *key* (atomic write-rename).

        Returns False (and counts an error) when the filesystem refuses;
        the store is a cache, so a failed put is not fatal.
        """
        digest = hashlib.sha256(payload).hexdigest().encode("ascii")
        with self._lock:
            if self._corrupt_next > 0:
                self._corrupt_next -= 1
                # Flip one payload bit after the checksum: the entry on
                # disk is wrong and the next read must quarantine it.
                payload = bytes([payload[0] ^ 0x01]) + payload[1:]
                trace_event("store-corruption-injected", key=key)
        blob = (
            _MAGIC + b" " + digest + b" "
            + str(len(payload)).encode("ascii") + b"\n" + payload
        )
        directory = os.path.dirname(self._path(key))
        try:
            os.makedirs(directory, exist_ok=True)
            fd, temp_path = tempfile.mkstemp(
                prefix=key + ".tmp.", dir=directory
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(blob)
                    handle.flush()
                    if self.fsync:
                        os.fsync(handle.fileno())
                os.replace(temp_path, self._path(key))
            except BaseException:
                try:
                    os.remove(temp_path)
                except OSError:
                    pass
                raise
        except OSError:
            with self._lock:
                self.errors += 1
            return False
        with self._lock:
            self.puts += 1
            self._bytes += len(blob)
            over = (
                self.max_bytes > 0 and self._bytes > self.max_bytes
            )
        if over:
            self._evict()
        return True

    def _evict(self) -> None:
        """Drop least-recently-used entries until back under the bound.

        Runs outside the counter lock (directory scans are slow); races
        between workers degrade to ``FileNotFoundError``, which is
        ignored — the other worker simply evicted first.
        """
        entries: List[Tuple[float, int, str]] = []
        total = 0
        for dirpath, _, filenames in os.walk(self._objects):
            for name in filenames:
                if ".tmp." in name:
                    continue
                path = os.path.join(dirpath, name)
                try:
                    stat = os.stat(path)
                except OSError:
                    continue
                entries.append((stat.st_mtime, stat.st_size, path))
                total += stat.st_size
        entries.sort()
        evicted = 0
        for _, size, path in entries:
            if self.max_bytes <= 0 or total <= self.max_bytes:
                break
            try:
                os.remove(path)
            except OSError:
                continue
            total -= size
            evicted += 1
        with self._lock:
            self._bytes = total
            self.evictions += evicted

    # -- JSON convenience (the engine's unit of storage) ---------------

    def get_json(self, key: str) -> Optional[Any]:
        with trace_span("store-lookup") as span:
            payload = self.get(key)
            span.set(hit=payload is not None)
        if payload is None:
            return None
        try:
            return json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            # Checksummed-but-unparseable means a writer stored garbage
            # under a good checksum; treat exactly like corruption.
            self._do_quarantine(key, self._path(key))
            with self._lock:
                self.hits -= 1  # the get above counted a hit
            return None

    def put_json(self, key: str, payload: Any) -> bool:
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        return self.put(key, blob)

    # -- chaos / observability -----------------------------------------

    def arm_corruption(self, count: int = 1) -> None:
        """Make the next *count* puts write a corrupt entry (checksum
        computed before a bit flip) — the ``store-corruption`` fault."""
        with self._lock:
            self._corrupt_next += count

    def entry_count(self) -> int:
        count = 0
        for _, _, filenames in os.walk(self._objects):
            count += sum(1 for name in filenames if ".tmp." not in name)
        return count

    def stats(self) -> Dict[str, Any]:
        """Counter snapshot for ``/stats`` (``store`` key) and tests."""
        with self._lock:
            total = self.hits + self.misses
            return {
                "root": self.root,
                "max_bytes": self.max_bytes,
                "bytes": self._bytes,
                "hits": self.hits,
                "misses": self.misses,
                "puts": self.puts,
                "evictions": self.evictions,
                "quarantined": self.quarantined,
                "errors": self.errors,
                "hit_rate": round(self.hits / total, 4) if total else 0.0,
            }
