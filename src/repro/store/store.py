"""The durable, crash-safe, content-addressed result store.

A :class:`ResultStore` generalizes the process-lifetime memo caches
(:class:`~repro.exec.cache.TraceCache`/:class:`~repro.exec.cache.ResultCache`)
into a disk-backed store an exploration campaign can survive on: kill the
process at any instruction and reopening the store always yields a
consistent prefix of the committed entries — never a torn record, never a
silently wrong payload.

On-disk layout (one directory)::

    <root>/META.json          store identity: format version, key scheme
    <root>/journal.jsonl      write-ahead journal of committed segment lengths
    <root>/segments/seg-000001.jsonl   append-only entry records
    <root>/quarantine/bad-entries.jsonl  corrupt records moved aside

Entry records are one JSON line each::

    {"k": "<kind>/<sha256 of the memo key>",
     "s": "<sha256 of the payload bytes>",
     "p": "<base64 payload>"}

**Commit protocol** (:meth:`ResultStore.put`): the record is appended to
the current segment, flushed, and ``fsync``\\ ed; only then is the
segment's new byte length appended to the journal and ``fsync``\\ ed. A
crash between the two steps leaves an uncommitted tail after the last
journaled length — reopening truncates it away. Metadata rewrites
(``META.json``, journal compaction, ``gc``, ``export``) go through
``tmp + fsync + rename``, so they are atomic on POSIX filesystems.

**Read path**: payload checksums are verified on every :meth:`get`. A
record that fails its checksum (bit rot, an overwrite landing inside a
committed region) is *quarantined* — its raw bytes move to
``quarantine/``, the key drops from the index, and the caller sees a
miss, so the value is recomputed instead of crashing the run or serving
garbage.

Hit/miss/corruption counters live on a ``store``-component
:class:`~repro.obs.metrics.MetricRegistry` so they export next to every
other metric surface. All operations are thread-safe (one lock): the
exploration daemon shares a single store across its worker threads.
Cross-*process* writers are not coordinated — one writer per store.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import json
import os
import pickle
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Hashable, List, Optional, Tuple

from repro.errors import StoreCorruptionError, StoreError
from repro.obs.log import get_logger
from repro.obs.metrics import MetricRegistry
from repro.store.keys import PICKLE_PROTOCOL, stable_key

__all__ = ["ResultStore", "StoreVerifyReport", "FORMAT_VERSION"]

_log = get_logger("store")

FORMAT_VERSION = 1

#: Segment rotation threshold: a new append past this size starts a new
#: segment file, keeping any single scan/truncate/compaction bounded.
DEFAULT_SEGMENT_MAX_BYTES = 4 * 1024 * 1024

_SEGMENT_DIR = "segments"
_QUARANTINE_DIR = "quarantine"
_META_NAME = "META.json"
_JOURNAL_NAME = "journal.jsonl"
_QUARANTINE_FILE = "bad-entries.jsonl"


def _fsync_dir(path: Path) -> None:
    """Best-effort directory fsync (durability of renames/creates)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fs without dir-fsync
        pass
    finally:
        os.close(fd)


def _atomic_write(path: Path, data: bytes) -> None:
    """tmp + fsync + rename: the file is either the old or the new bytes."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    _fsync_dir(path.parent)


@dataclass(frozen=True)
class StoreVerifyReport:
    """Outcome of a full integrity scan (``repro-explore store verify``)."""

    entries: int
    verified: int
    corrupt: Tuple[str, ...] = ()
    quarantined_bytes: int = 0

    @property
    def ok(self) -> bool:
        return not self.corrupt

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.corrupt)} CORRUPT"
        return (
            f"{self.entries} entries, {self.verified} verified, {status}"
            + (
                f" ({self.quarantined_bytes} bytes quarantined)"
                if self.quarantined_bytes
                else ""
            )
        )


@dataclass
class _IndexEntry:
    segment: str
    offset: int
    length: int
    payload_sha: str = field(repr=False, default="")


class ResultStore:
    """Disk-backed content-addressed store with crash-safe appends.

    ``root`` is created on first open. ``segment_max_bytes`` bounds each
    append-only segment file before rotation. Values are pickled with the
    pinned protocol from :mod:`repro.store.keys`, so a stored
    :class:`~repro.sim.results.SimulationResult` round-trips bit-exactly
    (floats included) — the property the byte-identical-resume guarantee
    rests on.
    """

    def __init__(
        self,
        root: "str | Path",
        segment_max_bytes: int = DEFAULT_SEGMENT_MAX_BYTES,
    ) -> None:
        if segment_max_bytes < 1:
            raise StoreError(
                f"segment_max_bytes must be >= 1, got {segment_max_bytes}"
            )
        self.root = Path(root)
        self.segment_max_bytes = segment_max_bytes
        self.metrics = MetricRegistry("store")
        self._hits = self.metrics.counter(
            "hits", unit="lookups", description="store lookups served from disk"
        )
        self._misses = self.metrics.counter(
            "misses", unit="lookups", description="store lookups with no entry"
        )
        self._puts = self.metrics.counter(
            "puts", unit="entries", description="entries committed to disk"
        )
        self._bytes_written = self.metrics.counter(
            "bytes_written", unit="bytes", description="record bytes appended"
        )
        self._corruptions = self.metrics.counter(
            "corruptions",
            unit="entries",
            description="corrupt entries quarantined instead of served",
        )
        self._entries_gauge = self.metrics.gauge(
            "entries", unit="entries", description="live entries in the index"
        )
        self._lock = threading.RLock()
        self._index: Dict[str, _IndexEntry] = {}
        self._segment_handle = None
        self._segment_name = ""
        self._segment_length = 0
        self._journal_handle = None
        self._closed = True
        self._open()

    @classmethod
    def open_existing(cls, root: "str | Path") -> "ResultStore":
        """Open a store that must already exist, creating nothing.

        The maintenance commands (``repro-explore store stat|verify|gc|
        export``) inspect a store; pointed at a directory without
        ``META.json`` they raise :class:`StoreCorruptionError` instead of
        initializing an empty store there and reporting it healthy.
        """
        if not (Path(root) / _META_NAME).is_file():
            raise StoreCorruptionError(f"{root} is not a result store (no {_META_NAME})")
        return cls(root)

    # -- paths -------------------------------------------------------------

    @property
    def _segments_dir(self) -> Path:
        return self.root / _SEGMENT_DIR

    @property
    def _quarantine_dir(self) -> Path:
        return self.root / _QUARANTINE_DIR

    @property
    def _meta_path(self) -> Path:
        return self.root / _META_NAME

    @property
    def _journal_path(self) -> Path:
        return self.root / _JOURNAL_NAME

    def _segment_path(self, name: str) -> Path:
        return self._segments_dir / name

    # -- open / recovery ---------------------------------------------------

    def _open(self) -> None:
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            self._segments_dir.mkdir(exist_ok=True)
            self._quarantine_dir.mkdir(exist_ok=True)
        except OSError as exc:
            raise StoreError(f"cannot create store root {self.root}: {exc}") from exc
        if self._meta_path.exists():
            self._check_meta()
        else:
            _atomic_write(
                self._meta_path,
                json.dumps(
                    {"format": FORMAT_VERSION, "pickle_protocol": PICKLE_PROTOCOL},
                    sort_keys=True,
                ).encode("utf-8")
                + b"\n",
            )
        committed = self._replay_journal()
        for path in sorted(self._segments_dir.glob("seg-*.jsonl")):
            self._recover_segment(path, committed.get(path.name))
        self._entries_gauge.set(len(self._index))
        # Resume appends on the highest-numbered segment (or start fresh).
        names = sorted(p.name for p in self._segments_dir.glob("seg-*.jsonl"))
        self._segment_name = names[-1] if names else self._next_segment_name("")
        self._closed = False

    def _check_meta(self) -> None:
        try:
            meta = json.loads(self._meta_path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise StoreError(
                f"store meta {self._meta_path} is unreadable: {exc}"
            ) from exc
        if not isinstance(meta, dict) or meta.get("format") != FORMAT_VERSION:
            raise StoreError(
                f"store {self.root} has format {meta.get('format')!r}; "
                f"this build reads format {FORMAT_VERSION}"
            )

    def _replay_journal(self) -> Dict[str, int]:
        """Last committed byte length per segment (torn trailing line ok)."""
        committed: Dict[str, int] = {}
        if not self._journal_path.exists():
            return committed
        try:
            raw = self._journal_path.read_bytes()
        except OSError as exc:
            raise StoreError(
                f"cannot read store journal {self._journal_path}: {exc}"
            ) from exc
        for line in raw.split(b"\n"):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                segment = record["segment"]
                length = int(record["length"])
            except (ValueError, TypeError, KeyError):
                # A torn trailing journal line is the expected shape of a
                # crash between segment-fsync and journal-fsync; the entry
                # it described is simply not yet committed. Debug, not
                # warning: recovery is routine, and a resumed run's stdout
                # must stay byte-identical to an uninterrupted one.
                _log.debug(
                    "store %s: ignoring torn journal line (%d bytes)",
                    self.root,
                    len(line),
                )
                continue
            committed[segment] = length
        return committed

    def _recover_segment(self, path: Path, committed_length: Optional[int]) -> None:
        """Index one segment's records; truncate uncommitted/torn tails.

        With a journaled length, everything beyond it is an uncommitted
        tail from a crash mid-append — dropped without ceremony. Without
        one (journal lost, or the crash predated the first commit), the
        longest cleanly-parsing newline-terminated prefix is kept.
        Newline-terminated records that fail to parse *inside* the
        committed region are genuine corruption: quarantined, scan
        continues.
        """
        try:
            raw = path.read_bytes()
        except OSError as exc:
            raise StoreError(f"cannot read store segment {path}: {exc}") from exc
        limit = len(raw) if committed_length is None else min(committed_length, len(raw))
        truncate_to: Optional[int] = None
        if committed_length is not None and len(raw) > committed_length:
            truncate_to = committed_length
        offset = 0
        while offset < limit:
            newline = raw.find(b"\n", offset, limit)
            if newline < 0:
                if committed_length is None:
                    # Torn final record with no journal to consult: the
                    # clean prefix ends here.
                    truncate_to = offset
                else:
                    # The journal says these bytes were committed, yet the
                    # record is unterminated — corruption, not a torn
                    # append. Quarantine and drop.
                    self._quarantine_bytes(path.name, raw[offset:limit])
                    truncate_to = offset
                break
            line = raw[offset : newline + 1]
            entry = self._parse_record(path.name, offset, line)
            if entry is not None:
                key, index_entry = entry
                self._index[key] = index_entry
            offset = newline + 1
        if truncate_to is not None:
            # Debug for the same byte-identity reason as the journal case:
            # dropping an uncommitted tail is normal crash recovery.
            _log.debug(
                "store %s: truncating %s to %d committed bytes (%d dropped)",
                self.root,
                path.name,
                truncate_to,
                len(raw) - truncate_to,
            )
            with open(path, "r+b") as handle:
                handle.truncate(truncate_to)
                handle.flush()
                os.fsync(handle.fileno())

    def _parse_record(
        self, segment: str, offset: int, line: bytes
    ) -> Optional[Tuple[str, _IndexEntry]]:
        """One record line -> (key, index entry), quarantining bad lines."""
        try:
            record = json.loads(line)
            key = record["k"]
            payload_sha = record["s"]
            if not isinstance(key, str) or not isinstance(payload_sha, str):
                raise TypeError("record fields must be strings")
            record["p"]  # presence check; decoded lazily on get()
        except (ValueError, TypeError, KeyError):
            self._quarantine_bytes(segment, line)
            return None
        return key, _IndexEntry(
            segment=segment, offset=offset, length=len(line), payload_sha=payload_sha
        )

    @staticmethod
    def _next_segment_name(current: str) -> str:
        if not current:
            return "seg-000001.jsonl"
        number = int(current[len("seg-") : -len(".jsonl")])
        return f"seg-{number + 1:06d}.jsonl"

    # -- write path --------------------------------------------------------

    def _ensure_open(self) -> None:
        if self._closed:
            raise StoreError(f"store {self.root} is closed")

    def _writer(self):
        if self._segment_handle is None:
            path = self._segment_path(self._segment_name)
            self._segment_handle = open(path, "ab")
            self._segment_length = self._segment_handle.tell()
        return self._segment_handle

    def _rotate_if_needed(self) -> None:
        if self._segment_length < self.segment_max_bytes:
            return
        self._segment_handle.close()
        self._segment_handle = None
        self._segment_name = self._next_segment_name(self._segment_name)
        self._segment_length = 0

    def _journal_commit(self, segment: str, length: int) -> None:
        if self._journal_handle is None:
            self._journal_handle = open(self._journal_path, "ab")
        line = (
            json.dumps({"segment": segment, "length": length}, sort_keys=True).encode(
                "utf-8"
            )
            + b"\n"
        )
        self._journal_handle.write(line)
        self._journal_handle.flush()
        os.fsync(self._journal_handle.fileno())

    def put_bytes(self, key: str, payload: bytes) -> None:
        """Durably commit one entry (overwrites any prior value for key)."""
        record = (
            json.dumps(
                {
                    "k": key,
                    "s": hashlib.sha256(payload).hexdigest(),
                    "p": base64.b64encode(payload).decode("ascii"),
                },
                sort_keys=True,
            ).encode("utf-8")
            + b"\n"
        )
        with self._lock:
            self._ensure_open()
            self._rotate_if_needed()
            handle = self._writer()
            offset = self._segment_length
            try:
                handle.write(record)
                handle.flush()
                os.fsync(handle.fileno())
            except OSError as exc:
                raise StoreError(
                    f"cannot append to store segment {self._segment_name}: {exc}"
                ) from exc
            self._segment_length = offset + len(record)
            self._journal_commit(self._segment_name, self._segment_length)
            self._index[key] = _IndexEntry(
                segment=self._segment_name,
                offset=offset,
                length=len(record),
                payload_sha=hashlib.sha256(payload).hexdigest(),
            )
            self._puts.inc()
            self._bytes_written.inc(len(record))
            self._entries_gauge.set(len(self._index))

    def get_bytes(self, key: str) -> Optional[bytes]:
        """The payload for ``key``, checksum-verified, or ``None``.

        A committed record that fails its checksum is quarantined and
        reported as a miss — the caller recomputes; the run never crashes
        on store corruption.
        """
        with self._lock:
            self._ensure_open()
            entry = self._index.get(key)
            if entry is None:
                self._misses.inc()
                return None
            payload = self._read_verified(key, entry)
            if payload is None:
                self._misses.inc()
                return None
            self._hits.inc()
            return payload

    def _read_verified(self, key: str, entry: _IndexEntry) -> Optional[bytes]:
        path = self._segment_path(entry.segment)
        try:
            # Appends go through a separate handle; flush it so a
            # same-process read-after-write sees the committed bytes.
            if self._segment_handle is not None and entry.segment == self._segment_name:
                self._segment_handle.flush()
            with open(path, "rb") as handle:
                handle.seek(entry.offset)
                line = handle.read(entry.length)
        except OSError:
            self._quarantine_entry(key, entry, b"")
            return None
        try:
            record = json.loads(line)
            payload = base64.b64decode(record["p"], validate=True)
            if record["k"] != key:
                raise ValueError(f"record key {record['k']!r} != index key {key!r}")
            if hashlib.sha256(payload).hexdigest() != record["s"]:
                raise ValueError("payload checksum mismatch")
        except (ValueError, TypeError, KeyError, binascii.Error):
            self._quarantine_entry(key, entry, line)
            return None
        return payload

    # -- quarantine --------------------------------------------------------

    def _quarantine_bytes(self, segment: str, raw: bytes) -> None:
        """Move corrupt record bytes aside (append-only quarantine file)."""
        self._corruptions.inc()
        wrapper = (
            json.dumps(
                {"segment": segment, "raw": base64.b64encode(raw).decode("ascii")},
                sort_keys=True,
            ).encode("utf-8")
            + b"\n"
        )
        try:
            with open(self._quarantine_dir / _QUARANTINE_FILE, "ab") as handle:
                handle.write(wrapper)
                handle.flush()
                os.fsync(handle.fileno())
        except OSError:  # pragma: no cover - quarantine is best-effort
            _log.warning("store %s: could not persist quarantined record", self.root)
        _log.warning(
            "store %s: quarantined a corrupt record from %s (%d bytes)",
            self.root,
            segment,
            len(raw),
        )

    def _quarantine_entry(self, key: str, entry: _IndexEntry, raw: bytes) -> None:
        self._quarantine_bytes(entry.segment, raw)
        self._index.pop(key, None)
        self._entries_gauge.set(len(self._index))

    # -- typed convenience layer -------------------------------------------

    def put_object(self, memo_key: Hashable, value: object, kind: str = "result") -> str:
        """Pickle + commit ``value`` under the stable key of ``memo_key``."""
        key = stable_key(memo_key, kind=kind)
        self.put_bytes(key, pickle.dumps(value, protocol=PICKLE_PROTOCOL))
        return key

    def get_object(self, memo_key: Hashable, kind: str = "result") -> Optional[object]:
        """The stored value for ``memo_key``, or ``None`` (miss/corrupt)."""
        payload = self.get_bytes(stable_key(memo_key, kind=kind))
        if payload is None:
            return None
        try:
            return pickle.loads(payload)
        except Exception:
            # Checksum passed but the pickle is undecodable (e.g. written
            # by a build whose classes changed shape): treat as a miss.
            self._corruptions.inc()
            _log.warning(
                "store %s: entry for kind %r unpickles no longer; recomputing",
                self.root,
                kind,
            )
            return None

    # -- maintenance operations (CLI: store stat/verify/gc/export) ---------

    def __len__(self) -> int:
        return len(self._index)

    @property
    def hits(self) -> int:
        return int(self._hits.value)

    @property
    def misses(self) -> int:
        return int(self._misses.value)

    @property
    def corruptions(self) -> int:
        return int(self._corruptions.value)

    def stat(self) -> Dict[str, float]:
        """Flat statistics for ``store stat`` and metrics export."""
        with self._lock:
            self._ensure_open()
            segment_files = sorted(self._segments_dir.glob("seg-*.jsonl"))
            quarantine_path = self._quarantine_dir / _QUARANTINE_FILE
            data: Dict[str, float] = {
                "entries": len(self._index),
                "segments": len(segment_files),
                "segment_bytes": float(
                    sum(p.stat().st_size for p in segment_files)
                ),
                "quarantine_bytes": float(
                    quarantine_path.stat().st_size if quarantine_path.exists() else 0
                ),
            }
            data.update(self.metrics.as_dict())
            return data

    def verify(self, strict: bool = False) -> StoreVerifyReport:
        """Checksum every live entry; optionally raise on any corruption.

        Unlike the lazy read path this does not quarantine — ``verify``
        is a report, not a mutation — but it counts and names the bad
        keys so ``store verify`` can exit nonzero and ``gc`` can drop
        them.
        """
        with self._lock:
            self._ensure_open()
            corrupt: List[str] = []
            verified = 0
            quarantined = 0
            for key, entry in sorted(self._index.items()):
                path = self._segment_path(entry.segment)
                try:
                    with open(path, "rb") as handle:
                        handle.seek(entry.offset)
                        line = handle.read(entry.length)
                    record = json.loads(line)
                    payload = base64.b64decode(record["p"], validate=True)
                    ok = (
                        record["k"] == key
                        and hashlib.sha256(payload).hexdigest() == record["s"]
                    )
                except (OSError, ValueError, TypeError, KeyError, binascii.Error):
                    ok = False
                    line = b""
                if ok:
                    verified += 1
                else:
                    corrupt.append(key)
                    quarantined += len(line)
            report = StoreVerifyReport(
                entries=len(self._index),
                verified=verified,
                corrupt=tuple(corrupt),
                quarantined_bytes=quarantined,
            )
        if strict and not report.ok:
            raise StoreCorruptionError(
                f"store {self.root} failed verification: "
                f"{len(report.corrupt)} corrupt entr"
                f"{'y' if len(report.corrupt) == 1 else 'ies'}"
            )
        return report

    def gc(self) -> Dict[str, int]:
        """Compact: rewrite live verified entries, drop dead/corrupt bytes.

        Live records are copied into a fresh first segment written via
        ``tmp + fsync + rename``; superseded duplicates, quarantine-bound
        corruption, and uncommitted tails all disappear. The journal is
        rewritten to the compacted state the same way. Returns counts.
        """
        with self._lock:
            self._ensure_open()
            live: List[Tuple[str, bytes]] = []
            dropped = 0
            for key, entry in sorted(self._index.items()):
                payload = self._read_verified(key, entry)
                if payload is None:
                    dropped += 1
                    continue
                live.append((key, payload))
            before_bytes = sum(
                p.stat().st_size for p in self._segments_dir.glob("seg-*.jsonl")
            )
            if self._segment_handle is not None:
                self._segment_handle.close()
                self._segment_handle = None
            if self._journal_handle is not None:
                self._journal_handle.close()
                self._journal_handle = None
            lines = []
            for key, payload in live:
                lines.append(
                    json.dumps(
                        {
                            "k": key,
                            "s": hashlib.sha256(payload).hexdigest(),
                            "p": base64.b64encode(payload).decode("ascii"),
                        },
                        sort_keys=True,
                    ).encode("utf-8")
                    + b"\n"
                )
            compacted = b"".join(lines)
            fresh_name = "seg-000001.jsonl"
            _atomic_write(self._segment_path(fresh_name), compacted)
            for path in self._segments_dir.glob("seg-*.jsonl"):
                if path.name != fresh_name:
                    path.unlink()
            _atomic_write(
                self._journal_path,
                json.dumps(
                    {"segment": fresh_name, "length": len(compacted)}, sort_keys=True
                ).encode("utf-8")
                + b"\n",
            )
            self._index.clear()
            offset = 0
            for (key, _payload), line in zip(live, lines):
                parsed = self._parse_record(fresh_name, offset, line)
                assert parsed is not None
                self._index[key] = parsed[1]
                offset += len(line)
            self._segment_name = fresh_name
            self._segment_length = len(compacted)
            self._entries_gauge.set(len(self._index))
            after_bytes = len(compacted)
            return {
                "kept": len(live),
                "dropped": dropped,
                "reclaimed_bytes": max(0, before_bytes - after_bytes),
            }

    def export(self, path: "str | Path") -> int:
        """Write every live verified entry to one portable JSONL file.

        The export is itself written atomically; each line is a full
        record (key, checksum, payload), so a store can be rebuilt from
        it. Returns the number of entries exported.
        """
        with self._lock:
            self._ensure_open()
            lines = []
            for key, entry in sorted(self._index.items()):
                payload = self._read_verified(key, entry)
                if payload is None:
                    continue
                lines.append(
                    json.dumps(
                        {
                            "k": key,
                            "s": hashlib.sha256(payload).hexdigest(),
                            "p": base64.b64encode(payload).decode("ascii"),
                        },
                        sort_keys=True,
                    ).encode("utf-8")
                    + b"\n"
                )
            _atomic_write(Path(path), b"".join(lines))
            return len(lines)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            if self._segment_handle is not None:
                self._segment_handle.close()
                self._segment_handle = None
            if self._journal_handle is not None:
                self._journal_handle.close()
                self._journal_handle = None
            self._closed = True

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ResultStore {self.root} entries={len(self._index)}>"
