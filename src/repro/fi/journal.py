"""Shared fsync'd-JSONL journal primitives for multi-process stores.

:class:`~repro.fi.resilience.InjectionJournal` (§9) and
:class:`~repro.fi.compose.SectionProfileStore` (§15) independently
grew the same on-disk discipline: append-only JSONL, one flushed and
fsync'd line per event, a torn-tail-tolerant loader that discards an
unterminated final line (the expected artifact of ``SIGKILL`` mid
``write``).  This module extracts that discipline once and hardens it
for *shared* files that many campaign processes read and write
concurrently (DESIGN §16):

* **Per-line CRC32 checksums** — every appended document carries a
  ``"c"`` field: the CRC32 of its canonical JSON serialization without
  that field.  Each line is written as exactly that canonical encoding
  with ``,"c":N`` spliced in before the closing brace, so opening a
  file checks every line with one CRC over its raw bytes and decodes
  nothing until a consumer reads it.  Lines from older writers (spaced
  separators, insertion order) fall back to decode-and-re-serialize;
  documents written before checksums existed simply lack the field
  and load as before, so v1 journals and stores remain readable.

* **Corrupt-line quarantine** — a *complete* line (newline-terminated)
  that fails to parse or fails its checksum is not a torn tail: it is
  corruption (bitrot, a non-advisory writer, a partial overwrite).
  The scanner skips it, logs it to a sidecar ``<path>.quarantine``
  file, and keeps going — a corrupt row must never crash a campaign
  nor silently end the scan and shadow every later, valid row.  Only
  an unterminated final line is treated as a torn tail and silently
  discarded.

* **Advisory cross-process locking** — :class:`FileLock` wraps
  ``fcntl.flock`` on a sidecar ``<path>.lock`` file (the data file's
  fd cannot be used: compaction atomically replaces the data inode)
  with bounded retry and exponential backoff.  Exhausting the budget
  raises a loud :class:`~repro.errors.StoreLockTimeout` naming the
  path, mode, and how long was waited — callers decide whether that
  is fatal or a reason to degrade to a private store.

Scans run in binary mode and report byte offsets, so a long-lived
reader can cheaply re-scan only the tail another process appended
since its last look (the refresh path of the shared store).
"""

from __future__ import annotations

import json
import os
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Tuple

from ..errors import StoreLockTimeout

try:  # pragma: no cover - exercised only on platforms without fcntl
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None

__all__ = [
    "CRC_FIELD",
    "FileLock",
    "JournalLine",
    "QuarantineLog",
    "ScanStats",
    "append_doc",
    "canonical_crc",
    "check_line",
    "encode_line",
    "fsync_dir",
    "scan_jsonl",
    "seal_doc",
]

#: reserved top-level key carrying a document's own checksum
CRC_FIELD = "c"

#: default lock-acquisition budget (seconds); override per-lock or via
#: the environment for slow shared filesystems
DEFAULT_LOCK_TIMEOUT = 30.0
_LOCK_TIMEOUT_ENV = "REPRO_STORE_LOCK_TIMEOUT"


def _env_lock_timeout() -> float:
    raw = os.environ.get(_LOCK_TIMEOUT_ENV)
    if not raw:
        return DEFAULT_LOCK_TIMEOUT
    try:
        value = float(raw)
    except ValueError:
        raise StoreLockTimeout(
            f"{_LOCK_TIMEOUT_ENV} must be a number of seconds, "
            f"got {raw!r}") from None
    if value <= 0:
        raise StoreLockTimeout(
            f"{_LOCK_TIMEOUT_ENV} must be positive, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# checksummed documents
# ---------------------------------------------------------------------------

def _canonical(doc: dict) -> str:
    if CRC_FIELD in doc:
        doc = {k: v for k, v in doc.items() if k != CRC_FIELD}
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def canonical_crc(doc: dict) -> int:
    """CRC32 of a document's canonical JSON form (sans ``"c"``).

    Canonical means sorted keys and compact separators, so the checksum
    is independent of the key order and whitespace the writer happened
    to serialize with — a reloaded-and-rewritten document (compaction)
    keeps its checksum.
    """
    return zlib.crc32(_canonical(doc).encode("utf-8")) & 0xFFFFFFFF


def seal_doc(doc: dict) -> dict:
    """Return ``doc`` with its checksum field appended (last).

    ``json.dumps`` of a sealed doc is how older writers spelled a line;
    :func:`encode_line` is the writer now.
    """
    sealed = {k: v for k, v in doc.items() if k != CRC_FIELD}
    sealed[CRC_FIELD] = canonical_crc(sealed)
    return sealed


def encode_line(doc: dict) -> str:
    """One journal line: the canonical encoding the checksum is defined
    over, with ``,"c":N`` spliced in before the closing brace.

    Because the line *is* the checksummed byte string (minus the
    splice), a reader verifies it with one CRC over the raw bytes,
    without decoding it (:func:`scan_jsonl`).
    """
    canon = _canonical(doc)
    crc = zlib.crc32(canon.encode("utf-8")) & 0xFFFFFFFF
    if canon == "{}":
        return f'{{"{CRC_FIELD}":{crc}}}\n'
    return f'{canon[:-1]},"{CRC_FIELD}":{crc}}}\n'


def append_doc(fh, doc: dict) -> None:
    """Append one JSONL line durably: write, flush, fsync."""
    fh.write(encode_line(doc))
    fh.flush()
    os.fsync(fh.fileno())


def fsync_dir(path: str) -> None:
    """fsync a directory so a rename inside it is durable."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover
        pass
    finally:
        os.close(fd)


# ---------------------------------------------------------------------------
# quarantine sidecar
# ---------------------------------------------------------------------------

class QuarantineLog:
    """Sidecar log of corrupt lines skipped while scanning a journal.

    Best-effort by design: quarantining exists so a corrupt row cannot
    crash a campaign, so the quarantine write itself must never raise.
    """

    def __init__(self, journal_path: str):
        self.path = journal_path + ".quarantine"

    def record(self, *, offset: int, line: bytes, reason: str) -> None:
        entry = {
            "ts": time.time(),
            "offset": offset,
            "reason": reason,
            "line": line.decode("utf-8", errors="replace")[:4096],
        }
        try:
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(entry) + "\n")
                fh.flush()
                os.fsync(fh.fileno())
        except OSError:
            pass


# ---------------------------------------------------------------------------
# torn-tail-tolerant, quarantining scanner
# ---------------------------------------------------------------------------

@dataclass
class ScanStats:
    """Outcome of one :func:`scan_jsonl` pass."""

    #: valid documents delivered to the handler
    docs: int = 0
    #: complete lines skipped as corrupt (parse or checksum failure)
    corrupt: int = 0
    #: documents that carried and passed a checksum
    crc_checked: int = 0
    #: documents accepted without a checksum field (legacy writers)
    crc_missing: int = 0
    #: an unterminated final line was discarded
    torn_tail: bool = False
    #: byte offset just past the last complete line examined — the
    #: resume point for an incremental tail re-scan
    offset: int = 0


_CRC_SPLICE = b',"' + CRC_FIELD.encode() + b'":'
#: bytes per read while scanning
_SCAN_CHUNK = 1 << 20


def check_line(raw: bytes) -> Tuple[Optional[dict], Optional[str], bool]:
    """Decode one line and check it the slow way: parse, then
    re-serialize canonically and compare checksums.

    Returns ``(doc, reason, checksummed)``: the document without its
    checksum field and ``reason`` None, or ``doc`` None and the reason
    the line is corrupt.  This accepts every line a writer ever sealed,
    whatever its key order or separators (legacy lines, lines without a
    checksum); :func:`scan_jsonl` uses it only when the raw check fails,
    and ``repro store verify`` runs it on every line.
    """
    try:
        doc = json.loads(raw)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        return None, f"unparseable JSON: {exc}", False
    if not isinstance(doc, dict):
        return None, f"not a JSON object: {type(doc).__name__}", False
    if CRC_FIELD not in doc:
        return doc, None, False
    claimed = doc.pop(CRC_FIELD)
    actual = canonical_crc(doc)
    if claimed != actual:
        return None, (f"checksum mismatch: line claims "
                      f"{claimed!r}, content is {actual}"), True
    return doc, None, True


class JournalLine:
    """One verified journal line, decoded only when read.

    ``raw`` is the line's bytes without the newline; ``parsed`` is its
    document once decoded, else None.  Lines that passed the raw-bytes
    checksum arrive undecoded and decode on first :meth:`doc`; lines
    the scanner had to decode to check (legacy formats) arrive decoded.
    Either way the document reads without its checksum field.  A line
    that matched its checksum yet does not decode to an object (only a
    forged line or a CRC collision can) reads as an empty document.
    """

    __slots__ = ("raw", "parsed")

    def __init__(self, raw: bytes, parsed: Optional[dict] = None):
        self.raw = raw
        self.parsed = parsed

    def doc(self) -> dict:
        doc = self.parsed
        if doc is None:
            try:
                doc = json.loads(self.raw.decode("utf-8"))
            except ValueError:
                doc = {}
            if not isinstance(doc, dict):
                doc = {}
            doc.pop(CRC_FIELD, None)
            self.parsed = doc
        return doc


def scan_jsonl(
    path: str,
    on_line: Callable[[JournalLine], None],
    *,
    start: int = 0,
    quarantine: Optional[QuarantineLog] = None,
) -> ScanStats:
    """Scan ``path`` from byte ``start``, delivering verified lines.

    Every *complete* line (newline-terminated) is checksummed here, in
    the scan, and either reaches ``on_line`` as a :class:`JournalLine`
    or is quarantined and skipped.  A line written by
    :func:`encode_line` is verified with one CRC over its raw bytes and
    is not decoded; any other line falls back to :func:`check_line`.
    An unterminated final line is the torn tail of a killed writer:
    discarded, scan ends.
    """
    crc32 = zlib.crc32
    splice = _CRC_SPLICE
    skip = len(splice)
    offset = start
    raw_ok = checked = missing = corrupt = 0
    tail = b""
    with open(path, "rb") as fh:
        if start:
            fh.seek(start)
        # fixed-size reads: a scan holds one chunk of the file, not all
        # of it, beside whatever the callback keeps
        for chunk in iter(lambda: fh.read(_SCAN_CHUNK), b""):
            lines = (tail + chunk if tail else chunk).split(b"\n")
            tail = lines.pop()
            for raw in lines:
                line_offset = offset
                offset += len(raw) + 1
                # the raw check: the bytes before the final ``,"c":``
                # plus the closing brace are the canonical encoding,
                # the digits its CRC
                cut = raw.rfind(splice)
                if cut > 0 and raw[-1:] == b"}":
                    digits = raw[cut + skip:-1]
                    if digits.isdigit() and \
                            crc32(b"}", crc32(raw[:cut])) == int(digits):
                        raw_ok += 1
                        on_line(JournalLine(raw))
                        continue
                doc, reason, checksummed = check_line(raw)
                if reason is not None:
                    corrupt += 1
                    if quarantine is not None:
                        quarantine.record(offset=line_offset,
                                          line=raw + b"\n", reason=reason)
                    continue
                if checksummed:
                    checked += 1
                else:
                    missing += 1
                on_line(JournalLine(raw, doc))
    torn_tail = bool(tail)
    return ScanStats(docs=raw_ok + checked + missing, corrupt=corrupt,
                     crc_checked=raw_ok + checked, crc_missing=missing,
                     torn_tail=torn_tail, offset=offset)


# ---------------------------------------------------------------------------
# advisory cross-process locking
# ---------------------------------------------------------------------------

class FileLock:
    """``fcntl.flock`` advisory lock with bounded exponential backoff.

    The lock lives on its own sidecar file so it survives atomic
    replacement of the data file (compaction renames a fresh journal
    over the old inode; an flock on the old inode would guard
    nothing).  Acquisition polls with ``LOCK_NB`` and sleeps with
    exponential backoff up to ``timeout`` seconds, then raises
    :class:`~repro.errors.StoreLockTimeout` — loudly, with the path
    and wait budget, never a silent hang.  On platforms without
    ``fcntl`` the lock degrades to a no-op (single-process semantics).
    """

    def __init__(self, path: str, *, timeout: Optional[float] = None,
                 initial_delay: float = 0.002, max_delay: float = 0.1):
        self.path = path
        self.timeout = timeout if timeout is not None else _env_lock_timeout()
        self.initial_delay = initial_delay
        self.max_delay = max_delay
        self._fd: Optional[int] = None
        #: acquisitions that had to wait at least one backoff round
        self.contended = 0
        #: total acquisitions (for stats reporting)
        self.acquisitions = 0

    @property
    def supported(self) -> bool:
        return fcntl is not None

    @property
    def held(self) -> bool:
        return self._fd is not None

    def acquire(self, *, shared: bool = False) -> None:
        if self._fd is not None:
            raise StoreLockTimeout(
                f"lock {self.path!r} is already held by this handle "
                f"(non-reentrant)")
        fd = os.open(self.path, os.O_CREAT | os.O_RDWR, 0o644)
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            self._fd = fd
            self.acquisitions += 1
            return
        mode = fcntl.LOCK_SH if shared else fcntl.LOCK_EX
        deadline = time.monotonic() + self.timeout
        delay = self.initial_delay
        waited = False
        while True:
            try:
                fcntl.flock(fd, mode | fcntl.LOCK_NB)
                break
            except (BlockingIOError, PermissionError):
                if time.monotonic() >= deadline:
                    os.close(fd)
                    raise StoreLockTimeout(
                        f"could not acquire {'shared' if shared else 'exclusive'} "
                        f"lock on {self.path!r} within {self.timeout:g}s; "
                        f"another campaign holds it (set "
                        f"{_LOCK_TIMEOUT_ENV} to wait longer)") from None
                waited = True
                time.sleep(delay)
                delay = min(delay * 2, self.max_delay)
        self._fd = fd
        self.acquisitions += 1
        if waited:
            self.contended += 1

    def release(self) -> None:
        if self._fd is None:
            return
        fd, self._fd = self._fd, None
        try:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_UN)
        finally:
            os.close(fd)

    @contextmanager
    def exclusive(self) -> Iterator[None]:
        self.acquire(shared=False)
        try:
            yield
        finally:
            self.release()

    @contextmanager
    def shared(self) -> Iterator[None]:
        self.acquire(shared=True)
        try:
            yield
        finally:
            self.release()
