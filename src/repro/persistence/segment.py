"""On-disk record framing for the delta log's segment files.

A segment file is a flat sequence of records, each framed as::

    +----------------+----------------+------------------+
    | length (4, BE) | crc32 (4, BE)  | payload (length) |
    +----------------+----------------+------------------+

The CRC covers the payload bytes only; the length field is implicitly
validated by the CRC (a corrupted length mis-frames the payload, and the
checksum over the mis-framed bytes fails).  Readers stop at the first
record that does not validate — a short header, a short payload (the
classic torn write: the process died mid-``write``) or a checksum mismatch
(bit rot, or a torn write that happened to leave enough bytes).  Everything
before that point is trustworthy; everything after it is garbage by
definition, because records are written strictly sequentially.

Payloads are JSON documents (UTF-8) behind a one-byte codec marker:
``0x00`` for raw JSON, ``0x01`` for zlib-deflated JSON.  Large payloads
(commit and checkpoint records) compress 4-6x, which matters because the
persist phase's cost is dominated by bytes pushed through ``write`` —
the marker is covered by the CRC like every other payload byte.  Values
that JSON cannot represent directly — the engine's ``SET``-typed column
values are frozensets — are tagged via a ``json`` default/object-hook
pair (see :func:`encode_value` / :func:`decode_value` for the scalar
form); floats round-trip exactly (``json`` serializes ``repr``-faithful
shortest forms).

This module knows nothing about record *semantics* (commits, checkpoints,
segment headers) — that is :mod:`repro.persistence.log`'s job.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from typing import Any, BinaryIO, Iterator

__all__ = [
    "RECORD_HEADER",
    "SEGMENT_PREFIX",
    "SEGMENT_SUFFIX",
    "SegmentWriter",
    "decode_payload",
    "decode_value",
    "encode_payload",
    "encode_value",
    "frame_record",
    "iter_records",
    "scan_segment",
    "segment_base",
    "segment_file_name",
]

#: ``(length, crc32)`` — both unsigned 32-bit big-endian.
RECORD_HEADER = struct.Struct(">II")

SEGMENT_PREFIX = "wal-"
SEGMENT_SUFFIX = ".seg"


# -- value / payload codec ---------------------------------------------------------

_SET_KEY = "__set__"


def encode_value(value: Any) -> Any:
    """Make one column value JSON-safe (sets become tagged lists)."""
    if isinstance(value, (set, frozenset)):
        return {_SET_KEY: sorted((encode_value(v) for v in value), key=repr)}
    return value


def decode_value(value: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    if isinstance(value, dict) and _SET_KEY in value and len(value) == 1:
        return frozenset(decode_value(v) for v in value[_SET_KEY])
    return value


def _json_default(value: Any) -> Any:
    # Only reached for values json cannot serialize itself, so plain rows
    # (the overwhelmingly common case) pay nothing for set support.
    if isinstance(value, (set, frozenset)):
        return {_SET_KEY: sorted((encode_value(v) for v in value), key=repr)}
    raise TypeError(f"cannot log value of type {type(value).__name__}")


def _json_object_hook(obj: dict[str, Any]) -> Any:
    if _SET_KEY in obj and len(obj) == 1:
        return frozenset(obj[_SET_KEY])
    return obj


#: Codec marker bytes (first payload byte, covered by the CRC).
_RAW = b"\x00"
_DEFLATE = b"\x01"

#: Deflate payloads past this size; tiny ones (segment headers, idle
#: commits) are not worth the round-trip.
COMPRESS_THRESHOLD = 256


def encode_payload(document: Any) -> bytes:
    """Serialize one record payload (compact separators, stable key order)."""
    # No sort_keys: record payloads are built with deterministic key order
    # already (same code path every tick), and sorting is measurable on the
    # hot persist path.
    data = json.dumps(
        document, separators=(",", ":"), default=_json_default
    ).encode("utf-8")
    if len(data) >= COMPRESS_THRESHOLD:
        return _DEFLATE + zlib.compress(data, 1)
    return _RAW + data


def decode_payload(data: bytes) -> Any:
    body = zlib.decompress(data[1:]) if data[:1] == _DEFLATE else data[1:]
    return json.loads(body.decode("utf-8"), object_hook=_json_object_hook)


# -- record framing ----------------------------------------------------------------


def frame_record(payload: bytes) -> bytes:
    """Frame *payload* as one on-disk record (header + bytes)."""
    return RECORD_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def iter_records(data: bytes) -> Iterator[tuple[int, bytes]]:
    """Yield ``(offset_in_data, payload)`` for every *valid* record.

    Stops — silently — at the first record that fails validation: a
    truncated header, a truncated payload, or a CRC mismatch.  The offset
    of the first invalid byte is therefore ``offset + header + len(payload)``
    of the last yielded record (or 0 if nothing validated); callers that
    repair files use :func:`scan_segment`, which reports it directly.
    """
    position = 0
    total = len(data)
    while position + RECORD_HEADER.size <= total:
        length, crc = RECORD_HEADER.unpack_from(data, position)
        start = position + RECORD_HEADER.size
        end = start + length
        if end > total:
            return  # torn tail: payload extends past the file
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            return  # corrupt record: everything after it is untrustworthy
        yield position, payload
        position = end


def scan_segment(path: str) -> tuple[list[bytes], int, int]:
    """Read one segment file; returns ``(payloads, valid_bytes, total_bytes)``.

    ``valid_bytes`` is the length of the longest validating prefix — the
    truncation point a repair pass should cut the file to.  A fully healthy
    segment has ``valid_bytes == total_bytes``.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    payloads: list[bytes] = []
    valid = 0
    for offset, payload in iter_records(data):
        payloads.append(payload)
        valid = offset + RECORD_HEADER.size + len(payload)
    return payloads, valid, len(data)


# -- segment naming ----------------------------------------------------------------


def segment_file_name(base_offset: int) -> str:
    """The file name of the segment whose first record has *base_offset*."""
    return f"{SEGMENT_PREFIX}{base_offset:016d}{SEGMENT_SUFFIX}"


def segment_base(file_name: str) -> int | None:
    """Parse a segment file name back to its base record offset."""
    if not file_name.startswith(SEGMENT_PREFIX) or not file_name.endswith(SEGMENT_SUFFIX):
        return None
    digits = file_name[len(SEGMENT_PREFIX) : -len(SEGMENT_SUFFIX)]
    return int(digits) if digits.isdigit() else None


class SegmentWriter:
    """Appends framed records to one segment file.

    The writer always appends; ``flush`` pushes Python and OS buffers, and
    with ``fsync=True`` forces the bytes to stable storage (the durability
    knob: cheap-and-buffered by default, paranoid on request).
    """

    def __init__(self, path: str, *, fsync: bool = False):
        self.path = path
        self.fsync = fsync
        exists = os.path.exists(path)
        self._handle: BinaryIO = open(path, "ab")
        self.bytes_written = os.path.getsize(path) if exists else 0

    def append(self, payload: bytes) -> int:
        """Append one record; returns the bytes added to the file."""
        framed = frame_record(payload)
        self._handle.write(framed)
        self.bytes_written += len(framed)
        return len(framed)

    def flush(self) -> None:
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        if not self._handle.closed:
            self.flush()
            self._handle.close()

    def __enter__(self) -> "SegmentWriter":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
