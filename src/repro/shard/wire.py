"""Wire format for cross-shard row shipping.

Reuses the WAL's record codec (:mod:`repro.persistence.segment`): a frame
is a length + crc32 header over a compact-JSON payload, zlib-deflated
when it pays.  Reuse is the point — the codec already round-trips every
value the engine stores (floats via ``repr``, frozensets via a tagged
list), so a row crossing a process boundary decodes *exactly* equal to
the row that was sent, which is what the per-tick state-equivalence tests
rely on.  ``len(frame)`` is the measured wire cost each worker reports as
``exchange_bytes``.
"""

from __future__ import annotations

from typing import Any

from repro.persistence.segment import (
    RECORD_HEADER,
    decode_payload,
    encode_payload,
    frame_record,
    iter_records,
)

__all__ = ["encode_frame", "decode_frame", "frame_rows", "unframe_rows"]


def encode_frame(document: Any) -> bytes:
    """One framed record carrying *document* (any codec-supported value)."""
    return frame_record(encode_payload(document))


def decode_frame(data: bytes) -> Any:
    """Decode a frame produced by :func:`encode_frame`.

    Raises ``ValueError`` on truncation or CRC mismatch — a corrupt
    cross-process frame is a bug, not a condition to limp through.
    """
    for offset, payload in iter_records(data):
        if offset == 0:
            expected = RECORD_HEADER.size + len(payload)
            if expected != len(data):
                raise ValueError(
                    f"frame carries {len(data) - expected} trailing bytes"
                )
            return decode_payload(payload)
    raise ValueError("invalid frame: truncated or CRC mismatch")


def frame_rows(tick: int, rows_by_class: dict[str, list[dict[str, Any]]]) -> bytes:
    """Frame one shipment of rows grouped by class for *tick*."""
    return encode_frame({"tick": tick, "classes": rows_by_class})


def unframe_rows(data: bytes) -> tuple[int, dict[str, list[dict[str, Any]]]]:
    """Inverse of :func:`frame_rows`."""
    document = decode_frame(data)
    return document["tick"], document["classes"]
