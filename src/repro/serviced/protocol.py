"""Wire protocol of the tuning daemon: length-prefixed JSON frames.

The daemon speaks a deliberately boring protocol so any language can
implement a client in an afternoon:

- **Framing.**  Every message is a 4-byte big-endian unsigned length
  followed by that many bytes of UTF-8 JSON.  Frames are bounded by
  :data:`MAX_FRAME` (a malformed or hostile length prefix is rejected
  before any allocation).  Frame payloads are encoded with the same
  canonical-JSON convention the fleet protocol uses (sorted keys,
  compact separators), so identical requests are identical bytes.

- **Requests.**  ``{"kind": ..., "id": ...}`` plus kind-specific
  fields.  ``kind`` is one of :data:`REQUEST_KINDS`:

  ======== ======================================================
  kind      meaning
  ======== ======================================================
  query     answer one typed tuning query (``query`` field)
  stats     SLO snapshot: daemon metrics + service cache metrics
  ping      liveness probe (also reports the served version)
  reload    force one registry hot-reload check right now
  drain     stop accepting, flush in-flight batches, shut down
  ======== ======================================================

- **Responses.**  ``{"id": ..., "ok": true, ...}`` on success —
  query responses carry ``answer`` plus the report ``version`` and
  the (short, 12-hex-char) ``digest`` that produced it, so a client
  can always tell *which* published report version answered (the
  hot-reload drill asserts every answer is internally consistent with
  exactly one version).  On failure ``{"id": ..., "ok": false,
  "error": "..."}``.

- **Queries on the wire.**  The typed query value objects of
  :mod:`repro.service.server` serialize as ``{"kind": ..., <fields>}``
  through :func:`encode_query`/:func:`decode_query`.  Kinds, field
  names, defaults and field types all come from its
  :data:`~repro.service.server.QUERY_KINDS` table, the same one the
  ``servet query`` CLI is generated from.  Field types are strict: an
  integer field takes a JSON integer (or an integral float such as
  ``1024.0``), never a bool or ``2.9``, and a sequence field takes a
  JSON array, never a string.

Every protocol violation raises :class:`~repro.errors.ServicedError`
at the boundary — a malformed frame is diagnosed where it is read,
never as a ``KeyError`` deep inside the daemon.
"""

from __future__ import annotations

import json
import struct
from collections.abc import Callable

from ..errors import ServiceError, ServicedError
from ..ioutils import canonical_json
from ..service.server import Query, kind_of, query_kind

__all__ = [
    "MAX_FRAME",
    "REQUEST_KINDS",
    "decode_query",
    "encode_frame",
    "encode_query",
    "error_response",
    "ok_response",
    "pack_body",
    "query_request",
    "read_frame",
]

#: Hard ceiling on one frame's payload size.  Tuning answers are a few
#: hundred bytes; anything near this limit is a protocol violation.
MAX_FRAME = 1 << 20

#: Request kinds the daemon understands.
REQUEST_KINDS: tuple[str, ...] = ("query", "stats", "ping", "reload", "drain")

_HEADER = struct.Struct(">I")

# -- framing ----------------------------------------------------------------


def encode_frame(payload: dict) -> bytes:
    """One wire frame: length prefix + canonical JSON bytes."""
    return pack_body(canonical_json(payload).encode("utf-8"))


def pack_body(body: bytes) -> bytes:
    """Frame pre-serialized JSON bytes (the daemon's hot send path)."""
    if len(body) > MAX_FRAME:
        raise ServicedError(
            f"frame of {len(body)} bytes exceeds the {MAX_FRAME}-byte limit"
        )
    return _HEADER.pack(len(body)) + body


def read_frame(read: Callable[[int], bytes]) -> dict | None:
    """Read one frame from a ``read(n)`` source (socket file object).

    Returns ``None`` on a clean end-of-stream (EOF exactly between
    frames); raises :class:`ServicedError` for a stream that dies
    mid-frame, an oversized length prefix, or a payload that is not a
    JSON object.
    """
    header = read(_HEADER.size)
    if not header:
        return None
    if len(header) < _HEADER.size:
        raise ServicedError("connection closed mid-frame (short length prefix)")
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME:
        raise ServicedError(
            f"frame length {length} exceeds the {MAX_FRAME}-byte limit"
        )
    body = read(length)
    if len(body) < length:
        raise ServicedError("connection closed mid-frame (short payload)")
    try:
        payload = json.loads(body)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ServicedError(f"malformed frame payload: {exc}") from exc
    if not isinstance(payload, dict):
        raise ServicedError(
            f"frame payload must be a JSON object, got {type(payload).__name__}"
        )
    return payload


# -- query codec ------------------------------------------------------------


def encode_query(query: Query) -> dict:
    """Serialize a typed query object to its wire dict."""
    try:
        kind = kind_of(query)
    except ServiceError:
        raise ServicedError(
            f"query type {type(query).__name__} has no wire encoding"
        ) from None
    return kind.to_dict(query)


def decode_query(data: dict) -> Query:
    """Rebuild the typed query object a wire dict names."""
    if not isinstance(data, dict):
        raise ServicedError(
            f"query must be a JSON object, got {type(data).__name__}"
        )
    try:
        return query_kind(data.get("kind")).build(data, noun="field")
    except ServiceError as exc:
        raise ServicedError(str(exc)) from None


# -- request / response helpers ---------------------------------------------


def query_request(query: Query, request_id: int) -> dict:
    """A ``query`` request frame payload."""
    return {"kind": "query", "id": int(request_id), "query": encode_query(query)}


def control_request(kind: str, request_id: int = 0) -> dict:
    """A control request frame payload (stats / ping / reload / drain)."""
    if kind not in REQUEST_KINDS or kind == "query":
        raise ServicedError(f"not a control request kind: {kind!r}")
    return {"kind": kind, "id": int(request_id)}


def ok_response(request_id, **fields) -> dict:
    """A success response frame payload."""
    return {"id": request_id, "ok": True, **fields}


def error_response(request_id, error: str) -> dict:
    """A failure response frame payload."""
    return {"id": request_id, "ok": False, "error": str(error)}
