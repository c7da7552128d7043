"""Unit tests for the daemon wire protocol: framing and the query codec."""

import io
import json
import struct

import pytest

from repro.errors import ServicedError
from repro.serviced.protocol import (
    MAX_FRAME,
    control_request,
    decode_query,
    encode_frame,
    encode_query,
    error_response,
    ok_response,
    pack_body,
    query_request,
    read_frame,
)
from repro.service.server import (
    AggregationQuery,
    BcastQuery,
    CoScheduleQuery,
    CommLatencyQuery,
    MatmulTileQuery,
    StreamingCoresQuery,
    TileQuery,
)

ALL_QUERIES = [
    TileQuery(level=2, n_arrays=3, elem_size=4),
    MatmulTileQuery(level=1, elem_size=8),
    StreamingCoresQuery(group_index=1, efficiency_floor=0.75),
    AggregationQuery(core_a=0, core_b=3, n_messages=16, message_size=4096),
    BcastQuery(placement=(0, 2, 4, 6), nbytes=65536, root=2),
    CommLatencyQuery(core_a=1, core_b=5, nbytes=512),
    CoScheduleQuery(
        workloads=("streaming", "zipf:s=1.3"), seed=5, level=2, instances=2
    ),
    CoScheduleQuery(workloads=("stencil",)),  # None level/instances
]


# -- framing -------------------------------------------------------------


def test_frame_roundtrip():
    payload = {"kind": "ping", "id": 7}
    frame = encode_frame(payload)
    assert read_frame(io.BytesIO(frame).read) == payload


def test_frames_are_canonical_bytes():
    # Identical requests must be identical bytes (coalescing relies on
    # the canonical-JSON convention).
    a = encode_frame({"b": 1, "a": 2})
    b = encode_frame({"a": 2, "b": 1})
    assert a == b


def test_clean_eof_returns_none():
    assert read_frame(io.BytesIO(b"").read) is None


def test_short_length_prefix_rejected():
    with pytest.raises(ServicedError, match="short length prefix"):
        read_frame(io.BytesIO(b"\x00\x00").read)


def test_short_payload_rejected():
    frame = struct.pack(">I", 100) + b'{"truncated'
    with pytest.raises(ServicedError, match="short payload"):
        read_frame(io.BytesIO(frame).read)


def test_oversize_length_prefix_rejected_before_read():
    header = struct.pack(">I", MAX_FRAME + 1)

    def read(n):
        if n == 4:
            return header
        raise AssertionError("must reject before reading the payload")

    with pytest.raises(ServicedError, match="exceeds"):
        read_frame(read)


def test_oversize_body_rejected_on_encode():
    with pytest.raises(ServicedError, match="exceeds"):
        pack_body(b"x" * (MAX_FRAME + 1))


def test_malformed_json_rejected():
    body = b"{nope"
    frame = struct.pack(">I", len(body)) + body
    with pytest.raises(ServicedError, match="malformed frame payload"):
        read_frame(io.BytesIO(frame).read)


def test_non_object_payload_rejected():
    body = json.dumps([1, 2, 3]).encode()
    frame = struct.pack(">I", len(body)) + body
    with pytest.raises(ServicedError, match="must be a JSON object"):
        read_frame(io.BytesIO(frame).read)


# -- query codec ---------------------------------------------------------


@pytest.mark.parametrize("query", ALL_QUERIES, ids=lambda q: type(q).__name__)
def test_query_codec_roundtrip(query):
    wire = encode_query(query)
    json.dumps(wire)  # must be JSON-serializable as-is
    assert decode_query(wire) == query


def test_decode_coerces_json_types():
    # JSON has no tuples and no int/float distinction a client must
    # respect; the decoder normalizes.
    q = decode_query(
        {"kind": "bcast", "placement": [0, 1], "nbytes": 1024.0, "root": 0}
    )
    assert q == BcastQuery(placement=(0, 1), nbytes=1024, root=0)
    assert isinstance(q.placement, tuple)


def test_decode_applies_defaults():
    assert decode_query({"kind": "tile", "level": 1}) == TileQuery(
        level=1, n_arrays=1, elem_size=8
    )


def test_unknown_kind_rejected():
    with pytest.raises(ServicedError, match="unknown query kind"):
        decode_query({"kind": "warp-factor"})


def test_missing_field_named():
    with pytest.raises(ServicedError, match="needs field"):
        decode_query({"kind": "latency", "core_a": 0, "core_b": 1})


def test_bad_field_named():
    with pytest.raises(ServicedError, match="bad field"):
        decode_query({"kind": "tile", "level": "not-a-number"})


@pytest.mark.parametrize(
    "data, field",
    [
        ({"kind": "bcast", "placement": "0123"}, "placement"),
        ({"kind": "co-schedule", "workloads": "zipf"}, "workloads"),
        ({"kind": "co-schedule", "workloads": ["zipf", 3]}, "workloads"),
        ({"kind": "tile", "level": True}, "level"),
        ({"kind": "tile", "level": 2.9}, "level"),
        ({"kind": "latency", "core_a": 0, "core_b": 1, "nbytes": None}, "nbytes"),
        ({"kind": "streaming-cores", "efficiency_floor": False}, "efficiency_floor"),
        ({"kind": "co-schedule", "workloads": ["zipf"], "level": 1.5}, "level"),
    ],
    ids=lambda v: v if isinstance(v, str) else None,
)
def test_strict_field_types_named(data, field):
    # A string is not a sequence and a bool or a fractional float is not
    # an integer: the decoder refuses instead of iterating or truncating.
    with pytest.raises(ServicedError, match=f"bad field '{field}'"):
        decode_query(data)


@pytest.mark.parametrize(
    "data, expected",
    [
        ({"kind": "tile", "level": 2.0}, TileQuery(level=2)),
        (
            {"kind": "streaming-cores", "efficiency_floor": 1},
            StreamingCoresQuery(efficiency_floor=1.0),
        ),
        (
            {"kind": "co-schedule", "workloads": ["zipf"], "level": None},
            CoScheduleQuery(workloads=("zipf",)),
        ),
    ],
)
def test_strict_field_types_accept_json_numbers(data, expected):
    assert decode_query(data) == expected


def test_unhashable_kind_rejected():
    with pytest.raises(ServicedError, match="unknown query kind"):
        decode_query({"kind": ["tile"]})


def test_non_dict_query_rejected():
    with pytest.raises(ServicedError, match="JSON object"):
        decode_query("tile")


def test_unencodable_query_rejected():
    with pytest.raises(ServicedError, match="no wire encoding"):
        encode_query(object())


# -- request / response helpers ------------------------------------------


def test_query_request_shape():
    req = query_request(MatmulTileQuery(level=1), 9)
    assert req["kind"] == "query" and req["id"] == 9
    assert req["query"]["kind"] == "matmul-tile"


def test_control_request_rejects_query_kind():
    with pytest.raises(ServicedError, match="not a control request"):
        control_request("query")
    with pytest.raises(ServicedError, match="not a control request"):
        control_request("bogus")


def test_response_helpers():
    assert ok_response(1, version=3) == {"id": 1, "ok": True, "version": 3}
    err = error_response(2, "boom")
    assert err == {"id": 2, "ok": False, "error": "boom"}
