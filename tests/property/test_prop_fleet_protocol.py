"""Properties of the fleet message protocol: payload-contract
enforcement at construction."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import FleetProtocolError
from repro.fleet import MESSAGE_TYPES, Message
from repro.fleet.protocol import REQUIRED_PAYLOAD

# JSON-clean payload values: what a real frame can carry.
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**53), 2**53),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=20),
)
_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=8), inner, max_size=4),
    ),
    max_leaves=10,
)
_names = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")),
    min_size=1,
    max_size=12,
)


@st.composite
def messages(draw):
    msg_type = draw(st.sampled_from(MESSAGE_TYPES))
    payload = {
        key: draw(_values) for key in REQUIRED_PAYLOAD[msg_type]
    }
    payload.update(
        draw(st.dictionaries(st.text(max_size=8), _values, max_size=3))
    )
    return Message(
        type=msg_type,
        sender=draw(_names),
        recipient=draw(_names),
        time=draw(st.floats(0.0, 1e9, allow_nan=False)),
        payload=payload,
    )


def _rebuild(msg: Message, **changes) -> Message:
    fields = {
        "type": msg.type,
        "sender": msg.sender,
        "recipient": msg.recipient,
        "time": msg.time,
        "payload": msg.payload,
    }
    fields.update(changes)
    return Message(**fields)


@given(messages())
@settings(max_examples=120, deadline=None)
def test_stripping_any_required_field_is_rejected(msg):
    for key in REQUIRED_PAYLOAD[msg.type]:
        payload = {k: v for k, v in msg.payload.items() if k != key}
        with pytest.raises(FleetProtocolError):
            _rebuild(msg, payload=payload)


@given(messages(), st.text(max_size=12))
@settings(max_examples=120, deadline=None)
def test_retyping_to_unknown_type_is_rejected(msg, bogus_type):
    if bogus_type in MESSAGE_TYPES:
        return
    with pytest.raises(FleetProtocolError):
        _rebuild(msg, type=bogus_type)
