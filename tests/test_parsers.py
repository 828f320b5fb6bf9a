"""Every wire parser rejects arbitrary bytes with ValidationError only."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmlink import codec, crypto, handshake, rekey, wire
from swarmlink.errors import ValidationError

# Parser -> the first byte of its messages, None where any byte may lead.
PARSERS = {
    codec.WirePacket: wire.PACKET_VERSION,
    codec.Frame: None,  # the first byte is the message count
    handshake.KeyOffer: wire.MSG_KEY_OFFER,
    handshake.KeyResponse: wire.MSG_KEY_RESPONSE,
    rekey.RekeyMessage: wire.MSG_REKEY,
    rekey.RekeyAck: wire.MSG_REKEY_ACK,
    crypto.AeadBox: None,
}
# Lengths that pass a parser's size check, so its later checks run too.
WIRE_LENGTHS = (
    handshake.HANDSHAKE_WIRE_LEN,
    rekey.ACK_WIRE_LEN,
    codec.HEADER_LEN + crypto.TAG_LEN,
    crypto.TAG_LEN,
)


def wire_bytes(first):
    """Arbitrary bytes, some of the lengths the parsers accept, led by the
    parser's own first byte or by any other."""
    lead = st.integers(0, 0xFF) if first is None else st.one_of(st.just(first), st.integers(0, 0xFF))
    body = st.one_of(
        st.binary(max_size=160),
        st.sampled_from(WIRE_LENGTHS).flatmap(lambda n: st.binary(min_size=n - 1, max_size=n - 1)),
    )
    return st.one_of(st.binary(max_size=8), st.tuples(lead, body).map(lambda t: bytes([t[0]]) + t[1]))


@pytest.mark.parametrize("parser", list(PARSERS), ids=lambda cls: cls.__name__)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_every_parser_raises_only_validation_error_on_arbitrary_bytes(parser, data):
    raw = data.draw(wire_bytes(PARSERS[parser]), label="bytes")
    try:
        parsed = parser.from_bytes(raw)
    except ValidationError:
        return
    assert parsed.to_bytes() == raw  # what a parser accepts it encodes back exactly
