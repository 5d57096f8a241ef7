"""Packet geometry tests (§2.2 constants)."""

import pytest

from repro.hardware.packet import Packet, PacketKind
from repro.hardware.params import (
    CHUNK_BYTES,
    CHUNK_PACKETS,
    PACKET_HEADER_BYTES,
    PACKET_PAYLOAD_BYTES,
    PACKET_SLOT_BYTES,
)


def test_paper_geometry():
    # "A packet has 224 bytes of data and 32 bytes of header. A chunk
    # corresponds to 36 packets." (§2.2 footnote)
    assert PACKET_HEADER_BYTES == 32
    assert PACKET_PAYLOAD_BYTES == 224
    assert PACKET_SLOT_BYTES == 256
    assert CHUNK_PACKETS == 36
    assert CHUNK_BYTES == 8064  # stated literally in the paper


def test_wire_bytes_header_only():
    p = Packet(src=0, dst=1, kind=PacketKind.ACK)
    assert p.wire_bytes == PACKET_HEADER_BYTES


def test_wire_bytes_counts_args_and_payload():
    p = Packet(src=0, dst=1, kind=PacketKind.REQUEST, args=(1, 2, 3))
    assert p.wire_bytes == PACKET_HEADER_BYTES + 12
    q = Packet(src=0, dst=1, kind=PacketKind.STORE_DATA, payload=b"x" * 100)
    assert q.wire_bytes == PACKET_HEADER_BYTES + 100


def test_payload_limit_enforced():
    with pytest.raises(ValueError):
        Packet(src=0, dst=1, kind=PacketKind.STORE_DATA,
               payload=b"x" * (PACKET_PAYLOAD_BYTES + 1))


def test_max_four_word_args():
    with pytest.raises(ValueError):
        Packet(src=0, dst=1, kind=PacketKind.REQUEST, args=(1, 2, 3, 4, 5))


def test_sequenced_kinds():
    assert Packet(src=0, dst=1, kind=PacketKind.REQUEST).is_sequenced
    assert Packet(src=0, dst=1, kind=PacketKind.STORE_DATA).is_sequenced
    assert not Packet(src=0, dst=1, kind=PacketKind.ACK).is_sequenced
    assert not Packet(src=0, dst=1, kind=PacketKind.RAW).is_sequenced


def test_checksum_covers_payload_and_header_fields():
    p = Packet(src=0, dst=1, kind=PacketKind.STORE_DATA, seq=5,
               payload=b"abc", offset=224, ack_req=3)
    p.checksum = p.compute_checksum()
    assert p.checksum_ok()
    for mutate in (lambda q: setattr(q, "payload", b"abd"),
                   lambda q: setattr(q, "seq", 6),
                   lambda q: setattr(q, "offset", 0),
                   lambda q: setattr(q, "ack_req", 4),
                   lambda q: setattr(q, "handler", 9)):
        q = p.clone()
        mutate(q)
        assert not q.checksum_ok(), "mutation went undetected"


def test_unstamped_checksum_always_passes():
    p = Packet(src=0, dst=1, kind=PacketKind.REQUEST)
    assert p.checksum == -1 and p.checksum_ok()


#: every constructor field, in order (the derived wire_bytes / is_sequenced
#: are not fields)
FIELDS = ("src", "dst", "kind", "seq", "ack_req", "ack_rep", "channel",
          "handler", "args", "payload", "addr", "offset", "total_len",
          "chunk_packets", "op_token", "header_bytes", "trace_id", "checksum")


def _full_packet():
    return Packet(1, 2, PacketKind.STORE_DATA, 36, 5, 6, 1, 3, (7, 8),
                  b"payload", 4096, 224, 8064, 36, 11, 30, 99, 12345)


def test_positional_signature_matches_field_order():
    p = _full_packet()
    assert tuple(getattr(p, f) for f in FIELDS) == (
        1, 2, PacketKind.STORE_DATA, 36, 5, 6, 1, 3, (7, 8), b"payload",
        4096, 224, 8064, 36, 11, 30, 99, 12345)
    assert p.wire_bytes == 30 + len(b"payload") + 8


def test_clone_copies_every_field():
    p = _full_packet()
    q = p.clone()
    assert q is not p
    for name in FIELDS + ("wire_bytes", "is_sequenced"):
        assert getattr(q, name) == getattr(p, name), name
    assert q.checksum == 12345 and q.trace_id == 99


def test_eq_compares_exactly_the_fields():
    p = _full_packet()
    assert p == _full_packet()
    for name in FIELDS:
        q = p.clone()
        value = getattr(q, name)
        setattr(q, name, value + value if name in ("args", "payload")
                else value + 1)
        assert q != p, name
    # the derived attributes are not part of equality
    q = p.clone()
    q.wire_bytes += 1
    q.is_sequenced = not q.is_sequenced
    assert q == p
    assert p != (1, 2) and (p == object()) is False


def test_unknown_attribute_is_rejected():
    p = Packet(src=0, dst=1, kind=PacketKind.REQUEST)
    with pytest.raises(AttributeError):
        p.not_a_field = 1


def test_packets_are_unhashable():
    with pytest.raises(TypeError):
        hash(Packet(src=0, dst=1, kind=PacketKind.REQUEST))


def test_clone_is_deep_enough_and_keeps_trace_id():
    p = Packet(src=0, dst=1, kind=PacketKind.STORE_DATA, seq=7,
               payload=b"data", args=(1, 2))
    p.trace_id = 99
    q = p.clone()
    assert q is not p and q == p
    assert q.trace_id == 99
    q.ack_req = 42
    q.seq = 8
    assert p.ack_req == -1 and p.seq == 7  # original unaffected
