"""The record contract: repr, immutability, field-wise equality and hashing."""

import pytest

from powmap import (
    Packet,
    cyclic_groups,
    encode,
    make_params,
    parse_packet,
    root_set,
    run_session,
)
from powmap.modnum import CrtBasis
from powmap.protocol import validate_packet_fields


def records():
    params = make_params(5, 61)
    rs = root_set(5, 61)
    return [
        Packet(5, 61, 11, 3),
        params,
        make_params(5, 11, 31),
        CrtBasis.for_primes(11, 31),
        rs,
        cyclic_groups(root_set(5, 11, 31)),
        run_session(params, 28),
    ]


class TestRepr:
    def test_packet(self):
        assert repr(Packet(5, 61, 11, 3)) == "Packet(t=5, n=61, c=11, rank=3)"

    def test_params(self):
        assert repr(make_params(5, 11, 31)) == (
            "Params(t=5, p=11, q=31, n=341, phi=300, div_class=<DivClass.T_SQUARED: 't_squared'>)")
        assert repr(make_params(5, 61)) == (
            "Params(t=5, p=61, q=None, n=61, phi=60, div_class=<DivClass.T_EXACTLY: 't_exactly'>)")

    def test_crt_basis(self):
        assert repr(CrtBasis.for_primes(11, 31)) == "CrtBasis(p=11, q=31, q_inv_mod_p=5, p_inv_mod_q=17, n=341)"

    def test_root_set(self):
        assert repr(root_set(5, 61)) == (
            "RootSet(modulus=61, t=5, roots=(1, 9, 20, 34, 58), orders={1: 1, 9: 5, 20: 5, 34: 5, 58: 5})")


class TestImmutable:
    @pytest.mark.parametrize("record", records(), ids=lambda r: type(r).__name__)
    def test_fields_cannot_be_set(self, record):
        with pytest.raises(AttributeError):
            setattr(record, type(record)._fields[0], 0)

    @pytest.mark.parametrize("record", records(), ids=lambda r: type(r).__name__)
    def test_no_new_attributes(self, record):
        with pytest.raises(AttributeError):
            record.extra = 0


class TestEquality:
    def test_equal_packets_hash_equal(self):
        a, b = Packet(5, 341, 87, 5), Packet(5, 341, 87, 5)
        assert a == b and a is not b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != Packet(5, 341, 87, 4)

    def test_replace_keeps_crt_basis_checks(self):
        with pytest.raises(ValueError, match="n must equal p"):
            CrtBasis.for_primes(11, 31)._replace(n=5)

    def test_records_are_tuples(self):
        assert Packet(5, 61, 11, 3) == (5, 61, 11, 3)
        assert tuple(CrtBasis.for_primes(11, 31)) == (11, 31, 5, 17, 341)


# Every route that builds a Packet in powmap, each giving Packet(5, 61, 11, 3).
PACKET_ROUTES = {
    "encode": lambda: encode(28, make_params(5, 61), root_set(5, 61)),
    "validate_packet_fields": lambda: validate_packet_fields(5, 61, 11, 3),
    "parse_canonical": lambda: parse_packet('{"t":5,"n":61,"c":11,"rank":3}\n'),
    "parse_json": lambda: parse_packet('{"rank": 3, "c": 11, "n": 61, "t": 5}'),
    "parse_bytes": lambda: parse_packet(b'{"t":5,"n":61,"c":11,"rank":3}\n'),
}


@pytest.mark.parametrize("route", PACKET_ROUTES)
def test_built_packets_are_real_packets(route):
    pkt = PACKET_ROUTES[route]()
    assert type(pkt) is Packet
    assert pkt == Packet(*pkt) == Packet(5, 61, 11, 3)
    assert hash(pkt) == hash(Packet(*pkt))
    assert repr(pkt) == "Packet(t=5, n=61, c=11, rank=3)"
    assert pkt._asdict() == {"t": 5, "n": 61, "c": 11, "rank": 3}
    assert pkt._replace(rank=1) == Packet(5, 61, 11, 1)
    assert type(pkt._replace(rank=1)) is Packet
