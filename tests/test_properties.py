"""Property tests of the wire format, run only where hypothesis is installed.

The profile is derandomized and keeps no example database, so every run
draws the same examples and Tier-1 stays deterministic.
"""

import functools
import json
import math

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from powmap import (
    Packet,
    PowmapError,
    decode,
    encode,
    make_params,
    parse_packet,
    root_set,
    serialize_packet,
)
from powmap.modnum import FACTOR_BOUND, T_BOUND
from powmap.protocol import PACKET_FIELDS

settings.register_profile("powmap", derandomize=True, database=None, deadline=None,
                          max_examples=200)
settings.load_profile("powmap")


@st.composite
def packets(draw):
    t = draw(st.integers(2, T_BOUND))
    n = draw(st.integers(2, FACTOR_BOUND - 1))
    return Packet(t, n, draw(st.integers(0, n - 1)), draw(st.integers(1, t * t)))


# Objects with packet-like fields reach the field checks, which raw text seldom does.
json_values = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                        st.text(max_size=8), st.lists(st.integers(), max_size=3))
packet_like = st.dictionaries(st.sampled_from(PACKET_FIELDS + ("x",)), json_values).map(json.dumps)


@given(packets())
def test_packet_round_trip(pkt):
    assert parse_packet(serialize_packet(pkt)) == pkt


# Any integers, not only in-range ones: the writer does not validate.
@given(st.one_of(packets(), st.builds(Packet, st.integers(), st.integers(), st.integers(),
                                      st.integers())))
def test_serialize_is_compact_json(pkt):
    fields = {"t": pkt.t, "n": pkt.n, "c": pkt.c, "rank": pkt.rank}
    assert serialize_packet(pkt) == json.dumps(fields, separators=(",", ":")) + "\n"


@given(st.one_of(st.text(), st.binary(), packet_like, packet_like.map(str.encode)))
def test_parse_raises_only_powmap_errors(line):
    try:
        parse_packet(line)
    except PowmapError:
        pass


# (t, p, q) keys inside the contract, prime and semiprime, in every divisibility
# class, including the regimes the paper's inverse exponent does not cover
# (gcd(phi/t, t) > 1, t sharing a factor with phi without dividing it,
# t**2 | f-1), up to the 2**32 bound.
DECODE_KEYS = [
    (5, 61, None), (6, 43, None), (12, 13, None), (6, 19, None),  # t exactly
    (5, 43, None), (4, 7, None),  # not divisible
    (5, 101, None), (3, 109, None),  # t squared
    (5, 11, 7), (5, 7, 13), (5, 31, 11), (6, 31, 13), (12, 37, 13), (9, 19, 37),  # exactly, not, squared
    (5, 4294967291, None), (7, 4294967279, None), (4, 4294967197, None),  # t exactly
    (3, 4294967291, None), (11, 4294967279, None),  # not divisible
    (2, 4294967197, None),  # t squared
    (5, 65521, 65519), (3, 65497, 65519), (4, 65479, 65447),  # t exactly
    (11, 65521, 65519), (5, 65497, 65519),  # not divisible
    (2, 65519, 65479), (2, 65521, 65519), (12, 65521, 65519),  # t squared
]


@functools.cache
def _key(t, p, q):
    return make_params(t, p, q), root_set(t, p, q)


@st.composite
def keyed_packets(draw):
    t, p, q = draw(st.sampled_from(DECODE_KEYS))
    n = p if q is None else p * q
    return (t, p, q), Packet(t, n, draw(st.integers(0, n - 1)), draw(st.integers(1, t * t)))


@st.composite
def keyed_units(draw):
    t, p, q = draw(st.sampled_from(DECODE_KEYS))
    n = p if q is None else p * q
    m = draw(st.integers(1, n - 1).filter(lambda m: math.gcd(m, n) == 1))
    return (t, p, q), m


@given(keyed_units())
def test_decode_inverts_encode_on_every_key(keyed):
    key, m = keyed
    params, rs = _key(*key)
    assert decode(encode(m, params, rs), params, rs) == m  # no PowmapError either


@given(keyed_packets())
def test_decode_round_trips_or_raises_powmap_error(keyed):
    key, pkt = keyed
    params, rs = _key(*key)
    try:
        m = decode(pkt, params, rs)
    except PowmapError:
        return
    assert encode(m, params, rs) == pkt
