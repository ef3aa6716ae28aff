"""Property tests of the wire format, run only where hypothesis is installed.

The profile is derandomized and keeps no example database, so every run
draws the same examples and Tier-1 stays deterministic.
"""

import functools
import json
import math

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st

from powmap import (
    Packet,
    PowmapError,
    decode,
    encode,
    extract_root,
    make_params,
    parse_packet,
    root_set,
    serialize_packet,
)
from powmap.modnum import FACTOR_BOUND, T_BOUND, nth_root_mod_prime
from powmap.protocol import PACKET_FIELDS

import corners
import reference

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
    *corners.CLASS_KEYS,
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


@settings(max_examples=60)
@given(st.data())
def test_keys_from_the_whole_contract(data):
    # Any t and any prime or semiprime key below 2**32, not only DECODE_KEYS.
    sympy = pytest.importorskip("sympy")

    def prime_below(hi):
        # Half the draws come from the top half, which hypothesis seldom reaches.
        return sympy.prevprime(data.draw(st.integers(4, hi) | st.integers(hi // 2, hi)))

    t = data.draw(st.integers(2, T_BOUND))
    if data.draw(st.booleans()):
        p, q = prime_below(FACTOR_BOUND), None
    else:
        p = sympy.prevprime(data.draw(st.integers(4, 2**16)))
        q = prime_below((FACTOR_BOUND - 1) // p + 1)
        assume(q != p)
    params, rs = make_params(t, p, q), root_set(t, p, q)
    n = params.n
    m = data.draw(st.integers(1, n - 1).filter(lambda m: math.gcd(m, n) == 1))
    pkt = encode(m, params, rs)
    assert decode(pkt, params, rs) == m
    assert pow(extract_root(pkt.c, params), t, n) == pkt.c
    # Per prime factor, the canonical root is the least by its rule among its
    # products with the roots of unity.
    for f in (p, q) if q else (p,):
        r = nth_root_mod_prime(pkt.c % f, t, f)
        assert r == reference.canonical_root(reference.candidates(r, t, f), t, f), (t, p, q, m)
