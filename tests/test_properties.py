"""Property tests of the wire format, run only where hypothesis is installed.

The profile is derandomized and keeps no example database, so every run
draws the same examples and Tier-1 stays deterministic.
"""

import json

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from powmap import Packet, PowmapError, parse_packet, serialize_packet
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
