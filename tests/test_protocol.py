import re
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import pytest

from powmap import (
    FieldOutOfRange,
    MalformedPacket,
    Packet,
    PowmapError,
    make_params,
    parse_packet,
    run_session,
    serialize_packet,
)
from powmap import protocol, transform

from worked_examples import (
    CANDIDATES_2_MOD_43,
    CANDIDATES_28_MOD_61,
    CANDIDATES_3_MOD_187,
    CANDIDATES_51_MOD_341,
    CANDIDATES_59_MOD_403,
)


class TestSerializePacket:
    def test_exact_lines(self):
        assert serialize_packet(Packet(5, 61, 11, 3)) == '{"t":5,"n":61,"c":11,"rank":3}\n'
        assert serialize_packet(Packet(6, 403, 233, 8)) == '{"t":6,"n":403,"c":233,"rank":8}\n'

    def test_roundtrip(self):
        for pkt in (Packet(5, 61, 11, 3), Packet(6, 403, 233, 8), Packet(5, 187, 56, 1),
                    Packet(12, 2**32 - 5, 12345, 144)):
            assert parse_packet(serialize_packet(pkt)) == pkt

    def test_bytes_roundtrip(self):
        pkt = Packet(5, 341, 87, 5)
        assert parse_packet(serialize_packet(pkt).encode()) == pkt

    @pytest.mark.parametrize("pkt", [
        Packet(5.0, 61, 11, 3),
        Packet(5, 61.0, 11, 3),
        Packet(5, 61, 11.0, 3),
        Packet(5, 61, "11", 3),
        Packet(5, None, 11, 3),
        Packet(5, 61, 11, 3.5),
        Packet(5, 61, Decimal(11), 3),
        Packet(5, 61, Fraction(11), 3),
    ])
    def test_non_integer_field_raises(self, pkt):
        with pytest.raises(TypeError):
            serialize_packet(pkt)


class TestParsePacket:
    def test_worked_value(self):
        assert parse_packet('{"t":5,"n":187,"c":56,"rank":1}') == Packet(5, 187, 56, 1)

    def test_whitespace_tolerated(self):
        assert parse_packet('  {"t": 5, "n": 187,\n "c": 56, "rank": 1}  \n') == Packet(5, 187, 56, 1)

    def test_empty_is_malformed(self):
        with pytest.raises(MalformedPacket):
            parse_packet("")

    def test_invalid_utf8_is_malformed(self):
        with pytest.raises(MalformedPacket):
            parse_packet(b'{"t":5,"n":61,"c":11,"rank":3}\xff')

    def test_bytearray_roundtrip(self):
        pkt = Packet(5, 341, 87, 5)
        assert parse_packet(bytearray(serialize_packet(pkt).encode())) == pkt

    def test_bytearray_invalid_utf8_is_malformed(self):
        with pytest.raises(MalformedPacket):
            parse_packet(bytearray(b'{"t":5,"n":61,"c":11,"rank":3}\xff'))

    def test_memoryview_is_not_a_line(self):
        # Outside the signature: a caller copies a buffer view with bytes() first.
        with pytest.raises(TypeError):
            parse_packet(memoryview(b'{"t":5,"n":61,"c":11,"rank":3}'))

    @pytest.mark.parametrize("line", [
        "not json",
        "[1,2,3]",
        '{"t":5,"n":187,"c":56}',
        '{"t":5,"n":187,"c":56,"rank":1,"extra":0}',
        '{"t":5,"n":61,"c":11,"rnk":3}',  # four fields, one misnamed
        '{"t":5,"n":187,"c":"56","rank":1}',
        '{"t":5,"n":187,"c":56.0,"rank":1}',
        '{"t":true,"n":187,"c":56,"rank":1}',
        '{"t":5,"n":187,"c":56,"rank":1} trailing',
    ])
    def test_malformed(self, line):
        with pytest.raises(MalformedPacket):
            parse_packet(line)

    @pytest.mark.parametrize("line", [
        '{"t":5,"n":61,"c":11,"rank":0}',
        '{"t":5,"n":61,"c":11,"rank":-3}',
        '{"t":5,"n":61,"c":11,"rank":26}',
        '{"t":1,"n":61,"c":11,"rank":1}',
        '{"t":13,"n":61,"c":11,"rank":1}',
        '{"t":5,"n":1,"c":0,"rank":1}',
        '{"t":5,"n":4294967296,"c":11,"rank":1}',
        '{"t":5,"n":61,"c":61,"rank":1}',
        '{"t":5,"n":61,"c":-1,"rank":1}',
    ])
    def test_field_out_of_range(self, line):
        with pytest.raises(FieldOutOfRange):
            parse_packet(line)

    def test_deep_nesting_is_malformed(self):
        with pytest.raises(MalformedPacket):
            parse_packet("[" * 100000)
        with pytest.raises(MalformedPacket):
            parse_packet("[" * 1024)

    def test_huge_field_is_malformed(self):
        with pytest.raises(MalformedPacket):
            parse_packet('{"t":5,"n":61,"c":' + "1" * 5000 + ',"rank":3}')

    def test_fields_in_any_order(self):
        assert parse_packet('{"rank":3,"c":11,"n":61,"t":5}') == Packet(5, 61, 11, 3)

    def test_duplicate_field_is_malformed(self):
        with pytest.raises(MalformedPacket):
            parse_packet('{"t":5,"t":6,"n":61,"c":11,"rank":3}')

    def test_overlong_line_is_malformed(self):
        # A valid packet behind 240 spaces: 270 characters, beyond MAX_LINE.
        with pytest.raises(MalformedPacket):
            parse_packet(" " * 240 + '{"t":5,"n":61,"c":11,"rank":3}')

    def test_rank_capped_at_t_squared_before_decode(self):
        # rank 25 parses for t=5 (it is within t**2) even though a prime
        # modulus session would later reject it as out of range.
        pkt = parse_packet('{"t":5,"n":61,"c":11,"rank":25}')
        assert pkt.rank == 25


CORNER_PACKETS = [Packet(2, 3, 0, 1), Packet(2, 3, 2, 4), Packet(12, 2**32 - 1, 0, 1),
                  Packet(12, 2**32 - 1, 2**32 - 2, 144)]
OUT_OF_RANGE_PACKETS = [Packet(5, 61, 11, 0), Packet(13, 61, 11, 1), Packet(5, 2**32, 11, 1),
                        Packet(5, 61, 61, 1)]
LINE = '{"t":5,"n":61,"c":11,"rank":3}'


def _with_field(i, text):
    fields = ["5", "61", "11", "3"]
    fields[i] = text
    return '{"t":%s,"n":%s,"c":%s,"rank":%s}' % tuple(fields)


# Lines at or next to serialize_packet's own, where the two routes of parse_packet meet.
NEAR_CANONICAL = [
    *(serialize_packet(pkt) for pkt in CORNER_PACKETS + OUT_OF_RANGE_PACKETS),
    *(serialize_packet(pkt).rstrip("\n") for pkt in CORNER_PACKETS + OUT_OF_RANGE_PACKETS),
    # Number forms that int() reads and JSON refuses, or reads differently: leading
    # zeros, signs, underscores, Arabic-Indic and fullwidth digits.
    *(_with_field(i, form)
      for form in ("0", "05", "-5", "-0", "+5", "1_0", "\u0663", "\uff15", "1\u0663", "1\uff15")
      for i in range(4)),
    LINE + "\r\n", LINE + "\n\n", LINE + " ", " " + LINE, LINE + "\n ",
    '{"rank":3,"c":11,"n":61,"t":5}',
    '{"t":5,"t":5,"n":61,"c":11,"rank":3}',
    '{"\\u0074":5,"n":61,"c":11,"rank":3}',  # JSON's escape for the key "t"
    LINE.encode(),
    (LINE + "\n").encode(),
]


def parse_outcome(line):
    """parse_packet's Packet, or the class and message of the PowmapError it raised."""
    try:
        return parse_packet(line)
    except PowmapError as exc:
        return type(exc), str(exc)


def json_route_outcome(line):
    """parse_outcome with the canonical-line route switched off."""
    with mock.patch.object(protocol, "_CANONICAL", re.compile("(?!)")):
        return parse_outcome(line)


class _NoDecoder:
    def decode(self, line):
        raise AssertionError(f"JSON decoder called on {line!r}")


class TestCanonicalRoute:
    @pytest.mark.parametrize("line", NEAR_CANONICAL)
    def test_same_outcome_as_json_route(self, line):
        assert parse_outcome(line) == json_route_outcome(line)

    @pytest.mark.parametrize("pkt", CORNER_PACKETS)
    def test_own_lines_skip_the_json_decoder(self, pkt, monkeypatch):
        monkeypatch.setattr(protocol, "_DECODER", _NoDecoder())
        assert parse_packet(serialize_packet(pkt)) == pkt
        assert parse_packet(serialize_packet(pkt).rstrip("\n")) == pkt

    def test_sessions_skip_the_json_decoder(self, monkeypatch):
        monkeypatch.setattr(protocol, "_DECODER", _NoDecoder())
        for key, m in (((5, 61), 28), ((5, 11, 17), 3), ((6, 43), 2),
                       ((5, 31, 11), 51), ((6, 31, 13), 59), ((5, 43), 17)):
            assert run_session(make_params(*key), m).matched, key


def _steps(pairs):
    return {label: value for label, value in pairs}


class TestRunSession:
    def test_quintic_prime_session(self):
        tr = run_session(make_params(5, 61), 28)
        alice, bob = _steps(tr.alice_steps), _steps(tr.bob_steps)
        assert alice["candidates"] == CANDIDATES_28_MOD_61
        assert alice["rank"] == 3 and alice["cipher"] == 11
        assert bob["a"] == 2 and bob["res"] == 5
        assert bob["root"] == 11
        assert bob["candidates"] == CANDIDATES_28_MOD_61
        assert tr.decoded == 28 and tr.matched
        assert tr.packet_line == '{"t":5,"n":61,"c":11,"rank":3}\n'

    def test_quintic_semiprime_session(self):
        tr = run_session(make_params(5, 11, 17), 3)
        alice, bob = _steps(tr.alice_steps), _steps(tr.bob_steps)
        assert alice["candidates"] == CANDIDATES_3_MOD_187
        assert alice["rank"] == 1 and alice["cipher"] == 56
        assert bob["a"] == 2 and bob["res"] == 13
        assert bob["root"] == 122
        assert tr.decoded == 3 and tr.matched

    def test_sextic_prime_session(self):
        tr = run_session(make_params(6, 43), 2)
        alice, bob = _steps(tr.alice_steps), _steps(tr.bob_steps)
        assert alice["candidates"] == CANDIDATES_2_MOD_43
        assert alice["rank"] == 1 and alice["cipher"] == 21
        assert bob["a"] == 5 and bob["res"] == 6
        assert bob["root"] == 41
        assert tr.decoded == 2 and tr.matched

    def test_25_root_session(self):
        tr = run_session(make_params(5, 31, 11), 51)
        alice, bob = _steps(tr.alice_steps), _steps(tr.bob_steps)
        assert alice["cipher"] == 87 and alice["rank"] == 5
        assert alice["candidates"] == CANDIDATES_51_MOD_341
        assert "a" not in bob  # no single inverse exponent in this class
        assert pow(bob["root"], 5, 341) == 87
        assert bob["candidates"] == CANDIDATES_51_MOD_341
        assert tr.decoded == 51 and tr.matched

    def test_36_root_session(self):
        tr = run_session(make_params(6, 31, 13), 59)
        alice, bob = _steps(tr.alice_steps), _steps(tr.bob_steps)
        assert alice["cipher"] == 233 and alice["rank"] == 8
        assert alice["candidates"] == CANDIDATES_59_MOD_403
        assert pow(bob["root"], 6, 403) == 233
        assert bob["candidates"] == CANDIDATES_59_MOD_403
        assert tr.decoded == 59 and tr.matched

    def test_degenerate_one_to_one_session(self):
        tr = run_session(make_params(5, 43), 17)
        alice = _steps(tr.alice_steps)
        assert alice["candidates"] == [17] and alice["rank"] == 1
        assert tr.decoded == 17 and tr.matched
        assert "one-to-one" in tr.setup_note

    def test_one_to_one_note_only_for_trivial_root_set(self):
        # Not divisible in both, but gcd(6, 10) = 2 leaves the roots {1, 10} mod 11.
        tr = run_session(make_params(6, 11), 2)
        assert tr.root_set == (1, 10)
        assert _steps(tr.bob_steps)["candidates"] == [2, 9]
        assert "one-to-one" not in tr.setup_note
        assert "one-to-one" in run_session(make_params(5, 43), 2).setup_note

    def test_session_without_inverse_exponent(self):
        # t | phi exactly at (6, 13), but gcd(phi/t, t) = 2: no a/res steps, the session still matches.
        tr = run_session(make_params(6, 13), 2)
        bob = _steps(tr.bob_steps)
        assert "a" not in bob and "res" not in bob
        assert pow(bob["root"], 6, 13) == 12
        assert tr.decoded == 2 and tr.matched

    def test_extracts_root_once(self, monkeypatch):
        calls = []
        extract_root = transform.extract_root
        monkeypatch.setattr(transform, "extract_root", lambda *a: calls.append(a) or extract_root(*a))
        keys_and_messages = (((5, 61), 28), ((5, 11, 17), 3), ((6, 43), 2),
                             ((5, 31, 11), 51), ((6, 31, 13), 59), ((5, 43), 17))
        for key, m in keys_and_messages:
            calls.clear()
            assert run_session(make_params(*key), m).matched
            assert len(calls) == 1, key

    def test_decodes_through_the_packet_receive_path(self, monkeypatch):
        # The decoded message is transform.decode's answer for the received packet, once per
        # session; Bob's shown root and candidates still come from extract_root.
        calls, decode = [], transform.decode
        monkeypatch.setattr(transform, "decode", lambda *a: calls.append(a) or decode(*a))
        for key, m in (((5, 61), 28), ((5, 11, 17), 3), ((5, 31, 11), 51), ((6, 13), 2)):
            calls.clear()
            tr = run_session(make_params(*key), m)
            assert tr.decoded == m and tr.matched, key
            assert [pkt for pkt, _, _ in calls] == [tr.packet], key
            bob = _steps(tr.bob_steps)
            assert bob["candidates"][tr.packet.rank - 1] == bob["decoded"] == m, key

    def test_transcript_header_mentions_out_of_band_setup(self):
        tr = run_session(make_params(5, 61), 28)
        assert "packet" in tr.setup_note
        assert tr.root_set == (1, 9, 20, 34, 58)
        assert tr.params_summary == "t=5 n=61 phi=60 class=t_exactly kind=prime"
