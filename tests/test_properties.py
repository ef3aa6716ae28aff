"""Property tests of the wire format, the transform and the CLI, run only
where hypothesis is installed.

The profile is derandomized and keeps no example database, so every run
draws the same examples and Tier-1 stays deterministic.
"""

import contextlib
import functools
import io
import json
import math

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, settings, strategies as st

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
from powmap.cli import main
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


# Each subcommand with the options it takes beyond --t, the key and --format.
CLI_OPTIONS = {"params": (), "roots": (), "generators": (), "table": ("--alpha",),
               "encrypt": ("--m",), "encode": ("--m",), "decode": ("--c", "--rank"),
               "session": ("--m",), "groups": (), "matrix": ()}
CLI_ERROR_NAMES = {"ValueError", *(cls.__name__ for cls in PowmapError.__subclasses__())}
KEY_PRIMES = (3, 5, 7, 11, 13, 17, 31, 37, 43, 61, 101, 109, 113, 541, 967, 4999, 65521, 4294967291)


@st.composite
def cli_argvs(draw):
    """A command line inside or outside the contract: t just beyond 2..12, keys
    that are primes, products of two primes or any integers, values of either
    sign, an option missing now and then, --n beside --p.  table stays below
    p = 5000, since it prints a row per coset."""
    command = draw(st.sampled_from(sorted(CLI_OPTIONS)))
    bound = 5000 if command == "table" else 2**33
    primes = st.sampled_from([p for p in KEY_PRIMES if p < bound])
    ints = primes | st.integers(-2, bound)
    keys = {"--p": ints, "--q": ints,
            "--n": ints | st.builds(int.__mul__, primes, primes).filter(lambda n: n <= bound)}
    argv = [command, "--t", str(draw(st.integers(0, T_BOUND + 1)))]
    key_options = [("--p",), ("--p", "--q"), ("--n",)] * 3 + [(), ("--n", "--p")]  # last two: usage
    for option in draw(st.sampled_from(key_options)):
        argv += [option, str(draw(keys[option]))]
    for option in CLI_OPTIONS[command]:
        if draw(st.integers(0, 9)):  # else left out: a usage error, or table's default --alpha
            argv += [option, str(draw(st.integers(-2, 200) | st.integers(-2**33, 2**33)))]
    return argv + ["--format", draw(st.sampled_from(["text", "json"]))]


@given(cli_argvs())
@example(["encrypt", "--t", "2", "--n", "187", "--m", "11"])  # a non-unit, which draws seldom reach
def test_cli_exits_0_1_or_2(argv):
    # 0 with nothing on stderr, 1 with one named line, 2 for usage; no other exception escapes.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
            return
    stderr = err.getvalue()
    if code == 0:
        assert stderr == "", argv
    else:
        assert code == 1, argv
        name, _, message = stderr.partition(": ")
        assert name in CLI_ERROR_NAMES and message.endswith("\n") and message.count("\n") == 1, stderr
