"""Property tests of the wire format, the transform and the CLI, run only
where hypothesis is installed.

The profile is derandomized and keeps no example database, so every run
draws the same examples and Tier-1 stays deterministic.
"""

import contextlib
import functools
import inspect
import io
import json
import math
from collections.abc import Iterator

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, settings, strategies as st

import powmap
from powmap import (
    DivClass,
    Packet,
    PowmapError,
    candidate_set,
    cyclic_groups,
    decode,
    encode,
    extract_root,
    make_params,
    mapping_table,
    parse_packet,
    root_set,
    serialize_packet,
)
from powmap import modnum
from powmap.cli import main
from powmap.modnum import FACTOR_BOUND, T_BOUND, CrtBasis, nth_root_mod_prime
from powmap.protocol import MAX_LINE, PACKET_FIELDS

import corners
import reference
from test_protocol import json_route_outcome, parse_outcome

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

# Four fields of up to 57 characters each keep serialize_packet's line within MAX_LINE.
wide_ints = st.integers(-(10**56) + 1, 10**56 - 1)
edit_chars = st.sampled_from('0123456789-+_.eE \r\n{}":,\u0663\uff15') | st.characters()


@st.composite
def near_canonical_lines(draw):
    """serialize_packet's line for any four integers, maybe with one character
    deleted, inserted or replaced: lines on both sides of parse_packet's fast route."""
    line = serialize_packet(draw(packets() | st.builds(Packet, wide_ints, wide_ints, wide_ints,
                                                         wide_ints)))
    edit = draw(st.sampled_from(("none", "delete", "insert", "replace")))
    if edit != "none":
        i = draw(st.integers(0, len(line) - (edit != "insert")))
        line = line[:i] + ("" if edit == "delete" else draw(edit_chars)) + line[i + (edit != "insert"):]
    assert len(line) <= MAX_LINE
    return line


@given(packets())
def test_packet_round_trip(pkt):
    assert parse_packet(serialize_packet(pkt)) == pkt


# Any integers, not only in-range ones: the writer does not validate.
@given(st.one_of(packets(), st.builds(Packet, st.integers(), st.integers(), st.integers(),
                                      st.integers())))
def test_serialize_is_compact_json(pkt):
    fields = {"t": pkt.t, "n": pkt.n, "c": pkt.c, "rank": pkt.rank}
    assert serialize_packet(pkt) == json.dumps(fields, separators=(",", ":")) + "\n"


# An f-string with :d specs is the oracle: the % format matches it byte for byte on any int or bool.
@given(st.integers() | st.booleans(), st.integers() | st.booleans(),
       st.integers() | st.booleans(), st.integers() | st.booleans())
def test_serialize_matches_format_spec_oracle(t, n, c, r):
    oracle = f'{{"t":{t:d},"n":{n:d},"c":{c:d},"rank":{r:d}}}\n'
    assert serialize_packet(Packet(t, n, c, r)) == oracle


@given(near_canonical_lines())
def test_canonical_route_agrees_with_json_route(line):
    assert parse_outcome(line) == json_route_outcome(line)


@given(st.one_of(st.text(), st.binary(), st.binary().map(bytearray), packet_like,
                 packet_like.map(str.encode), near_canonical_lines(),
                 near_canonical_lines().map(str.encode)))
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
CLI_ERROR_NAMES = {cls.__name__ for cls in PowmapError.__subclasses__()}
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


# Every public function of powmap and powmap.modnum, sorted by qualified name.  The record
# types are left out: they are namedtuples, which keep the types they are given.
PUBLIC_FUNCTIONS = sorted({fn for module in (powmap, modnum) for name, fn in vars(module).items()
                           if not name.startswith("_") and inspect.isfunction(fn)
                           and fn.__module__.startswith("powmap")},
                          key=lambda fn: f"{fn.__module__}.{fn.__name__}")
# Small ints first, so that exponents inside 2..12 come up often.
scalars = (st.integers(-2, 13) | st.integers(-2**16, 2**16 - 1) | st.booleans() | st.floats()
           | st.text(max_size=4) | st.none())
BOUNDARY_KEYS = [(5, 61, None), (6, 43, None), (5, 11, 31), (6, 7, 13)]


@functools.cache
def _records(t, p, q):
    """The record arguments of one key, by parameter name; prime keys pair p with 3 for the
    arguments that need two primes."""
    params, rs = _key(t, p, q)
    other = q or 3
    return {"params": params, "rs": rs, "rs_p": root_set(t, p), "rs_q": root_set(t, other),
            "gp": cyclic_groups(rs), "basis": CrtBasis.for_primes(p, other)}


@st.composite
def public_calls(draw):
    """(function, arguments): a scalar for each scalar parameter, and for each record parameter
    the record of one key, or for pkt a Packet of that key's (t, n) with two scalars."""
    fn = draw(st.sampled_from(PUBLIC_FUNCTIONS))
    t, p, q = key = draw(st.sampled_from(BOUNDARY_KEYS))
    records, args = _records(*key), []
    for name in inspect.signature(fn).parameters:
        if name == "pkt":
            args.append(Packet(t, records["params"].n, draw(scalars), draw(scalars)))
        else:
            args.append(records[name] if name in records else draw(scalars))
    return fn, tuple(args)


def _non_int_numbers(value):
    """The numbers inside value (its fields, items, keys and values) that are not ints."""
    if isinstance(value, (str, DivClass, type(None))):
        return []
    if isinstance(value, dict):
        value = [*value.keys(), *value.values()]
    if isinstance(value, (tuple, list)):
        return [bad for item in value for bad in _non_int_numbers(item)]
    return [] if isinstance(value, int) else [value]


@given(public_calls())
@example((mapping_table, (make_params(5, 61), 9.0)))  # 9.0 % 61 is the eligible root 9
@example((candidate_set, (3.0, root_set(5, 61))))
def test_public_functions_refuse_by_name_or_return_ints(call):
    # Any argument either gets a PowmapError or TypeError on the call, or a result, with any
    # iterator consumed, whose numbers are all ints: nothing else comes out, and nothing later.
    fn, args = call
    try:
        result = fn(*args)
    except (PowmapError, TypeError):
        return
    if isinstance(result, Iterator):
        result = list(result)
    assert not _non_int_numbers(result), (fn.__name__, args)
