"""Sender/receiver sessions in one process, plus the packet wire format.

Only the packet (t, n, c, rank) travels; the root set is session setup
shared out-of-band, since the receiver holds the factorization and can
rebuild it.

parse_packet reads the exact line serialize_packet writes with one anchored
pattern, and every other line with the JSON decoder, which alone tolerates
whitespace and any field order and reports error positions. On each line the
pattern accepts, both routes give the same Packet or FieldOutOfRange.
"""

from __future__ import annotations

import json
import re
from collections import namedtuple
from operator import index

from . import roots, transform
from .errors import FieldOutOfRange, MalformedPacket, NoSolution
from .modnum import FACTOR_BOUND, T_BOUND
from .transform import Packet, Params

PACKET_FIELDS = ("t", "n", "c", "rank")
MAX_LINE = 256  # a canonical packet is at most about 50 characters
# Objects decode to tuples of pairs, so duplicate fields stay visible; built once, not per call.
_DECODER = json.JSONDecoder(object_pairs_hook=tuple)
# serialize_packet's own line. ASCII digits without leading zeros, as JSON has them:
# \d would also take digits that int() reads and JSON refuses.
_CANONICAL = re.compile(r'\{"t":(0|[1-9][0-9]*),"n":(0|[1-9][0-9]*),'
                        r'"c":(0|[1-9][0-9]*),"rank":(0|[1-9][0-9]*)\}\n?')
_FIELD_SET = frozenset(PACKET_FIELDS)


def serialize_packet(pkt: Packet) -> str:
    """One line of wire text: {"t":5,"n":61,"c":11,"rank":3} plus newline; a non-int: TypeError."""
    t, n, c, rank = pkt
    return '{"t":%d,"n":%d,"c":%d,"rank":%d}\n' % (index(t), index(n), index(c), index(rank))


def validate_packet_fields(t: int, n: int, c: int, rank: int) -> Packet:
    """Range-check packet fields; FieldOutOfRange on any violation."""
    if not 2 <= t <= T_BOUND:
        raise FieldOutOfRange(f"t={t} outside 2..{T_BOUND}")
    if not 2 <= n < FACTOR_BOUND:
        raise FieldOutOfRange(f"n={n} outside 2..2**32-1")
    if not 0 <= c < n:
        raise FieldOutOfRange(f"c={c} outside 0..n-1")
    if not 1 <= rank <= t * t:
        raise FieldOutOfRange(f"rank={rank} outside 1..t**2={t * t}")
    return transform._packet((t, n, c, rank))


def parse_packet(line: str | bytes | bytearray) -> Packet:
    """Inverse of serialize_packet: whitespace-tolerant, otherwise strict.

    Structural problems, over-long lines, invalid UTF-8 in a bytes or bytearray line (not a
    memoryview: TypeError) and duplicate fields among them raise MalformedPacket (with the
    offending position when available); integer fields outside their domain raise FieldOutOfRange.

    A str that is exactly serialize_packet's line skips the JSON decoder;
    it gets the Packet or the FieldOutOfRange the decoder route would give.
    """
    if len(line) > MAX_LINE:
        raise MalformedPacket(f"packet longer than {MAX_LINE} characters")
    if type(line) is str and (mo := _CANONICAL.fullmatch(line)):
        return validate_packet_fields(int(mo[1]), int(mo[2]), int(mo[3]), int(mo[4]))
    try:
        pairs = _DECODER.decode(line.decode() if isinstance(line, (bytes, bytearray)) else line)
    except json.JSONDecodeError as exc:
        raise MalformedPacket(f"invalid packet at position {exc.pos}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError among them
        raise MalformedPacket(f"invalid packet: {exc}") from exc
    obj = dict(pairs) if type(pairs) is tuple else {}
    if obj.keys() != _FIELD_SET or len(obj) != len(pairs):
        raise MalformedPacket(f"packet must be one object with exactly the fields {PACKET_FIELDS}")
    for name in PACKET_FIELDS:
        if type(obj[name]) is not int:  # refuses bool too
            raise MalformedPacket(f"field {name!r} must be an integer")
    return validate_packet_fields(obj["t"], obj["n"], obj["c"], obj["rank"])


class Transcript(namedtuple("Transcript", "params_summary setup_note root_set alice_steps packet "
                                         "packet_line bob_steps decoded matched")):
    """A full encode/decode session, step by step, as each side sees it.

    alice_steps and bob_steps are tuples of (label, value) pairs; packet is
    the sent Packet and packet_line its wire text.
    """

    __slots__ = ()


def run_session(params: Params, m: int) -> Transcript:
    """Encode m, push the packet through the wire format, decode it back.

    Records what each side would tabulate: the sender's sorted candidate
    list, rank and cipher; the receiver's inverse exponent (when
    inverse_exponent finds one), extracted root and reconstructed list, and
    the message that transform.decode returns for the received packet.
    """
    rs = roots.root_set(params.t, params.p, params.q)
    pkt = transform.encode(m, params, rs)
    line = serialize_packet(pkt)
    received = parse_packet(line)

    alice = (("message", m), ("candidates", transform.candidate_set(m, rs)), ("rank", pkt.rank),
             ("cipher", pkt.c))

    try:
        a, res = transform.inverse_exponent(params.t, params.phi)
    except NoSolution:
        bob: list[tuple[str, object]] = []
    else:
        bob = [("a", a), ("res", res)]
    root = transform.extract_root(received.c, params)
    decoded = transform.decode(received, params, rs)  # the receive path of every packet
    bob += [("root", root), ("candidates", transform.candidate_set(root, rs)), ("decoded", decoded)]

    summary = (f"t={params.t} n={params.n} phi={params.phi} class={params.div_class.value} "
               f"kind={'prime' if params.q is None else 'semiprime'}")
    note = "only the packet travels; the receiver rebuilds the root set from the private factors"
    if rs.roots == (1,):
        note += "; the power map is one-to-one here, so the candidate set is a single value"
    return Transcript(summary, note, rs.roots, alice, pkt, line, tuple(bob), decoded, decoded == m)
