"""The power map c = m**t mod n and the rank protocol that inverts it.

The map is t-to-1 on units when t divides phi(n) exactly, so a cipher
alone does not pin down the message; the 1-indexed rank of the message in
the ascending candidate set does.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterator
from enum import Enum

from . import modnum
from .errors import (
    IneligibleGenerator,
    InvalidPrime,
    MalformedPacket,
    NoSolution,
    NotCoprime,
    NotResidue,
    NotSupported,
    RankOutOfRange,
)
from .roots import RootSet


class DivClass(Enum):
    """How phi(n) relates to t: not divisible, divisible by t only, or by t**2.

    Descriptive only: shown to users and checked by mapping_table, but no
    root route (decode, extract_root) branches on it.
    """

    NOT_DIVISIBLE = "not_divisible"
    T_EXACTLY = "t_exactly"
    T_SQUARED = "t_squared"


class Params(namedtuple("Params", "t p q n phi div_class")):
    """Transformation parameters: exponent, factored modulus (q is None for
    a prime modulus), totient, DivClass."""

    __slots__ = ()


class Packet(namedtuple("Packet", "t n c rank")):
    """What travels on the wire: exponent, modulus, cipher, 1-indexed rank."""

    __slots__ = ()


def make_params(t: int, p: int, q: int | None = None) -> Params:
    """Classify (t, p[, q]): computes n, phi and the divisibility class.

    Succeeds even when t does not divide phi, so callers get a diagnostic
    rather than an error.  Outside the contract: ValueError for t outside
    2..12, NotSupported for n >= 2**32.
    """
    if not 2 <= t <= modnum.T_BOUND:
        raise ValueError(f"t must be in 2..{modnum.T_BOUND}, got {t}")
    if q is not None and p == q:
        raise InvalidPrime("p and q must differ")
    n = p if q is None else p * q
    if n >= modnum.FACTOR_BOUND:
        raise NotSupported(f"{n} exceeds the 2**32 desk-scale bound")
    for f in (p,) if q is None else (p, q):
        if f < 3 or not modnum.is_prime(f):
            raise InvalidPrime(f"{f} is not an odd prime >= 3")
    phi = p - 1 if q is None else (p - 1) * (q - 1)
    if phi % t != 0:
        div_class = DivClass.NOT_DIVISIBLE
    elif phi % (t * t) != 0:
        div_class = DivClass.T_EXACTLY
    else:
        div_class = DivClass.T_SQUARED
    return Params(t, p, q, n, phi, div_class)


def encrypt(m: int, params: Params) -> int:
    """c = m**t mod n.  NotCoprime, as in encode, when m is not a unit."""
    if not 1 <= m < params.n:
        raise ValueError(f"m must be in 1..{params.n - 1}, got {m}")
    if math.gcd(m, params.n) != 1:
        raise NotCoprime(f"gcd({m}, {params.n}) > 1")
    return pow(m, params.t, params.n)


def inverse_exponent(t: int, phi: int) -> tuple[int, int]:
    """Smallest a >= 0 with (a*phi + t) / t**2 an integer, and that quotient.

    Requires phi divisible by t but not t**2.  Writing k = phi/t, the
    solution is a = -k^{-1} mod t, which also needs gcd(k, t) = 1; for a
    composite t that extra condition can fail even inside the stated
    divisibility regime, and then no exponent exists at all.
    """
    if phi % t != 0:
        raise NoSolution(f"{t} does not divide phi={phi}")
    if phi % (t * t) == 0:
        raise NoSolution(f"{t}**2 divides phi={phi}")
    k = phi // t
    g = math.gcd(k, t)
    if g != 1:
        raise NoSolution(f"no integer exponent: gcd(phi/{t}, {t}) = {g}")
    a = -modnum.invmod(k, t) % t
    return a, (a * phi + t) // (t * t)


def extract_root(c: int, params: Params) -> int:
    """One r with r**t ≡ c (mod n), the root the paper and the session show.

    Where inverse_exponent succeeds on phi(n), r = c**res, the paper's
    route.  Every other key: the canonical t-th root mod each prime factor
    from modnum.nth_root_mod_prime, joined in Garner's form for a semiprime.
    NotResidue when c has no t-th root.
    """
    t, n = params.t, params.n
    c %= n
    try:
        _, res = inverse_exponent(t, params.phi)
    except NoSolution:
        return _root_per_prime(c, params, modnum.nth_root_mod_prime)
    r = pow(c, res, n)
    if pow(r, t, n) != c:
        raise NotResidue(f"extracted {r}, but {r}**{t} ≢ {c} (mod {n})")
    return r


def _root_per_prime(c: int, params: Params, root_mod_prime) -> int:
    """A t-th root of c mod n: root_mod_prime(c % f, t, f) per prime factor f, joined in
    Garner's form for a semiprime.  NotResidue where one has none; NotInvertible if p == q."""
    t, p, q = params.t, params.p, params.q
    r_p = root_mod_prime(c % p, t, p)  # checked there: r_p**t ≡ c (mod p)
    if r_p is None:
        raise NotResidue(f"{c} has no {t}-th root mod {p}")
    if q is None:
        return r_p
    r_q = root_mod_prime(c % q, t, q)
    if r_q is None:
        raise NotResidue(f"{c} has no {t}-th root mod {q}")
    return modnum._garner(r_p, r_q, p, q, modnum.invmod(q, p))


def candidate_set(x: int, rs: RootSet) -> list[int]:
    """Ascending {x*r mod n : r in root set}, the decode search space.

    x must be a unit, so the products are distinct.  Identical for every
    t-th root x of the same cipher, since the root set is a group.
    """
    n = rs.modulus
    cands = [x * r % n for r in rs.roots]
    cands.sort()
    return cands


def encode(m: int, params: Params, rs: RootSet) -> Packet:
    """Encrypt m and rank it: 1 + the number of its (distinct) candidates below m.
    ValueError when rs belongs to another exponent or modulus."""
    n = params.n
    if rs.t != params.t or rs.modulus != n:
        raise ValueError("root set does not match the key")
    if math.gcd(m, n) != 1:
        raise NotCoprime(f"gcd({m}, {n}) > 1")
    if not 1 <= m < n:
        raise ValueError(f"m must be in 1..{n - 1}, got {m}")
    rank = 1 + len([r for r in rs.roots if m * r % n < m])
    return Packet(params.t, n, pow(m, params.t, n), rank)


def decode(pkt: Packet, params: Params, rs: RootSet) -> int:
    """Invert encode: take any t-th root of the cipher, pick by rank.

    Any root will do, since all give the same candidate set, so one route
    serves every key: modnum._any_root per prime factor, joined in Garner's
    form, with no per-key CRT state.  A root set of another key is
    ValueError, a non-unit cipher NotCoprime, a unit with no t-th root
    NotResidue.
    """
    if pkt.t != params.t or pkt.n != params.n:
        raise MalformedPacket("packet does not match the session parameters")
    if rs.t != params.t or rs.modulus != params.n:
        raise ValueError("root set does not match the key")
    if math.gcd(pkt.c, params.n) != 1:
        raise NotCoprime(f"gcd({pkt.c}, {params.n}) > 1: not the cipher of a unit")
    cands = candidate_set(_root_per_prime(pkt.c, params, modnum._any_root), rs)
    if not 1 <= pkt.rank <= len(cands):
        raise RankOutOfRange(f"rank {pkt.rank} outside 1..{len(cands)}")
    return cands[pkt.rank - 1]


def mapping_table(params: Params, alpha: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """The phi(p)/t rows (m, m*a, ..., m*a**(t-1)) with their shared cipher.

    Each row is one coset of <alpha>, led by the smallest unit not yet
    placed, so each unit appears once and the rows show the t-to-1 collapse.
    The key is checked on the call; the rows then stream, with no per-residue state.
    """
    if params.q is not None or params.div_class is not DivClass.T_EXACTLY:
        raise ValueError("mapping table needs a prime modulus with phi divisible by t only")
    p, t = params.p, params.t
    if modnum.element_order(alpha, p, t) != t:
        raise IneligibleGenerator(f"{alpha} does not have order {t} mod {p}")
    return _table_rows(p, t, alpha)


def _table_rows(p: int, t: int, alpha: int) -> Iterator[tuple[tuple[int, ...], int]]:
    powers = [pow(alpha, j, p) for j in range(1, t)]
    for m in range(1, p):
        for a in powers:
            if m * a % p < m:  # m does not lead its coset
                break
        else:
            yield (m, *[m * a % p for a in powers]), pow(m, t, p)
