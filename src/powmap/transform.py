"""The power map c = m**t mod n and the rank protocol that inverts it.

The map is t-to-1 on units when t divides phi(n) exactly, so a cipher
alone does not pin down the message; the 1-indexed rank of the message in
the ascending candidate set does.
"""

from __future__ import annotations

import math
import warnings
from collections import namedtuple
from enum import Enum

from . import modnum
from .errors import (
    IneligibleGenerator,
    InvalidPrime,
    MalformedPacket,
    NoSolution,
    NotCoprime,
    NotCoprimeWarning,
    NotResidue,
    RankOutOfRange,
)
from .roots import RootSet


class DivClass(Enum):
    """How phi(n) relates to t: not divisible, divisible by t only, or by t**2."""

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
    rather than an error.
    """
    if t < 2:
        raise ValueError(f"t must be >= 2, got {t}")
    if q is not None and p == q:
        raise InvalidPrime("p and q must differ")
    for f in (p,) if q is None else (p, q):
        if f < 3 or not modnum.is_prime(f):
            raise InvalidPrime(f"{f} is not an odd prime >= 3")
    n = p if q is None else p * q
    phi = p - 1 if q is None else (p - 1) * (q - 1)
    if phi % t != 0:
        div_class = DivClass.NOT_DIVISIBLE
    elif phi % (t * t) != 0:
        div_class = DivClass.T_EXACTLY
    else:
        div_class = DivClass.T_SQUARED
    return Params(t, p, q, n, phi, div_class)


def encrypt(m: int, params: Params) -> int:
    """c = m**t mod n.  Warns (NotCoprimeWarning) when m is not a unit."""
    if not 1 <= m < params.n:
        raise ValueError(f"m must be in 1..{params.n - 1}, got {m}")
    if math.gcd(m, params.n) != 1:
        warnings.warn(
            f"gcd({m}, {params.n}) > 1: decode uniqueness is not guaranteed",
            NotCoprimeWarning,
            stacklevel=2,
        )
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
    """One r with r**t ≡ c (mod n), deterministically chosen.

    Divisible-by-t-only: r = c**res with res from inverse_exponent on
    phi(n).  Divisible-by-t**2 over a semiprime: a t-th root mod each
    factor (refusing factors with t**2 | factor-1), recombined by CRT.
    Not divisible at all: the map is one-to-one when gcd(t, phi) = 1 and
    the root is c**(t^{-1} mod phi).
    """
    t, n = params.t, params.n
    c %= n
    if params.div_class is DivClass.T_EXACTLY:
        _, res = inverse_exponent(t, params.phi)
        r = pow(c, res, n)
    elif params.div_class is DivClass.T_SQUARED:
        if params.q is None:
            raise NoSolution(f"{t}**2 divides p-1: no inverse exponent mod a prime")
        parts = []
        for f in (params.p, params.q):
            if (f - 1) % (t * t) == 0:
                raise NoSolution(f"{t}**2 divides {f}-1: per-factor extraction unsupported")
            root_f = modnum.nth_root_mod_prime(c % f, t, f)
            if root_f is None:
                raise NotResidue(f"{c} has no {t}-th root mod {f}")
            parts.append(root_f)
        basis = modnum.CrtBasis.for_primes(params.p, params.q)
        r = modnum.crt_pair(parts[0], parts[1], basis)
    else:
        g = math.gcd(t, params.phi)
        if g != 1:
            raise NoSolution(f"gcd({t}, phi) = {g} but {t} does not divide phi: unsupported")
        r = pow(c, modnum.invmod(t, params.phi), n)
    if pow(r, t, n) != c:
        raise NotResidue(f"extracted {r}, but {r}**{t} ≢ {c} (mod {n})")
    return r


def candidate_set(x: int, rs: RootSet) -> list[int]:
    """Ascending {x*r mod n : r in root set}, the decode search space.

    x must be a unit, so the products are distinct.  Identical for every
    t-th root x of the same cipher, since the root set is a group.
    """
    n = rs.modulus
    return sorted([x * r % n for r in rs.roots])


def encode(m: int, params: Params, rs: RootSet) -> Packet:
    """Encrypt m and rank it: 1 + the number of its (distinct) candidates below m."""
    n = params.n
    if math.gcd(m, n) != 1:
        raise NotCoprime(f"gcd({m}, {n}) > 1")
    if not 1 <= m < n:
        raise ValueError(f"m must be in 1..{n - 1}, got {m}")
    rank = 1 + len([r for r in rs.roots if m * r % n < m])
    return Packet(params.t, n, pow(m, params.t, n), rank)


def decode(pkt: Packet, params: Params, rs: RootSet) -> int:
    """Invert encode: extract one t-th root of the cipher, pick by rank.

    A cipher that is not a unit is the power of no message: NotCoprime.
    """
    if pkt.t != params.t or pkt.n != params.n:
        raise MalformedPacket("packet does not match the session parameters")
    if math.gcd(pkt.c, params.n) != 1:
        raise NotCoprime(f"gcd({pkt.c}, {params.n}) > 1: not the cipher of a unit")
    root = extract_root(pkt.c, params)
    cands = candidate_set(root, rs)
    if not 1 <= pkt.rank <= len(cands):
        raise RankOutOfRange(f"rank {pkt.rank} outside 1..{len(cands)}")
    return cands[pkt.rank - 1]


def mapping_table(params: Params, alpha: int) -> list[tuple[tuple[int, ...], int]]:
    """The phi(p)/t rows (m, m*a, ..., m*a**(t-1)) with their shared cipher.

    Each row is one coset of <alpha>; the representative is the smallest
    unit not yet placed, so every unit appears exactly once and the rows
    exhibit the t-to-1 structure of the power map.
    """
    if params.q is not None or params.div_class is not DivClass.T_EXACTLY:
        raise ValueError("mapping table needs a prime modulus with phi divisible by t only")
    p, t = params.p, params.t
    if modnum.element_order(alpha, p, t) != t:
        raise IneligibleGenerator(f"{alpha} does not have order {t} mod {p}")
    rows = []
    used = [False] * p
    for m in range(1, p):
        if used[m]:
            continue
        row = [m]
        cur = m
        for _ in range(t - 1):
            cur = cur * alpha % p
            row.append(cur)
        for v in row:
            used[v] = True
        rows.append((tuple(row), pow(m, t, p)))
    return rows
