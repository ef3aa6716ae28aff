"""Exact modular arithmetic kernel.

Everything here is a pure function of its arguments: inverses, CRT
recombination, modular square and t-th roots, multiplicative
orders and desk-scale factoring.  Moduli are assumed to be desk scale;
the factoring helper enforces n < 2**32.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple

from .errors import (
    InvalidPrime,
    NotCoprime,
    NotDivisor,
    NotInvertible,
    NotSupported,
)

# The contract every layer checks: moduli n < FACTOR_BOUND, exponents t <= T_BOUND.
FACTOR_BOUND = 2**32
T_BOUND = 12


def invmod(a: int, modulus: int) -> int:
    """The b with a*b ≡ 1 (mod modulus); NotInvertible when gcd(a, modulus) > 1."""
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    try:
        return pow(a, -1, modulus)
    except ValueError:
        raise NotInvertible(f"gcd({a % modulus}, {modulus}) = {math.gcd(a, modulus)}") from None


class CrtBasis(namedtuple("CrtBasis", "p q q_inv_mod_p p_inv_mod_q n")):
    """Precomputed recombination data for two distinct primes p and q.

    q_inv_mod_p and p_inv_mod_q satisfy q*q_inv_mod_p ≡ 1 (mod p) and
    p*p_inv_mod_q ≡ 1 (mod q).
    """

    __slots__ = ()

    def __new__(cls, p: int, q: int, q_inv_mod_p: int, p_inv_mod_q: int, n: int) -> "CrtBasis":
        if q * q_inv_mod_p % p != 1 or p * p_inv_mod_q % q != 1:
            raise ValueError("inconsistent CRT basis")
        if n != p * q:
            raise ValueError("n must equal p*q")
        return super().__new__(cls, p, q, q_inv_mod_p, p_inv_mod_q, n)

    @classmethod
    def _make(cls, iterable) -> "CrtBasis":
        return cls(*iterable)  # namedtuple's own _make, which _replace calls, skips __new__

    @classmethod
    @functools.lru_cache(maxsize=None)
    def for_primes(cls, p: int, q: int) -> "CrtBasis":
        if p == q:
            raise InvalidPrime("p and q must differ")
        if not (is_prime(p) and is_prime(q)):
            raise InvalidPrime(f"{p} and {q} must both be prime")
        return cls(p, q, invmod(q, p), invmod(p, q), p * q)


def crt_pair(r_p: int, r_q: int, basis: CrtBasis) -> int:
    """The unique x mod p*q with x ≡ r_p (mod p) and x ≡ r_q (mod q)."""
    return (r_p % basis.p * basis.q * basis.q_inv_mod_p
            + r_q % basis.q * basis.p * basis.p_inv_mod_q) % basis.n


def sqrtmod(a: int, p: int) -> tuple[int, ...]:
    """Square roots of a modulo an odd prime p, from nth_root_mod_prime.

    Returns the pair (r, p-r) sorted ascending for a quadratic residue,
    (0,) for a ≡ 0, and () for a non-residue (a normal outcome, not an
    error).  The pair does not depend on which root is found first, so
    results are deterministic.
    """
    if p < 3 or p % 2 == 0:
        raise ValueError(f"p must be an odd prime, got {p}")
    a %= p
    if a == 0:
        return (0,)
    r = nth_root_mod_prime(a, 2, p)  # the smaller of the two roots
    return () if r is None else (r, p - r)


def element_order(a: int, modulus: int, t: int) -> int:
    """Smallest divisor d of t with a**d ≡ 1 (mod modulus).

    Closed form: check a**t ≡ 1, then divide each prime factor out of t
    while the power stays 1.  Raises NotDivisor when a**t ≢ 1, i.e. a is
    not a t-th root of unity.
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    a %= modulus
    if math.gcd(a, modulus) != 1:
        raise NotCoprime(f"gcd({a}, {modulus}) > 1")
    if pow(a, t, modulus) != 1:
        raise NotDivisor(f"{a} is not a {t}-th root of unity mod {modulus}")
    d = t
    for ell in _prime_factors(t):
        if pow(a, d // ell, modulus) == 1:
            d //= ell
    return d


def _least_factor(n: int) -> int:
    """The least prime factor of n >= 2, by trial division up to sqrt(n)."""
    if n % 2 == 0:
        return 2
    for f in range(3, math.isqrt(n) + 1, 2):
        if n % f == 0:
            return f
    return n


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality check, fine at desk scale."""
    return n >= 2 and _least_factor(n) == n


def factor_semiprime(n: int) -> tuple[int, int | None]:
    """(n, None) for a prime n, else the two prime factors (p, q), p <= q.

    Trial division up to sqrt(n).  NotSupported when n carries three or
    more prime factors counted with multiplicity, or n >= 2**32.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if n >= FACTOR_BOUND:
        raise NotSupported(f"{n} exceeds the 2**32 desk-scale bound")
    p = _least_factor(n)
    if p == n:
        return (n, None)
    if is_prime(n // p):
        return (p, n // p)
    raise NotSupported(f"{n} has more than two prime factors")


def _prime_factors(t: int) -> list[int]:
    """Prime factors of t, ascending, with multiplicity."""
    if t < 2:
        return []
    f = _least_factor(t)
    return [f, *_prime_factors(t // f)]


def _unity_generator(d: int, p: int) -> int:
    """An element of exact order d mod the prime p, for d | p-1: the first
    g = z**((p-1)/d), z = 1, 2, ..., whose element_order is d."""
    for z in range(1, p):
        g = pow(z, (p - 1) // d, p)
        if element_order(g, p, d) == d:
            return g


@functools.lru_cache(maxsize=None)
def _root_plan(t: int, p: int) -> tuple:
    """What a t-th root mod the prime p needs that does not depend on the cipher.

    Write p-1 = A*B with A made only of primes dividing t.  Returns
    (b_exp, sylow, levels):
    - c**b_exp is a t-th root of the part of c whose order divides B;
    - sylow has one entry (ell, s, m, g_inv, table, gw, ell**k) per prime
      ell | t with ell**s || p-1 and ell**k || t, s > k: g generates the
      ell-Sylow subgroup, m = (p-1)/ell**s, table = {gamma**j: j} for
      gamma = g**(ell**(s-1)), and gw = g**w with w the inverse of
      m*t/ell**k mod ell**(s-k);
    - levels has one (e, {w**e: w}) per e in t/l0, t/(l0*l1), ..., 1, for
      the prime factors l0 <= l1 <= ... of t, with w over the gcd(t, p-1)
      roots of unity whose power at the level before (t at the first) is 1;
      a level with one entry, {1: 1}, is left out.
    """
    if not is_prime(p):
        raise InvalidPrime(f"{p} is not prime")
    ells = _prime_factors(t)
    a_part, sylow = 1, []
    for ell in sorted(set(ells)):
        k, s, m = ells.count(ell), 0, p - 1
        while m % ell == 0:
            m //= ell
            s += 1
        a_part *= ell**s
        if s > k:
            g = _unity_generator(ell**s, p)
            gamma = pow(g, ell ** (s - 1), p)
            table = {pow(gamma, j, p): j for j in range(ell)}
            w = pow(m * t // ell**k, -1, ell ** (s - k))
            sylow.append((ell, s, m, pow(g, -1, p), table, pow(g, w, p), ell**k))
    b_exp = a_part * pow(a_part * t, -1, (p - 1) // a_part)
    d = math.gcd(t, p - 1)
    zeta = _unity_generator(d, p)
    unity = [pow(zeta, j, p) for j in range(d)]
    levels, prev = [], t
    for ell in ells:
        e = prev // ell
        level = {pow(w, e, p): w for w in unity if pow(w, prev, p) == 1}
        if len(level) > 1:
            levels.append((e, level))
        prev = e
    return b_exp, tuple(sylow), tuple(levels)


def _any_root(c: int, t: int, p: int) -> int | None:
    """Some x with x**t ≡ c (mod the prime p), or None when c has no t-th root.

    From the cached per-key plan (_root_plan): one pow for the part of the
    group prime to t, and for each Sylow subgroup the Pohlig-Hellman digits
    of a discrete log, read by dict lookup (Adleman-Manders-Miller).  Which
    root comes out is whatever the plan gives; t is not range-checked here.
    """
    b_exp, sylow, _ = _root_plan(t, p)  # checks p before any early return
    c %= p
    if c == 0:
        return 0
    x = pow(c, b_exp, p)
    for ell, s, m, g_inv, table, gw, ell_k in sylow:
        h, e = pow(c, m, p), 0
        for j in range(s):
            e += table[pow(h * pow(g_inv, e, p) % p, ell ** (s - 1 - j), p)] * ell**j
        # When ell**k does not divide e, c has no root and the check below fails.
        x = x * pow(gw, e // ell_k, p) % p
    return x if pow(x, t, p) == c else None


def nth_root_mod_prime(c: int, t: int, p: int) -> int | None:
    """The canonical x with x**t ≡ c (mod p) for prime p and 1 <= t <= 12, or None.

    Some root from _any_root, then moved to a fixed one: among all roots
    x, the one whose (x**(t/l0), x**(t/(l0*l1)), ..., x) is least, for the
    prime factors l0 <= l1 <= ... of t.  InvalidPrime for a composite p.
    """
    if not 1 <= t <= T_BOUND:
        raise ValueError(f"t must be in 1..{T_BOUND}, got {t}")
    x = _any_root(c, t, p)
    if not x:  # None, or 0 for c ≡ 0
        return x
    # A w whose power at the level before is 1 leaves the earlier powers of
    # x as they are, so each level makes x**e least among the roots left.
    for e, level in _root_plan(t, p)[2]:
        xe = pow(x, e, p)
        x = x * level[min(level, key=lambda v: xe * v % p)] % p
    return x
