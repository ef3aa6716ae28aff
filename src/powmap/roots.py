"""Roots of unity mod n, in closed form: mod a prime p they are the powers
of one element of order d = gcd(t, p-1), and semiprime sets CRT-lift the
per-factor sets.  The brute-force scan and the paper's radical
constructions for degrees 5 and 6 are kept as oracles to check against.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import modnum
from .errors import FormulaFailure, InvalidPrime


class RootSet(namedtuple("RootSet", "modulus t roots orders")):
    """All solutions of x**t ≡ 1 for one modulus, with their orders.

    roots is a tuple of distinct roots, ascending, always containing 1;
    orders is a dict mapping each root to the smallest divisor d of t with
    root**d ≡ 1.
    """

    __slots__ = ()


def _from_orders(modulus: int, t: int, orders: dict[int, int]) -> RootSet:
    roots = tuple(sorted(orders))
    return RootSet(modulus, t, roots, {r: orders[r] for r in roots})


def _with_orders(modulus: int, t: int, values) -> RootSet:
    return _from_orders(modulus, t, {r: modnum.element_order(r, modulus, t) for r in values})


def roots_bruteforce(t: int, modulus: int) -> RootSet:
    """Every x in [1, modulus) with x**t ≡ 1, by full scan."""
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    if not 1 <= t <= modnum.T_BOUND:
        raise ValueError(f"t must be in 1..{modnum.T_BOUND}, got {t}")
    return _with_orders(modulus, t, [x for x in range(1, modulus) if pow(x, t, modulus) == 1])


def quintic_roots_prime(p: int) -> RootSet:
    """The five solutions of x**5 ≡ 1 (mod p) by nested radicals.

    With s a square root of 5, u of -2(5+s) and u' of -2(5-s), the roots
    are 1 and (-1+s±u)/4, (-1-s±u')/4 mod p.  Both square roots of 5 are
    tried, covering the sign branches; equals the brute-force set.
    """
    if p % 5 != 1 or not modnum.is_prime(p):
        raise ValueError(f"p must be a prime ≡ 1 (mod 5), got {p}")
    inv4 = modnum.invmod(4, p)
    for s in modnum.sqrtmod(5, p):
        us = modnum.sqrtmod(-2 * (5 + s), p)
        vs = modnum.sqrtmod(-2 * (5 - s), p)
        if not us or not vs:
            continue
        vals = {1}
        vals.update((-1 + s + u) * inv4 % p for u in us)
        vals.update((-1 - s + v) * inv4 % p for v in vs)
        if len(vals) == 5:
            return _with_orders(p, 5, vals)
    raise FormulaFailure(f"quintic radical construction failed for p={p}")


def sextic_roots_prime(p: int) -> RootSet:
    """The six solutions of x**6 ≡ 1 (mod p) by nested radicals.

    With r a square root of -3, the roots are 1, p-1, ±sqrt((-1+r)/2) and
    ±sqrt((-1-r)/2) mod p; equals the brute-force set.
    """
    if p % 6 != 1 or not modnum.is_prime(p):
        raise ValueError(f"p must be a prime ≡ 1 (mod 6), got {p}")
    inv2 = modnum.invmod(2, p)
    for r in modnum.sqrtmod(p - 3, p):
        ws = modnum.sqrtmod((-1 + r) * inv2 % p, p)
        wps = modnum.sqrtmod((-1 - r) * inv2 % p, p)
        if not ws or not wps:
            continue
        vals = {1, p - 1, *ws, *wps}
        if len(vals) == 6:
            return _with_orders(p, 6, vals)
    raise FormulaFailure(f"sextic radical construction failed for p={p}")


def lift_roots(rs_p: RootSet, rs_q: RootSet) -> RootSet:
    """Combine per-prime root sets into the root set mod p*q via CRT.

    With t roots on each side this yields t**2 roots; a side whose prime
    is not ≡ 1 (mod t) contributes only the root 1 and the count stays t.
    """
    if rs_p.t != rs_q.t:
        raise ValueError(f"exponents differ: {rs_p.t} vs {rs_q.t}")
    basis = modnum.CrtBasis.for_primes(rs_p.modulus, rs_q.modulus)
    # A CRT pair's order is the lcm of its two factors' orders.
    orders = {modnum.crt_pair(a, b, basis): math.lcm(rs_p.orders[a], rs_q.orders[b])
              for a in rs_p.roots for b in rs_q.roots}
    return _from_orders(basis.n, rs_p.t, orders)


def eligible_generators(rs: RootSet) -> list[int]:
    """The roots of multiplicative order exactly t, i.e. those whose powers
    enumerate a full length-t cycle without repetition."""
    return [r for r in rs.roots if rs.orders[r] == rs.t]


def _prime_root_set(t: int, p: int) -> RootSet:
    d = math.gcd(t, p - 1)
    g = modnum._unity_generator(d, p)
    # g has order d, so g**k has order d / gcd(k, d).
    return _from_orders(p, t, {pow(g, k, p): d // math.gcd(k, d) for k in range(d)})


def root_set(t: int, p: int, q: int | None = None) -> RootSet:
    """The full root set for x**t ≡ 1 mod the prime p (or mod p*q for a prime q)."""
    if not 1 <= t <= modnum.T_BOUND:
        raise ValueError(f"t must be in 1..{modnum.T_BOUND}, got {t}")
    if q is None:
        if not modnum.is_prime(p):
            raise InvalidPrime(f"{p} is not prime")
        return _prime_root_set(t, p)
    modnum.CrtBasis.for_primes(p, q)  # checks the pair before either set is built
    return lift_roots(_prime_root_set(t, p), _prime_root_set(t, q))
