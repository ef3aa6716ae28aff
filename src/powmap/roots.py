"""Roots of unity mod n, in closed form: mod a prime p they are the powers
of one element of order d = gcd(t, p-1), and semiprime sets CRT-lift the
per-factor sets.  The brute-force scan and the paper's radical
constructions for degrees 5 and 6 are kept as oracles to check against.
"""

from __future__ import annotations

from collections import namedtuple
from operator import index

from . import modnum
from .errors import InvalidArgument, NotSupported


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
        raise InvalidArgument(f"modulus must be >= 2, got {modulus}")
    if not 1 <= t <= modnum.T_BOUND:
        raise InvalidArgument(f"t must be in 1..{modnum.T_BOUND}, got {t}")
    return _with_orders(modulus, t, [x for x in range(1, modulus) if pow(x, t, modulus) == 1])


def quintic_roots_prime(p: int) -> RootSet:
    """The five solutions of x**5 ≡ 1 (mod p) by nested radicals.

    With s either square root of 5, u of -2(5+s) and u' of -2(5-s), the
    roots are 1 and (-1+s±u)/4, (-1-s±u')/4 mod p; equals the brute-force
    set.  Both radicands are squares: F_p holds a primitive 5th root ζ with
    (4ζ + 1 - s)**2 ≡ -2(5+s) and (4ζ² + 1 + s)**2 ≡ -2(5-s).
    """
    if p % 5 != 1:
        raise InvalidArgument(f"p must be a prime ≡ 1 (mod 5), got {p}")
    s = modnum.sqrtmod(5, p)[0]  # InvalidPrime for a composite p, from the kernel
    inv4 = modnum.invmod(4, p)
    vals = {1, *((-1 + s + u) * inv4 % p for u in modnum.sqrtmod(-2 * (5 + s), p)),
            *((-1 - s + v) * inv4 % p for v in modnum.sqrtmod(-2 * (5 - s), p))}
    return _with_orders(p, 5, vals)


def sextic_roots_prime(p: int) -> RootSet:
    """The six solutions of x**6 ≡ 1 (mod p) by nested radicals.

    With r either square root of -3, the roots are 1, p-1, ±sqrt((-1+r)/2)
    and ±sqrt((-1-r)/2) mod p; equals the brute-force set.  (-1±r)/2 are the
    primitive cube roots of unity ω and ω², whose square roots are ±ω², ±ω.
    """
    if p % 6 != 1:
        raise InvalidArgument(f"p must be a prime ≡ 1 (mod 6), got {p}")
    r = modnum.sqrtmod(p - 3, p)[0]  # InvalidPrime for a composite p, from the kernel
    inv2 = modnum.invmod(2, p)
    vals = {1, p - 1, *modnum.sqrtmod((-1 + r) * inv2 % p, p),
            *modnum.sqrtmod((-1 - r) * inv2 % p, p)}
    return _with_orders(p, 6, vals)


def lift_roots(rs_p: RootSet, rs_q: RootSet) -> RootSet:
    """Combine per-prime root sets into the root set mod p*q via CRT.

    With t roots on each side this yields t**2 roots; a side whose prime
    is not ≡ 1 (mod t) contributes only the root 1 and the count stays t.
    """
    if rs_p.t != rs_q.t:
        raise InvalidArgument(f"exponents differ: {rs_p.t} vs {rs_q.t}")
    if not 1 <= rs_p.t <= modnum.T_BOUND:  # as root_set; modnum._LCM holds orders up to 12
        raise InvalidArgument(f"t must be in 1..{modnum.T_BOUND}, got {rs_p.t}")
    basis = modnum.CrtBasis.for_primes(rs_p.modulus, rs_q.modulus)  # checks the pair
    if basis.n >= modnum.FACTOR_BOUND:  # as make_params and root_set refuse it
        raise NotSupported(f"{basis.n} exceeds the 2**32 desk-scale bound")
    return _crt_join(rs_p.t, basis.p, basis.q, basis.q_inv_mod_p, rs_p.orders, rs_q.orders)


def _crt_join(t: int, p: int, q: int, q_inv: int, orders_p: dict, orders_q: dict) -> RootSet:
    """The root set mod n = p*q from {root: order} mod p and q, by Garner's join for q*q_inv ≡ 1
    (mod p) regrouped per side: a lifts to A = q*(a*q_inv % p), a mod p and 0 mod q, and b to
    B = b - q*(b*q_inv % p), 0 mod p and b mod q, so (A + B) % n is modnum._garner(a, b, p, q,
    q_inv) for any representatives.  A joined root costs one addition mod n and an order lookup."""
    n = p * q
    lifts_p = [(q * (a * q_inv % p), modnum._LCM[d]) for a, d in orders_p.items()]
    lifts_q = [(b - q * (b * q_inv % p), e) for b, e in orders_q.items()]
    return _from_orders(n, t, {(A + B) % n: lcm_d[e] for A, lcm_d in lifts_p for B, e in lifts_q})


def eligible_generators(rs: RootSet) -> list[int]:
    """The roots of multiplicative order exactly t, i.e. those whose powers
    enumerate a full length-t cycle without repetition."""
    return [r for r in rs.roots if rs.orders[r] == rs.t]


def root_set(t: int, p: int, q: int | None = None) -> RootSet:
    """The full root set for x**t ≡ 1 mod the prime p (or mod p*q for a prime q), from the key
    plan's entries and q**-1 mod p, which refuses the key; TypeError first for a non-integer."""
    t, p, q = index(t), index(p), None if q is None else index(q)
    entry_p, entry_q, q_inv = modnum._key_plan(t, p, q)
    orders_p = modnum._orders(t, p, entry_p[1])
    if q is None:
        return _from_orders(p, t, orders_p)
    return _crt_join(t, p, q, q_inv, orders_p, modnum._orders(t, q, entry_q[1]))
