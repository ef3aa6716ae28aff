"""Exact modular arithmetic kernel.

Everything here is a pure function of its arguments: exponentiation,
inverses, CRT recombination, modular square roots, prime-degree roots,
multiplicative orders and desk-scale factoring.  Moduli are assumed to be
desk scale; the factoring helper enforces n < 2**32.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import (
    FormulaFailure,
    InvalidPrime,
    NotCoprime,
    NotDivisor,
    NotInvertible,
    NotSupported,
)

FACTOR_BOUND = 2**32


def powmod(base: int, exp: int, modulus: int) -> int:
    """Square-and-multiply base**exp mod modulus; exp = 0 gives 1."""
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    if exp < 0:
        raise ValueError(f"exponent must be >= 0, got {exp}")
    base %= modulus
    out = 1
    while exp:
        if exp & 1:
            out = out * base % modulus
        base = base * base % modulus
        exp >>= 1
    return out


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with a*x + b*y = g = gcd(a, b), for a, b >= 0."""
    x0, x1, y0, y1 = 0, 1, 1, 0
    while a != 0:
        q, b, a = b // a, a, b % a
        y0, y1 = y1, y0 - q * y1
        x0, x1 = x1, x0 - q * x1
    return b, x0, y0


def invmod(a: int, modulus: int) -> int:
    """The b with a*b ≡ 1 (mod modulus); NotInvertible when gcd(a, modulus) > 1."""
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    a %= modulus
    g, x, _ = xgcd(a, modulus)
    if g != 1:
        raise NotInvertible(f"gcd({a}, {modulus}) = {g}")
    return x % modulus


@dataclass(frozen=True)
class CrtBasis:
    """Precomputed recombination data for two distinct primes p and q.

    q_inv_mod_p and p_inv_mod_q satisfy q*q_inv_mod_p ≡ 1 (mod p) and
    p*p_inv_mod_q ≡ 1 (mod q).
    """

    p: int
    q: int
    q_inv_mod_p: int
    p_inv_mod_q: int
    n: int

    def __post_init__(self) -> None:
        if self.q * self.q_inv_mod_p % self.p != 1 or self.p * self.p_inv_mod_q % self.q != 1:
            raise ValueError("inconsistent CRT basis")
        if self.n != self.p * self.q:
            raise ValueError("n must equal p*q")

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
    """Square roots of a modulo an odd prime p, by Tonelli-Shanks.

    Returns the pair (r, p-r) sorted ascending for a quadratic residue,
    (0,) for a ≡ 0, and () for a non-residue (a normal outcome, not an
    error).  The auxiliary non-residue is the smallest one found by
    ascending scan, so results are deterministic.
    """
    if p < 3 or p % 2 == 0:
        raise ValueError(f"p must be an odd prime, got {p}")
    a %= p
    if a == 0:
        return (0,)
    if pow(a, (p - 1) // 2, p) != 1:
        return ()
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
    else:
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        c = _unity_generator(1 << s, p)
        r = pow(a, (q + 1) // 2, p)
        t = pow(a, q, p)
        m = s
        while t != 1:
            t2i, i = t, 0
            while t2i != 1:
                t2i = t2i * t2i % p
                i += 1
            b = pow(c, 1 << (m - i - 1), p)
            r = r * b % p
            c = b * b % p
            t = t * c % p
            m = i
    return (r, p - r) if r < p - r else (p - r, r)


def _divisors(t: int) -> list[int]:
    return [d for d in range(1, t + 1) if t % d == 0]


def element_order(a: int, modulus: int, t: int) -> int:
    """Smallest divisor d of t with a**d ≡ 1 (mod modulus).

    Raises NotDivisor when no divisor of t works, i.e. a is not a t-th
    root of unity.
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    a %= modulus
    if math.gcd(a, modulus) != 1:
        raise NotCoprime(f"gcd({a}, {modulus}) > 1")
    for d in _divisors(t):
        if pow(a, d, modulus) == 1:
            return d
    raise NotDivisor(f"{a} is not a {t}-th root of unity mod {modulus}")


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality check, fine at desk scale."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def factor_semiprime(n: int) -> tuple[int, int | None]:
    """(n, None) for a prime n, else the two prime factors (p, q), p <= q.

    Trial division up to sqrt(n).  NotSupported when n carries three or
    more prime factors counted with multiplicity, or n >= 2**32.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if n >= FACTOR_BOUND:
        raise NotSupported(f"{n} exceeds the 2**32 desk-scale bound")
    spf = None
    f = 2
    while f * f <= n:
        if n % f == 0:
            spf = f
            break
        f += 1 if f == 2 else 2
    if spf is None:
        return (n, None)
    rest = n // spf
    if is_prime(rest):
        return (spf, rest)
    raise NotSupported(f"{n} has more than two prime factors")


def _prime_factors(t: int) -> list[int]:
    """Prime factors of t, ascending, with multiplicity."""
    out = []
    f = 2
    while f * f <= t:
        while t % f == 0:
            out.append(f)
            t //= f
        f += 1
    if t > 1:
        out.append(t)
    return out


@functools.lru_cache(maxsize=None)
def _unity_generator(d: int, p: int) -> int:
    """An element of exact order d mod the prime p, for d | p-1: the first
    g = z**((p-1)/d), z = 1, 2, ..., with g**(d/l) != 1 for each prime l | d."""
    for z in range(1, p):
        g = pow(z, (p - 1) // d, p)
        if all(pow(g, d // ell, p) != 1 for ell in _prime_factors(d)):
            return g
    raise InvalidPrime(f"no element of order {d} mod {p}: not a prime with {d} | {p}-1")


def _prime_degree_root(c: int, ell: int, p: int) -> int | None:
    """One ell-th root of c mod p for prime ell dividing p-1; None if no root.

    ell = 2 delegates to Tonelli-Shanks and keeps the smaller root.  Odd
    ell peels the ell-Sylow subgroup: read off the base-ell digits of the
    discrete log of c**q against a generator of the Sylow subgroup, then
    assemble the root from an inverse exponent on the ell-free part.
    """
    n1 = p - 1
    if pow(c, n1 // ell, p) != 1:
        return None
    if ell == 2:
        return sqrtmod(c, p)[0]
    s, q = 0, n1
    while q % ell == 0:
        q //= ell
        s += 1
    g = _unity_generator(ell**s, p)
    gamma = pow(g, ell ** (s - 1), p)
    big_k = pow(c, q, p)
    e = 0
    for i in range(s):
        h = big_k * invmod(pow(g, e, p), p) % p
        d = pow(h, ell ** (s - 1 - i), p)
        for digit in range(ell):
            if pow(gamma, digit, p) == d:
                break
        else:
            raise FormulaFailure(f"digit extraction failed mod {p}; modulus not prime?")
        e += digit * ell**i
    # c is an ell-th power, so ell | e.
    a = invmod(ell, q) if q > 1 else 0
    k = (a * ell - 1) // q
    b = (-(e // ell) * k) % ell ** (s - 1) if s > 1 else 0
    x = pow(c, a, p) * pow(g, b, p) % p
    if pow(x, ell, p) != c:
        raise FormulaFailure(f"{x}**{ell} != {c} (mod {p})")
    return x


def nth_root_mod_prime(c: int, t: int, p: int) -> int | None:
    """Some x with x**t ≡ c (mod p) for prime p and 1 <= t <= 12, or None.

    t is peeled one prime factor at a time; when an intermediate choice of
    root dead-ends, the other members of its coset (the root times the
    ell-th roots of unity) are tried, so a root is found whenever one
    exists.  Fully deterministic.
    """
    if not 1 <= t <= 12:
        raise ValueError(f"t must be in 1..12, got {t}")
    c %= p
    if c == 0:
        return 0
    if t == 1 or p == 2:
        return c
    ells = _prime_factors(t)

    def descend(val: int, i: int) -> int | None:
        if i == len(ells):
            return val
        ell = ells[i]
        if (p - 1) % ell != 0:
            return descend(pow(val, invmod(ell, p - 1), p), i + 1)
        r0 = _prime_degree_root(val, ell, p)
        if r0 is None:
            return None
        zeta = _unity_generator(ell, p)
        for r in sorted(r0 * pow(zeta, j, p) % p for j in range(ell)):
            out = descend(r, i + 1)
            if out is not None:
                return out
        return None

    return descend(c, 0)
