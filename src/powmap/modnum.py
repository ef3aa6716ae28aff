"""Exact modular arithmetic kernel.

Everything here is a pure function of its arguments: inverses, CRT
recombination, modular square roots, prime-degree roots, multiplicative
orders and desk-scale factoring.  Moduli are assumed to be desk scale;
the factoring helper enforces n < 2**32.
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


def invmod(a: int, modulus: int) -> int:
    """The b with a*b ≡ 1 (mod modulus); NotInvertible when gcd(a, modulus) > 1."""
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    try:
        return pow(a, -1, modulus)
    except ValueError:
        raise NotInvertible(f"gcd({a % modulus}, {modulus}) = {math.gcd(a, modulus)}") from None


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
    """Square roots of a modulo an odd prime p, by the prime-degree root routine.

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
    r = _prime_degree_root(a, 2, p)
    if r is None:
        return ()
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
    """One ell-th root of c mod the prime p, for any prime ell; None if no root.

    Write p-1 = ell**s * q with ell not dividing q.  When s <= 1, c**q = 1
    for every ell-th power c (for s = 0 every unit is one), so
    c**(ell^{-1} mod q) is a root.  Otherwise this is the
    Adleman-Manders-Miller method: peel the ell-Sylow subgroup by reading
    off the base-ell digits of the discrete log of c**q against a
    generator of the Sylow subgroup, then correct that first guess by a
    power of the generator.
    """
    s, q = 0, p - 1
    while q % ell == 0:
        q //= ell
        s += 1
    if s and pow(c, (p - 1) // ell, p) != 1:
        return None
    a = pow(ell, -1, q)
    x = pow(c, a, p)
    if s > 1:
        g = _unity_generator(ell**s, p)
        gamma = pow(g, ell ** (s - 1), p)
        big_k = pow(c, q, p)
        e = 0
        for i in range(s):
            h = big_k * pow(g, -e, p) % p
            d = pow(h, ell ** (s - 1 - i), p)
            for digit in range(ell):
                if pow(gamma, digit, p) == d:
                    break
            else:
                raise FormulaFailure(f"digit extraction failed mod {p}; modulus not prime?")
            e += digit * ell**i
        # c is an ell-th power, so ell | e.
        k = (a * ell - 1) // q
        b = (-(e // ell) * k) % ell ** (s - 1)
        x = x * pow(g, b, p) % p
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
        r0 = _prime_degree_root(val, ell, p)
        if r0 is None:
            return None
        d = math.gcd(ell, p - 1)
        zeta = _unity_generator(d, p)
        for r in sorted(r0 * pow(zeta, j, p) % p for j in range(d)):
            out = descend(r, i + 1)
            if out is not None:
                return out
        return None

    return descend(c, 0)
