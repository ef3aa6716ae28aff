"""Exact modular arithmetic kernel.

Everything here is a pure function of its arguments: inverses, CRT
recombination, modular square and t-th roots, multiplicative
orders, primality and desk-scale factoring.  Moduli are assumed to be desk
scale; primality and factoring enforce n < 2**32.  Both first screen n with
one gcd against the primes below 1009, then run Miller-Rabin or Pollard's
rho, so checking and factoring a key cost a polynomial in log n.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple
from operator import index

from .errors import (
    InvalidArgument,
    InvalidPrime,
    NotCoprime,
    NotSupported,
)

# The contract every layer checks: moduli n < FACTOR_BOUND, exponents t <= T_BOUND.
FACTOR_BOUND = 2**32
T_BOUND = 12


def invmod(a: int, modulus: int) -> int:
    """The b with a*b ≡ 1 (mod modulus); NotCoprime when gcd(a, modulus) > 1."""
    if modulus < 2:
        raise InvalidArgument(f"modulus must be >= 2, got {modulus}")
    try:
        return pow(a, -1, modulus)
    except ValueError:
        raise NotCoprime(f"gcd({a % modulus}, {modulus}) = {math.gcd(a, modulus)}") from None


class CrtBasis(namedtuple("CrtBasis", "p q q_inv_mod_p p_inv_mod_q n")):
    """Recombination data for two distinct primes p and q, with q*q_inv_mod_p ≡ 1
    (mod p) and p*p_inv_mod_q ≡ 1 (mod q).  for_primes builds one per call.
    """

    __slots__ = ()

    def __new__(cls, p: int, q: int, q_inv_mod_p: int, p_inv_mod_q: int, n: int) -> "CrtBasis":
        if q * q_inv_mod_p % p != 1 or p * p_inv_mod_q % q != 1:
            raise InvalidArgument("inconsistent CRT basis")
        if n != p * q:
            raise InvalidArgument("n must equal p*q")
        return super().__new__(cls, p, q, q_inv_mod_p, p_inv_mod_q, n)

    @classmethod
    def _make(cls, iterable) -> "CrtBasis":
        return cls(*iterable)  # namedtuple's own _make, which _replace calls, skips __new__

    @classmethod
    def for_primes(cls, p: int, q: int) -> "CrtBasis":
        """Checks the pair and builds its basis; src/ builds one only in lift_roots."""
        if p == q:
            raise InvalidPrime("p and q must differ")
        if not (is_prime(p) and is_prime(q)):
            raise InvalidPrime(f"{p} and {q} must both be prime")
        return cls(p, q, invmod(q, p), invmod(p, q), p * q)


def _garner(r_p: int, r_q: int, p: int, q: int, q_inv: int) -> int:
    """Garner's x in [0, p*q) with x ≡ r_p (mod p) and x ≡ r_q (mod q), for q*q_inv ≡ 1 (mod p)."""
    r_q %= q  # reduced first, so the sum lands in [0, p*q)
    return r_q + q * ((r_p - r_q) * q_inv % p)


def crt_pair(r_p: int, r_q: int, basis: CrtBasis) -> int:
    """The unique x mod p*q with x ≡ r_p (mod p) and x ≡ r_q (mod q), by _garner."""
    return _garner(r_p, r_q, basis.p, basis.q, basis.q_inv_mod_p)


def sqrtmod(a: int, p: int) -> tuple[int, ...]:
    """Square roots of a modulo an odd prime p, from nth_root_mod_prime.

    Returns the pair (r, p-r) sorted ascending for a quadratic residue,
    (0,) for a ≡ 0, and () for a non-residue (a normal outcome, not an
    error).  The pair does not depend on which root is found first, so
    results are deterministic.
    """
    if p < 3 or p % 2 == 0:
        raise InvalidArgument(f"p must be an odd prime, got {p}")
    a %= p
    if a == 0:
        return (0,)
    r = nth_root_mod_prime(a, 2, p)  # the smaller of the two roots
    return () if r is None else (r, p - r)


def element_order(a: int, modulus: int, t: int) -> int:
    """Smallest divisor d of t with a**d ≡ 1 (mod modulus).

    Closed form: check a**t ≡ 1, then divide each prime factor out of t
    while the power stays 1.  InvalidArgument when a**t ≢ 1, i.e. a is
    not a t-th root of unity, as for a bad t or modulus; NotCoprime for a non-unit.
    """
    if not 1 <= t <= T_BOUND:  # before t is factored over the small primes
        raise InvalidArgument(f"t must be in 1..{T_BOUND}, got {t}")
    if modulus < 2:
        raise InvalidArgument(f"modulus must be >= 2, got {modulus}")
    a %= modulus
    if math.gcd(a, modulus) != 1:
        raise NotCoprime(f"gcd({a}, {modulus}) > 1")
    if pow(a, t, modulus) != 1:
        raise InvalidArgument(f"{a} is not a {t}-th root of unity mod {modulus}")
    d = t
    for ell in _prime_factors(t):
        if pow(a, d // ell, modulus) == 1:
            d //= ell
    return d


def _primes_below(bound: int) -> frozenset[int]:
    """The primes below bound, by the sieve of Eratosthenes."""
    sieve = bytearray([0, 0]) + bytearray([1]) * (bound - 2)
    for f in range(2, math.isqrt(bound - 1) + 1):
        if sieve[f]:
            sieve[f * f::f] = bytes(len(range(f * f, bound, f)))
    return frozenset(itertools.compress(range(bound), sieve))


# n shares a factor with _SMALL_PRODUCT iff n has a prime factor below _SCREEN.
_SCREEN = 1009
_SMALL_PRIMES = _primes_below(_SCREEN)
_SMALL_PRODUCT = math.prod(_SMALL_PRIMES)


def is_prime(n: int) -> bool:
    """Deterministic primality for n < 2**32; NotSupported for n >= 2**32.

    A lookup below 1009; above, one gcd with the product of the primes
    below 1009, which settles every n < 1009**2; above that,
    Miller-Rabin with the bases 2, 7 and 61, which no composite below
    4,759,123,141 passes (Jaeschke, Math. Comp. 61, 1993).  TypeError for a non-integer n.
    """
    n = index(n)
    if n < _SCREEN:
        return n in _SMALL_PRIMES
    if n >= FACTOR_BOUND:
        raise NotSupported(f"{n} exceeds the 2**32 desk-scale bound")
    if math.gcd(n, _SMALL_PRODUCT) > 1:
        return False
    if n < _SCREEN**2:
        return True
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**s with d odd
    for a in (2, 7, 61):
        x = pow(a, (n - 1) >> s, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """A factor 1 < f < n of a composite n with no prime factor below 1009: Pollard's rho on
    y -> y*y + c from y = 2 with Floyd's cycle finding, one gcd per step, c = 1, 2, ... in turn."""
    for c in itertools.count(1):
        x, y, g = 2, 2, 1
        while g == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            g = math.gcd(x - y, n)
        if g < n:
            return g


def factor_semiprime(n: int) -> tuple[int, int | None]:
    """(n, None) for a prime n, else the two prime factors (p, q), p <= q.

    A factor comes from trial division below 1009 when n has a prime
    factor there, else from Pollard's rho, which splits squares too.
    NotSupported when n carries three or more prime factors counted with
    multiplicity, or n >= 2**32.
    """
    if n < 2:
        raise InvalidArgument(f"n must be >= 2, got {n}")
    if is_prime(n):  # NotSupported for n >= 2**32
        return (n, None)
    small = math.gcd(n, _SMALL_PRODUCT)
    f = _prime_factors(small)[0] if small > 1 else _pollard_rho(n)
    p, q = sorted((f, n // f))
    if is_prime(p) and is_prime(q):
        return (p, q)
    raise NotSupported(f"{n} has more than two prime factors")


def _prime_factors(n: int) -> list[int]:
    """Prime factors of n, ascending, with multiplicity; [] for n < 2.  Divides by the sieve's
    primes up to sqrt(n), so all prime factors of n but the largest must lie below 1009."""
    factors = []
    for f in filter(_SMALL_PRIMES.__contains__, range(2, _SCREEN)):
        if f * f > n:  # also stops n <= 0, which every f divides
            break
        while n % f == 0:
            n //= f
            factors.append(f)
    return factors + [n] if n > 1 else factors


def _unity(t: int, p: int) -> tuple[int, dict[int, int]]:
    """(z, {g**k: d/gcd(k, d)}): the t-th roots of unity mod the prime p with their orders.

    Checks t, then p, for every per-prime build.  d = gcd(t, p-1); z is the first of 2, 3, ...
    that is an ell-th power for no prime ell | d, tested on g = z**((p-1)/d) by g**(d/ell) ≢ 1;
    then g has order d, and z**((p-1)/ell**s) generates the ell-Sylow subgroup; z = g = 1 if d = 1.
    """
    if not 1 <= t <= T_BOUND:  # before p, which costs a primality check
        raise InvalidArgument(f"t must be in 1..{T_BOUND}, got {t}")
    if not is_prime(p):  # before any search; NotSupported for p >= 2**32
        raise InvalidPrime(f"{p} is not prime")
    d = math.gcd(t, p - 1)
    z = g = 1
    if d > 1:
        cofactors = [d // ell for ell in set(_prime_factors(d))]
        for z in range(2, p):
            g = pow(z, (p - 1) // d, p)
            if 1 not in [pow(g, c, p) for c in cofactors]:
                break
    x, orders = 1, {}
    for k in range(d):
        orders[x] = d // math.gcd(k, d)
        x = x * g % p
    return z, orders


def _root_plan(t: int, p: int) -> tuple:
    """What a t-th root mod the prime p needs that does not depend on the cipher.

    Write p-1 = A*B with A made only of primes dividing t.  Returns
    (b_exp, sylow, unity, exps):
    - c**b_exp is a t-th root of the part of c whose order divides B;
    - sylow has one entry (ell, s, m, g_inv, table, gw, ell**k, width) per
      prime ell | t with ell**s || p-1 and ell**k || t, s > k: m = (p-1)/ell**s,
      g = z**m for _unity's z generates the ell-Sylow subgroup, width is the
      largest w <= s with ell**w <= 64, table = {gamma**j: j} for j < ell**w
      and gamma = g**(ell**(s-w)), and gw = g**v with v the inverse of
      m*t/ell**k mod ell**(s-k);
    - unity holds the gcd(t, p-1) t-th roots of unity;
    - exps is t/l0, t/(l0*l1), ..., 1 for the prime factors l0 <= l1 <= ...
      of t.
    Uncached: _key_plan holds the plans of each key's primes.
    """
    z, unity = _unity(t, p)  # checks t and p first; the one search of the plan
    ells = _prime_factors(t)
    a_part, sylow = 1, []
    for ell in sorted(set(ells)):
        k, s, m = ells.count(ell), 0, p - 1
        while m % ell == 0:
            m //= ell
            s += 1
        a_part *= ell**s
        if s > k:
            g = pow(z, m, p)  # ell | gcd(t, p-1) and z is no ell-th power: order ell**s
            width = max(w for w in range(1, s + 1) if ell**w <= 64)
            gamma, x, table = pow(g, ell ** (s - width), p), 1, {}
            for j in range(ell**width):
                table[x], x = j, x * gamma % p
            v = pow(m * t // ell**k, -1, ell ** (s - k))
            sylow.append((ell, s, m, pow(g, -1, p), table, pow(g, v, p), ell**k, width))
    b_exp = a_part * pow(a_part * t, -1, (p - 1) // a_part)
    exps = tuple(t // math.prod(ells[:i + 1]) for i in range(len(ells)))
    return b_exp, tuple(sylow), tuple(unity), exps


@functools.lru_cache(maxsize=2048)
def _key_plan(t: int, p: int, q: int | None) -> tuple:
    """(plan_p, plan_q, q_inv): _root_plan of each prime of the key and q**-1 mod p, the last
    two None for a prime key.  Checks p != q (InvalidPrime), then t, p, q.  Built at a key's
    first root, not at key set-up.  Bounded so a receiver under many keys stays small: a key
    plan takes about 1.4 KB on the corner keys and on a wide-keys round's 806 keys, which all
    fit, and at most about 15 KB (t = 12, 2**8*3**5 | p-1 and q-1); 2048 take at most 30 MB.
    """
    if p == q:  # first, as root_set refuses it
        raise InvalidPrime("p and q must differ")
    plan_p = _root_plan(t, p)
    if q is None:
        return plan_p, None, None
    return plan_p, _root_plan(t, q), invmod(q, p)


def _any_root(c: int, t: int, p: int, plan: tuple) -> int | None:
    """Some x with x**t ≡ c (mod the prime p), or None when c has no t-th root.

    From p's plan (_root_plan(t, p), read from _key_plan): one pow for the part of the group
    prime to t, and for each Sylow subgroup the Pohlig-Hellman digits of a discrete log, read
    width digits per lookup in the plan's table of at most 64 entries (Adleman-Manders-Miller;
    Bernstein 2001).  Which root comes out is whatever the plan gives.
    """
    b_exp, sylow, _, _ = plan
    c %= p
    if c == 0:
        return 0
    x = pow(c, b_exp, p)
    for ell, s, m, g_inv, table, gw, ell_k, width in sylow:
        h, e = pow(c, m, p), 0
        for i in range(0, s - width, width):  # h is g**(E - e), e = E mod ell**i, E = log_g(c**m)
            d = table[pow(h, ell ** (s - i - width), p)] * ell**i
            h, e = h * pow(g_inv, d, p) % p, e + d
        e += table[h] * ell ** (s - width)  # the last chunk may overlap digits taken out
        # When ell**k does not divide e, c has no root and the check below fails.
        x = x * pow(gw, e // ell_k, p) % p
    return x if pow(x, t, p) == c else None


def _canonical_root(c: int, t: int, p: int, plan: tuple) -> int | None:
    """nth_root_mod_prime's root, from p's plan as _any_root takes it."""
    x = _any_root(c, t, p, plan)
    if not x:  # None, or 0 for c ≡ 0
        return x
    _, _, unity, exps = plan
    return min((x * w % p for w in unity), key=lambda r: [pow(r, e, p) for e in exps])


def nth_root_mod_prime(c: int, t: int, p: int) -> int | None:
    """The canonical x with x**t ≡ c (mod p) for prime p and 1 <= t <= 12, or None.

    Some root from _any_root, then moved to a fixed one: among all roots
    x, the one whose (x**(t/l0), x**(t/(l0*l1)), ..., x) is least, for the
    prime factors l0 <= l1 <= ... of t.  InvalidPrime for a composite p.
    """
    return _canonical_root(c, t, p, _key_plan(t, p, None)[0])
