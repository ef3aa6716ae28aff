"""A naive reference for the rank protocol that imports nothing from powmap.

Small keys: ``fibers`` scans every x in 1..n-1 once and files each unit
under its cipher x**t mod n, so a message's candidates are the units that
share its cipher.  Large keys: ``candidates`` multiplies the message by
the t-th roots of unity, which mod a prime f are the image of
z -> z**((f-1)/gcd(t, f-1)) (taken over z = 1, 2, ... until all
gcd(t, f-1) of them are found) and mod p*q the textbook CRT pairs of the
two sides.  Either way a rank is a ``sorted().index`` in a set.
"""

import math


def fibers(t: int, n: int) -> dict[int, set[int]]:
    """{c: the units x < n with x**t ≡ c (mod n)}, by full scan."""
    out: dict[int, set[int]] = {}
    for x in range(1, n):
        if math.gcd(x, n) == 1:
            out.setdefault(pow(x, t, n), set()).add(x)
    return out


def unity_roots(t: int, p: int, q: int | None = None) -> set[int]:
    """The x mod n = p (or p*q) with x**t ≡ 1, without scanning n."""
    sides = []
    for f in (p,) if q is None else (p, q):
        d, z, found = math.gcd(t, f - 1), 1, set()
        while len(found) < d:
            found.add(pow(z, (f - 1) // d, f))
            z += 1
        sides.append(found)
    if q is None:
        return sides[0]
    n, e_p, e_q = p * q, q * pow(q, -1, p), p * pow(p, -1, q)
    return {(a * e_p + b * e_q) % n for a in sides[0] for b in sides[1]}


def candidates(m: int, t: int, p: int, q: int | None = None) -> set[int]:
    """The units with m's cipher: m times every t-th root of unity."""
    n = p if q is None else p * q
    return {m * r % n for r in unity_roots(t, p, q)}


def rank(m: int, cands: set[int]) -> int:
    return sorted(cands).index(m) + 1


def pick(r: int, cands: set[int]) -> int:
    return sorted(cands)[r - 1]


def primes_below(limit: int) -> list[int]:
    """Every prime below limit, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\x00\x00"
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(range(i * i, limit, i)))
    return [i for i in range(limit) if sieve[i]]


def prime_factors(n: int) -> list[int]:
    """n's prime factors, ascending and with multiplicity, by trial division."""
    factors, d = [], 2
    while d * d <= n:
        while n % d == 0:
            factors.append(d)
            n //= d
        d += 1
    return factors + [n] if n > 1 else factors


def canonical_root(roots: set[int], t: int, p: int) -> int:
    """Of t-th roots of one residue mod the prime p, the one powmap returns: with t's prime
    factors l0 <= l1 <= ..., the x whose (x**(t/l0), x**(t/(l0*l1)), ..., x) mod p is least."""
    ells = prime_factors(t)
    exps = [t // math.prod(ells[:i + 1]) for i in range(len(ells))]
    return min(roots, key=lambda x: [pow(x, e, p) for e in exps])
