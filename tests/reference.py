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
