"""encode and decode against the naive reference in tests/reference.py.

The reference shares no code with powmap: no root set, no CRT join, no
counted rank.  So a rule that is wrong the same way in encode and decode,
or in the Garner join of a semiprime's roots, shows up here.
"""

import ast
import itertools
import math
import random
import sys
from pathlib import Path

import pytest

import corners
import reference
from powmap import NotResidue, Packet, decode, encode, make_params, root_set

BOUND = 400  # every prime and semiprime key below it, for every t = 2..12 (about 5 s)
CHECKED = 409288  # (key, message) pairs in that sweep
SMALL = reference.primes_below(65537)  # every prime up to the square root of 2**32


def _small_keys():
    primes = reference.primes_below(BOUND)[1:]
    yield from ((p,) for p in primes)
    yield from ((p, q) for p in primes for q in primes if p != q and p * q < BOUND)


def test_every_small_key_and_message_agrees_with_the_full_scan():
    checked = 0
    for t in range(2, 13):
        for factors in _small_keys():
            params, rs = make_params(t, *factors), root_set(t, *factors)
            n = params.n
            fibers = reference.fibers(t, n)
            for c, cands in fibers.items():
                for m in cands:
                    pkt = encode(m, params, rs)
                    assert (pkt.c, pkt.rank) == (c, reference.rank(m, cands)), (t, factors, m)
                    assert decode(pkt, params, rs) == reference.pick(pkt.rank, cands) == m
                    checked += 1
            # The least unit that no unit message encrypts to, if any: decode refuses it.
            forged = next((c for c in range(2, n) if c not in fibers and math.gcd(c, n) == 1), None)
            if forged is not None:
                with pytest.raises(NotResidue):
                    decode(Packet(t, n, forged, 1), params, rs)
    assert checked == CHECKED


@pytest.mark.parametrize("factors", corners.FIXED_KEYS, ids=lambda f: "*".join(map(str, f)))
def test_seeded_messages_on_fixed_keys_agree_with_the_reference(factors):
    rng = random.Random(sum(factors))
    for t in range(2, 13):
        params, rs = make_params(t, *factors), root_set(t, *factors)
        n = params.n
        assert set(rs.roots) == reference.unity_roots(t, *factors), t
        for _ in range(20):
            m = rng.randrange(2, n)
            if any(m % f == 0 for f in factors):
                continue
            cands = reference.candidates(m, t, *factors)
            pkt = encode(m, params, rs)
            assert pkt == Packet(t, n, pow(m, t, n), reference.rank(m, cands)), (t, m)
            assert decode(pkt, params, rs) == reference.pick(pkt.rank, cands) == m


@pytest.mark.parametrize("name", ["reference.py", "corners.py"])
def test_oracle_modules_import_only_the_standard_library(name):
    # So no defect in powmap can change the keys or the oracles that check it.
    for node in ast.walk(ast.parse((Path(__file__).parent / name).read_text())):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module if node.level == 0 else "."]
        else:
            continue
        for module in modules:
            assert module.split(".")[0] in sys.stdlib_module_names, (name, module)


def test_corner_keys_are_inside_the_contract():
    def odd_prime(f):
        return f > 2 and all(f % d for d in SMALL if d * d <= f)

    primes = (*corners.LARGE_PRIMES, *corners.DEEP_PRIMES, *corners.ODD_DEEP_PRIMES,
              *corners.ROOT_CHOICE_PRIMES)
    keys = [(p,) if q is None else (p, q) for _, p, q in corners.CLASS_KEYS]
    for factors in [(p,) for p in primes] + keys + [*corners.FIXED_KEYS, *corners.EXTRACT_KEYS]:
        assert all(map(odd_prime, factors)) and len(set(factors)) == len(factors), factors
        assert math.prod(factors) < 2**32, factors
    assert not any(map(odd_prime, corners.PSEUDOPRIMES))
    assert all(0 < n < 2**32 for n in corners.PRIME_CASES)
    assert all(n < 2**32 and len(f := reference.prime_factors(n)) > 1 and f[0] >= 1009
               for n in corners.ABOVE_SCREEN)
    # Each divisibility class of t against phi, for a prime and for a semiprime key.
    classes = set()
    for t, p, q in corners.CLASS_KEYS:
        phi = (p - 1) * (1 if q is None else q - 1)
        assert 2 <= t <= 12
        classes.add((q is None, phi % t == 0, phi % (t * t) == 0))
    assert classes == {(prime, *cls) for prime in (True, False)
                       for cls in ((False, False), (True, False), (True, True))}


def _smallest_prime_of_shape(step, ells):
    """The first prime among step * k + 1 < 2**32 with no ell of ells dividing k, or None, by
    trial division; for None, the proof that every such candidate is composite."""
    def is_prime(f):
        return all(f % d for d in itertools.takewhile(lambda d: d * d <= f, SMALL))

    candidates = (f for f in range(step + 1, 2**32, step) if all((f - 1) // step % ell for ell in ells))
    return next(filter(is_prime, candidates), None)


def test_sylow_depth_primes_are_the_smallest_of_each_depth():
    empty = []
    assert sorted(corners.SYLOW_DEPTH_PRIMES) == [2, 3, 5, 7, 11]
    for ell, primes in corners.SYLOW_DEPTH_PRIMES.items():
        assert ell ** len(primes) < 2**32 <= ell ** (len(primes) + 1), ell  # every depth s
        for s, p in enumerate(primes, 1):
            assert _smallest_prime_of_shape(ell**s, (ell,)) == p, (ell, s)
            if p is None:
                empty.append((ell, s))
    assert tuple(empty) == corners.EMPTY_SYLOW_SHAPES


def test_joint_depth_primes_are_the_smallest_of_each_joint_shape():
    assert sorted(corners.JOINT_DEPTH_PRIMES) == [3, 5]
    for ell, rows in corners.JOINT_DEPTH_PRIMES.items():
        assert 2 ** len(rows) * ell < 2**32 <= 2 ** (len(rows) + 1) * ell, ell  # every depth s2
        for s2, primes in enumerate(rows, 1):
            assert 2**s2 * ell ** len(primes) < 2**32 <= 2**s2 * ell ** (len(primes) + 1), (ell, s2)
            for s, p in enumerate(primes, 1):
                assert _smallest_prime_of_shape(2**s2 * ell**s, (2, ell)) == p, (ell, s2, s)
    empty = [sum(p is None for primes in rows for p in primes) for rows in corners.JOINT_DEPTH_PRIMES.values()]
    assert empty == [64, 43]
