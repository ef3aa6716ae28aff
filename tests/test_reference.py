"""encode and decode against the naive reference in tests/reference.py.

The reference shares no code with powmap: no root set, no CRT join, no
counted rank.  So a rule that is wrong the same way in encode and decode,
or in the Garner join of a semiprime's roots, shows up here.
"""

import math
import random

import pytest

import reference
from powmap import NotResidue, Packet, decode, encode, make_params, root_set

BOUND = 400  # every prime and semiprime key below it, for every t = 2..12 (about 5 s)
CHECKED = 409288  # (key, message) pairs in that sweep
# The last five primes have deep odd Sylow subgroups: p-1 holds 3**18, 3**17, 5**13, 7**10
# and 11**8 in turn.
FIXED_KEYS = ((4294967291,), (4294967279,), (65497, 65479), (3221225473,), (65537, 40961),
              (3874204891,), (258280327,), (2441406251,), (1129900997,), (1286153287,))


def _small_keys():
    primes = [p for p in range(3, BOUND) if all(p % d for d in range(2, p))]
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


@pytest.mark.parametrize("factors", FIXED_KEYS, ids=lambda f: "*".join(map(str, f)))
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
