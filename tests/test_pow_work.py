"""Exponentiation work, counted: the calls to pow and the bits of their exponents.

Most of the arithmetic of a key set-up and of a decode is built-in pow, and
the work pow does is deterministic, so these counts repeat exactly where
timings drift.  For the length of one call, a counter stands in for pow in
modnum and transform, whose module globals are looked up before builtins.
"""

import builtins
import math
import random

import corners
from powmap import decode, encode, make_params, modnum, root_set, transform

# 275 keys: t = 2..12 on the large and the deep primes, and on the semiprimes of FIXED_KEYS.
PRIMES = (*corners.LARGE_PRIMES, *corners.DEEP_PRIMES, *corners.ODD_DEEP_PRIMES)
KEYS = [(t, factors) for t in range(2, 13)
        for factors in (*((p,) for p in PRIMES), *(f for f in corners.FIXED_KEYS if len(f) == 2))]
# Exponent bits per bit of n.  The worst decode is at (5, 2441406251): 16 calls and 230 bits
# (7.4 per bit), since 5**3 > 64 leaves its 13 5-Sylow digits two per table lookup.  The worst
# key set-up is at (12, 2013265921): 56 calls and 734 bits (23.7), with one _unity search per
# prime, shared by the root set and the key plan, and the prime's root part built at its first root.
DECODE_K = 8
SETUP_K = 24


def _counted(monkeypatch, fn, *args):
    """(fn(*args), (pow calls, exponent bits, inverses)) over the pows fn makes in modnum and
    transform; an inverse is a pow with a negative exponent."""
    tally = [0, 0, 0]

    def counting_pow(base, exp, *mod):
        tally[0] += 1
        tally[1] += abs(exp).bit_length()
        tally[2] += exp < 0
        return builtins.pow(base, exp, *mod)

    with monkeypatch.context() as mp:
        for module in (modnum, transform):
            mp.setattr(module, "pow", counting_pow, raising=False)
        result = fn(*args)
    return result, tuple(tally)


def _set_up(t, factors):
    """A receiver's key set-up: the checked key and its root set, which reads its key plan: one
    entry per prime from the prime's one search and, for a semiprime, the one q**-1 mod p of the
    Garner join.  Then each prime's first root, which builds the root part of its entry."""
    params, rs = make_params(t, *factors), root_set(t, *factors)
    for f, entry in zip(factors, modnum._key_plan(params.t, params.p, params.q)):
        modnum._root_part(t, f, entry)
    return params, rs


def _work(monkeypatch):
    """[(t, n, set-up counts, decode counts)] over KEYS, each decode with its key plan cached."""
    work = []
    for t, factors in KEYS:
        modnum._key_plan.cache_clear()
        (params, rs), setup = _counted(monkeypatch, _set_up, t, factors)
        m = random.Random(params.n).randrange(2, params.n)
        pkt = encode(m, params, rs)
        decoded, decoding = _counted(monkeypatch, decode, pkt, params, rs)
        assert decoded == m, (t, factors)
        work.append((t, params.n, setup, decoding))
    return work


def test_counts_repeat_exactly(monkeypatch):
    first = _work(monkeypatch)
    assert len(first) == 275
    assert all(setup[0] and decoding[0] for _, _, setup, decoding in first)  # the counter ran
    assert _work(monkeypatch) == first


def test_one_decode_spends_at_most_k_bits_per_bit_of_n(monkeypatch):
    for t, n, _, (calls, bits, _) in _work(monkeypatch):
        assert bits <= DECODE_K * math.log2(n), (t, n, calls, bits)


def test_key_set_up_spends_at_most_k_bits_per_bit_of_n(monkeypatch):
    for t, n, (calls, bits, _), _ in _work(monkeypatch):
        assert bits <= SETUP_K * math.log2(n), (t, n, calls, bits)


def test_a_decode_with_a_warm_key_plan_inverts_nothing(monkeypatch):
    # Every inverse a key needs, q**-1 mod p among them, is in its key plan; set-up takes
    # them, which also shows that the counter sees inverses.
    work = _work(monkeypatch)
    assert all(decoding[2] == 0 for _, _, _, decoding in work)
    assert all(setup[2] > 0 for _, _, setup, _ in work)
