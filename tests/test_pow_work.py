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
# key set-up is at (12, 2013265921): 141 calls and 1,517 bits (49.1), about half of them in the
# _unity search that root_set and the plan each run (ROADMAP item 11), so SETUP_K waits on that.
DECODE_K = 8
SETUP_K = 52


def _counted(monkeypatch, fn, *args):
    """(fn(*args), (pow calls, exponent bits)) over the pows fn makes in modnum and transform."""
    tally = [0, 0]

    def counting_pow(base, exp, *mod):
        tally[0] += 1
        tally[1] += abs(exp).bit_length()
        return builtins.pow(base, exp, *mod)

    with monkeypatch.context() as mp:
        for module in (modnum, transform):
            mp.setattr(module, "pow", counting_pow, raising=False)
        result = fn(*args)
    return result, tuple(tally)


def _set_up(t, factors):
    """A receiver's key set-up: the checked key, its root set and one root plan per prime."""
    params, rs = make_params(t, *factors), root_set(t, *factors)
    for f in factors:
        modnum._root_plan(t, f)
    return params, rs


def _work(monkeypatch):
    """[(t, n, set-up counts, decode counts)] over KEYS, each decode with its plans cached."""
    work = []
    for t, factors in KEYS:
        modnum._root_plan.cache_clear()
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
    for t, n, _, (calls, bits) in _work(monkeypatch):
        assert bits <= DECODE_K * math.log2(n), (t, n, calls, bits)


def test_key_set_up_spends_at_most_k_bits_per_bit_of_n(monkeypatch):
    for t, n, (calls, bits), _ in _work(monkeypatch):
        assert bits <= SETUP_K * math.log2(n), (t, n, calls, bits)
