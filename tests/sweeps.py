"""SHA-256 digests of what powmap's root functions return, to compare two trees.

Run from the repository root as ``PYTHONPATH=src python tests/sweeps.py``
(a few seconds).  It prints one ``<sweep> <digest>`` line per sweep.  Each
digest hashes, in a fixed order, the ``repr`` of every result, or the
exception class name of a call that raises, with ``;`` after each.  Two
trees that print the same digests return the same values, in the same
order, over the whole sweep.  ``tests/data/sweeps.txt`` holds the
recorded output.  ``python -m pytest`` checks each digest against it
(``test_sweeps.py``), and this script prints the digests so that two trees
can be compared.  The file name does not match ``test_*.py``, so pytest
does not collect it.  Named key groups are from ``corners.py``.

- ``root_set``: every ``t = 1..12`` over prime keys (primes below 400, large
  primes, composites) and ordered semiprime pairs; the ``repr`` shows
  ``roots`` and ``orders.items()`` in their stored order.
- ``_root_plan``: the per-prime root plan of ``modnum``, which ``_key_plan``
  caches for each prime of a key, ``t = 1..12`` over primes below 700, large
  primes, and primes with deep 2-, 3-, 5-, 7- and 11-Sylow subgroups, so
  that every width of the plan's digit tables is pinned.
- ``roots``: ``nth_root_mod_prime`` and ``sqrtmod`` over every residue of
  each odd prime below 700, ``nth_root_mod_prime`` on seeded ciphers at
  large primes and at primes with deep 2-, 3-, 5-, 7- and 11-Sylow
  subgroups, and ``extract_root`` on seeded ciphers under eight keys.
- ``primes``: ``is_prime`` and ``factor_semiprime`` on every ``n < 40,000``,
  on keys near ``2**32``, on squares and products around the small-prime
  bound 1009, and on strong pseudoprimes to the small bases.  This sweep
  also hashes each error's message.
"""

from __future__ import annotations

import hashlib
import random

from powmap import extract_root, make_params, root_set
from powmap.modnum import _root_plan, factor_semiprime, is_prime, nth_root_mod_prime, sqrtmod

from corners import DEEP_PRIMES, EXTRACT_KEYS, LARGE_PRIMES, ODD_DEEP_PRIMES, PRIME_CASES
from reference import primes_below

SMALL_PRIMES = primes_below(700)[1:]
SEMI_FACTORS = (2, 3, 5, 7, 11, 13, 17, 19, 31, 37, 43, 61, 73, 97, 181, 241, 65537)


class Digest:
    def __init__(self, messages: bool = False):
        self._h = hashlib.sha256()
        self._messages = messages

    def add(self, fn, *args):
        try:
            out = repr(fn(*args))
        except Exception as exc:
            out = f"{type(exc).__name__}: {exc}" if self._messages else type(exc).__name__
        self._h.update(out.encode() + b";")

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def root_set_digest() -> str:
    d = Digest()
    primes = [p for p in SMALL_PRIMES if p < 400] + [*LARGE_PRIMES, *DEEP_PRIMES, 1, 4, 341, 561]
    for t in range(1, 13):
        for p in primes:
            d.add(root_set, t, p)
        for p in SEMI_FACTORS + (15,):
            for q in SEMI_FACTORS:
                d.add(root_set, t, p, q)
    return d.hexdigest()


def root_plan_digest() -> str:
    d = Digest()
    for p in SMALL_PRIMES + [*LARGE_PRIMES, *DEEP_PRIMES, *ODD_DEEP_PRIMES]:
        for t in range(1, 13):
            d.add(_root_plan, t, p)
    return d.hexdigest()


def roots_digest() -> str:
    d = Digest()
    for p in SMALL_PRIMES:
        for t in range(1, 13):
            for c in range(p):
                d.add(nth_root_mod_prime, c, t, p)
        for c in range(p):
            d.add(sqrtmod, c, p)
    rng = random.Random(5)
    for p in (*LARGE_PRIMES, *DEEP_PRIMES, *ODD_DEEP_PRIMES):
        for t in range(1, 13):
            for _ in range(300):
                c = pow(rng.randrange(1, p), t, p) if rng.random() < 0.8 else rng.randrange(p)
                d.add(nth_root_mod_prime, c, t, p)
    for t in range(2, 13):
        for key in EXTRACT_KEYS:
            try:
                params = make_params(t, *key)
            except Exception:
                continue
            for _ in range(200):
                d.add(extract_root, pow(rng.randrange(1, params.n), t, params.n), params)
    return d.hexdigest()


def primes_digest() -> str:
    d = Digest(messages=True)
    for n in [*range(40_000), *PRIME_CASES]:
        d.add(is_prime, n)
        d.add(factor_semiprime, n)
    return d.hexdigest()


# Each sweep by its name in tests/data/sweeps.txt, in the order of its lines.
SWEEPS = {"root_set": root_set_digest, "_root_plan": root_plan_digest,
          "roots": roots_digest, "primes": primes_digest}

if __name__ == "__main__":
    for name, sweep in SWEEPS.items():
        print(name, sweep())
