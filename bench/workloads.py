"""Seeded inputs and the output oracle for every benchmark workload.

Nothing here imports powmap.  Keys, messages, packets and expected outputs
come from the benchmark's own arithmetic: Python's built-in ``pow``, a
Miller-Rabin primality test and brute-force scans of the roots of unity.
The same seed always gives byte-identical inputs (see ``fingerprint``).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("desk-decode", "desk-encode", "wide-keys", "cli-oneshot")

NOT_DIVISIBLE, T_EXACTLY, T_SQUARED = "not_divisible", "t_exactly", "t_squared"
CLASSES = (NOT_DIVISIBLE, T_EXACTLY, T_SQUARED)

# The paper's worked keys, then more across t = 2..12 in all three
# divisibility classes.  Every desk key decodes at the seed commit.  Two
# thirds are T_SQUARED semiprimes, the slowest decode path, two for each t,
# so that the median and the 90th percentile of decode latency fall among
# many keys of similar cost rather than in the gap between fast and slow
# classes.  Moduli stay below 1e5 so the oracle can scan every residue.
PAPER_KEYS = ((5, 61, None), (5, 11, 17), (5, 11, 31), (6, 43, None), (6, 13, 31))
DESK_KEYS = PAPER_KEYS + (
    (2, 103, 311), (3, 151, 571), (4, 197, 293), (7, 113, 827), (8, 113, 541),
    (9, 223, 433), (10, 151, 479), (11, 199, 353), (12, 193, 307),
    (2, 131, 439), (3, 223, 409), (4, 41, 1721), (5, 61, 1381), (6, 67, 1231), (7, 43, 953),
    (8, 97, 479), (9, 97, 271), (10, 61, 1151), (11, 199, 463), (12, 97, 967),
    (3, 1867, None), (8, 6761, None), (11, 6997, None), (12, 8629, None), (7, 131, 379),
    (7, 6691, None), (9, 6257, None), (11, 173, 383),
)
DESK_STREAM = 4096

# wide-keys: keys for every (t, kind, class) that can exist, in three size
# bands.  The largest prime band stops at 1e6 because root sets are still
# built by an O(p) scan; semiprime factors stop at 65536 so that n < 2**32.
# The two cheap bands get six keys per stratum, so which keys happen to
# decode varies little from seed to seed: over eight seeds the share of
# verified operations had an IQR of 3 % of its median, against 7 % with
# three keys per stratum.
PRIME_BANDS = ((100, 1000), (1000, 30_000), (30_000, 1_000_000))
SEMI_BANDS = ((100, 1000), (1000, 10_000), (10_000, 65_536))
BAND_COPIES = (6, 6, 1)
WIDE_MESSAGES = 4

# cli-oneshot: small moduli only, so a launch costs what start-up costs.
# One operation is a burst of launches, one of each subcommand in seeded
# order: on a shared two-core VM, single launch times fell into two modes
# about 30 % apart, and the median of single launches jumped between them
# from run to run.  With every subcommand in every burst, the seed changes
# keys and order but not the mix.
CLI_COMMANDS = ("encode", "decode", "session", "groups", "matrix", "table")
CLI_BURST = len(CLI_COMMANDS)
CLI_STREAM = 12 * CLI_BURST

GOLDEN_ENCODE = ((5, 61, None), 28, '{"t":5,"n":61,"c":11,"rank":3}\n')
GOLDEN_DECODE = ((5, 11, 31), '{"t":5,"n":341,"c":87,"rank":5}\n', 51)


@dataclass(frozen=True)
class Item:
    """One operation of a stream: key index, message, and what must come out.

    ``line`` is the packet line the sender must emit (``prefix`` only pins
    t, n and c when the oracle does not compute the rank).  ``refusable``
    marks a packet whose decode may instead raise NoSolution (see
    ``may_refuse``).  ``argv`` and ``stdout`` are set for CLI launches only.
    """

    k: int
    m: int = 0
    line: str = ""
    prefix: str = ""
    refusable: bool = False
    argv: tuple[str, ...] = ()
    stdout: str = ""


@dataclass(frozen=True)
class Inputs:
    workload: str
    seed: int
    keys: tuple[tuple[int, int, int | None], ...]
    items: tuple[Item, ...]


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact below 3.4e14."""
    if n < 2:
        return False
    for f in (2, 3, 5, 7, 11, 13, 17):
        if n % f == 0:
            return n == f
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def div_class(t: int, p: int, q: int | None) -> str:
    phi = p - 1 if q is None else (p - 1) * (q - 1)
    if phi % t:
        return NOT_DIVISIBLE
    return T_EXACTLY if phi % (t * t) else T_SQUARED


def may_refuse(t: int, p: int, q: int | None) -> bool:
    """Whether decode may answer NoSolution for a key: the regimes it refuses today.

    They are: t does not divide phi but shares a factor with it; t divides
    phi exactly but not phi/t coprimely, so the paper's inverse exponent
    does not exist; t**2 divides p-1 for a prime modulus, or f-1 for a
    factor f of a semiprime.  encode accepts all of them.  Outside these
    regimes every decode must return the message.
    """
    phi = p - 1 if q is None else (p - 1) * (q - 1)
    if phi % t:
        return math.gcd(t, phi) > 1
    if phi % (t * t):
        return math.gcd(phi // t, t) > 1
    return q is None or any((f - 1) % (t * t) == 0 for f in (p, q))


def modulus(key) -> int:
    t, p, q = key
    return p if q is None else p * q


def unity_roots(t: int, n: int) -> list[int]:
    """Every x in [1, n) with x**t == 1 (mod n), by full scan."""
    return [x for x in range(1, n) if pow(x, t, n) == 1]


def wire(t: int, n: int, c: int, rank: int) -> str:
    return '{"t":%d,"n":%d,"c":%d,"rank":%d}\n' % (t, n, c, rank)


def oracle_rank(n: int, roots: list[int], m: int) -> int:
    """The 1-indexed rank of m among its candidates {m*r mod n}."""
    return sorted({m * r % n for r in roots}).index(m) + 1


def oracle_line(t: int, n: int, roots: list[int], m: int) -> str:
    """The packet line for m: cipher by built-in pow, rank from the root scan."""
    return wire(t, n, pow(m, t, n), oracle_rank(n, roots, m))


def oracle_decode(t: int, n: int, c: int, rank: int) -> int:
    """The message at `rank` among all x with x**t == c (mod n), by full scan."""
    return [x for x in range(1, n) if pow(x, t, n) == c][rank - 1]


def _unit(rng: random.Random, n: int) -> int:
    while True:
        m = rng.randrange(1, n)
        if math.gcd(m, n) == 1:
            return m


def _desk_items(rng: random.Random, encode_side: bool) -> list[Item]:
    # Every key gets the same number of packets, so the mix of fast and
    # slow keys does not depend on the seed.
    roots = [unity_roots(key[0], modulus(key)) for key in DESK_KEYS]
    items = []
    for k in list(range(len(DESK_KEYS))) * (DESK_STREAM // len(DESK_KEYS)):
        t, n = DESK_KEYS[k][0], modulus(DESK_KEYS[k])
        m = _unit(rng, n)
        items.append(Item(k, m, oracle_line(t, n, roots[k], m)))
    rng.shuffle(items)
    # The paper's packets open every desk stream.
    (ekey, em, eline), (dkey, dline, dm) = GOLDEN_ENCODE, GOLDEN_DECODE
    golden = Item(DESK_KEYS.index(ekey), em, eline) if encode_side else Item(DESK_KEYS.index(dkey), dm, dline)
    return [golden] + items


def _feasible(t: int, kind: str, cls: str) -> bool:
    # phi(p) is even and phi(p*q) is a multiple of 4.
    if cls == NOT_DIVISIBLE:
        return t != 2 if kind == "prime" else t not in (2, 4)
    if cls == T_EXACTLY and kind == "semiprime":
        return t != 2
    return True


def _draw_prime(rng: random.Random, lo: float, hi: float, step: int) -> int | None:
    """A prime 1 + step*k with log-uniform size in [lo, hi), or None."""
    for _ in range(200):
        x = 1 + step * int(math.exp(rng.uniform(math.log(lo), math.log(hi))) // step)
        if lo <= x < hi and x >= 3 and is_prime(x):
            return x
    return None


def _draw_key(rng, t, kind, cls, slot, band, seen):
    """A new key of the stratum: from its slot of the band when one is there,
    else from the band, else from the band stretched tenfold upwards (a
    small band can hold too few primes of a class)."""
    p_step = {NOT_DIVISIBLE: 2, T_EXACTLY: t, T_SQUARED: t * t if kind == "prime" else t}[cls]
    q_step = t if cls == T_SQUARED else 2
    for attempt in range(2000):
        lo, hi = slot if attempt < 50 else band if attempt < 500 else (band[0], 10 * band[1])
        p = _draw_prime(rng, lo, hi, p_step)
        q = None if kind == "prime" else _draw_prime(rng, lo, hi, q_step)
        if p is None or p == q or (kind == "semiprime" and q is None):
            continue
        key = (t, p, q) if q is None else (t, min(p, q), max(p, q))
        if key not in seen and div_class(*key) == cls and modulus(key) < 2**32:
            seen.add(key)
            return key
    raise RuntimeError(f"no {kind} key of class {cls} for t={t} in {band}")


def wide_keys(rng: random.Random) -> list[tuple[int, int, int | None]]:
    """Distinct keys, ``BAND_COPIES[b]`` per feasible (t, kind, class) in band b.

    Within a band, each stratum draws from its own slice of the log-size
    range, so the total scan work hardly depends on the seed.
    """
    strata = [(t, kind, cls) for t in range(2, 13) for kind in ("prime", "semiprime")
              for cls in CLASSES if _feasible(t, kind, cls)]
    keys, seen = [], set()
    for band, copies in enumerate(BAND_COPIES):
        for kind, bands in [("prime", PRIME_BANDS), ("semiprime", SEMI_BANDS)] * copies:
            group = [s for s in strata if s[1] == kind]
            lo, hi = bands[band]
            edges = [lo * (hi / lo) ** (i / len(group)) for i in range(len(group) + 1)]
            slots = rng.sample(range(len(group)), len(group))
            for (t, _, cls), slot in zip(group, slots):
                slice_ = (edges[slot], edges[slot + 1])
                keys.append(_draw_key(rng, t, kind, cls, slice_, (lo, hi), seen))
    rng.shuffle(keys)
    return keys


def _wide_items(rng: random.Random, keys) -> list[Item]:
    # Packets visit the keys round-robin, so consecutive operations never
    # share a key and a per-key cache smaller than len(keys) never hits.
    items = []
    for _ in range(WIDE_MESSAGES):
        for k, (t, p, q) in enumerate(keys):
            n = modulus((t, p, q))
            m = _unit(rng, n)
            items.append(Item(k, m, prefix='{"t":%d,"n":%d,"c":%d,"rank":' % (t, n, pow(m, t, n)),
                              refusable=may_refuse(t, p, q)))
    return items


def _cli_items(rng: random.Random) -> list[Item]:
    """A seeded mix of subcommands over the paper's keys.

    ``stdout`` is filled in later from an in-process run of the CLI; for
    encode and decode the oracle line or message is kept in ``line``/``m``
    so that in-process result is itself checked.
    """
    roots = {key: unity_roots(key[0], modulus(key)) for key in PAPER_KEYS}
    items = []
    for cmd in [c for _ in range(CLI_STREAM // CLI_BURST) for c in rng.sample(CLI_COMMANDS, CLI_BURST)]:
        pool = [k for k in PAPER_KEYS if k[2] is None] if cmd == "table" else PAPER_KEYS
        key = rng.choice(pool)
        t, p, q = key
        n = modulus(key)
        factored = ["--p", str(p)] + ([] if q is None else ["--q", str(q)])
        m, line = 0, ""
        if cmd in ("encode", "session", "decode"):
            m = _unit(rng, n)
            line = oracle_line(t, n, roots[key], m)
        if cmd == "decode":
            rank = oracle_rank(n, roots[key], m)
            argv = ["decode", "--t", str(t), "--n", str(n), "--c", str(pow(m, t, n)), "--rank", str(rank)]
        elif cmd in ("encode", "session"):
            argv = [cmd, "--t", str(t), *factored, "--m", str(m)]
        elif cmd == "table":
            argv = ["table", "--t", str(t), "--p", str(p)]
        else:
            argv = [cmd, "--t", str(t), "--n", str(n)]
        if rng.random() < 0.25 and cmd != "encode":
            argv += ["--format", "json"]
        items.append(Item(PAPER_KEYS.index(key), m, line, argv=tuple(argv)))
    return items


def make_inputs(workload: str, seed: int) -> Inputs:
    """The workload's keys and operation stream for this seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "desk-decode":
        return Inputs(workload, seed, DESK_KEYS, tuple(_desk_items(rng, encode_side=False)))
    if workload == "desk-encode":
        return Inputs(workload, seed, DESK_KEYS, tuple(_desk_items(rng, encode_side=True)))
    if workload == "wide-keys":
        keys = wide_keys(rng)
        return Inputs(workload, seed, tuple(keys), tuple(_wide_items(rng, keys)))
    if workload == "cli-oneshot":
        return Inputs(workload, seed, PAPER_KEYS, tuple(_cli_items(rng)))
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def fingerprint(inputs: Inputs) -> bytes:
    """A canonical byte encoding of the inputs, for determinism checks."""
    return repr((inputs.workload, inputs.seed, inputs.keys, inputs.items)).encode()
