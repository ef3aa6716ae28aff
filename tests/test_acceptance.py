"""Acceptance suite: one test per criterion, at the stated tolerances.

Everything here is exact integer arithmetic; "tolerance" means equality of
values, sets, or bytes.  A PASS/FAIL line per criterion is printed in the
terminal summary (see conftest).
"""

import math
import random
import time
from pathlib import Path

from powmap import (
    cyclic_groups,
    decode,
    encode,
    eligible_generators,
    extract_root,
    group_matrix,
    make_params,
    mapping_table,
    multiplicity_report,
    quintic_roots_prime,
    root_set,
    roots_bruteforce,
    run_session,
    sextic_roots_prime,
)
from powmap.cli import main

from reference import primes_below
from worked_examples import (
    CANDIDATES_51_MOD_341,
    CANDIDATES_59_MOD_403,
    GROUP_SETS_341,
    GROUP_SETS_403,
    QUINTIC_ROOTS_187,
    QUINTIC_ROOTS_341,
    QUINTIC_ROOTS_61,
    REPEATED_FOUR_TIMES_403,
    REPEATED_THRICE_403,
    SEXTIC_ROOTS_403,
    SEXTIC_ROOTS_43,
    TABLE_43_7,
    TABLE_61_9,
)

GOLDEN = Path(__file__).parent / "data" / "table_t5_p61_alpha9.txt"


def _steps(pairs):
    return {label: value for label, value in pairs}


def test_c01_quintic_roots_mod_61_both_routes():
    assert list(roots_bruteforce(5, 61).roots) == QUINTIC_ROOTS_61
    assert list(quintic_roots_prime(61).roots) == QUINTIC_ROOTS_61


def test_c02_mapping_table_golden_bytes(capsys):
    assert main(["table", "--t", "5", "--p", "61", "--alpha", "9"]) == 0
    out = capsys.readouterr().out
    assert out == GOLDEN.read_text()
    # and the golden file itself carries the published rows
    rows = [tuple(int(v) for v in line.split()) for line in out.splitlines()]
    assert rows == TABLE_61_9


def test_c03_quintic_prime_session():
    tr = run_session(make_params(5, 61), 28)
    alice, bob = _steps(tr.alice_steps), _steps(tr.bob_steps)
    assert alice["cipher"] == 11 and alice["rank"] == 3
    assert bob["a"] == 2 and bob["res"] == 5
    assert tr.decoded == 28 and tr.matched


def test_c04_quintic_semiprime_session():
    assert list(root_set(5, 11, 17).roots) == QUINTIC_ROOTS_187
    tr = run_session(make_params(5, 11, 17), 3)
    alice, bob = _steps(tr.alice_steps), _steps(tr.bob_steps)
    assert alice["cipher"] == 56 and alice["rank"] == 1
    assert bob["res"] == 13
    assert tr.decoded == 3 and tr.matched


def test_c05_25_root_session():
    assert list(root_set(5, 31, 11).roots) == QUINTIC_ROOTS_341
    params = make_params(5, 31, 11)
    tr = run_session(params, 51)
    alice = _steps(tr.alice_steps)
    assert alice["cipher"] == 87
    assert alice["candidates"] == CANDIDATES_51_MOD_341
    assert alice["rank"] == 5
    assert tr.decoded == 51 and tr.matched
    r = extract_root(87, params)
    assert pow(r, 5, 341) == 87


def test_c06_sextic_prime_tables_and_session():
    rs = roots_bruteforce(6, 43)
    assert list(rs.roots) == SEXTIC_ROOTS_43
    assert list(sextic_roots_prime(43).roots) == SEXTIC_ROOTS_43
    assert eligible_generators(rs) == [7, 37]
    rows = mapping_table(make_params(6, 43), 7)
    assert [(*row, c) for row, c in rows] == TABLE_43_7
    tr = run_session(make_params(6, 43), 2)
    alice, bob = _steps(tr.alice_steps), _steps(tr.bob_steps)
    assert alice["cipher"] == 21 and alice["rank"] == 1
    assert bob["a"] == 5 and bob["res"] == 6
    assert tr.decoded == 2 and tr.matched


def test_c07_36_root_session():
    assert list(root_set(6, 31, 13).roots) == SEXTIC_ROOTS_403
    params = make_params(6, 31, 13)
    tr = run_session(params, 59)
    alice, bob = _steps(tr.alice_steps), _steps(tr.bob_steps)
    assert alice["cipher"] == 233 and alice["rank"] == 8
    assert pow(bob["root"], 6, 403) == 233
    assert alice["candidates"] == CANDIDATES_59_MOD_403
    assert bob["candidates"] == CANDIDATES_59_MOD_403
    assert tr.decoded == 59 and tr.matched


def test_c08_group_structure():
    gp5 = cyclic_groups(root_set(5, 31, 11))
    assert len(gp5.groups) == 6
    assert [set(g) for g in gp5.groups] == GROUP_SETS_341
    gp6 = cyclic_groups(root_set(6, 31, 13))
    assert len(gp6.groups) == 12
    report = multiplicity_report(gp6)
    assert set(report[3]) == REPEATED_THRICE_403
    assert set(report[4]) == REPEATED_FOUR_TIMES_403


def test_c09_radicals_match_bruteforce_below_10000():
    start = time.perf_counter()
    mismatches = 0
    for p in primes_below(10_000):
        if p % 5 == 1 and quintic_roots_prime(p).roots != roots_bruteforce(5, p).roots:
            mismatches += 1
        if p % 6 == 1 and sextic_roots_prime(p).roots != roots_bruteforce(6, p).roots:
            mismatches += 1
    elapsed = time.perf_counter() - start
    assert mismatches == 0
    assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f}s"


def _random_cases(count, seed=20260808):
    """Solvable (t, p, q, m) configurations across all divisibility classes."""
    rng = random.Random(seed)
    primes = primes_below(500)
    p5 = [p for p in primes if p % 5 == 1 and (p - 1) % 25 != 0]
    q5 = [p for p in primes if p > 2 and p % 5 != 1]
    p6 = [p for p in primes if p % 6 == 1 and (p - 1) % 36 != 0]
    p6_formula = [p for p in p6 if math.gcd((p - 1) // 6, 6) == 1]
    p5_bijection = [p for p in primes if p > 5 and p % 5 != 1]
    for _ in range(count):
        kind = rng.randrange(6)
        if kind == 0:
            t, p, q = 5, rng.choice(p5), None
        elif kind == 1:
            t, p, q = 5, rng.choice(p5), rng.choice(q5)
            if p == q:
                q = 3 if p != 3 else 7
        elif kind == 2:
            t, (p, q) = 5, rng.sample(p5, 2)
        elif kind == 3:
            t, p, q = 6, rng.choice(p6_formula), None
        elif kind == 4:
            t, (p, q) = 6, rng.sample(p6, 2)
        else:
            t, p, q = 5, rng.choice(p5_bijection), None
        n = p if q is None else p * q
        m = rng.randrange(1, n)
        while math.gcd(m, n) != 1:
            m = rng.randrange(1, n)
        yield t, p, q, m


def test_c10_randomized_round_trips():
    failures = 0
    for t, p, q, m in _random_cases(500):
        params = make_params(t, p, q)
        rs = root_set(t, p, q)
        pkt = encode(m, params, rs)
        r = extract_root(pkt.c, params)
        if decode(pkt, params, rs) != m or pow(r, t, params.n) != pkt.c:
            failures += 1
    assert failures == 0


def test_c11_eligibility_equivalence():
    fixed = [
        roots_bruteforce(5, 61),
        roots_bruteforce(6, 43),
        roots_bruteforce(2, 13),
        roots_bruteforce(3, 13),
        root_set(5, 11, 17),
        root_set(5, 31, 11),
        root_set(6, 31, 13),
    ]
    sampled = [root_set(t, p, q) for t, p, q, _ in _random_cases(40, seed=7)]
    mismatches = 0
    for rs in fixed + sampled:
        matrix, ineligible = group_matrix(cyclic_groups(rs))
        covered = {v for row in matrix for v in row}
        if sorted(covered - set(ineligible)) != eligible_generators(rs):
            mismatches += 1
    assert mismatches == 0
