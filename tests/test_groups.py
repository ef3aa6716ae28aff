import functools
import math

import pytest

from powmap import (
    cyclic_groups,
    eligible_generators,
    group_matrix,
    multiplicity_report,
    root_set,
    roots_bruteforce,
)
from powmap.modnum import element_order

from reference import primes_below
from worked_examples import GROUP_SETS_341, GROUP_SETS_403, REPEATED_FOUR_TIMES_403, REPEATED_THRICE_403


class TestCyclicGroups:
    def test_six_groups_mod_341(self):
        gp = cyclic_groups(root_set(5, 31, 11))
        assert len(gp.groups) == 6
        assert [set(g) for g in gp.groups] == GROUP_SETS_341
        # power order is preserved and generators ascend
        assert gp.groups[0] == (1, 4, 16, 64, 256)
        assert gp.groups[3] == (1, 78, 287, 221, 188)
        assert [g[1] for g in gp.groups] == [4, 47, 70, 78, 97, 125]

    def test_twelve_groups_mod_403(self):
        gp = cyclic_groups(root_set(6, 31, 13))
        assert len(gp.groups) == 12
        assert [set(g) for g in gp.groups] == GROUP_SETS_403
        assert gp.groups[0] == (1, 25, 222, 311, 118, 129)

    def test_single_group_for_prime_modulus(self):
        gp = cyclic_groups(roots_bruteforce(5, 61))
        assert gp.groups == ((1, 9, 20, 58, 34),)

    def test_group_count_formula_for_prime_t(self):
        # (t**2 - 1)/(t - 1) = t + 1 groups when all t**2 roots are present.
        gp = cyclic_groups(root_set(5, 31, 11))
        assert len(gp.groups) == 5 + 1

    def test_generators_have_full_order_and_unique_cycle(self):
        for rs in (root_set(5, 31, 11), root_set(6, 31, 13)):
            gp = cyclic_groups(rs)
            for g in gp.groups:
                assert rs.orders[g[1]] == rs.t
            # every order-t root appears in exactly one group
            for r in rs.roots:
                if rs.orders[r] == rs.t:
                    assert gp.multiplicity[r] == 1

    def test_union_covers_root_set(self):
        for rs in (root_set(5, 31, 11), root_set(6, 31, 13), roots_bruteforce(6, 43)):
            gp = cyclic_groups(rs)
            assert {v for g in gp.groups for v in g} == set(rs.roots)


_PRIMES = primes_below(400)[1:]
# Every prime below 400 as a prime key, and with each of the next five primes as
# a semiprime key, up to n = 20,000.
_KEYS = [(p, None) for p in _PRIMES] + [
    (p, q) for i, p in enumerate(_PRIMES) for q in _PRIMES[i + 1:i + 6] if p * q < 20000]


@functools.cache
def _units_of_small_order(n):
    """Every x in [1, n) with x**lcm(1..12) ≡ 1, by full scan: a superset of
    the t-th roots of unity mod n for every t <= 12."""
    return [x for x in range(1, n) if pow(x, 27720, n) == 1]


@pytest.mark.parametrize("t", range(2, 13))
def test_cycles_match_bruteforce_dedup(t):
    for p, q in _KEYS:
        n = p if q is None else p * q
        roots = [x for x in _units_of_small_order(n) if pow(x, t, n) == 1]
        gens = [x for x in roots if all(pow(x, k, n) != 1 for k in range(1, t))]
        cycles = {frozenset(pow(a, j, n) for j in range(t)) for a in gens}
        gp = cyclic_groups(root_set(t, p, q))
        assert {frozenset(g) for g in gp.groups} == cycles and len(gp.groups) == len(cycles)
        # each cycle in power order from its least generator, cycles by that generator
        leads = [min(set(gens) & set(g)) for g in gp.groups]
        assert leads == sorted(leads)
        assert all(g == tuple(pow(a, j, n) for j in range(t)) for g, a in zip(gp.groups, leads))
        assert gp.multiplicity == {r: sum(r in c for c in cycles) for r in roots}


class TestMultiplicityReport:
    def test_worked_report_mod_403(self):
        report = multiplicity_report(cyclic_groups(root_set(6, 31, 13)))
        assert set(report[3]) == REPEATED_THRICE_403
        assert set(report[4]) == REPEATED_FOUR_TIMES_403
        assert len(report[1]) == 24  # the order-6 roots themselves

    def test_all_multiplicity_one_mod_341(self):
        report = multiplicity_report(cyclic_groups(root_set(5, 31, 11)))
        assert list(report) == [1]
        assert len(report[1]) == 24

    def test_single_group_input(self):
        report = multiplicity_report(cyclic_groups(roots_bruteforce(5, 61)))
        assert report == {1: [9, 20, 34, 58]}


class TestGroupMatrix:
    def test_worked_mod_403(self):
        rs = root_set(6, 31, 13)
        matrix, ineligible = group_matrix(cyclic_groups(rs))
        assert len(matrix) == 12 and all(len(row) == 6 for row in matrix)
        # Oracle: the ineligible values are exactly the roots of order 1, 2 or 3.
        low_order = sorted(r for r in rs.roots if element_order(r, 403, 6) in (1, 2, 3))
        assert ineligible == low_order

    def test_worked_mod_341(self):
        _, ineligible = group_matrix(cyclic_groups(root_set(5, 31, 11)))
        assert ineligible == [1]

    def test_worked_mod_43(self):
        rs = roots_bruteforce(6, 43)
        matrix, ineligible = group_matrix(cyclic_groups(rs))
        assert matrix == ((1, 7, 6, 42, 36, 37),)
        assert ineligible == [1, 6, 36, 42]
        eligible = sorted(set(rs.roots) - set(ineligible))
        assert eligible == [7, 37]

    def test_column_rule_matches_order_rule(self):
        for rs in (
            roots_bruteforce(5, 61),
            roots_bruteforce(6, 43),
            root_set(5, 31, 11),
            root_set(6, 31, 13),
            root_set(5, 11, 17),
            roots_bruteforce(2, 13),
        ):
            matrix, ineligible = group_matrix(cyclic_groups(rs))
            covered = {v for row in matrix for v in row}
            assert sorted(covered - set(ineligible)) == eligible_generators(rs)

    def test_matrix_entries_are_generator_powers(self):
        gp = cyclic_groups(root_set(6, 31, 13))
        matrix, _ = group_matrix(gp)
        for row in matrix:
            gen = row[1]
            assert row == tuple(pow(gen, j, 403) for j in range(6))

    def test_low_order_elements_never_generate(self):
        # An x with x**2 ≡ 1 would cycle (1, x, 1, x, ...); such values must
        # appear only inside rows, never as the row generator.
        gp = cyclic_groups(root_set(6, 31, 13))
        gens = {row[1] for row in gp.groups}
        for x in (92, 311, 402):
            assert pow(x, 2, 403) == 1 or pow(x, 3, 403) == 1
            assert x not in gens

    def test_ineligible_columns_by_gcd(self):
        # Degree 6: columns 0, 2, 3, 4 share a factor with 6; degree 5: only 0.
        assert [j for j in range(6) if math.gcd(j, 6) > 1] == [0, 2, 3, 4]
        assert [j for j in range(5) if math.gcd(j, 5) > 1] == [0]
