import math

import pytest

from powmap import (
    InvalidArgument,
    InvalidPrime,
    NotSupported,
    RootSet,
    eligible_generators,
    lift_roots,
    quintic_roots_prime,
    root_set,
    roots_bruteforce,
    sextic_roots_prime,
)
from powmap import modnum
from powmap.modnum import element_order, nth_root_mod_prime

from reference import primes_below
from worked_examples import (
    QUINTIC_ROOTS_11,
    QUINTIC_ROOTS_31,
    QUINTIC_ROOTS_61,
    QUINTIC_ROOTS_187,
    QUINTIC_ROOTS_341,
    SEXTIC_ROOTS_13,
    SEXTIC_ROOTS_31,
    SEXTIC_ROOTS_43,
)


class TestBruteforce:
    def test_worked_values(self):
        assert list(roots_bruteforce(5, 61).roots) == QUINTIC_ROOTS_61
        assert list(roots_bruteforce(6, 43).roots) == SEXTIC_ROOTS_43

    def test_degree_one(self):
        assert roots_bruteforce(1, 187).roots == (1,)

    def test_counts_for_congruent_primes(self):
        # p ≡ 1 (mod t) gives exactly t roots.
        for t, p in ((5, 11), (5, 31), (5, 61), (6, 13), (6, 31), (6, 43)):
            assert len(roots_bruteforce(t, p).roots) == t

    def test_every_root_satisfies_equation(self):
        rs = roots_bruteforce(6, 403)
        assert len(rs.roots) == 36
        for r in rs.roots:
            assert pow(r, 6, 403) == 1

    def test_orders_divide_t(self):
        rs = roots_bruteforce(6, 403)
        for r, d in rs.orders.items():
            assert 6 % d == 0
            assert pow(r, d, 403) == 1

    def test_bounds(self):
        with pytest.raises(ValueError):
            roots_bruteforce(13, 61)
        with pytest.raises(ValueError):
            roots_bruteforce(5, 1)


class TestRadicalConstructions:
    def test_quintic_worked_primes(self):
        assert list(quintic_roots_prime(61).roots) == QUINTIC_ROOTS_61
        assert list(quintic_roots_prime(11).roots) == QUINTIC_ROOTS_11
        assert list(quintic_roots_prime(31).roots) == QUINTIC_ROOTS_31

    def test_sextic_worked_primes(self):
        assert list(sextic_roots_prime(43).roots) == SEXTIC_ROOTS_43
        assert list(sextic_roots_prime(31).roots) == SEXTIC_ROOTS_31
        assert list(sextic_roots_prime(13).roots) == SEXTIC_ROOTS_13

    def test_quintic_matches_bruteforce_oracle(self):
        for p in primes_below(1000):
            if p % 5 == 1:
                assert quintic_roots_prime(p).roots == roots_bruteforce(5, p).roots

    def test_sextic_matches_bruteforce_oracle(self):
        for p in primes_below(1000):
            if p % 6 == 1:
                assert sextic_roots_prime(p).roots == roots_bruteforce(6, p).roots

    def test_match_closed_form_at_top_of_contract(self):
        # The largest primes below 2**32 that are ≡ 1 (mod 5) and ≡ 1 (mod 6).
        assert quintic_roots_prime(4294967291) == root_set(5, 4294967291)
        assert sextic_roots_prime(4294967197) == root_set(6, 4294967197)

    def test_reject_wrong_congruence(self):
        with pytest.raises(ValueError):
            quintic_roots_prime(7)
        with pytest.raises(ValueError):
            sextic_roots_prime(11)

    def test_reject_composite_modulus(self):
        # The kernel's check refuses an odd composite; an even p fails sqrtmod's own guard.
        for call in (lambda: quintic_roots_prime(21), lambda: sextic_roots_prime(25),
                     lambda: sextic_roots_prime(91)):
            with pytest.raises(InvalidPrime):
                call()
        with pytest.raises(NotSupported):
            quintic_roots_prime(2**32 + 5)
        with pytest.raises(ValueError):
            quintic_roots_prime(16)


class TestLifting:
    def test_worked_values(self):
        lifted = lift_roots(roots_bruteforce(5, 11), roots_bruteforce(5, 17))
        assert list(lifted.roots) == QUINTIC_ROOTS_187

    def test_trivial_product(self):
        lifted = lift_roots(roots_bruteforce(5, 7), roots_bruteforce(5, 3))
        assert lifted.roots == (1,)

    def test_25_roots(self):
        lifted = lift_roots(roots_bruteforce(5, 31), roots_bruteforce(5, 11))
        assert list(lifted.roots) == QUINTIC_ROOTS_341

    @pytest.mark.parametrize("t,p,q", [(5, 11, 17), (5, 31, 11), (6, 31, 13), (6, 13, 7)])
    def test_lift_equals_bruteforce_oracle(self, t, p, q):
        lifted = lift_roots(roots_bruteforce(t, p), roots_bruteforce(t, q))
        assert lifted.roots == roots_bruteforce(t, p * q).roots

    def test_unreduced_and_negative_residues(self):
        # A hand-built root set may hold roots outside [0, modulus); the lift reduces them.
        def shifted(rs, k):
            orders = {r + k * rs.modulus: d for r, d in rs.orders.items()}
            return RootSet(rs.modulus, rs.t, tuple(orders), orders)

        for t, p, q in ((5, 11, 31), (6, 31, 13), (4, 13, 17)):
            expected = roots_bruteforce(t, p * q)
            for k, j in ((1, 0), (0, 1), (2, -1), (-1, 3), (-2, -2)):
                lifted = lift_roots(shifted(root_set(t, p), k), shifted(root_set(t, q), j))
                assert lifted == expected, (t, p, q, k, j)

    def test_mismatched_degrees_rejected(self):
        with pytest.raises(ValueError):
            lift_roots(roots_bruteforce(5, 11), roots_bruteforce(6, 13))

    def test_orders_keyed_like_roots(self):
        # RootSet equality ignores the key order of orders; `powmap roots --format json` prints it.
        for t, p, q in ((5, 11, 17), (5, 31, 11), (5, 7, 3), (6, 13, 7), (12, 37, 73)):
            lifted = lift_roots(root_set(t, p), root_set(t, q))
            assert list(lifted.orders) == list(lifted.roots), (t, p, q)

    def test_closed_under_multiplication(self):
        for rs in (root_set(5, 31, 11), root_set(6, 31, 13)):
            members = set(rs.roots)
            for a in rs.roots:
                for b in rs.roots:
                    assert a * b % rs.modulus in members


class TestEligibleGenerators:
    def test_worked_values(self):
        assert eligible_generators(roots_bruteforce(6, 43)) == [7, 37]
        assert eligible_generators(roots_bruteforce(5, 61)) == [9, 20, 34, 58]

    def test_derived_degree_two(self):
        # Oracle: the roots of x**2 ≡ 1 mod 13 by scan are {1, 12};
        # only 12 has order exactly 2.
        scanned = [x for x in range(1, 13) if x * x % 13 == 1]
        assert scanned == [1, 12]
        assert eligible_generators(roots_bruteforce(2, 13)) == [12]

    def test_powers_all_distinct(self):
        for rs in (root_set(5, 31, 11), root_set(6, 31, 13), roots_bruteforce(6, 43)):
            for alpha in eligible_generators(rs):
                powers = {pow(alpha, i, rs.modulus) for i in range(rs.t)}
                assert len(powers) == rs.t


class TestClosedForm:
    def test_matches_bruteforce_for_every_small_prime(self):
        for p in primes_below(2000)[1:]:
            for t in range(1, 13):
                assert root_set(t, p) == roots_bruteforce(t, p), (t, p)

    @pytest.mark.parametrize("t", range(2, 13))
    def test_semiprimes_match_lifted_bruteforce(self, t):
        for p, q in ((3, 5), (7, 13), (11, 31), (37, 73), (61, 109)):
            lifted = lift_roots(roots_bruteforce(t, p), roots_bruteforce(t, q))
            assert root_set(t, p, q) == lifted, (t, p, q)

    def test_agrees_with_sympy(self):
        residue = pytest.importorskip("sympy.ntheory.residue_ntheory")
        keys = [(p, None) for p in primes_below(300)[1:]] + [(11, 31), (37, 73), (61, 109)]
        for p, q in keys:
            n = p if q is None else p * q
            for t in range(1, 13):
                rs = root_set(t, p, q)
                assert list(rs.roots) == sorted(residue.nthroot_mod(1, t, n, all_roots=True))
                for r in rs.roots:
                    assert rs.orders[r] == residue.n_order(r, n) == element_order(r, n, t)

    @pytest.mark.parametrize("t", range(1, 13))
    def test_orders_keyed_like_roots(self, t):
        # RootSet equality ignores the key order of orders; `powmap roots --format json` prints it.
        # (5, 7, 3) and (5, 11, 7) have a side with the root 1 only; (12, 37, 73) has 144 roots.
        keys = [(p, None) for p in (3, 7, 13, 37, 61, 73, 4294967291)]
        keys += [(5, 7), (7, 3), (11, 7), (11, 31), (13, 7), (37, 73), (73, 37)]
        for p, q in keys:
            rs = root_set(t, p, q)
            assert list(rs.orders) == list(rs.roots), (t, p, q)
        assert len(root_set(12, 37, 73).roots) == 144

    def test_large_prime(self):
        p = 4294967291  # the largest prime below 2**32; p-1 = 2 * 5 * 19 * 22605091
        rs = root_set(5, p)
        assert len(rs.roots) == 5 == math.gcd(5, p - 1)
        assert all(pow(r, 5, p) == 1 for r in rs.roots)

    def test_builds_no_crt_basis(self, monkeypatch):
        def refuse(cls, p, q):
            raise AssertionError(f"root_set built a CRT basis for ({p}, {q})")

        monkeypatch.setattr(modnum.CrtBasis, "for_primes", classmethod(refuse))
        assert list(root_set(5, 31, 11).roots) == QUINTIC_ROOTS_341
        assert list(root_set(5, 11, 31).roots) == QUINTIC_ROOTS_341
        assert root_set(6, 31, 13) == roots_bruteforce(6, 403)

    def test_prime_checked_before_any_generator_search(self, monkeypatch):
        # One primality check per per-prime build, in modnum._unity, before it factors d.
        def refuse(n):
            raise AssertionError(f"factored {n} before checking the prime")

        monkeypatch.setattr(modnum, "_prime_factors", refuse)
        for call in (lambda: root_set(4, 21), lambda: root_set(4, 21, 13),
                     lambda: modnum._root_plan(4, 21), lambda: modnum._key_plan(4, 21, 13)):
            with pytest.raises(InvalidPrime, match="21 is not prime"):
                call()
        for call in (lambda: root_set(5, 2**32 + 15), lambda: root_set(5, 2**32 + 15, 11),
                     lambda: modnum._root_plan(5, 2**32 + 15), lambda: modnum._key_plan(5, 2**32 + 15, 11)):
            with pytest.raises(NotSupported):
                call()

    def test_composite_modulus_is_refused(self):
        # 341 = 11*31 has 25 fifth roots of unity; powers of one element would give only 5.
        # A composite factor of a semiprime is refused before its own per-prime set is built.
        for args in ((6, 15), (4, 21), (2, 9), (3, 91), (2, 341), (5, 341), (5, 21, 11), (5, 11, 21),
                     (5, 11, 11), (5, 15, 31), (5, 31, 15)):
            with pytest.raises(InvalidPrime):
                root_set(*args)

    def test_bounds(self):
        with pytest.raises(ValueError):
            root_set(13, 61)
        # modnum._unity checks t for every per-prime build, before p is found composite.
        for call, t in ((lambda: root_set(13, 21), 13), (lambda: root_set(0, 61), 0),
                        (lambda: nth_root_mod_prime(2, 13, 21), 13),
                        (lambda: modnum._root_plan(13, 61), 13)):
            with pytest.raises(InvalidArgument) as exc:
                call()
            assert str(exc.value) == f"t must be in 1..12, got {t}"
        with pytest.raises(InvalidPrime, match="^p and q must differ$"):  # checked before t
            root_set(13, 61, 61)
