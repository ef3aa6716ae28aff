import math

import pytest

from powmap import (
    InvalidPrime,
    NotCoprime,
    NotDivisor,
    NotInvertible,
    NotSupported,
    PowmapError,
)
from powmap.modnum import (
    CrtBasis,
    crt_pair,
    element_order,
    factor_semiprime,
    invmod,
    is_prime,
    nth_root_mod_prime,
    sqrtmod,
)


class TestXgcdInvmod:
    def test_worked_inverses(self):
        assert invmod(17, 11) == 2
        assert invmod(1, 187) == 1

    def test_derived_by_scan(self):
        # Oracle: exhaustive scan for the inverse of 13 mod 31.
        scanned = next(b for b in range(1, 31) if 13 * b % 31 == 1)
        assert scanned == 12
        assert invmod(13, 31) == 12

    def test_inverse_property_exhaustive(self):
        for n in (11, 17, 61, 187):
            for a in range(1, n):
                if math.gcd(a, n) == 1:
                    assert a * invmod(a, n) % n == 1

    def test_not_invertible(self):
        with pytest.raises(NotInvertible):
            invmod(11, 187)
        with pytest.raises(NotInvertible):
            invmod(0, 7)

    def test_modulus_below_two_is_refused(self):
        with pytest.raises(ValueError):
            invmod(3, 1)


class TestCrt:
    def test_worked_values(self):
        b = CrtBasis.for_primes(11, 17)
        assert b.q_inv_mod_p == 2 and b.p_inv_mod_q == 14
        assert crt_pair(4, 1, b) == 103
        assert crt_pair(1, 1, b) == 1
        b2 = CrtBasis.for_primes(31, 11)
        assert crt_pair(2, 1, b2) == 188

    def test_roundtrip_exhaustive(self):
        b = CrtBasis.for_primes(11, 17)
        for x in range(187):
            assert crt_pair(x % 11, x % 17, b) == x

    def test_basis_validation(self):
        from powmap import InvalidPrime

        with pytest.raises(InvalidPrime):
            CrtBasis.for_primes(11, 11)
        with pytest.raises(InvalidPrime):
            CrtBasis.for_primes(11, 15)
        with pytest.raises(ValueError):
            CrtBasis(11, 17, 3, 14, 187)  # 17*3 mod 11 != 1

    def test_basis_cached_but_errors_not(self):
        from powmap import InvalidPrime

        assert CrtBasis.for_primes(31, 13) is CrtBasis.for_primes(31, 13)
        for _ in range(2):
            with pytest.raises(InvalidPrime):
                CrtBasis.for_primes(11, 15)


class TestSqrtmod:
    def test_worked_values(self):
        assert sqrtmod(6, 43) == (7, 36)
        assert sqrtmod(0, 43) == (0,)

    def test_derived_by_scan(self):
        # Oracle: every r in [0, 61) with r*r ≡ 5.
        scanned = tuple(r for r in range(61) if r * r % 61 == 5)
        assert scanned == (26, 35)
        assert sqrtmod(5, 61) == (26, 35)

    def test_non_residue_is_empty(self):
        assert sqrtmod(3, 7) == ()

    @pytest.mark.parametrize("p", [3, 5, 7, 13, 17, 43, 61, 97, 101, 193, 257, 7681])
    def test_square_back_and_count(self, p):
        squares = {x * x % p for x in range(1, p)}
        for a in range(p):
            got = sqrtmod(a, p)
            for r in got:
                assert r * r % p == a
            if a == 0:
                assert got == (0,)
            elif a in squares:
                assert len(got) == 2 and got[0] < got[1]
            else:
                assert got == ()

    def test_rejects_even_modulus(self):
        with pytest.raises(ValueError):
            sqrtmod(1, 4)

    def test_composite_modulus_is_refused(self):
        # Each used to give an incomplete answer without an error.
        with pytest.raises(InvalidPrime):
            sqrtmod(4, 15)  # 2*2 ≡ 4, yet () came back
        with pytest.raises(InvalidPrime):
            sqrtmod(1, 15)  # (1, 14) came back, missing 4 and 11
        with pytest.raises(InvalidPrime):
            nth_root_mod_prime(4, 2, 15)  # None came back
        # The early returns for c ≡ 0 and t == 1 used to skip the check.
        for c, t, p in ((0, 3, 15), (5, 1, 15), (5, 3, 1), (5, 3, 0)):
            with pytest.raises(InvalidPrime):
                nth_root_mod_prime(c, t, p)

    def test_odd_composite_fails_fast(self):
        # Each passes Euler's criterion, so only the root routine can notice.
        for a, n in ((8, 21), (2, 561), (2, 1729), (2, 1105)):
            with pytest.raises(PowmapError):
                sqrtmod(a, n)


class TestElementOrder:
    def test_worked_values(self):
        assert element_order(42, 43, 6) == 2
        assert element_order(1, 43, 6) == 1
        assert element_order(6, 43, 6) == 3

    def test_minimality(self):
        # Against the definition: the smallest d | t with a**d ≡ 1, for every a and t.
        for modulus in (43, 61, 187, 341, 403):
            for a in range(modulus):
                for t in range(1, 13):
                    least = next((d for d in range(1, t + 1)
                                  if t % d == 0 and pow(a, d, modulus) == 1), None)
                    if math.gcd(a, modulus) != 1:
                        with pytest.raises(NotCoprime):
                            element_order(a, modulus, t)
                    elif least is None:
                        with pytest.raises(NotDivisor):
                            element_order(a, modulus, t)
                    else:
                        assert element_order(a, modulus, t) == least, (a, modulus, t)

    def test_not_a_root(self):
        with pytest.raises(NotDivisor):
            element_order(2, 43, 6)

    def test_requires_unit(self):
        with pytest.raises(NotCoprime):
            element_order(11, 187, 5)

    def test_exponent_below_one_is_refused(self):
        with pytest.raises(ValueError):
            element_order(2, 7, 0)


class TestFactorSemiprime:
    def test_worked_values(self):
        assert factor_semiprime(187) == (11, 17)
        assert factor_semiprime(61) == (61, None)
        assert factor_semiprime(403) == (13, 31)

    def test_ascending_and_square(self):
        assert factor_semiprime(341) == (11, 31)
        assert factor_semiprime(4) == (2, 2)
        assert factor_semiprime(9) == (3, 3)

    def test_not_supported(self):
        for n in (8, 12, 30, 105):
            with pytest.raises(NotSupported):
                factor_semiprime(n)
        with pytest.raises(NotSupported):
            factor_semiprime(2**32)
        with pytest.raises(ValueError):
            factor_semiprime(1)

    def test_prime_beyond_2_32_not_supported(self):
        # 4294967311 is prime, so only the size bound refuses it.
        with pytest.raises(NotSupported):
            factor_semiprime(4294967311)

    def test_against_trial_division(self):
        def prime_factors(n):
            factors, d = [], 2
            while d * d <= n:
                while n % d == 0:
                    factors.append(d)
                    n //= d
                d += 1
            return factors + [n] if n > 1 else factors

        for n in range(2, 20_000):
            factors = prime_factors(n)
            if len(factors) > 2:
                with pytest.raises(NotSupported):
                    factor_semiprime(n)
            else:
                assert factor_semiprime(n) == (*factors, None)[:2], n

    def test_is_prime_against_scan(self):
        def slow(n):
            return n >= 2 and all(n % d for d in range(2, n))

        for n in range(0, 5000):
            assert is_prime(n) == slow(n)
        assert is_prime(4294967291)  # the largest prime below 2**32
        assert not is_prime(65497 * 65479)


class TestNthRootModPrime:
    @pytest.mark.parametrize("p,t", [
        (31, 6), (13, 6), (43, 6), (61, 5), (11, 5), (97, 6), (13, 4), (19, 9), (7, 12), (29, 8),
        (11, 3), (23, 12), (251, 5), (163, 9),
    ])
    def test_root_found_iff_exists(self, p, t):
        # Oracle: the set of t-th powers by full enumeration.
        powers = {pow(x, t, p) for x in range(p)}
        for c in range(p):
            r = nth_root_mod_prime(c, t, p)
            if c in powers:
                assert r is not None and pow(r, t, p) == c
            else:
                assert r is None

    def test_root_choice_is_lexicographic_minimum(self):
        # Oracle: with the prime factors of t ascending, l0 <= l1 <= ..., the
        # root returned is the one whose (x**(t/l0), x**(t/(l0*l1)), ..., x)
        # is smallest, found here among all roots by full scan.
        for t in range(1, 13):
            ells, rest = [], t
            for f in (2, 3, 5, 7, 11):
                while rest % f == 0:
                    ells.append(f)
                    rest //= f
            exps = [t // math.prod(ells[:i + 1]) for i in range(len(ells))]
            for p in (p for p in range(2, 200) if is_prime(p)):
                best = {}
                for x in range(1, p):
                    c = pow(x, t, p)
                    key = tuple(pow(x, e, p) for e in exps)
                    if c not in best or key < best[c][0]:
                        best[c] = (key, x)
                for c, (_, x) in best.items():
                    assert nth_root_mod_prime(c, t, p) == x, (c, t, p)

    def test_root_choice_at_large_primes(self):
        # The same rule at primes far beyond a full scan: p - 1 is divisible
        # by 27720 = lcm(2..12), so gcd(t, p-1) = t.  The roots of unity come
        # from the distinct pow(z, (p-1)/d, p), z = 2, 3, ..., and the root
        # returned must be least by the rule among its products with them.
        for p in (4294964521, 4294742761, 1025641):
            for t in range(2, 13):
                d, unity, z = math.gcd(t, p - 1), set(), 2
                while len(unity) < d:
                    unity.add(pow(z, (p - 1) // d, p))
                    z += 1
                ells, rest = [], t
                for f in (2, 3, 5, 7, 11):
                    while rest % f == 0:
                        ells.append(f)
                        rest //= f
                exps = [t // math.prod(ells[:i + 1]) for i in range(len(ells))]
                for m in range(2, 40):
                    r = nth_root_mod_prime(pow(m, t, p), t, p)
                    best = min((r * w % p for w in unity),
                               key=lambda x: tuple(pow(x, e, p) for e in exps))
                    assert r == best, (m, t, p)

    def test_deterministic(self):
        assert nth_root_mod_prime(12, 6, 13) == nth_root_mod_prime(12, 6, 13)

    def test_zero_and_degree_one(self):
        assert nth_root_mod_prime(0, 6, 13) == 0
        assert nth_root_mod_prime(9, 1, 13) == 9

    def test_exponent_beyond_bound_is_refused(self):
        with pytest.raises(ValueError):
            nth_root_mod_prime(3, 13, 7)


def test_roots_agree_with_sympy():
    residue = pytest.importorskip("sympy.ntheory.residue_ntheory")
    primes = [p for p in range(3, 600) if is_prime(p)]
    for p in primes:
        for a in range(p):
            assert sqrtmod(a, p) == tuple(sorted(residue.sqrt_mod(a, p, all_roots=True)))
    # Primes below 100, plus ones whose p-1 carries 3**3, 3**4, 7**2 and 2**8.
    for p in [p for p in primes if p < 100] + [109, 163, 197, 257]:
        for t in range(2, 13):
            for c in range(p):
                assert (nth_root_mod_prime(c, t, p) is None) == (not residue.is_nthpow_residue(c, t, p))
