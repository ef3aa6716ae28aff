import itertools
import math
import random

import pytest

from powmap import (
    InvalidArgument,
    InvalidPrime,
    NotCoprime,
    NotSupported,
    PowmapError,
    root_set,
)
from powmap import modnum
from powmap.modnum import (
    CrtBasis,
    _any_root,
    _unity,
    crt_pair,
    element_order,
    factor_semiprime,
    invmod,
    is_prime,
    nth_root_mod_prime,
    sqrtmod,
)

import corners
import reference


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
        with pytest.raises(NotCoprime, match=r"^gcd\(11, 187\) = 11$"):
            invmod(11, 187)
        with pytest.raises(NotCoprime, match=r"^gcd\(0, 7\) = 7$"):
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

    def test_unreduced_and_negative_residues(self):
        # Garner's form must reduce the q-side residue before the difference: without
        # that, crt_pair(4, 18, b) came out 86, not 103.
        b = CrtBasis.for_primes(11, 17)
        assert crt_pair(4, 18, b) == 103 == modnum._garner(4, 18, 11, 17, 2)
        for x in range(187):
            for k, j in ((1, 1), (3, 2), (-2, -5)):
                assert crt_pair(x % 11 + 11 * k, x % 17 - 17 * j, b) == x
                assert crt_pair(x % 11 - 11 * k, x % 17 + 17 * j, b) == x
                assert modnum._garner(x % 11 + 11 * k, x % 17 - 17 * j, 11, 17, 2) == x
                assert modnum._garner(x % 11 - 11 * k, x % 17 + 17 * j, 11, 17, 2) == x

    def test_basis_validation(self):
        from powmap import InvalidPrime

        with pytest.raises(InvalidPrime):
            CrtBasis.for_primes(11, 11)
        with pytest.raises(InvalidPrime):
            CrtBasis.for_primes(11, 15)
        with pytest.raises(ValueError):
            CrtBasis(11, 17, 3, 14, 187)  # 17*3 mod 11 != 1

    def test_basis_not_cached_and_errors_repeat(self):
        from powmap import InvalidPrime

        # The key plan is the kernel's only cache; decode needs no basis.
        assert isinstance(vars(CrtBasis)["for_primes"], classmethod)
        assert not hasattr(vars(CrtBasis)["for_primes"].__func__, "cache_info")
        assert hasattr(modnum._key_plan, "cache_info")
        assert not hasattr(modnum._root_plan, "cache_info")
        assert CrtBasis.for_primes(31, 13) == CrtBasis.for_primes(31, 13)
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
                        with pytest.raises(InvalidArgument, match="root of unity"):
                            element_order(a, modulus, t)
                    else:
                        assert element_order(a, modulus, t) == least, (a, modulus, t)

    def test_not_a_root(self):
        # A domain error like a bad t or modulus, so also a ValueError.
        with pytest.raises(InvalidArgument, match=r"^2 is not a 6-th root of unity mod 43$"):
            element_order(2, 43, 6)

    def test_requires_unit(self):
        with pytest.raises(NotCoprime):
            element_order(11, 187, 5)

    def test_exponent_below_one_is_refused(self):
        with pytest.raises(ValueError):
            element_order(2, 7, 0)

    def test_exponent_beyond_bound_is_refused(self):
        # Refused before t is factored, which divides only by the primes below 1009.
        for t in (13, 2 * 2147483647):
            with pytest.raises(ValueError, match=r"t must be in 1\.\.12"):
                element_order(1, 4294967291, t)

    def test_modulus_below_two_is_refused(self):
        # As invmod does; 0 was a bare ZeroDivisionError and -7 a non-root refusal.
        for modulus in (1, 0, -7):
            with pytest.raises(ValueError, match="modulus must be >= 2"):
                element_order(2, modulus, 2)


def _first_element_of_order(d, p):
    """The first z**((p-1)/d), z = 1, 2, ..., whose powers reach 1 after exactly d steps."""
    for z in range(1, p):
        g = x = pow(z, (p - 1) // d, p)
        order = 1
        while x != 1:
            x = x * g % p
            order += 1
        if order == d:
            return g


def _scan_order(x, p):
    """The least k >= 1 with x**k ≡ 1 (mod p), by repeated multiplication."""
    y, k = x, 1
    while y != 1:
        y, k = y * x % p, k + 1
    return k


def _sylow_generators(t, p):
    """{ell: g} for the Sylow generators g of the plan for (t, p)."""
    return {entry[0]: pow(entry[3], -1, p) for entry in modnum._root_plan(t, p)[1]}


class TestUnityGenerator:
    def test_matches_power_scan_oracle(self):
        for p in reference.primes_below(2000):
            for t in range(1, 13):
                d = math.gcd(t, p - 1)
                z, orders = _unity(t, p)
                assert pow(z, (p - 1) // d, p) == _first_element_of_order(d, p), (t, p)
                assert len(orders) == d
                assert orders == {x: _scan_order(x, p) for x in orders}, (t, p)
                assert all(pow(x, t, p) == 1 for x in orders)

    def test_plan_sylow_generators_have_exact_order(self):
        for p in reference.primes_below(2000):
            for t in range(1, 13):
                for ell, s, _, g_inv, *_ in modnum._root_plan(t, p)[1]:
                    assert _scan_order(pow(g_inv, -1, p), p) == ell**s, (t, p, ell)

    def test_sylow_orders_of_deep_primes(self):
        # d = 2 gives the same z as a search for the 2-Sylow subgroup alone.
        assert _sylow_generators(2, 65537) == {2: 3}
        assert _sylow_generators(2, 2013265921) == {2: 1227303670}
        assert _sylow_generators(2, 3221225473) == {2: 125}
        # d = 6 asks z to be a cube too, so the 2-Sylow generator is another one.
        assert _sylow_generators(6, 2013265921) == {2: 1299886585}

    def test_plan_runs_one_search(self, monkeypatch):
        calls, unity = [], modnum._unity

        def counted(t, p):
            calls.append((t, p))
            return unity(t, p)

        monkeypatch.setattr(modnum, "_unity", counted)
        modnum._key_plan.cache_clear()
        try:
            # 4294964520 = 2**3 * 3**3 * 5 * 7 * 11 * 51647: deep 2- and 3-Sylow subgroups.
            assert len(modnum._key_plan(12, 4294964521, None)[0][1]) == 2
            plan_p, plan_q, q_inv = modnum._key_plan(12, 65537, 40961)
            assert (len(plan_p[1]), len(plan_q[1]), 40961 * q_inv % 65537) == (1, 1, 1)
            modnum._key_plan(12, 65537, 40961)  # the second lookup builds nothing
        finally:
            modnum._key_plan.cache_clear()
        assert calls == [(12, 4294964521), (12, 65537), (12, 40961)]


class TestDigitChunks:
    # A root reads the s digits of an ell-Sylow discrete log, ell**s || p-1, in chunks of
    # w = MAX_WIDTH[ell] digits, the most with ell**w <= 64, or in one chunk when s < w; the
    # last chunk may overlap the one before it.  A plan has an ell-Sylow entry only for
    # s > k >= 1, where ell**k || t.
    MAX_WIDTH = {2: 6, 3: 3, 5: 2, 7: 2, 11: 1}

    @staticmethod
    def _chunk_cases(s, w):
        """The chunk boundaries that s digits read w at a time meet."""
        return {case for case, holds in (("s<w", s < w), ("s=w", s == w), ("s=w+1", s == w + 1),
                                         ("s=2w", s == 2 * w), ("s>2w", s > 2 * w),
                                         ("s%w", s > w and s % w))
                if holds}

    def _deep_primes(self, ell):
        """{case: the first prime of the corner and small primes whose ell-Sylow depth meets it}.
        The small primes reach 20,000: s = 2w first occurs at 11251 for ell = 5, 14407 for 7."""
        found = {}
        for p in (*corners.DEEP_PRIMES, *corners.ODD_DEEP_PRIMES,
                  *reference.primes_below(20_000)[1:]):
            s, m = 0, p - 1
            while m % ell == 0:
                m, s = m // ell, s + 1
            if s >= 2:
                for case in self._chunk_cases(s, self.MAX_WIDTH[ell]):
                    found.setdefault(case, p)
        return found

    def test_root_found_iff_euler_criterion_holds(self):
        rng = random.Random(25)
        for ell, w in self.MAX_WIDTH.items():
            found = self._deep_primes(ell)
            # Every case that some s >= 2 meets, from the deepest corner prime or below 20,000.
            assert set(found) == set().union(*(self._chunk_cases(s, w) for s in range(2, 4 * w)))
            for p in set(found.values()):
                for t in range(ell, 13, ell):
                    d, plan = math.gcd(t, p - 1), modnum._key_plan(t, p, None)[0]
                    ciphers = [rng.randrange(1, p) for _ in range(40)]
                    ciphers += [pow(rng.randrange(1, p), t, p) for _ in range(40)]
                    for c in ciphers:
                        x = _any_root(c, t, p, plan)
                        assert (x is not None) == (pow(c, (p - 1) // d, p) == 1), (c, t, p)
                        assert x is None or pow(x, t, p) == c, (c, t, p)

    def test_root_found_iff_euler_criterion_holds_at_every_sylow_depth(self):
        # The smallest prime of each single depth ell**s || p-1 below 2**32, and of each joint
        # depth (2**s2, ell**s) || p-1 for ell = 3, 5, for every t, through the key plan.  At
        # t = 6, 10 and 12 a joint-shape plan holds two Sylow entries once s2 and s exceed k.
        rng = random.Random(18)
        joint = itertools.chain.from_iterable(itertools.chain(*corners.JOINT_DEPTH_PRIMES.values()))
        primes = dict.fromkeys(itertools.chain(*corners.SYLOW_DEPTH_PRIMES.values(), joint))
        assert len(primes) == 412  # 411 primes and None
        two_entries = set()
        for p in filter(None, primes):
            for t in range(2, 13):
                d, plan = math.gcd(t, p - 1), modnum._key_plan(t, p, None)[0]
                if len(plan[1]) == 2:
                    two_entries.add(t)
                ciphers = [rng.randrange(1, p) for _ in range(10)]
                ciphers += [pow(rng.randrange(1, p), t, p) for _ in range(10)]
                for c in ciphers:
                    x = _any_root(c, t, p, plan)
                    assert (x is not None) == (pow(c, (p - 1) // d, p) == 1), (c, t, p)
                    assert x is None or pow(x, t, p) == c, (c, t, p)
        assert two_entries == {6, 10, 12}


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
        # 4294967311 is prime, so only the size bound refuses it, with one message on every path.
        for call in (factor_semiprime, is_prime, lambda n: root_set(2, n)):
            with pytest.raises(NotSupported, match=r"^4294967311 exceeds the 2\*\*32 desk-scale bound$"):
                call(4294967311)
        with pytest.raises(NotSupported):
            is_prime(2**32)

    def test_against_trial_division(self):
        for n in [*range(2, 20_000), *corners.ABOVE_SCREEN]:
            factors = reference.prime_factors(n)
            if len(factors) > 2:
                with pytest.raises(NotSupported):
                    factor_semiprime(n)
            else:
                assert factor_semiprime(n) == (*factors, None)[:2], n

    def test_is_prime_against_scan(self):
        for n in range(0, 5000):
            assert is_prime(n) == (reference.prime_factors(n) == [n]), n
        assert is_prime(4294967291)  # the largest prime below 2**32
        assert not is_prime(65497 * 65479)


class TestPrimalityOracles:
    """is_prime and factor_semiprime against oracles that share none of their code."""

    def test_is_prime_against_sieve(self):
        primes = set(reference.primes_below(200_000))
        for n in range(-2, 200_000):
            assert is_prime(n) == (n in primes), n

    def test_is_prime_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(17)
        for n in [rng.randrange(2**32) for _ in range(3000)] + list(corners.PSEUDOPRIMES):
            assert is_prime(n) == sympy.isprime(n), n

    def test_factor_semiprime_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(29)

        def prime_in(lo, hi):  # a prime in [lo, hi), for a prime lo
            return sympy.prevprime(rng.randrange(lo + 1, hi))

        ns = [65519 * 65521, *corners.PRIME_CASES]
        for _ in range(400):  # each factor drawn below or above 1009
            p = prime_in(3, 1009) if rng.random() < 0.5 else prime_in(1009, 2**16)
            q = prime_in(3, 1009) if rng.random() < 0.3 else prime_in(1009, 2**32 // p)
            ns.append(p * q)
        ns += [prime_in(3, 65521) ** 2 for _ in range(100)]
        ns += [rng.randrange(2, 2**32) for _ in range(300)]
        for n in ns:
            factors = sorted(sympy.factorint(n, multiple=True))
            if len(factors) > 2:
                with pytest.raises(NotSupported, match="more than two prime factors"):
                    factor_semiprime(n)
            else:
                assert factor_semiprime(n) == (*factors, None)[:2], n

    def test_no_trial_division_past_the_screen(self, monkeypatch):
        # Near 2**32 the checks run one gcd, Miller-Rabin and Pollard's rho; dividing any
        # n >= 1009**2 by the small primes would be trial division again.
        prime_factors, seen = modnum._prime_factors, []

        def guarded(n):
            assert n < 1009**2, f"trial division of {n}"
            seen.append(n)
            return prime_factors(n)

        monkeypatch.setattr(modnum, "_prime_factors", guarded)
        assert is_prime(4294967291)
        assert factor_semiprime(65497 * 65479) == (65479, 65497)
        assert factor_semiprime(65521**2) == (65521, 65521)
        assert factor_semiprime(997 * 4307761) == (997, 4307761)  # the screen's gcd is 997
        assert root_set(12, 4294967291).roots[:2] == (1, 4294967290)
        assert 997 in seen and 2 in seen

    def test_prime_factors_against_the_definition(self):
        primes = set(reference.primes_below(5000))
        for n in range(-3, 5000):
            factors = modnum._prime_factors(n)
            assert factors == sorted(factors) and set(factors) <= primes, n
            assert math.prod(factors) == max(n, 1), n


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
        # Oracle: the root returned is the least by reference.canonical_root's
        # rule among all roots of c, found here by full scan.
        for t in range(1, 13):
            for p in reference.primes_below(200):
                for c, roots in reference.fibers(t, p).items():
                    expected = reference.canonical_root(roots, t, p)
                    assert nth_root_mod_prime(c, t, p) == expected, (c, t, p)

    def test_root_choice_at_large_primes(self):
        # The same rule at primes far beyond a full scan: the root returned is
        # the least by the rule among its products with the roots of unity.
        for p in corners.ROOT_CHOICE_PRIMES:
            for t in range(2, 13):
                for m in range(2, 40):
                    r = nth_root_mod_prime(pow(m, t, p), t, p)
                    roots = reference.candidates(r, t, p)
                    assert r == reference.canonical_root(roots, t, p), (m, t, p)

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
    primes = reference.primes_below(600)[1:]
    for p in primes:
        for a in range(p):
            assert sqrtmod(a, p) == tuple(sorted(residue.sqrt_mod(a, p, all_roots=True)))
    # Primes below 100, plus ones whose p-1 carries 3**3, 3**4, 7**2 and 2**8.
    for p in [p for p in primes if p < 100] + [109, 163, 197, 257]:
        for t in range(2, 13):
            for c in range(p):
                assert (nth_root_mod_prime(c, t, p) is None) == (not residue.is_nthpow_residue(c, t, p))
