import ast
import gc
import inspect
import itertools
import math
import tracemalloc

import pytest

from powmap import (
    DivClass,
    FieldOutOfRange,
    IneligibleGenerator,
    InvalidArgument,
    InvalidPrime,
    NoSolution,
    NotCoprime,
    NotResidue,
    NotSupported,
    Packet,
    Params,
    PowmapError,
    RankOutOfRange,
    RootSet,
    candidate_set,
    decode,
    eligible_generators,
    encode,
    encrypt,
    extract_root,
    inverse_exponent,
    make_params,
    mapping_table,
    root_set,
)
from powmap import modnum
from powmap.modnum import _any_root

from reference import primes_below
from worked_examples import (
    CANDIDATES_28_MOD_61,
    CANDIDATES_51_MOD_341,
    QUINTIC_ROOTS_61,
    TABLE_43_7,
    TABLE_61_9,
)


class TestMakeParams:
    def test_worked_values(self):
        p = make_params(5, 61)
        assert (p.n, p.phi, p.div_class) == (61, 60, DivClass.T_EXACTLY)
        p = make_params(5, 31, 11)
        assert (p.n, p.phi, p.div_class) == (341, 300, DivClass.T_SQUARED)
        p = make_params(6, 31, 13)
        assert (p.n, p.phi, p.div_class) == (403, 360, DivClass.T_SQUARED)

    def test_not_divisible_is_diagnosed_not_rejected(self):
        assert make_params(5, 43).div_class is DivClass.NOT_DIVISIBLE

    def test_invalid_primes(self):
        with pytest.raises(InvalidPrime):
            make_params(5, 11, 11)
        with pytest.raises(InvalidPrime):
            make_params(5, 2)
        with pytest.raises(InvalidPrime):
            make_params(5, 15)
        with pytest.raises(ValueError):
            make_params(1, 61)
        with pytest.raises(ValueError):
            make_params(13, 53)
        with pytest.raises(NotSupported):
            make_params(5, 65537, 65539)

    def test_non_integer_arguments_raise_type_error(self):
        # As serialize_packet does; 61.0 gave Params(p=61.0, phi=60.0, ...) and was called prime.
        for args in ((5, 61.0), (5.0, 61), (5, 11, 31.0)):
            with pytest.raises(TypeError):
                make_params(*args)
        for n in (61.0, 2147483647.0):
            with pytest.raises(TypeError):
                modnum.is_prime(n)


class TestEncrypt:
    def test_worked_values(self):
        assert encrypt(28, make_params(5, 61)) == 11
        assert encrypt(1, make_params(5, 61)) == 1
        assert encrypt(3, make_params(5, 11, 17)) == 56

    def test_non_unit_refused(self):
        with pytest.raises(NotCoprime, match=r"gcd\(11, 187\) > 1"):
            encrypt(11, make_params(5, 11, 17))

    def test_refuses_what_encode_refuses(self):
        # Every m from -n to 2n: the same cipher, or the same refusal with the same message.
        def outcome(step):
            try:
                return step()
            except PowmapError as exc:
                return f"{type(exc).__name__}: {exc}"

        for key in ((5, 61), (5, 11, 17), (6, 13, 31)):
            params, rs = make_params(*key), root_set(*key)
            n = params.n
            messages = range(-n, 2 * n + 1)
            encrypted = [outcome(lambda: encrypt(m, params)) for m in messages]
            encoded = [outcome(lambda: encode(m, params, rs).c) for m in messages]
            assert encrypted == encoded
            refused = [c for m, c in zip(messages, encrypted) if 1 <= m < n and isinstance(c, str)]
            assert len(refused) == n - 1 - params.phi  # inside 1..n-1, only the non-units
            assert all(c.startswith("NotCoprime: ") for c in refused)
            assert encrypted[:n + 1] == [f"InvalidArgument: m must be in 1..{n - 1}, got {m}"
                                         for m in range(-n, 1)]

    def test_range_enforced(self):
        with pytest.raises(ValueError):
            encrypt(0, make_params(5, 61))
        with pytest.raises(ValueError):
            encrypt(61, make_params(5, 61))


class TestInverseExponent:
    def test_worked_values(self):
        assert inverse_exponent(5, 60) == (2, 5)
        assert inverse_exponent(5, 160) == (2, 13)
        assert inverse_exponent(6, 42) == (5, 6)

    def test_smallest_a(self):
        # Oracle: scan a upward for the first integral quotient.
        for t, phi in ((5, 60), (5, 160), (6, 42), (5, 30), (6, 30)):
            a, res = inverse_exponent(t, phi)
            scanned = next(x for x in range(t * t) if (x * phi + t) % (t * t) == 0)
            assert a == scanned
            assert res == (a * phi + t) // (t * t)

    def test_integer_identity(self):
        for t, phi in ((5, 60), (5, 160), (6, 42), (5, 110), (6, 66)):
            a, res = inverse_exponent(t, phi)
            assert t * t * res == a * phi + t

    def test_no_solution_outside_regime(self):
        with pytest.raises(NoSolution):
            inverse_exponent(5, 63)  # t does not divide phi
        with pytest.raises(NoSolution):
            inverse_exponent(5, 300)  # t**2 divides phi

    def test_no_solution_gcd_obstruction(self):
        # 6 | 12 and 36 does not divide 12, yet (12a+6)/36 is never an
        # integer because phi/t = 2 shares a factor with t.
        with pytest.raises(NoSolution):
            inverse_exponent(6, 12)
        with pytest.raises(NoSolution):
            inverse_exponent(6, 168)  # semiprime phi = 42*4: same obstruction


class TestExtractRoot:
    def test_worked_prime(self):
        params = make_params(5, 61)
        assert extract_root(11, params) == 11
        assert extract_root(1, params) == 1

    def test_worked_semiprime_t_exactly(self):
        params = make_params(5, 11, 17)
        assert extract_root(56, params) == 122

    def test_t_squared_equivalence_class(self):
        params = make_params(5, 31, 11)
        r = extract_root(87, params)
        assert pow(r, 5, 341) == 87
        assert extract_root(87, params) == r  # deterministic

    def test_t_squared_sextic(self):
        params = make_params(6, 31, 13)
        r = extract_root(233, params)
        assert pow(r, 6, 403) == 233

    def test_root_correctness_over_all_ciphers(self):
        for params in (make_params(5, 61), make_params(5, 31, 11), make_params(6, 31, 13)):
            ciphers = {pow(m, params.t, params.n)
                       for m in range(1, params.n) if math.gcd(m, params.n) == 1}
            for c in sorted(ciphers):
                assert pow(extract_root(c, params), params.t, params.n) == c

    def test_bijection_when_not_divisible(self):
        # gcd(t, phi) = 1: x -> x**t is a bijection mod n, non-units included,
        # so the per-prime route must return the one brute-force root.
        primes = primes_below(200)[1:]
        keys = [(p, None) for p in primes] + [
            (p, q) for i, p in enumerate(primes[:10]) for q in primes[i + 1:10]]
        checked = 0
        for t in range(2, 13):
            for p, q in keys:
                params = make_params(t, p, q)
                if math.gcd(t, params.phi) != 1:
                    continue
                n = params.n
                preimage = {pow(x, t, n): x for x in range(n)}
                assert len(preimage) == n
                for c in range(n):
                    assert extract_root(c, params) == preimage[c]
                checked += 1
        assert checked == 293  # keys with gcd(t, phi) = 1

    def test_keys_without_the_paper_route_round_trip(self):
        # Each key is one regime with no inverse exponent: t**2 | p-1 for a
        # prime, t**2 | f-1 for one factor of a semiprime, gcd(phi/t, t) > 1
        # with t | phi exactly, and 1 < gcd(t, phi) < t.
        for key in ((5, 101), (5, 101, 11), (6, 13), (6, 11)):
            params, rs = make_params(*key), root_set(*key)
            c = pow(2, params.t, params.n)
            assert pow(extract_root(c, params), params.t, params.n) == c
            for m in range(1, params.n):
                if math.gcd(m, params.n) == 1:
                    assert decode(encode(m, params, rs), params, rs) == m, (key, m)

    def test_not_residue_cases(self):
        # Inverse-exponent route (t exactly divides phi = 60): the extracted root fails its check.
        with pytest.raises(NotResidue) as exc:
            extract_root(2, make_params(5, 61))
        assert str(exc.value) == "extracted 32, but 32**5 ≢ 2 (mod 61)"
        # Per-prime route (t**2 divides phi = 300): 2 is no 5th power mod 11.
        with pytest.raises(NotResidue) as exc:
            extract_root(2, make_params(5, 11, 31))
        assert str(exc.value) == "2 has no 5-th root mod 11"
        # 10 is a 5th power mod 11 but not mod 31.
        with pytest.raises(NotResidue) as exc:
            extract_root(10, make_params(5, 11, 31))
        assert str(exc.value) == "10 has no 5-th root mod 31"


class TestCandidateSet:
    def test_worked_values(self):
        rs = root_set(5, 61)
        assert candidate_set(28, rs) == CANDIDATES_28_MOD_61
        assert candidate_set(1, rs) == list(QUINTIC_ROOTS_61)
        assert candidate_set(51, root_set(5, 31, 11)) == CANDIDATES_51_MOD_341

    def test_equal_t_th_powers(self):
        rs = root_set(5, 31, 11)
        for x in (51, 98, 222):
            cands = candidate_set(x, rs)
            assert len(cands) == 25
            assert len({pow(v, 5, 341) for v in cands}) == 1

    def test_root_choice_invariance(self):
        # Every member of the fiber of 87 yields the same candidate list.
        rs = root_set(5, 31, 11)
        fiber = [x for x in range(1, 341) if pow(x, 5, 341) == 87]
        assert len(fiber) == 25
        lists = {tuple(candidate_set(x, rs)) for x in fiber}
        assert len(lists) == 1


def _smallest_keys(bound=2000):
    """(t, p) or (t, p, q): the smallest modulus below bound for each t in 2..12,
    kind (prime or semiprime) and divisibility class that has one."""
    primes = primes_below(bound)[1:]
    semiprimes = sorted(((p, q) for p in primes for q in primes if p < q and p * q < bound),
                        key=lambda pq: pq[0] * pq[1])
    keys = {}
    for t in range(2, 13):
        for factors in [(p,) for p in primes] + semiprimes:
            keys.setdefault((t, len(factors), make_params(t, *factors).div_class), (t, *factors))
    return sorted(keys.values())


class TestEncodeDecode:
    def test_worked_sessions(self):
        params, rs = make_params(5, 61), root_set(5, 61)
        pkt = encode(28, params, rs)
        assert (pkt.c, pkt.rank) == (11, 3)
        assert decode(pkt, params, rs) == 28

        params, rs = make_params(6, 31, 13), root_set(6, 31, 13)
        pkt = encode(59, params, rs)
        assert (pkt.c, pkt.rank) == (233, 8)
        assert decode(pkt, params, rs) == 59

    def test_identity_message(self):
        params, rs = make_params(5, 61), root_set(5, 61)
        pkt = encode(1, params, rs)
        assert (pkt.c, pkt.rank) == (1, 1)

    def test_worked_decodes(self):
        assert decode(Packet(5, 187, 56, 1), make_params(5, 11, 17), root_set(5, 11, 17)) == 3
        assert decode(Packet(5, 341, 87, 5), make_params(5, 31, 11), root_set(5, 31, 11)) == 51

    def test_non_unit_rejected(self):
        params, rs = make_params(5, 11, 17), root_set(5, 11, 17)
        with pytest.raises(NotCoprime):
            encode(11, params, rs)
        # 0 is outside 1..n-1 before it is a non-unit, as encrypt refuses it.
        with pytest.raises(InvalidArgument, match=r"^m must be in 1\.\.186, got 0$"):
            encode(0, params, rs)

    def test_message_range_enforced(self):
        params, rs = make_params(5, 61), root_set(5, 61)
        for m in (62, -1):
            with pytest.raises(ValueError):
                encode(m, params, rs)

    def test_non_unit_cipher_refused(self):
        # No unit message has such a cipher; decode used to return 0 for c = 0.
        params, rs = make_params(6, 13, 31), root_set(6, 13, 31)
        for c in (0, 13, 13 * 7, 31, 31 * 12):
            with pytest.raises(NotCoprime):
                decode(Packet(6, 403, c, 1), params, rs)

    def test_cipher_outside_modulus_refused_as_on_the_wire(self):
        # Both reduce to 11, the cipher of 28, yet parse_packet refuses either line; so does decode.
        params, rs = make_params(5, 61), root_set(5, 61)
        for c in (72, -50):
            with pytest.raises(FieldOutOfRange) as exc:
                decode(Packet(5, 61, c, 3), params, rs)
            assert str(exc.value) == f"c={c} outside 0..n-1"

    def test_forged_cipher_not_residue(self):
        # In range and a unit, but no message encrypts to it: decode names the refusal.
        # 10 has a 5th root mod 11 but none mod 31, so only the q side refuses it.
        for factors, c, msg in (((61,), 2, "2 has no 5-th root mod 61"),
                                ((11, 31), 2, "2 has no 5-th root mod 11"),
                                ((11, 31), 10, "10 has no 5-th root mod 31")):
            params, rs = make_params(5, *factors), root_set(5, *factors)
            with pytest.raises(NotResidue) as exc:
                decode(Packet(5, params.n, c, 1), params, rs)
            assert str(exc.value) == msg

    def test_counted_rank_matches_sorted_candidates(self):
        # encode counts the candidates below m; the oracle sorts them and searches.
        keys = _smallest_keys()
        assert len(keys) == 62  # all (t, kind, class) but the four no odd key reaches
        for t, *factors in keys:
            params, rs = make_params(t, *factors), root_set(t, *factors)
            n = params.n
            for m in range(1, n):
                if math.gcd(m, n) == 1:
                    oracle = sorted({m * r % n for r in rs.roots}).index(m) + 1
                    assert encode(m, params, rs).rank == oracle, (t, factors, m)

    def test_encode_builds_no_nested_scope(self):
        # encode counts the rank in a plain loop.  On Python 3.11 a comprehension over the roots
        # made m and n cell variables and built a closure, a function and a frame per packet: the
        # rank took 1.99-2.02 us a desk-encode packet against 1.64-1.66 us for the loop.  3.12+
        # inlines comprehensions (PEP 709), so the source is checked, not co_cellvars.
        nested = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp, ast.Lambda)
        tree = ast.parse(inspect.getsource(encode))
        assert [type(node).__name__ for node in ast.walk(tree) if isinstance(node, nested)] == []

    def test_round_trip_sweep_over_small_keys(self):
        # t = 2..12, every prime p < 1000 alone and with each of the next five
        # primes, m in (2, 3, n-1) where m is a unit: every divisibility class
        # and every regime the paper's inverse exponent does not cover.
        primes = primes_below(1000)[1:]
        checked = 0
        for t in range(2, 13):
            for i, p in enumerate(primes):
                for q in [None, *primes[i + 1:i + 6]]:
                    params, rs = make_params(t, p, q), root_set(t, p, q)
                    n = params.n
                    for m in (2, 3, n - 1):
                        if math.gcd(m, n) != 1:
                            continue
                        pkt = encode(m, params, rs)
                        decoded = decode(pkt, params, rs)
                        assert decoded == m, (t, p, q, m)
                        root = extract_root(pkt.c, params)
                        assert decoded == candidate_set(root, rs)[pkt.rank - 1], (t, p, q, m)
                        for f, plan in zip((p, q), modnum._key_plan(t, p, q)):
                            if f is not None:
                                x = _any_root(pkt.c % f, t, f, plan)
                                assert pow(x, t, f) == pkt.c % f, (t, f, m)
                        checked += 1
        assert checked == 32505

    def test_rank_out_of_range(self):
        params, rs = make_params(5, 61), root_set(5, 61)
        with pytest.raises(RankOutOfRange):
            decode(Packet(5, 61, 11, 6), params, rs)

    def test_mismatched_packet(self):
        from powmap import MalformedPacket

        params, rs = make_params(5, 61), root_set(5, 61)
        with pytest.raises(MalformedPacket):
            decode(Packet(6, 61, 11, 1), params, rs)

    def test_root_set_of_another_key_refused(self):
        # Unchecked, each pair answers wrongly: decode 11 and 29 for 28, encode rank 13 of 5.
        params = make_params(5, 61)
        pkt = encode(28, params, root_set(5, 61))
        for other in (root_set(5, 11, 31), root_set(3, 61)):
            with pytest.raises(ValueError, match="root set does not match the key"):
                decode(pkt, params, other)
        with pytest.raises(ValueError, match="root set does not match the key"):
            encode(28, params, root_set(5, 11, 31))

    def test_root_plan_cache_is_bounded(self):
        # A receiver decoding under more distinct keys than the key-plan cache holds, half of
        # them semiprimes whose entries hold two prime plans: the cache stops at its bound,
        # and once full, 1,000 more keys leave memory flat (-6 B a key; an unbounded cache grew
        # about 1,050 B a key).  gc.collect() empties the free lists before each reading.
        maxsize = modnum._key_plan.cache_info().maxsize
        assert maxsize is not None
        primes = primes_below(10_000)[168:]
        keys = [(t, p, q) for p, next_p in zip(primes, primes[1:]) for q in (None, next_p)
                for t in range(2, 13)][:maxsize + 1_200]

        def round_trip(t, p, q):
            params, rs = make_params(t, p, q), root_set(t, p, q)
            assert decode(encode(p // 2, params, rs), params, rs) == p // 2

        modnum._key_plan.cache_clear()
        tracemalloc.start()
        try:
            for key in keys[:-1_000]:
                round_trip(*key)
            gc.collect()
            before, _ = tracemalloc.get_traced_memory()
            for key in keys[-1_000:]:
                round_trip(*key)
            gc.collect()
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert modnum._key_plan.cache_info().currsize == maxsize
        assert after - before < 100_000, after - before

    def test_hand_built_equal_primes_named_error(self):
        # make_params refuses p == q; a hand-built Params reaches the key plan and is
        # refused there first, by the name and message make_params and root_set give.
        params = Params(5, 11, 11, 121, 100, DivClass.T_SQUARED)  # phi = (p-1)*(q-1)
        rs = RootSet(121, 5, (1,), {1: 1})
        c = pow(2, 5, 121)
        for call in (lambda: extract_root(c, params), lambda: decode(Packet(5, 121, c, 1), params, rs)):
            with pytest.raises(InvalidPrime, match="^p and q must differ$"):
                call()

    def test_t_to_one_on_units(self):
        # For the t-exactly class mod a prime, each cipher has exactly t preimages.
        params = make_params(5, 61)
        fibers = {}
        for m in range(1, 61):
            fibers.setdefault(pow(m, 5, 61), []).append(m)
        assert all(len(v) == 5 for v in fibers.values())
        assert len(fibers) == 60 // 5


class TestMappingTable:
    def test_table_61(self):
        rows = mapping_table(make_params(5, 61), 9)
        assert [(*row, c) for row, c in rows] == TABLE_61_9

    def test_table_43(self):
        rows = mapping_table(make_params(6, 43), 7)
        assert [(*row, c) for row, c in rows] == TABLE_43_7

    def test_row_count(self):
        assert len(list(mapping_table(make_params(5, 61), 9))) == 12
        assert len(list(mapping_table(make_params(6, 43), 7))) == 7

    def test_partitions_units_exactly_once(self):
        rows = mapping_table(make_params(5, 61), 9)
        seen = [v for row, _ in rows for v in row]
        assert sorted(seen) == list(range(1, 61))

    def test_shared_cipher_per_row_distinct_across_rows(self):
        rows = list(mapping_table(make_params(6, 43), 7))
        ciphers = set()
        for row, c in rows:
            assert {pow(v, 6, 43) for v in row} == {c}
            ciphers.add(c)
        assert len(ciphers) == len(rows)

    @pytest.mark.parametrize("t, p", [(5, 61), (6, 43)])
    def test_every_alpha_gives_the_table_or_one_refusal(self, t, p):
        # 0 mod p, a root of lower order and a non-root break one rule: order exactly t.
        params = make_params(t, p)
        tables = {a: list(mapping_table(params, a)) for a in range(1, p)
                  if pow(a, t, p) == 1 and all(pow(a, k, p) != 1 for k in range(1, t))}
        assert len(tables) == len(eligible_generators(root_set(t, p)))
        for alpha in range(-p, 2 * p + 1):
            if alpha % p in tables:
                assert list(mapping_table(params, alpha)) == tables[alpha % p]
            else:
                with pytest.raises(IneligibleGenerator) as exc:
                    mapping_table(params, alpha)
                assert str(exc.value) == f"{alpha} does not have order {t} mod {p}"

    def test_ineligible_alpha_rejected(self):
        with pytest.raises(IneligibleGenerator):
            mapping_table(make_params(6, 43), 6)
        with pytest.raises(ValueError):
            mapping_table(make_params(5, 31, 11), 4)

    def test_first_rows_stream_without_the_whole_table(self):
        # 200,016 rows at p = 1000081; the first ten need only a few powers of alpha.
        params = make_params(5, 1000081)
        alpha = eligible_generators(root_set(5, 1000081))[0]
        tracemalloc.start()
        try:
            rows = list(itertools.islice(mapping_table(params, alpha), 10))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rows) == 10 and rows[0][0][0] == 1
        assert peak < 2 * 1024 * 1024

    def test_first_rows_hold_no_per_residue_state(self):
        # One flag byte per residue would take 4.3 GB at the largest prime below 2**32.
        p = 4294967291
        tracemalloc.start()
        try:
            rows = list(itertools.islice(mapping_table(make_params(2, p), p - 1), 10))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rows[:3] == [((1, p - 1), 1), ((2, p - 2), 4), ((3, p - 3), 9)]
        assert peak < 1024 * 1024, peak

    @pytest.mark.parametrize("t", range(2, 13))
    def test_rows_are_the_cosets_of_alpha(self, t):
        # Oracle: <alpha> is the set of t-th roots of unity, its cosets are
        # formed as sets, and the rows come in order of their least member.
        for p in primes_below(500)[1:]:
            if make_params(t, p).div_class is not DivClass.T_EXACTLY:
                continue
            unity = [x for x in range(1, p) if pow(x, t, p) == 1]
            cosets = sorted({frozenset(m * u % p for u in unity) for m in range(1, p)}, key=min)
            expected = [(min(s), s, pow(min(s), t, p)) for s in cosets]
            alphas = [a for a in unity if all(pow(a, k, p) != 1 for k in range(1, t))]
            assert alphas
            for alpha in alphas:
                rows = list(mapping_table(make_params(t, p), alpha))
                assert [(row[0], set(row), c) for row, c in rows] == expected
                assert all(row[j] == row[j - 1] * alpha % p for row, _ in rows for j in range(1, t))
