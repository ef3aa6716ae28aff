"""The contract-corner keys of the tests, each group with why it is a corner.

Nothing here imports powmap, so the keys do not depend on the code under test.
``test_reference.py`` checks that every key is inside the contract.
"""

# Primes around 2**16 and 10**6, 2**31 - 1, and the two largest primes below 2**32.
LARGE_PRIMES = (65537, 65521, 999983, 2**31 - 1, 4294967291, 1000081, 4294967279)
# Deep Sylow subgroups: 2**30, 2**27 and 2**20 divide p-1 for the first three, 2**3 and 3**3
# for 4294964521, 2**12 for 4294955009, and 3**9 for 4294948699, where p ≡ 3 (mod 4).
DEEP_PRIMES = (3221225473, 2013265921, 4293918721, 4294964521, 4294955009, 4294948699)
# Deep odd Sylow subgroups: p-1 holds 3**18, 3**17, 5**13, 7**10 and 11**8 in turn.
ODD_DEEP_PRIMES = (3874204891, 258280327, 2441406251, 1129900997, 1286153287)
# The canonical root beyond a full scan: 27720 = lcm(2..12) divides p-1 for the first three,
# so gcd(t, p-1) = t, and the last two, from DEEP_PRIMES, have gcd(t, p-1) < t for some t.
ROOT_CHOICE_PRIMES = (4294964521, 4294742761, 1025641, 4294955009, 4294948699)

# Strong pseudoprimes to base 2 (the last also to 3, 5 and 7), then composites with no factor
# below 1009 that pass two of the bases 2, 7 and 61: each of the three bases rejects one of them.
PSEUDOPRIMES = (2047, 1373653, 25326001, 3215031751, 2284453, 27509653, 87558127)
# Inputs to the key checks: primes and a balanced semiprime near 2**32, squares and products
# around the small-prime bound 1009, 2**32 - 1, and the pseudoprimes.
PRIME_CASES = (4294967291, 4294967279, 65497 * 65479, 65521**2, 1009**2, 1009 * 1013, 2**32 - 1,
               *PSEUDOPRIMES)
# Composites with no prime factor below 1009, so only Pollard's rho splits them: balanced
# semiprimes near 2**32, 1013 * q for the largest prime q with 1013 * q < 2**32, the squares
# at both ends of the range, then 65167 * 65479 and 1217**2, where the walk for c = 1 ends on
# gcd n and rho retries with c = 2, and last a cube, a square times a prime and three primes,
# which are refused.
ABOVE_SCREEN = (65497 * 65479, 65497 * 65521, 65519 * 65521, 65521 * 65537, 1013 * 4239847,
                1009**2, 65521**2, 65167 * 65479, 1217**2,
                1621**3, 1009**2 * 1013, 1009 * 1013 * 1019)

# The extract_root sweep's keys: the paper's worked keys, then 65497 * 65479 near 2**32, and
# 193 * 307 and 97 * 967, where 2**6 and 2**5 divide p-1.
EXTRACT_KEYS = ((61,), (11, 17), (11, 31), (43,), (13, 31), (65497, 65479), (193, 307), (97, 967))

# (t, p, q) in each divisibility class of t against phi at n near 2**32, q None for a prime.
CLASS_KEYS = (
    (5, 4294967291, None), (7, 4294967279, None), (4, 4294967197, None),  # t exactly
    (3, 4294967291, None), (11, 4294967279, None),  # not divisible
    (2, 4294967197, None),  # t squared
    (5, 65521, 65519), (3, 65497, 65519), (4, 65479, 65447),  # t exactly
    (11, 65521, 65519), (5, 65497, 65519),  # not divisible
    (2, 65519, 65479), (2, 65521, 65519), (12, 65521, 65519),  # t squared
)

# Keys checked against the reference for every t = 2..12: the largest primes below 2**32, a
# balanced semiprime, the deepest 2-Sylow prime, 65537 * 40961 (2**16 and 2**13 divide the
# sides), the deep odd Sylow primes and the semiprimes of CLASS_KEYS.  Last, the largest root
# set: 65497 * 65521 = 4291428937 has 144 roots at t = 12, and only Pollard's rho splits it.
FIXED_KEYS = ((4294967291,), (4294967279,), (65497, 65479), (3221225473,), (65537, 40961),
              *((p,) for p in ODD_DEEP_PRIMES),
              *dict.fromkeys((p, q) for _, p, q in CLASS_KEYS if q), (65497, 65521))

# Every single Sylow depth of the contract: SYLOW_DEPTH_PRIMES[ell][s - 1] is the smallest prime
# p < 2**32 with ell**s || p-1, for each prime ell <= 12 and each s with ell**s < 2**32.  None
# marks a depth that no prime below 2**32 has; those shapes (ell, s) are EMPTY_SYLOW_SHAPES.
SYLOW_DEPTH_PRIMES = {
    2: (3, 5, 41, 17, 97, 193, 641, 257, 7681, 13313, 18433, 12289, 40961, 114689, 163841, 65537,
        1179649, 786433, 5767169, 7340033, 23068673, 104857601, 377487361, 754974721, 167772161,
        469762049, 2013265921, 3489660929, None, 3221225473, None),
    3: (7, 19, 109, 163, 487, 1459, 17497, 52489, 39367, 472393, 4960117, 5314411, 102036673,
        19131877, 57395629, 86093443, 258280327, 3874204891, None, None),
    5: (11, 101, 251, 11251, 37501, 62501, 937501, 9375001, 50781251, 175781251, 2050781251, None,
        2441406251),
    7: (29, 197, 1373, 14407, 168071, 470597, 3294173, 207532837, 242121643, 1129900997, None),
    11: (23, 727, 2663, 673487, 966307, 21258733, 1519999339, 1286153287, None),
}
EMPTY_SYLOW_SHAPES = ((2, 29), (2, 31), (3, 19), (3, 20), (5, 12), (7, 11), (11, 9))
