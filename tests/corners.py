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

# Every joint shape of the contract: the 2- and ell-Sylow depths that one plan holds together,
# for t = 6 and 12 (ell = 3) and for t = 10 (ell = 5).  JOINT_DEPTH_PRIMES[ell][s2 - 1][s - 1] is
# the smallest prime p < 2**32 with 2**s2 || p-1 and ell**s || p-1, for each s2, s >= 1 with
# 2**s2 * ell**s < 2**32.  None marks an empty joint shape, one that no prime below 2**32 has:
# 64 of the 297 shapes for ell = 3 and 43 of the 199 for ell = 5.
JOINT_DEPTH_PRIMES = {
    3: (
        (7, 19, 271, 163, 487, 1459, 21871, 328051, 39367, 1299079, 6022999, 5314411, 175375531,
         105225319, 373071583, 86093443, 258280327, 3874204891, None),
        (13, 37, 109, 1621, 4861, 2917, 358669, 131221, 866053, 2598157, 4960117, 48892573,
         184941469, 19131877, 57395629, 860934421, None, None),
        (313, 73, 2377, 7129, 9721, 64153, 17497, 52489, 1102249, 472393, 49601161, 157306537,
         982102969, 727011289, 573956281, 3788111449, None, None),
        (241, 1009, 433, 1297, 3889, 58321, 384913, 1154737, 9762769, 4723921, 82196209, 8503057,
         280600849, 2219297617, None, None, None),
        (97, 2017, 16417, 2593, 101089, 256609, 2449441, 209953, 629857, 54797473, 96367969,
         187067233, 1785641761, 2601935137, 3214155169, None, None),
        (193, 577, 8641, 88129, 77761, 326593, 139969, 2099521, 28973377, 26453953, 11337409,
         170061121, 102036673, None, None, None),
        (2689, 1153, 3457, 10369, 155521, 466561, 4758913, 839809, 12597121, 219189889, 975017089,
         2789002369, 1428513409, None, None),
        (769, 43777, 172801, 103681, 311041, 2426113, 2799361, 38631169, 5038849, 650011393,
         226748161, 952342273, None, None, None),
        (7681, 23041, 96769, 456193, 2115073, 7091713, 14556673, 16796161, 231787009, 876759553,
         3355872769, None, None, None),
        (15361, 64513, 138241, 414721, 4727809, 746497, 55987201, 194835457, 262020097, 1874451457,
         None, None, None),
        (79873, 18433, 1714177, 1161217, 11446273, 1492993, 31352833, 389670913, 1410877441,
         120932353, None, 1088391169, None),
        (12289, 184321, 1437697, 331777, 995329, 20901889, 116453377, 994332673, None, 1693052929,
         725594113, None),
        (270337, 1253377, 2875393, 16588801, 1990657, 41803777, 662888449, 591224833, 2741133313,
         483729409, None),
        (638977, 147457, 4866049, 6635521, 99532801, 131383297, 179159041, 2042413057, 4192321537,
         None, None),
        (4620289, 6782977, 4423681, 2654209, 55738369, 549421057, 71663617, 1504935937, 3224862721,
         None),
        (1376257, 7667713, 1769473, 5308417, 461832193, 238878721, 1576599553, None, None, None),
        (2752513, 1179649, 24772609, 201719809, 222953473, 1624375297, None, None, None),
        (786433, 16515073, 35389441, 276037633, 63700993, 2102132737, None, None),
        (29884417, 117964801, 14155777, 1231552513, 637009921, None, None, 3439853569),
        (147849217, 330301441, 28311553, 1953497089, None, None, None),
        (69206017, 132120577, 962592769, 169869313, None, None),
        (138412033, 415236097, 113246209, None, None, None),
        (880803841, 377487361, None, None, None),
        (None, 754974721, None, None, 4076863489),
        (1107296257, 2113929217, None, 2717908993),
        (None, None, 1811939329),
        (2013265921, None, None),
        (None, None),
        (None,),
        (3221225473,),
    ),
    5: (
        (11, 151, 251, 11251, 118751, 281251, 1093751, 13281251, 50781251, 175781251, 2050781251,
         None, 2441406251),
        (61, 101, 5501, 22501, 37501, 62501, 937501, 10937501, 132812501, 820312501, 4101562501,
         None),
        (41, 601, 3001, 55001, 325001, 1125001, 11875001, 9375001, 609375001, 3203125001, None,
         None),
        (241, 401, 54001, 70001, 150001, 4750001, 3750001, 18750001, 281250001, 468750001, None,
         None),
        (2081, 18401, 4001, 180001, 700001, 11500001, 32500001, 1337500001, 62500001, 937500001,
         None),
        (5441, 1601, 24001, 280001, 5400001, 33000001, 105000001, 775000001, 1125000001, None,
         None),
        (641, 9601, 16001, 880001, 2800001, 22000001, 30000001, 150000001, None, None),
        (14081, 57601, 96001, 160001, 2400001, 124000001, 1540000001, 700000001, 1500000001,
         2500000001),
        (7681, 115201, 576001, 8640001, 11200001, 24000001, 760000001, 600000001, None),
        (15361, 25601, 384001, 1920001, 28800001, 144000001, 880000001, None, None),
        (133121, 1075201, 11008001, 26880001, 44800001, 288000001, None, None, None),
        (61441, 307201, 5632001, 48640001, 217600001, 1344000001, None, None),
        (40961, 1843201, 3072001, 87040001, 76800001, None, None, None),
        (737281, 3686401, 6144001, 92160001, 460800001, 256000001, None),
        (163841, 9011201, 53248001, 593920001, 307200001, 1536000001, None),
        (3604481, 11468801, 24576001, 40960001, 614400001, None),
        (8519681, 95027201, 16384001, 245760001, 409600001, None),
        (35389441, 85196801, 753664001, 1146880001, None, None),
        (175636481, 117964801, 458752001, 2949120001, None),
        (120586241, 26214401, None, 655360001, None),
        (136314881, 576716801, 786432001, None),
        (230686721, 104857601, 1572864001, None),
        (377487361, None, None),
        (754974721, None, None),
        (167772161, None, 4194304001),
        (None, None),
        (2013265921, None),
        (None,),
        (None,),
    ),
}
