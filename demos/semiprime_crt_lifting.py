# Walkthrough: root sets mod a semiprime n = p*q by CRT lifting.
#
# Residues mod n split into (residue mod p, residue mod q) pairs, so every
# pairing of a root mod p with a root mod q lifts to a root mod n.  When
# only p ≡ 1 (mod t) the other factor contributes just the root 1 and the
# count stays t; when both primes are ≡ 1 (mod t) the count jumps to t**2.

from powmap import (
    extract_root,
    lift_roots,
    make_params,
    root_set,
    roots_bruteforce,
    run_session,
)
from powmap.modnum import CrtBasis, crt_pair

# --- t roots: n = 11 * 17 = 187, phi = 160 = 5 * 32 (not divisible by 25)
rs_p = roots_bruteforce(5, 11)
rs_q = roots_bruteforce(5, 17)
print("roots mod 11:", rs_p.roots)
print("roots mod 17:", rs_q.roots, "(17 is not ≡ 1 mod 5, so only 1)")

basis = CrtBasis.for_primes(11, 17)
print(f"basis: 17*{basis.q_inv_mod_p} ≡ 1 (mod 11), 11*{basis.p_inv_mod_q} ≡ 1 (mod 17)")
for a in rs_p.roots:
    print(f"  lift({a} mod 11, 1 mod 17) = {crt_pair(a, 1, basis)}")
lifted = lift_roots(rs_p, rs_q)
print("lifted root set mod 187:", lifted.roots)
assert lifted.roots == roots_bruteforce(5, 187).roots

tr = run_session(make_params(5, 11, 17), 3)
print("session m=3:", tr.packet_line.strip(), "-> decoded", tr.decoded)
assert tr.matched

# --- t**2 roots: n = 31 * 11 = 341, phi = 300 (divisible by 25)
rs341 = root_set(5, 31, 11)
print(f"\nroot count mod 341: {len(rs341.roots)} (5 roots mod 31 x 5 roots mod 11)")
print("roots mod 341:", rs341.roots)

params = make_params(5, 31, 11)
tr = run_session(params, 51)
print("session m=51:", tr.packet_line.strip(), "-> decoded", tr.decoded)
assert tr.matched

# The receiver's extracted root is one of 25 equally valid fifth roots of
# the cipher; the candidate set is the same whichever root comes out.
r = extract_root(87, params)
print(f"one fifth root of 87 mod 341: {r} (check: {r}^5 mod 341 = {pow(r, 5, 341)})")
