#!/usr/bin/env python3
"""Splitting a system by smooth parts of the moduli.

Factoring each modulus into its Q-smooth part times a rough cofactor slices
a system C into subsystems C_h indexed modulo M = lcm of the smooth parts,
with the exact identity delta(C) = (1/M) sum_h delta(C_h).  The payoff:
pair-correction bounds applied per subsystem certify delta(C) > 0 for
systems whose full period could never be scanned.
"""

import random

import coversieve as cs

C = cs.ResidueSystem.from_pairs([(2, 0), (3, 1), (6, 5)])
print(f"C = {C}, Q = 2")
dec = cs.decompose(C, 2)
print(f"  M = {dec.M}")
for g in dec.groups:
    print(f"  h = {g.representative}: C_h = {g.subsystem} (x{g.count})")
ident = cs.decomposition_identity(C, 2)
print(f"  identity: delta(C) = {ident.lhs} = average of subsystem deltas = {ident.rhs}")

print(f"\n  average beta over subsystems: {cs.averaged_beta(C, 2)}")
aa = cs.averaged_alpha_floor(C, 2)
print(f"  average alpha {aa.avg_alpha} vs floor alpha(C)^((1+1/Q)/delta(C')) "
      f"= {aa.floor:.4f}: holds = {aa.holds}")
cert = cs.positivity_certificate(C, 2)
print(f"  positivity certificate: delta(C) >= {cert.lower_bound} ({cert.conclusion})")

print("\nNow a system nobody can scan: every modulus in (100, 200], random residues.")
rnd = random.Random(1)
big = cs.ResidueSystem.from_pairs((n, rnd.randrange(n)) for n in range(101, 201))
try:
    # a one-period scan, the only source of the least uncovered integer,
    # stops at 10^9 cells; exact_density would still reach delta itself
    # past that guard through CRT splits, but with no witness
    cs.lcm_guarded((c.modulus for c in big), 10**9)
except cs.GuardExceeded as exc:
    print(f"  direct scan refused: {exc.detail}")
for Q in (2, 3, 5):
    cert = cs.positivity_certificate(big, Q)
    print(f"  Q = {Q}: M = {cert.components['M']:>7}, "
          f"{cert.components['pattern_count']:>4} distinct subsystems, "
          f"certificate {float(cert.lower_bound):.6f} ({cert.conclusion})")

print("\nSoundness spot-check on a scannable subfamily:")
sub = cs.ResidueSystem.from_pairs(
    (n, r) for n, r in big.pairs() if n in (108, 120, 128, 144, 160, 180, 192, 200)
)
cert = cs.positivity_certificate(sub, 3)
actual = cs.exact_density(sub).value
print(f"  certificate {float(cert.lower_bound):.6f} <= exact delta {float(actual):.6f}")
