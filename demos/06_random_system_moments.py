#!/usr/bin/env python3
"""Moments of the uncovered density over random residue choices.

Fix the moduli, draw each residue uniformly: the mean uncovered density is
exactly prod(1 - 1/n), and for distinct moduli >= 3 the second moment is a
subset sum that skips the prod(n)-fold enumeration entirely.  Enumeration,
the closed formula, and seeded sampling are played against each other, and
the variance is compared to the shape alpha^2 log N / N^2.
"""

import coversieve as cs

T = cs.ModuliSet.from_iterable([2, 4])
rep = cs.enumerate_moments(T)
print(f"T = {{2, 4}}: all {T.product()} systems enumerated")
print(f"  mean {rep.mean} (= product formula {cs.alpha(T)}), "
      f"second moment {rep.second_moment}, variance {rep.variance}")

print("\nPair-correlation formula vs enumeration (exact equality):")
for mods in ((3, 4), (3, 9), (4, 6), (4, 6, 9), (5, 10, 15)):
    T = cs.ModuliSet.from_iterable(mods)
    pair = cs.pair_formula_moments(T)
    enum = cs.enumerate_moments(T)
    tag = "==" if pair.second_moment == enum.second_moment else "!="
    print(f"  {str(mods):>12}: E[delta^2] = {pair.second_moment} {tag} {enum.second_moment}, "
          f"variance {pair.variance}")

print("\nSeeded sampling where enumeration is hopeless:")
mods = [33, 35, 36, 39, 40, 42, 44, 45, 48, 52, 55, 56, 60]
T = cs.ModuliSet.from_iterable(mods)
exact_mean = cs.alpha(T)
print(f"  13 moduli in (30, 60], W(T) = {T.product():.3e} systems")
for trials in (250, 1000, 4000):
    rep = cs.sample_moments(T, trials, seed=6)
    err = abs(float(rep.mean - exact_mean))
    print(f"  {trials:>5} trials: mean {float(rep.mean):.6f} "
          f"(exact {float(exact_mean):.6f}, off by {err:.6f}, "
          f"std err {rep.std_error:.6f})")

print("\nVariance against the shape alpha^2 log N / N^2 (N = min modulus):")
family = [cs.ModuliSet.from_iterable(range(N + 1, 2 * N + 1)) for N in range(3, 9)]
scan = cs.variance_bound_scan(family)
print(f"  {'T':>12} {'variance':>14} {'shape':>12} {'ratio':>8}")
for row in scan.rows:
    span = f"({min(row.T.moduli) - 1},{max(row.T.moduli)}]"
    print(f"  {span:>12} {float(row.variance):>14.3e} "
          f"{row.bound_shape:>12.3e} {row.ratio:>8.3f}")
print(f"  max ratio over the family: {scan.max_ratio:.3f}")
