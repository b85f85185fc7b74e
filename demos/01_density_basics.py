#!/usr/bin/env python3
"""Exact uncovered densities, witnesses, and extremal residue choices.

Starts from the classic five congruences covering every integer, then pokes
at what happens when classes are removed, what the best and worst residue
choices for a fixed modulus set look like, and how exact covers are
recognized without scanning anything.
"""

import coversieve as cs

opening = cs.ResidueSystem.from_pairs([(2, 0), (3, 0), (4, 1), (6, 1), (12, 11)])

print("The system", opening)
rep = cs.exact_density(opening)
print(f"  covers the integers: delta = {rep.value} over period {rep.period}")

trimmed = cs.ResidueSystem(opening.classes[:-1])
rep = cs.exact_density(trimmed)
print(f"\nDrop the last class {opening.classes[-1]}:")
print(f"  delta = {rep.value}, first uncovered integer = {rep.witness}")

print("\nReciprocal sum and disjointness decide exact covering with no scan:")
for pairs in ([(2, 0), (2, 1)], [(2, 0), (4, 1), (4, 3)], [(2, 0), (3, 0), (6, 5)]):
    system = cs.ResidueSystem.from_pairs(pairs)
    check = cs.is_exact_cover(system)
    verdict = "exact cover" if check else f"not exact ({check.reason})"
    print(f"  {system}: sum 1/n = {check.reciprocal_sum}, {verdict}")

S = cs.ModuliSet.from_iterable([2, 3, 4, 6, 12])
print(f"\nModuli {list(S.moduli)}: how little and how much can stay uncovered?")
worst = cs.delta_plus(S)
best = cs.delta_minus(S)
print(f"  delta+ (residue 0 everywhere) = {worst}")
print(f"  delta- (optimal choices)      = {best.value}")
print(f"  optimal witness: {best.witness}")

S = cs.ModuliSet.from_iterable([4, 6])
best = cs.delta_minus(S)
greedy = cs.delta_minus(S, mode="greedy")
print(f"\nModuli {{4, 6}}: delta- = {best.value} (exhaustive), "
      f"greedy peeling reaches {greedy.value}, "
      f"product bound {cs.alpha(S)}")

print("\nFor pairwise coprime moduli the density is forced:")
coprime = cs.ResidueSystem.from_pairs([(2, 0), (3, 1), (5, 2), (7, 3)])
print(f"  {coprime}: product {cs.alpha(coprime)} "
      f"= scan {cs.exact_density(coprime).value}")
