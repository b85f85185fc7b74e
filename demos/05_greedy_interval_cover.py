#!/usr/bin/env python3
"""How much of a window can one residue class per modulus in (N, KN] cover?

Residues for the moduli in (N, 2N] are drawn at random; for each later j
the greedy picks the class mod j swallowing the most of what is still
uncovered, restricted to classes compatible with the already-chosen classes
of j's divisors.  Each step with f admissible classes removes at least a
1/f share, so the uncovered fraction decays past prod(1 - 1/j) ~ 2N/KN.
"""

import math

import coversieve as cs

N, K, window, seed = 4, 50, 10**6, 12345
trace = cs.greedy_cover(N, K, seed=seed, window=window)

print(f"N={N}, K={K}, window={window}, seed={seed}")
print(f"  moduli (4, 8] randomized: {dict(trace.random_residues)}")
print(f"  uncovered after random phase: {trace.uncovered_after_random} "
      f"({trace.uncovered_after_random / window:.4f} of the window)")

print(f"\n  {'j':>4} {'f(j)':>5} {'r(j)':>5} {'uncovered':>10} {'fraction':>10}")
shown = {9, 10, 12, 20, 40, 80, 120, 160, 200}
for step in trace.steps:
    if step.j in shown:
        print(f"  {step.j:>4} {step.f:>5} {step.residue:>5} "
              f"{step.uncovered_after:>10} {step.uncovered_after / window:>10.6f}")

frac = trace.final_uncovered_fraction
print(f"\n  final uncovered fraction: {frac} = {float(frac):.6f}")
print(f"  naive target 1/K = {1 / K:.4f}; "
      f"sharper shape (1/K)exp(-log K / 3N) = {(1 / K) * math.exp(-math.log(K) / (3 * N)):.4f}")
print(f"  per-step contraction verified: {cs.greedy_step_invariant(trace)}")

print("\nTiny exact run (window = full period, every count exact):")
period = cs.lcm_guarded(cs.ModuliSet.from_iterable(range(3, 7)))
small = cs.greedy_cover(2, 3, seed=5, window=period)
for step in small.steps:
    print(f"  j={step.j}: divisors {list(step.divisors)}, f={step.f}, "
          f"chose {step.residue}, uncovered {step.uncovered_after}/{period}")
print(f"  invariant with zero slack: {cs.greedy_step_invariant(small, slack=0)}")
