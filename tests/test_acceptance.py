"""Acceptance suite: one test per criterion, each timed against its budget.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion PASS lines and reported diagnostics).  Every numeric check is
exact unless the quantity itself is inherently floating.
"""

import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

import coversieve as cs
from coversieve.density import DEFAULT_CELL_GUARD

from conftest import exact_cover_exists, random_system, unit_sum_distinct_sets

OPENING = [(2, 0), (3, 0), (4, 1), (6, 1), (12, 11)]


def report(k, elapsed, budget, detail=""):
    print(f"ACCEPTANCE {k}: PASS ({elapsed:.3f}s < {budget}s) {detail}")


def test_criterion_01_opening_system_densities():
    opening = cs.ResidueSystem.from_pairs(OPENING)
    trimmed = cs.ResidueSystem(opening.classes[:-1])

    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        full = cs.exact_density(opening)
        part = cs.exact_density(trimmed)
        best = min(best, time.perf_counter() - t0)
    assert full.value == 0 and full.period == 12
    assert part.value == Fraction(1, 12) and part.period == 12
    assert best < 1e-3
    report(1, best, 0.001, f"delta=0 and 1/12 on period 12")


def test_criterion_02_pair_correction_bounds_hold():
    rnd = random.Random(2024)
    t0 = time.perf_counter()
    violations = 0
    for _ in range(10**4):
        system = random_system(rnd, max_classes=6)
        delta = cs.exact_density(system).value
        plain = cs.pair_correction_bound(system).lower_bound
        refined = cs.pair_correction_bound(system, refined=True).lower_bound
        if delta < plain or delta < refined or refined < plain:
            violations += 1
    elapsed = time.perf_counter() - t0
    assert violations == 0
    assert elapsed < 60
    report(2, elapsed, 60, "10000 systems, zero violations")


def test_criterion_03_decomposition_identity_exact():
    rnd = random.Random(2025)
    t0 = time.perf_counter()
    checked = 0
    for _ in range(10**3):
        system = random_system(rnd, max_classes=5, allow_unit=True)
        for Q in (2, 3, 5, 7):
            rep = cs.decomposition_identity(system, Q)
            assert rep.equal, f"{system} Q={Q}"
            checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == 4000
    assert elapsed < 60
    report(3, elapsed, 60, "4000 identities, zero tolerance")


def test_criterion_04_averaged_alpha_floor():
    t0 = time.perf_counter()
    worked = cs.averaged_alpha_floor(
        cs.ResidueSystem.from_pairs([(2, 0), (3, 1), (6, 5)]), 2
    )
    assert worked.avg_alpha == Fraction(2, 9)
    assert worked.floor == pytest.approx(0.0214, abs=5e-5)
    assert worked.holds

    rnd = random.Random(2026)
    checked = 0
    while checked < 300:
        system = random_system(rnd, max_classes=5)
        Q = rnd.choice([2, 3, 5, 7])
        try:
            res = cs.averaged_alpha_floor(system, Q)
        except cs.SmoothCoverError:
            continue
        assert res.holds, f"{system} Q={Q}"
        checked += 1
    elapsed = time.perf_counter() - t0
    report(4, elapsed, 60, "worked instance + 300 randomized, all hold")


def test_criterion_05_exact_cover_construction_and_block_supply():
    t0 = time.perf_counter()
    plan1 = cs.exact_cover_construct(1)
    assert plan1.system.pairs() == [(2, 0), (2, 1)]

    plan2 = cs.exact_cover_construct(2)
    assert len(plan2.system) == 10
    assert {c.modulus for c in plan2.system} == {10}

    plan3 = cs.exact_cover_construct(3)
    assert len(plan3.system) == 294
    assert plan3.system.reciprocal_sum() == 1

    for plan in (plan1, plan2, plan3):
        assert bool(cs.is_exact_cover(plan.system))
        assert min(c.modulus for c in plan.system) > plan.min_modulus_bound
        assert plan.system.multiplicity() <= plan.multiplicity_bound

    for j in range(1, 9):
        res = cs.block_supply_check(j)
        assert res.holds, f"block supply fails at j={j}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10
    report(5, elapsed, 10, "J=1,2,3 verified; block supply holds for j=1..8")


def _all_multisets_with_product_at_most(bound):
    out = []

    def rec(start, prod, cur):
        for n in range(start, bound // prod + 1):
            cur.append(n)
            out.append(tuple(cur))
            rec(n, prod * n, cur)
            cur.pop()

    rec(2, 1, [])
    return out


def test_criterion_06_mean_identity_over_small_w():
    t0 = time.perf_counter()
    frozen = cs.enumerate_moments(cs.ModuliSet.from_iterable([2, 4]))
    assert frozen.mean == Fraction(3, 8)
    assert frozen.variance == Fraction(1, 64)

    checked = 0
    for mods in _all_multisets_with_product_at_most(500):
        T = cs.ModuliSet.from_iterable(mods)
        assert cs.enumerate_moments(T).mean == cs.alpha(T), mods
        checked += 1

    rnd = random.Random(2027)
    pool = [d for d in range(2, 61)]
    for _ in range(40):
        mods = []
        prod = 1
        while True:
            n = rnd.choice(pool)
            if prod * n > 2 * 10**4 or len(mods) == 5:
                break
            mods.append(n)
            prod *= n
        if not mods:
            continue
        T = cs.ModuliSet.from_iterable(mods)
        assert cs.enumerate_moments(T, guard_w=10**5).mean == cs.alpha(T)
        checked += 1

    divisor_pool = [d for d in (2, 3, 4, 5, 6, 8, 10, 12, 15, 20, 24, 30, 40, 60)]
    for _ in range(10):
        mods = [rnd.choice(divisor_pool) for _ in range(4)]
        if math.prod(mods) > 10**5:
            continue
        T = cs.ModuliSet.from_iterable(mods)
        assert cs.enumerate_moments(T, guard_w=10**5).mean == cs.alpha(T)
        checked += 1

    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    report(6, elapsed, 60, f"{checked} multisets, enumerated mean = product formula")


def test_criterion_07_pair_formula_equals_enumeration():
    t0 = time.perf_counter()
    instances = [
        (3, 4), (3, 9), (4, 6), (3, 4, 5), (4, 6, 9), (3, 6, 10),
        (5, 10, 15), (3, 5, 7), (4, 8), (6, 9),
    ]
    rnd = random.Random(2028)
    while len(instances) < 24:
        mods = tuple(sorted(rnd.sample(range(3, 14), rnd.randint(2, 4))))
        if math.prod(mods) <= 10**4 and mods not in instances:
            instances.append(mods)

    for mods in instances:
        T = cs.ModuliSet.from_iterable(mods)
        pair = cs.pair_formula_moments(T)
        enum = cs.enumerate_moments(T, guard_w=10**5)
        assert pair.second_moment == enum.second_moment, mods
        assert pair.variance == enum.variance, mods
    elapsed = time.perf_counter() - t0
    report(7, elapsed, 60, f"{len(instances)} instances, exact agreement")


def test_criterion_08_no_exact_cover_with_distinct_moduli():
    t0 = time.perf_counter()
    candidates = unit_sum_distinct_sets(360)
    assert len(candidates) > 1000  # the search space is genuinely nontrivial
    for mods in candidates:
        assert all(n > 1 for n in mods)
        assert not exact_cover_exists(mods), f"exact cover found on {mods}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    report(8, elapsed, 60, f"{len(candidates)} unit-sum candidate sets, none cover exactly")


def test_criterion_09_smooth_part_witness_extension():
    t0 = time.perf_counter()
    worked = cs.extend_witness(
        cs.ResidueSystem.from_pairs([(7, 3), (5, 2), (6, 1)]), 10, 1
    )
    assert worked == 0

    rnd = random.Random(2029)
    produced = 0
    while produced < 10**3:
        B = rnd.randint(8, 60)
        s = rnd.randint(1, 2)
        counts = Counter()
        pairs = []
        for _ in range(rnd.randint(1, 7)):
            n = rnd.randint(2, B)
            if counts[n] < s:
                counts[n] += 1
                pairs.append((n, rnd.randrange(n)))
        system = cs.ResidueSystem.from_pairs(pairs)
        try:
            A = cs.extend_witness(system, B, s)
        except cs.SmoothCoverError:
            continue
        assert all(A % n != r for n, r in system.pairs())
        produced += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10
    report(9, elapsed, 10, "worked instance A=0; 1000 randomized witnesses verified")


def test_criterion_10_greedy_interval_cover_at_desk_scale():
    # The asymptotic statement needs K beyond any effective threshold, so this
    # pins concrete parameters instead: N=4, K=50, window 1e7, seed 12345.
    t0 = time.perf_counter()
    trace = cs.greedy_cover(4, 50, seed=12345, window=10**7)
    frac = trace.final_uncovered_fraction
    assert frac <= Fraction(1, 50)
    assert cs.greedy_step_invariant(trace, slack=1)
    stronger = (1 / 50) * math.exp(-math.log(50) / 12)
    met = float(frac) <= stronger
    elapsed = time.perf_counter() - t0
    assert elapsed < 120
    report(
        10, elapsed, 120,
        f"uncovered fraction {float(frac):.6f} <= 1/K; "
        f"stronger bound {stronger:.4f} {'met' if met else 'not met'} (reported only)",
    )


def test_criterion_11_certificates_where_scanning_is_infeasible():
    t0 = time.perf_counter()
    rnd = random.Random(2030)
    Q = 3
    for N in (25, 50, 100):
        system = cs.ResidueSystem.from_pairs(
            (n, rnd.randrange(n)) for n in range(N + 1, 2 * N + 1)
        )
        assert min(c.modulus for c in system.classes) >= 25
        # the full period is out of scan range
        assert cs.lcm_guarded(c.modulus for c in system.classes) > DEFAULT_CELL_GUARD
        cert = cs.positivity_certificate(system, Q)
        assert cert.conclusion == "positive", f"N={N}"
        assert cert.lower_bound > 0
        # the CRT splits still reach the exact density here
        assert cert.lower_bound <= cs.exact_density(system).value

    # spot-validate soundness on subfamilies with scannable periods
    spots = {
        25: [27, 30, 36, 40, 45, 48],
        50: [54, 60, 72, 80, 90, 96, 100],
        100: [108, 120, 128, 144, 160, 180, 192, 200],
    }
    for N, mods in spots.items():
        sub = cs.ResidueSystem.from_pairs((n, rnd.randrange(n)) for n in mods)
        cert = cs.positivity_certificate(sub, Q)
        delta = cs.exact_density(sub).value
        assert cert.lower_bound <= delta
    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    report(11, elapsed, 300, "positive certificates at N=25,50,100; spot-validated")


def test_criterion_12_prime_product_divisor_statistics():
    t0 = time.perf_counter()
    st = cs.prime_product_moduli(100, full_divisor_set=True)
    assert len(st.primes) == 13

    direct = Fraction(1)
    for p in st.primes:
        direct *= Fraction(p + 1, p)
    assert st.sigma_ratio == direct
    assert all(st.threshold < p <= 100 for p in st.primes)

    # the independence product dwarfs the pair-correction budget
    assert st.alpha_all_divisors > float(st.beta_upper_bound)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10
    report(
        12, elapsed, 10,
        f"13 primes; alpha {st.alpha_all_divisors:.4f} >> beta bound "
        f"{float(st.beta_upper_bound):.6f}",
    )
