import functools
import itertools
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import gcd, lcm, prod

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import coversieve as cs
from coversieve import density, walk
from coversieve.core import GuardExceeded

from conftest import (
    divisor_system,
    enumerate_residue_choices,
    exact_cover_exists,
    full_walk_delta_minus,
    inline_components,
    leaf_recorder,
    naive_ball_groups,
    naive_density,
    naive_greedy_peel,
    naive_is_exact_cover,
    naive_witness,
    period_scan,
    random_system,
    record_walks,
    subset_delta_plus,
    unit_sum_distinct_sets,
    walk_widths,
)

OPENING = cs.ResidueSystem.from_pairs([(2, 0), (3, 0), (4, 1), (6, 1), (12, 11)])


class TestExactDensity:
    def test_opening_system_covers(self):
        rep = cs.exact_density(OPENING)
        assert rep.value == 0
        assert rep.period == 12
        assert rep.uncovered_count == 0
        assert rep.method == "lcm-scan"

    def test_single_class(self):
        assert cs.exact_density(cs.ResidueSystem.from_pairs([(2, 0)])).value == Fraction(1, 2)

    def test_three_class_scan(self):
        rep = cs.exact_density(cs.ResidueSystem.from_pairs([(2, 0), (4, 1), (3, 0)]))
        assert rep.value == Fraction(1, 6)
        assert (rep.period, rep.uncovered_count) == (12, 2)

    def test_empty_system(self):
        rep = cs.exact_density(cs.ResidueSystem(()))
        assert rep.value == 1 and rep.period == 1

    def test_modulus_one_covers_everything(self):
        assert cs.exact_density(cs.ResidueSystem.from_pairs([(1, 0), (7, 3)])).value == 0

    def test_guard_signal(self):
        # the CRT splits get the guard as their budget and refuse too, so
        # the period guard's error is the one raised
        with pytest.raises(GuardExceeded) as info:
            cs.exact_density(OPENING, guard=5)
        assert (info.value.detail, info.value.estimate) == (
            "scan period exceeds guard of 5 cells", 6)

    def test_matches_naive_scan(self):
        rnd = random.Random(11)
        for _ in range(150):
            system = random_system(rnd, max_classes=5, allow_unit=True)
            assert cs.exact_density(system).value == naive_density(system)

    def test_segmented_matches_coprime_product(self):
        # period 9240 * 9239 spans many segments; the coprime product is an
        # independent oracle for the multi-block scan
        system = cs.ResidueSystem.from_pairs([(9240, 1), (9239, 5)])
        rep = cs.exact_density(system)
        assert rep.period == 9240 * 9239
        assert rep.value == Fraction(9239, 9240) * Fraction(9238, 9239)

    def test_translation_invariance(self):
        rnd = random.Random(12)
        for _ in range(60):
            system = random_system(rnd, max_classes=5)
            t = rnd.randint(-50, 50)
            shifted = cs.ResidueSystem.from_pairs((n, r + t) for n, r in system.pairs())
            assert cs.exact_density(system).value == cs.exact_density(shifted).value


class TestDensityCoprime:
    """For pairwise coprime moduli the product alpha is the exact density."""

    def test_examples(self):
        assert cs.alpha(cs.ResidueSystem.from_pairs([(2, 0), (3, 1)])) == Fraction(1, 3)
        assert cs.alpha(cs.ResidueSystem.from_pairs([(5, 4)])) == Fraction(4, 5)

    def test_agrees_with_scan(self):
        system = cs.ResidueSystem.from_pairs([(2, 0), (3, 1), (5, 2), (7, 3)])
        product = cs.alpha(system)
        assert product == Fraction(8, 35)
        assert product == cs.exact_density(system).value

    def test_random_coprime_systems(self):
        rnd = random.Random(13)
        pool = [4, 9, 25, 7, 11, 13, 8, 27]
        for _ in range(80):
            mods = rnd.sample(pool, rnd.randint(1, 4))
            while any(
                gcd(a, b) > 1 for i, a in enumerate(mods) for b in mods[i + 1:]
            ):
                mods = rnd.sample(pool, rnd.randint(1, 4))
            system = cs.ResidueSystem.from_pairs((n, rnd.randrange(n)) for n in mods)
            assert cs.alpha(system) == cs.exact_density(system).value


class TestIsExactCover:
    def test_two_halves(self):
        assert bool(cs.is_exact_cover(cs.ResidueSystem.from_pairs([(2, 0), (2, 1)])))

    def test_2_4_4(self):
        assert bool(cs.is_exact_cover(cs.ResidueSystem.from_pairs([(2, 0), (4, 1), (4, 3)])))

    def test_2_3_6_never_exact(self):
        # classes mod 2 and mod 3 always intersect, whatever the residues
        for r2 in range(2):
            for r3 in range(3):
                for r6 in range(6):
                    check = cs.is_exact_cover(
                        cs.ResidueSystem.from_pairs([(2, r2), (3, r3), (6, r6)])
                    )
                    assert not check
                    assert check.failing_pair is not None

    def test_reciprocal_deficit_reported(self):
        check = cs.is_exact_cover(cs.ResidueSystem.from_pairs([(2, 0), (3, 1)]))
        assert not check and check.reciprocal_sum == Fraction(5, 6)

    def test_repeated_class_rejected(self):
        check = cs.is_exact_cover(cs.ResidueSystem.from_pairs([(2, 0), (2, 0)]))
        assert not check and check.reason == "repeated class"

    def test_equivalent_to_scan(self):
        rnd = random.Random(15)
        for _ in range(200):
            system = random_system(rnd, max_classes=5)
            expected = (
                cs.exact_density(system).value == 0
                and system.reciprocal_sum() == 1
            )
            assert bool(cs.is_exact_cover(system)) == expected

    def test_scan_agreement_on_exact_covers(self):
        for pairs in (
            [(2, 0), (3, 0), (4, 1), (6, 1), (12, 11)],  # covering but overlapping
            [(2, 1), (4, 0), (8, 2), (8, 6)],
            [(3, 0), (3, 1), (3, 2)],
        ):
            system = cs.ResidueSystem.from_pairs(pairs)
            expected = (
                cs.exact_density(system).value == 0
                and system.reciprocal_sum() == 1
            )
            assert bool(cs.is_exact_cover(system)) == expected


def _split_cover(rnd: random.Random) -> list[tuple[int, int]]:
    """An exact cover by repeated splitting: (n, r) becomes the k classes
    (kn, r + n*i), i < k, which partition it."""
    pairs = [(1, 0)]
    for _ in range(rnd.randint(1, 6)):
        n, r = pairs.pop(rnd.randrange(len(pairs)))
        k = rnd.choice([2, 2, 3, 5])
        pairs += [(k * n, r + n * i) for i in range(k)]
    rnd.shuffle(pairs)
    return pairs


def _oracle_systems():
    """Exact covers, the same with one residue moved or one class repeated,
    and seeded random systems whose reciprocal sum is 1."""
    rnd = random.Random(24)
    for J in (1, 2, 3):
        pairs = cs.exact_cover_construct(J).system.pairs()
        yield f"J{J}", pairs
        k = rnd.randrange(len(pairs))
        n, r = pairs[k]
        used = {s for m, s in pairs if m == n}
        free = next((s for s in range(n) if s not in used), None)
        if free is not None:  # J <= 2 uses every residue of one modulus
            yield f"J{J}-moved", pairs[:k] + [(n, free)] + pairs[k + 1:]
        yield f"J{J}-appended", pairs + [pairs[k]]
        # a repeated class in place of another of the same modulus keeps the sum 1
        other = next(i for i, (m, _) in enumerate(pairs) if m == n and i != k)
        yield f"J{J}-repeated", pairs[:other] + [(n, r)] + pairs[other + 1:]
    # two classes mod 4 meet (6, 2) mod gcd 2: the first of them is reported
    yield "evens-odds-moved", [(4, 0), (4, 2), (6, 1), (6, 3), (6, 2)]
    for i in range(50):
        pairs = _split_cover(rnd)
        if i % 2:
            k = rnd.randrange(len(pairs))
            n, _ = pairs[k]
            pairs[k] = (n, rnd.randrange(n))
        yield f"random-{i}", pairs


class TestIsExactCoverAgainstOracle:
    """The per-(modulus, gcd) residue sets against the per-pair dict loop:
    same verdict, reciprocal sum, reason and reported pair."""

    @pytest.mark.parametrize("name, pairs", list(_oracle_systems()))
    def test_check_identical(self, name, pairs):
        system = cs.ResidueSystem.from_pairs(pairs)
        assert cs.is_exact_cover(system) == naive_is_exact_cover(system)

    def test_oracle_cases_reach_every_outcome(self):
        outcomes = Counter()
        for _, pairs in _oracle_systems():
            reason = naive_is_exact_cover(cs.ResidueSystem.from_pairs(pairs)).reason
            outcomes[reason and reason.split(" is ")[0]] += 1
        assert set(outcomes) == {None, "classes intersect", "repeated class", "density sum"}
        assert min(outcomes[None], outcomes["classes intersect"]) >= 10


@functools.cache
def _plan_pairs(J: int) -> tuple[tuple[int, int], ...]:
    return tuple(cs.exact_cover_construct(J).system.pairs())


def _mutated_plans():
    """The J = 1..4 constructions, and the J = 3 and J = 4 ones with one
    residue shifted by 1 or moved to a residue its modulus leaves free, one
    class duplicated, one class dropped, or the first class moved to the
    end."""
    for J in (1, 2, 3, 4):
        yield f"J{J}", J, None
    for J in (3, 4):
        for mutation in ("shifted", "moved", "duplicated", "dropped", "first-to-end"):
            yield f"J{J}-{mutation}", J, mutation


def _mutate(pairs: list[tuple[int, int]], mutation: str | None, k: int) -> list[tuple[int, int]]:
    n, r = pairs[k]
    if mutation == "shifted":
        return pairs[:k] + [(n, r + 1)] + pairs[k + 1:]
    if mutation == "moved":
        used = {s for m, s in pairs if m == n}
        return pairs[:k] + [(n, next(s for s in range(n) if s not in used))] + pairs[k + 1:]
    if mutation == "duplicated":
        return pairs[:k + 1] + [(n, r)] + pairs[k + 1:]
    if mutation == "dropped":
        return pairs[:k] + pairs[k + 1:]
    if mutation == "first-to-end":
        return pairs[1:] + pairs[:1]
    return pairs


def _mutated_system(name: str, J: int, mutation: str | None) -> cs.ResidueSystem:
    pairs = list(_plan_pairs(J))
    k = random.Random(name).randrange(len(pairs))
    return cs.ResidueSystem.from_pairs(_mutate(pairs, mutation, k))


class TestIsExactCoverOnColumns:
    """is_exact_cover on the columns of the constructed systems, exact and
    mutated, against the per-pair dict loop: same verdict, reciprocal sum,
    reason and reported pair."""

    @pytest.mark.parametrize("name, J, mutation", list(_mutated_plans()),
                             ids=[name for name, _, _ in _mutated_plans()])
    def test_matches_oracle(self, name, J, mutation):
        system = _mutated_system(name, J, mutation)
        check, expected = cs.is_exact_cover(system), naive_is_exact_cover(system)
        assert (check.exact, check.reciprocal_sum, check.reason) == (
            expected.exact, expected.reciprocal_sum, expected.reason)
        assert check.failing_pair == expected.failing_pair
        assert bool(check) == (mutation in (None, "first-to-end"))

    def test_mutations_reach_every_outcome(self):
        reasons = Counter()
        for case in _mutated_plans():
            check = cs.is_exact_cover(_mutated_system(*case))
            reasons[check.reason and check.reason.split(" is ")[0]] += 1
            assert (check.failing_pair is None) == (check.reason is None
                                                     or check.reason.startswith("density"))
        assert reasons == {None: 6, "density sum": 4, "repeated class": 2, "classes intersect": 2}


class TestDeltaPlus:
    def test_examples(self):
        assert cs.delta_plus(cs.ModuliSet.from_iterable([2, 3])) == Fraction(1, 3)
        assert cs.delta_plus(cs.ModuliSet.from_iterable([4, 6])) == Fraction(2, 3)
        assert cs.delta_plus(cs.ModuliSet.from_iterable([2])) == Fraction(1, 2)

    def test_matches_zero_residue_scan(self):
        rnd = random.Random(16)
        for _ in range(80):
            mods = sorted(rnd.sample(range(2, 40), rnd.randint(1, 6)))
            S = cs.ModuliSet.from_iterable(mods)
            scan = cs.exact_density(cs.ResidueSystem.from_pairs((n, 0) for n in mods))
            assert cs.delta_plus(S) == scan.value

    def test_sieve_fallback_for_many_moduli(self):
        # 28 pairwise products of coprime prime powers: nothing dominated,
        # 2^28 subsets and a period of 3.2e10, which the CRT splits reduce.
        # Multiples of some product = divisible by >= 2 of the prime powers,
        # whose probabilities are independent, giving a closed-form oracle.
        q = [16, 9, 5, 7, 11, 13, 17, 19]
        mods = [q[i] * q[j] for i in range(len(q)) for j in range(i + 1, len(q))]
        none_hit = Fraction(1)
        for qi in q:
            none_hit *= Fraction(qi - 1, qi)
        one_hit = sum(
            (none_hit / Fraction(qi - 1, qi) * Fraction(1, qi) for qi in q),
            Fraction(0),
        )
        assert cs.delta_plus(cs.ModuliSet.from_iterable(mods)) == none_hit + one_hit

    def test_matches_subset_walk(self):
        rnd = random.Random(17)
        for _ in range(100):
            mods = rnd.sample(range(2, 300), rnd.randint(0, 14))
            if rnd.random() < 0.1:
                mods.append(1)
            assert cs.delta_plus(cs.ModuliSet.from_iterable(mods)) == subset_delta_plus(mods)

    def test_guard_bounds_the_work(self):
        S = cs.ModuliSet.from_iterable(range(30, 46))
        with pytest.raises(GuardExceeded, match="density work"):
            cs.delta_plus(S, guard=10)
        assert cs.delta_plus(S) == subset_delta_plus(S.moduli)

    @pytest.mark.parametrize("mods", [[2**21], [2000003], [2**21 * 3, 2**21 * 5]])
    def test_moduli_past_the_scan_leaf(self, mods):
        # one-class components take 1 - 1/n; a shared 2^21 splits without
        # a table over its 2^21 residues
        assert cs.delta_plus(cs.ModuliSet.from_iterable(mods)) == subset_delta_plus(mods)

    def test_delta_plus_is_max_over_choices(self):
        S = cs.ModuliSet.from_iterable([4, 6])
        best = max(
            cs.exact_density(system).value
            for system in enumerate_residue_choices(S)
        )
        assert cs.delta_plus(S) == best

    def test_requires_distinct(self):
        with pytest.raises(ValueError):
            cs.delta_plus(cs.ModuliSet.from_iterable([4, 4]))


# the largest e with p^e <= 5^5 for each p drawn
_MAX_DEPTH = {2: 11, 3: 7, 5: 5, 7: 4}


@st.composite
def _pinned_balls(draw):
    """(q, p, pinned) with q = p^e <= 5^5 and up to 12 balls (g, s, i);
    half the residues are read off a few shared x, so that balls nest."""
    p = draw(st.sampled_from(sorted(_MAX_DEPTH)))
    e = draw(st.integers(0, _MAX_DEPTH[p]))
    q = p**e
    shared = draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=3))
    pinned = []
    for i in range(draw(st.integers(0, 12))):
        g = p ** draw(st.integers(0, e))
        s = draw(st.one_of(st.sampled_from(shared).map(lambda x: x % g),
                           st.integers(0, g - 1)))
        pinned.append((g, s, i))
    return q, p, pinned


def _sorted_items(groups):
    return [(cells, sorted(items), least) for cells, items, least in groups]


class TestBallGroups:
    """density._ball_groups against a per-x grouping of [0, q)."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_pinned_balls())
    def test_matches_per_x_grouping(self, drawn):
        q, p, pinned = drawn
        assert _sorted_items(density._ball_groups(pinned, q, p)) == naive_ball_groups(pinned, q)

    def test_chain_puts_the_root_past_its_children(self):
        # 2^(j-1) - 1 (mod 2^j) are disjoint and leave only x = -1 (mod 2^12)
        # to the root, far past its first child
        q = 2**12
        pinned = [(2**j, 2 ** (j - 1) - 1, j) for j in range(1, 13)]
        groups = density._ball_groups(pinned, q, 2)
        assert _sorted_items(groups) == naive_ball_groups(pinned, q)
        assert [least for _, _, least in groups] == [2**j - 1 for j in range(13)]
        assert groups[-1] == (1, [], q - 1)

    def test_repeated_balls_keep_every_item(self):
        pinned = [(9, 4, "a"), (3, 1, "b"), (9, 4, "c"), (3, 1, "d"), (1, 0, "e")]
        groups = density._ball_groups(pinned, 27, 3)
        assert _sorted_items(groups) == naive_ball_groups(pinned, 27)
        assert groups[1] == (6, ["e", "b", "d"], 1)
        assert groups[2] == (3, ["e", "b", "d", "a", "c"], 4)

    def test_root_alone(self):
        assert density._ball_groups([], 3**5, 3) == [(3**5, [], 0)]
        assert density._ball_groups([(1, 0, "x")], 1, 5) == [(1, ["x"], 0)]

    def test_full_depth_balls(self):
        # points of [0, q) pinned as balls of depth e; the ball 7 (mod 25)
        # holds two of them, so its own least x is 57
        q = 5**3
        pinned = [(q, 0, 0), (q, 7, 1), (q, 124, 2), (25, 7, 3), (q, 32, 4)]
        groups = density._ball_groups(pinned, q, 5)
        assert _sorted_items(groups) == naive_ball_groups(pinned, q)
        assert [least for _, _, least in groups] == [0, 1, 7, 32, 57, 124]
        # all of [0, q) pinned point by point leaves the root nothing
        points = [(7**2, x, x) for x in range(7**2)]
        assert _sorted_items(density._ball_groups(points, 7**2, 7)) == naive_ball_groups(points, 7**2)

    def test_large_prime_reads_only_the_pinned_digits(self):
        # q = p is far too large to walk: the root's least x is the least
        # residue no class pins
        p = 2**61 - 1
        groups = density._ball_groups([(p, 0, "a"), (p, 2, "b"), (p, 1, "c")], p, p)
        assert groups == [(1, ["a"], 0), (1, ["c"], 1), (1, ["b"], 2), (p - 3, [], 3)]


class TestSplitDensity:
    """The CRT-split engine behind exact_density past its guard and delta_plus."""

    @pytest.mark.parametrize("leaf", [1, 7, 50])
    def test_matches_naive_density(self, monkeypatch, leaf):
        # a small scan leaf makes the splits, not the scan, do the work
        monkeypatch.setattr(density, "SCAN_LEAF", leaf)
        rnd = random.Random(19)
        for _ in range(300):
            system = random_system(rnd, allow_unit=True)
            assert density._split_density(system.pairs(), 10**9) == naive_density(system)

    def test_coprime_systems_match_alpha(self):
        rnd = random.Random(23)
        for _ in range(20):
            mods = rnd.sample([2**5, 3**4, 5**3] + cs.primes_in(6, 3000), rnd.randint(5, 9))
            system = cs.ResidueSystem.from_pairs((n, rnd.randrange(n)) for n in mods)
            assert lcm(*mods) > 10**12
            assert density._split_density(system.pairs(), 10**9) == cs.alpha(system)

    def test_canonical_forms(self):
        split = density._split_density
        assert split([], 0) == 1
        # k^2 units read k classes; a modulus 1 then gives 0 before any scan
        assert split([(7, 3), (1, 0)], 4) == 0
        # repeats of 1 (mod 5) and classes inside 1 (mod 2) are dropped,
        # and the one class left has the closed form 1 - 1/n
        assert split([(5, 1), (5, 6), (5, -4)], 9) == Fraction(4, 5)
        assert split([(2, 1), (6, 3), (10, 5), (30, 29)], 16) == Fraction(1, 2)
        assert split([(2**61 - 1, 5)], 1) == Fraction(2**61 - 2, 2**61 - 1)
        # coprime components are solved apart: 16 + 4 + 9 units, not 16 + 36
        pairs = [(2, 0), (4, 1), (3, 0), (9, 1)]
        assert split(pairs, 29) == Fraction(1, 4) * Fraction(5, 9)
        with pytest.raises(GuardExceeded):
            split(pairs, 28)

    def test_large_prime_power_splits_without_a_table(self):
        # the period 2^23 * 15 passes the scan leaf; a split on q = 2^23
        # groups its residues by the two classes' balls, so neither memory
        # nor work grows with q: 4 units read the system, 3 balls * 2
        # classes split it, and each of the two one-class leaves costs 1
        pairs = [(2**23 * 3, 1), (2**23 * 5, 2)]
        tracemalloc.start()
        try:
            value = density._split_density(pairs, 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 1 and 2 differ mod 2^23, so the two classes are disjoint
        assert value == 1 - Fraction(1, 2**23 * 3) - Fraction(1, 2**23 * 5)
        assert peak < 1 << 20
        with pytest.raises(GuardExceeded):
            density._split_density(pairs, 11)

    def test_budget_counts_the_classes_read(self):
        # one shared prime over 501 moduli: the 501^2 units of reading the
        # system are refused before any work, and the full computation
        # splits on 2, which every modulus shares, into coprime leaves
        odd = cs.primes_in(2, 3600)[:500]
        mods = [2**20 * 3] + [2 * p for p in odd]
        with pytest.raises(GuardExceeded) as info:
            cs.delta_plus(cs.ModuliSet.from_iterable(mods), guard=10**5)
        assert info.value.estimate == 501**2
        # an odd x is uncovered; x = 2y is iff y has none of the odd primes
        # (2^19 * 3 | y already implies 3 | y)
        none_odd = prod(Fraction(p - 1, p) for p in odd)
        assert cs.delta_plus(cs.ModuliSet.from_iterable(mods)) == (1 + none_odd) / 2

    def test_components_match_the_inline_loop(self):
        # the engine reads its canonical classes, the sampler its moduli
        # tagged by position; both get the components in the same order
        rnd = random.Random(29)
        for _ in range(300):
            pairs = random_system(rnd, max_classes=10, allow_unit=True).pairs()
            tagged = [(n, i) for i, (n, _) in enumerate(pairs)]
            for case in (pairs, sorted(set(pairs)), tagged):
                assert density._components(case) == inline_components(case)
        assert density._components([]) == []
        # 1 shares no prime with anything, itself included
        assert density._components([(1, 0), (1, 0), (7, 3)]) == [
            (1, [(1, 0)]), (1, [(1, 0)]), (7, [(7, 3)])
        ]
        # 15 joins {9}, then 10 joins {4} and {15, 9}; a joined component
        # goes last with the new class first
        assert density._components([(4, 1), (7, 0), (9, 2), (15, 4), (10, 5)]) == [
            (7, [(7, 0)]), (180, [(10, 5), (4, 1), (15, 4), (9, 2)])
        ]


def _small_multisets():
    """Moduli lists drawn from 1..15, with repeats, 1, 2 and coprime mixes,
    cut to the longest prefix whose product stays within 2*10^4."""
    def within(mods):
        kept = []
        for n in mods:
            if prod(kept) * n <= 2 * 10**4:
                kept.append(n)
        return kept

    pool = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 15]
    return st.lists(st.sampled_from(pool), min_size=1, max_size=6).map(within)


class TestDeltaMinus:
    def test_opening_moduli_reach_zero(self):
        res = cs.delta_minus(cs.ModuliSet.from_iterable([2, 3, 4, 6, 12]))
        assert res.value == 0 and res.optimal
        assert cs.exact_density(res.witness).value == 0

    def test_4_6_exhaustive(self):
        res = cs.delta_minus(cs.ModuliSet.from_iterable([4, 6]))
        assert res.value == Fraction(7, 12)
        assert cs.exact_density(res.witness).value == Fraction(7, 12)

    def test_coprime_all_choices_equal(self):
        for mode in ("exhaustive", "greedy"):
            res = cs.delta_minus(cs.ModuliSet.from_iterable([2, 3]), mode=mode)
            assert res.value == Fraction(1, 3)

    def test_exhaustive_matches_enumeration(self):
        rnd = random.Random(17)
        for _ in range(25):
            mods = [rnd.choice([2, 3, 4, 6]) for _ in range(rnd.randint(1, 3))]
            S = cs.ModuliSet.from_iterable(mods)
            brute = min(
                cs.exact_density(system).value
                for system in enumerate_residue_choices(S)
            )
            assert cs.delta_minus(S).value == brute

    def test_peeling_chain(self):
        # exhaustive <= greedy <= prod(1 - 1/n)
        rnd = random.Random(18)
        for _ in range(30):
            mods = [rnd.choice([2, 3, 4, 5, 6, 8, 10, 12]) for _ in range(rnd.randint(1, 4))]
            S = cs.ModuliSet.from_iterable(mods)
            exact = cs.delta_minus(S, "exhaustive", guard=10**6)
            greedy = cs.delta_minus(S, "greedy", guard=10**6)
            assert exact.value <= greedy.value <= cs.alpha(S)
            assert cs.exact_density(greedy.witness).value == greedy.value
            rsum = sum((Fraction(1, n) for n in mods), Fraction(0))
            assert exact.reciprocal_sum == greedy.reciprocal_sum == rsum

    def test_guard_signals(self):
        with pytest.raises(GuardExceeded):
            cs.delta_minus(cs.ModuliSet.from_iterable([101, 103, 107, 109]), guard=10**4)
        with pytest.raises(GuardExceeded):
            cs.delta_minus(cs.ModuliSet.from_iterable([210, 11]), "greedy", guard=100)

    def test_choice_guard_refuses_before_masks(self, monkeypatch):
        def no_masks(*args):
            raise AssertionError("masks built before the guard refused")

        monkeypatch.setattr(density, "_class_masks", no_masks)
        with pytest.raises(GuardExceeded, match="residue-choice space"):
            cs.delta_minus(cs.ModuliSet.from_iterable(range(2, 17)))
        with pytest.raises(GuardExceeded, match="class-mask period exceeds guard of 10000 bits"):
            cs.delta_minus(cs.ModuliSet.from_iterable([101, 103, 107, 109]), guard=10**4)

    @pytest.mark.parametrize("mods, residues_of_9", [
        ([4, 6, 9], 1),  # the walk fixes residue 0 of 9
        ([4, 9, 6, 9], 9),  # 9 repeats: its second copy walks every residue
    ])
    def test_exhaustive_builds_one_mask_of_unique_largest(self, monkeypatch, mods, residues_of_9):
        walks = record_walks(monkeypatch, density)
        result = cs.delta_minus(cs.ModuliSet.from_iterable(mods))
        [(order, masks, leaves)] = walks
        # one unshifted mask per distinct modulus: the walk shifts each class
        assert sorted(masks) == sorted(set(mods)) and all(m & 1 for m in masks.values())
        tried = {choice[i] for choice in leaves for i, n in enumerate(order) if n == 9}
        assert tried == set(range(residues_of_9))
        assert result.value == min(
            naive_density(cs.ResidueSystem.from_pairs(zip(mods, rs)))
            for rs in itertools.product(*(range(n) for n in mods))
        )

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(_small_multisets())
    def test_reduced_walk_matches_full_walk(self, mods):
        S = cs.ModuliSet.from_iterable(mods)
        assert cs.delta_minus(S) == full_walk_delta_minus(S)

    @pytest.mark.parametrize("mods", [
        [4, 6, 9, 10, 15],  # 9 meets lcm(15, 10, 6, 4) = 60 in gcd 3
        [1, 2, 3, 5, 7],
        [6, 6, 10, 15],
    ])
    def test_reduced_walk_keeps_value_and_witness(self, mods):
        S = cs.ModuliSet.from_iterable(mods)
        assert cs.delta_minus(S) == full_walk_delta_minus(S)

    @pytest.mark.parametrize("others", [(), (6, 4)])
    def test_ones_add_no_recursion_depth(self, others):
        # 1,500 levels of modulus 1 once passed the recursion limit; a class
        # mod 1 covers everything, so delta is 0 with every residue 0
        S = cs.ModuliSet(others + (1,) * 1500)
        witness = cs.ResidueSystem.from_pairs((n, 0) for n in sorted(S.moduli, reverse=True))
        rsum = sum((Fraction(1, n) for n in S.moduli), Fraction(0))
        assert cs.delta_minus(S) == density.DeltaMinusResult(Fraction(0), witness, True, rsum)

    def test_bench_set_walks_reduced_widths(self, monkeypatch):
        walks = record_walks(monkeypatch, density)
        S = cs.ModuliSet.from_iterable([3, 4, 6, 8, 9, 10, 12, 15])
        assert cs.delta_minus(S, guard=10**8) == full_walk_delta_minus(S)
        widths = walk_widths(walks[0][2])
        # 12 meets 15 in 3, 9 meets lcm(15, 12, 10) = 60 in 3, 8 meets 180 in 4
        assert widths == [1, 3, 10, 3, 4, 6, 4, 3]
        assert prod(widths) == 25_920  # of 622,080 with every residue tried

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(_small_multisets())
    def test_one_row_blocks_match_full_walk(self, mods):
        # a budget of one word splits every level into blocks of one row,
        # each built from a chunk of one class
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(walk, "_BLOCK_WORDS", 1)
            S = cs.ModuliSet.from_iterable(mods)
            assert cs.delta_minus(S) == full_walk_delta_minus(S)

    def test_bench_set_in_one_row_blocks(self, monkeypatch):
        monkeypatch.setattr(walk, "_BLOCK_WORDS", 1)
        counts = walk._bit_counts

        def one_row(rows):
            assert rows.shape == (1, 6)  # L = 360 bits in six words
            return counts(rows)

        monkeypatch.setattr(walk, "_bit_counts", one_row)
        S = cs.ModuliSet.from_iterable([3, 4, 6, 8, 9, 10, 12, 15])
        assert cs.delta_minus(S, guard=10**8) == full_walk_delta_minus(S)

    def test_wide_rows_keep_memory_bounded(self):
        # rows of 999,000 bits, and 1,000 classes of the repeated 1000: a
        # table of every class would take 125 MB
        S = cs.ModuliSet.from_iterable([999, 1000, 1000])
        tracemalloc.start()
        try:
            result = cs.delta_minus(S, guard=10**9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.value == Fraction(249001, 249750)
        assert result.witness == cs.ResidueSystem.from_pairs([(1000, 0), (1000, 1), (999, 0)])
        assert peak < 16 * 2**20

    def test_greedy_builds_no_mask(self, monkeypatch):
        def no_masks(*args):
            raise AssertionError("greedy peel built a class mask")

        monkeypatch.setattr(density, "_class_masks", no_masks)
        monkeypatch.setattr(density, "_residue_walk", no_masks)
        S = cs.ModuliSet.from_iterable([1, 4, 6, 9, 6, 12])
        assert cs.delta_minus(S, "greedy") == naive_greedy_peel(S)

    def test_empty_set_refuses_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown mode 'bogus'"):
            cs.delta_minus(cs.ModuliSet(()), mode="bogus")

    def test_empty_set_greedy_is_not_optimal(self):
        empty, nothing = cs.ModuliSet(()), cs.ResidueSystem(())
        assert cs.delta_minus(empty, "greedy") == density.DeltaMinusResult(
            Fraction(1), nothing, False, Fraction(0))
        assert cs.delta_minus(empty) == density.DeltaMinusResult(
            Fraction(1), nothing, True, Fraction(0))

    def test_greedy_matches_all_masks_peel(self):
        # seeded sets, each with a repeated modulus, every third one with modulus 1
        rnd = random.Random(22)
        pool = [2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 18, 20, 24, 30, 36, 40]
        for i in range(60):
            mods = [rnd.choice(pool) for _ in range(rnd.randint(1, 6))]
            mods.append(rnd.choice(mods))
            if i % 3 == 0:
                mods.append(1)
            S = cs.ModuliSet.from_iterable(mods)
            assert cs.delta_minus(S, "greedy") == naive_greedy_peel(S), mods

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 18, 20, 24, 30]),
                    min_size=1, max_size=6),
           st.integers(0, 2), st.data())
    def test_greedy_with_ones_and_repeats_matches_all_masks_peel(self, mods, ones, data):
        # a repeated modulus, and up to two 1s
        mods = mods + [data.draw(st.sampled_from(mods))] + [1] * ones
        S = cs.ModuliSet.from_iterable(mods)
        assert cs.delta_minus(S, "greedy") == naive_greedy_peel(S)

    @pytest.mark.parametrize("size", [7, 64])
    def test_greedy_blocks_span_segments(self, monkeypatch, size):
        # periods up to 360 cells, so the uncovered residues span many chunks
        monkeypatch.setattr(density, "SEGMENT_SIZE", size)
        rnd = random.Random(23)
        pool = [2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 18, 20, 24, 30, 36, 40]
        for i in range(30):
            mods = [rnd.choice(pool) for _ in range(rnd.randint(1, 6))]
            if i % 3 == 0:
                mods.append(1)
            S = cs.ModuliSet.from_iterable(mods)
            assert cs.delta_minus(S, "greedy") == naive_greedy_peel(S), mods


class TestPeel:
    """density._Peel, the one greedy kernel, against one bool array of the
    window: after every step its residues are those of the uncovered cells
    modulo H, below W, in chunks of at most a quarter segment."""

    @pytest.mark.parametrize("size", [1, 30, 1 << 20])
    @pytest.mark.parametrize("pairs, W, moduli", [
        ([(5, 1), (6, 2), (7, 0), (8, 3)], 10_000, range(9, 30)),  # H < W, then H > W
        ([(3, 1), (4, 0)], 11, [5, 6, 7]),  # lcm 12 > W from the start
        ([(2, 1), (3, 2)], 60, [4, 5, 6, 10]),  # H reaches W exactly
        ([], 720_720, range(2, 17)),  # greedy delta-minus on 2..16
        ([], 1, [1, 1]),
    ])
    def test_residues_are_the_uncovered_cells(self, monkeypatch, size, pairs, W, moduli):
        monkeypatch.setattr(density, "SEGMENT_SIZE", size)
        width = max(1, size // 4)
        assert density._chunk_width() == width
        unc = np.ones(W, dtype=bool)
        for n, r in pairs:
            unc[r::n] = False
        peel = density._Peel(pairs, W)
        states = [peel.chunks]
        for n in moduli:
            peel._widen(n)
            states.append(peel.chunks)
            counts = np.bincount(np.flatnonzero(unc) % n, minlength=n)
            r = peel.step(n)
            assert r == int(np.argmax(counts))
            unc[r::n] = False
            rho = np.concatenate(peel.chunks)
            cells = np.flatnonzero(unc)
            assert rho.tolist() == np.unique(cells % peel.H).tolist()
            assert (rho < W).all() and peel.count() == len(cells)
            states.append(peel.chunks)
        # the paint, each widening and each filter keep the chunk count in
        # step with |rho|, not with the segments, translates or past sizes
        for chunks in states:
            assert all(len(b) <= width for b in chunks)
            assert len(chunks) <= 2 * sum(len(b) for b in chunks) // width + 1

    def test_translates_fit_the_dtype(self):
        # translates reach up to W + H < 2W before the cut at W
        assert density._Peel((), 2**30 - 1).chunks[0].dtype == np.int32
        assert density._Peel((), 2**30).chunks[0].dtype == np.int64

    @pytest.mark.parametrize("n, size", [(99_991, 1000), (999_983, 1 << 20)])
    def test_small_rho_widens_a_chunk_at_a_time(self, monkeypatch, n, size):
        # one residue widened n-fold: pieces of up to one chunk, not one
        # piece per translate
        monkeypatch.setattr(density, "SEGMENT_SIZE", size)
        pieces, pack = [], density._pack

        def spy(translates):
            translates = list(translates)
            pieces.append(len(translates))
            return pack(translates)

        monkeypatch.setattr(density, "_pack", spy)
        peel = density._Peel((), n)
        assert (peel.step(n), peel.count()) == (0, n - 1)
        assert pieces == [1, -(-n // density._chunk_width())]


class TestClassMasks:
    @pytest.mark.parametrize("L", [1, 360, 27720, 999000])
    def test_bits_are_the_multiples(self, L):
        # bit x of the mask of n is set iff x = 0 (mod n), for x in [0, L)
        for n in sorted({n for n in (1, 2, 3, L // 2, L) if n and L % n == 0}):
            period, masks = density._class_masks([n, L], L)
            assert period == L and set(masks) == {n, L}
            mask = masks[n]
            assert mask >> L == 0
            raw = np.frombuffer(mask.to_bytes((L + 7) // 8, "little"), np.uint8)
            bits = np.unpackbits(raw, bitorder="little")[:L].astype(bool)
            assert np.array_equal(bits, np.arange(L) % n == 0), (L, n)

    def test_walk_tries_residues_below_gcd_with_earlier_lcm(self):
        order = [9, 9, 6, 6, 4]
        L, masks = density._class_masks(order, 36)
        leaves = []
        walk._residue_walk(order, L, masks, leaf_recorder(order, leaves))
        # 6 meets lcm(9, 9) = 9 in 3, then lcm(9, 6) = 18 in 6; 4 meets 18 in 2
        assert walk_widths([choice for choice, _ in leaves]) == [1, 9, 3, 6, 2]
        for choice, uncovered in leaves:
            covered = 0
            for n, r in zip(order, choice):
                covered |= masks[n] << r
            assert uncovered == (1 << L) - 1 & ~covered
        empty = []
        walk._residue_walk([], 1, {}, leaf_recorder([], empty))
        assert empty == [((), 1)]

    def test_leaf_numbers_past_int64_stay_exact(self):
        # 2^64 leaves: follow only the last child of each block down to
        # the last leaf, numbered 2^64 - 1
        order = [2] * 65
        L, masks = density._class_masks(order, None)
        leaves, numbers = [], []

        def all_but_last(i, counts):
            return np.arange(len(counts)) < len(counts) - 1

        def leaf(rows, counts, index):
            numbers.extend(int(number) for number in index)

        walk._residue_walk(order, L, masks, leaf_recorder(order, leaves, leaf), all_but_last)
        assert numbers == [2**64 - 1]
        assert leaves == [((0,) + (1,) * 64, 0)]  # 0 and 1 mod 2 cover all


class TestUncoveredWitness:
    """The least uncovered integer, reported by the scan that counts."""

    def test_examples(self):
        assert cs.exact_density(cs.ResidueSystem.from_pairs([(2, 0), (4, 1), (3, 0)])).witness == 7
        assert cs.exact_density(OPENING).witness is None
        assert cs.exact_density(cs.ResidueSystem.from_pairs([(2, 1)])).witness == 0
        assert cs.exact_density(cs.ResidueSystem(())).witness == 0

    def test_witness_is_minimal_and_uncovered(self):
        rnd = random.Random(19)
        for _ in range(80):
            system = random_system(rnd, max_classes=5)
            rep = cs.exact_density(system)
            w = rep.witness
            assert rep.method == "lcm-scan"
            assert w == naive_witness(system)
            if w is None:
                assert rep.value == 0
            else:
                assert all(x % c.modulus != c.residue for c in system.classes for x in [w])
                for x in range(w):
                    assert any(x % c.modulus == c.residue for c in system.classes)


# Hand-built systems for the segment-width tests: the least uncovered
# integer 31 lies past the first segment of every width below 32, moduli 30
# and 35 are wider than the short segments, and the last segment is short
# for period 35 at width 2, for period 30 at width 7, and for both at 64.
SEGMENT_SYSTEMS = [
    cs.ResidueSystem.from_pairs([(2, 0), (4, 1), (8, 3), (16, 7), (32, 15)]),
    cs.ResidueSystem.from_pairs([(30, 29), (3, 0), (5, 1), (2, 0)]),
    cs.ResidueSystem.from_pairs([(35, 34), (7, 6), (5, 0)]),
    OPENING,
] + [random_system(random.Random(70 + i), max_classes=6, allow_unit=True) for i in range(12)]


class TestSegmentBoundaries:
    """The period sieve at segment widths that split the period unevenly."""

    @pytest.mark.parametrize("width", ["1", "2", "7", "64", "L-1", "L", "L+1"])
    def test_density_and_witness_match_naive_scan(self, monkeypatch, width):
        for system in SEGMENT_SYSTEMS:
            L = lcm(*(c.modulus for c in system.classes))
            size = {"L-1": max(L - 1, 1), "L": L, "L+1": L + 1}.get(width) or int(width)
            monkeypatch.setattr(density, "SEGMENT_SIZE", size)
            rep = cs.exact_density(system)
            assert rep.value == naive_density(system)
            assert rep.witness == naive_witness(system)


def record_layouts(monkeypatch) -> list:
    """Record every (p, q) or None that _scan's layout rule returns."""
    layouts = []
    choose = density._layer_prime_power

    def spy(pairs, L):
        layouts.append(choose(pairs, L))
        return layouts[-1]

    monkeypatch.setattr(density, "_layer_prime_power", spy)
    return layouts


class TestLayeredScan:
    """The period laid out by CRT as q layers over [0, L/q), against scans
    of the whole period."""

    def test_seeded_system_layers_at_default_segment(self, monkeypatch):
        layouts = record_layouts(monkeypatch)
        L = 24_504_480  # 2^5 3^2 5 7 11 13 17
        pairs = divisor_system(L, 100, 5000, 1)
        assert density._scan(pairs, L) == period_scan(pairs, L)
        assert layouts[0] is not None and L // layouts[0][1] >= density.SEGMENT_SIZE

    def test_bench_divisor_system_layers_on_17(self, monkeypatch):
        # of the 0.35 reciprocal mass, 0.25 lies on moduli prime to 17
        layouts = record_layouts(monkeypatch)
        L = 73_513_440
        report = cs.exact_density(cs.ResidueSystem.from_pairs(divisor_system(L, 200, 20_000, 0)))
        assert layouts == [(17, 17)]
        assert (report.uncovered_count, report.witness) == (53_225_898, 1)

    @pytest.mark.parametrize("size", [1, 5, 16])
    @pytest.mark.parametrize("extra, least", [
        ([(48, 15)], 31),  # every y < R = 16 covered: the witness has t = 1
        ([(48, 15), (48, 31)], 47),  # t = 2
    ])
    def test_witness_past_the_first_layer_block(self, monkeypatch, size, extra, least):
        monkeypatch.setattr(density, "SEGMENT_SIZE", size)
        layouts = record_layouts(monkeypatch)
        system = cs.ResidueSystem.from_pairs([(2, 0), (4, 1), (8, 3), (16, 7)] + extra)
        report = cs.exact_density(system)
        assert layouts == [(3, 3)]
        assert report.witness == naive_witness(system) == least
        assert report.value == naive_density(system)

    @pytest.mark.parametrize("size", [1, 2, 4])
    def test_covering_system_has_no_witness(self, monkeypatch, size):
        monkeypatch.setattr(density, "SEGMENT_SIZE", size)
        layouts = record_layouts(monkeypatch)
        report = cs.exact_density(OPENING)
        assert layouts == [(3, 3)]
        assert (report.value, report.witness) == (0, None)

    @pytest.mark.parametrize("size", [2, 5])
    def test_random_systems_match_whole_period_scan(self, monkeypatch, size):
        monkeypatch.setattr(density, "SEGMENT_SIZE", size)
        layouts = record_layouts(monkeypatch)
        rnd = random.Random(90 + size)
        for _ in range(150):
            pairs = random_system(rnd, allow_unit=True).pairs()
            L = lcm(*(n for n, _ in pairs))
            assert density._scan(pairs, L) == period_scan(pairs, L)
        assert sum(layout is not None for layout in layouts) >= 100

    @pytest.mark.parametrize("pairs, size, layout", [
        ([(2, 0), (3, 0), (4, 1), (6, 1), (12, 11)], 2, (3, 3)),
        ([(2, 0), (3, 0), (4, 1), (6, 1), (12, 11)], 5, None),  # R = 3 or 4 < 5
        ([(6, 0), (6, 1), (12, 5)], 1, None),  # nothing prime to 2 or to 3
        # the coprime mass 6/7 * 1/60 buys less than the copy costs
        ([(60, 0), (700, 1)], 1, None),
        ([(30, 0), (700, 1)], 1, (7, 7)),  # 6/7 * 1/30 buys more
        ([(32, 0), (3, 1), (9, 2)], 1, (2, 32)),  # q is the whole power of p
    ])
    def test_cost_rule(self, monkeypatch, pairs, size, layout):
        monkeypatch.setattr(density, "SEGMENT_SIZE", size)
        assert density._layer_prime_power(pairs, lcm(*(n for n, _ in pairs))) == layout


class TestPairCorrectionAgainstScans:
    def test_lower_bound_holds_randomized(self):
        rnd = random.Random(20)
        for _ in range(500):
            system = random_system(rnd)
            delta = cs.exact_density(system).value
            assert delta >= cs.alpha(system) - cs.beta(system)


class TestDistinctModuliNeverExact:
    def test_no_exact_cover_distinct_moduli_small(self):
        # distinct moduli > 1 with reciprocal sum 1 never partition the integers
        for mods in unit_sum_distinct_sets(120):
            assert not exact_cover_exists(mods)
