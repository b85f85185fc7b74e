import math
import random
import tracemalloc
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import coversieve as cs
from coversieve import density, stats, walk
from coversieve.core import GuardExceeded
from coversieve.density import DEFAULT_CELL_GUARD

from conftest import (
    divisors_of, enumerate_residue_choices, naive_density, naive_moments, record_walks,
    trialwise_moments, walk_pair_second_moment, walk_widths,
)


def M(*mods):
    return cs.ModuliSet.from_iterable(mods)


class TestExpectedDelta:
    def test_examples(self):
        assert cs.alpha(M(3, 4)) == Fraction(1, 2)
        assert cs.alpha(M(2, 4)) == Fraction(3, 8)
        assert cs.alpha(M(7)) == Fraction(6, 7)

    def test_multiplicity_counts(self):
        assert cs.alpha(M(3, 3)) == Fraction(4, 9)


class TestEnumerateMoments:
    def test_2_4(self):
        rep = cs.enumerate_moments(M(2, 4))
        assert rep.mean == Fraction(3, 8)
        assert rep.second_moment == Fraction(5, 32)
        assert rep.variance == Fraction(1, 64)
        assert rep.method == "enumeration"

    def test_coprime_zero_variance(self):
        rep = cs.enumerate_moments(M(3, 4))
        assert rep.variance == 0 and rep.mean == Fraction(1, 2)

    def test_2_3_4(self):
        rep = cs.enumerate_moments(M(2, 3, 4))
        assert rep.mean == Fraction(1, 4)
        assert rep.second_moment == Fraction(5, 72)
        assert rep.variance == Fraction(1, 144)

    def test_mean_is_product_formula(self):
        rnd = random.Random(60)
        for _ in range(40):
            mods = [rnd.randint(2, 9) for _ in range(rnd.randint(1, 4))]
            T = M(*mods)
            if T.product() > 3000:
                continue
            assert cs.enumerate_moments(T).mean == cs.alpha(T)

    def test_matches_direct_density_average(self):
        T = M(2, 4, 6)
        total = Fraction(0)
        for system in enumerate_residue_choices(T):
            total += cs.exact_density(system).value
        rep = cs.enumerate_moments(T)
        assert rep.mean == total / T.product()

    @pytest.mark.parametrize("mods", [[4, 6, 9, 10, 15], [8, 9, 12], [4, 6, 6, 9]])
    def test_reduced_walk_matches_every_system(self, mods):
        T = M(*mods)
        deltas = [cs.exact_density(system).value for system in enumerate_residue_choices(T)]
        rep = cs.enumerate_moments(T, guard_w=10**5)
        assert rep.mean == sum(deltas) / len(deltas)
        assert rep.second_moment == sum(d * d for d in deltas) / len(deltas)

    def test_walks_one_system_per_reduced_choice(self, monkeypatch):
        walks = record_walks(monkeypatch, stats)
        T = M(*range(2, 10))
        rep = cs.enumerate_moments(T)
        # 9 tries residue 0 only; 8, 7 and 5 meet the lcm before them in 1,
        # 6 meets 504 in 6, 4 meets 2520 in 4: 144 of the 362,880 systems
        assert walk_widths(walks[0][2]) == [1, 1, 1, 6, 1, 4, 3, 2]
        assert rep.mean == cs.alpha(T)

    def test_guard(self):
        with pytest.raises(GuardExceeded):
            cs.enumerate_moments(M(100, 101, 103), guard_w=10**5)

    def test_empty_multiset(self):
        rep = cs.enumerate_moments(M())
        assert rep.mean == 1 and rep.variance == 0

    def test_masks_of_the_fixed_modulus_not_built(self):
        # the walk reads residue 0 of 200 only (and of 199, which is coprime
        # to it): the 199 masks of 199 plus a few more would fit; all 200
        # shifted masks of 200 as well (433) do not
        mask_bytes = 199 * 200 // 8
        tracemalloc.start()
        try:
            rep = cs.enumerate_moments(M(199, 200))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.mean == cs.alpha(M(199, 200))
        assert peak < 250 * mask_bytes


class TestPairFormula:
    def test_3_4(self):
        rep = cs.pair_formula_moments(M(3, 4))
        assert rep.second_moment == Fraction(1, 4)
        assert rep.variance == 0
        assert rep.method == "pair-formula"

    def test_3_9_matches_enumeration(self):
        pair = cs.pair_formula_moments(M(3, 9))
        enum = cs.enumerate_moments(M(3, 9))
        assert pair.second_moment == enum.second_moment == Fraction(86, 243)
        assert pair.variance == enum.variance == Fraction(2, 729)

    def test_4_6_matches_enumeration(self):
        pair = cs.pair_formula_moments(M(4, 6))
        enum = cs.enumerate_moments(M(4, 6))
        assert pair.second_moment == enum.second_moment == Fraction(113, 288)

    def test_randomized_oracle_equivalence(self):
        rnd = random.Random(61)
        done = 0
        while done < 25:
            mods = sorted(rnd.sample(range(3, 13), rnd.randint(1, 4)))
            T = M(*mods)
            if T.product() > 10**4:
                continue
            pair = cs.pair_formula_moments(T)
            enum = cs.enumerate_moments(T)
            assert pair.second_moment == enum.second_moment
            assert pair.variance == enum.variance
            done += 1

    def test_matches_subset_walk_past_enumeration(self):
        # 2^20 subsets, 2^20 entries at most in the lcm table; W(T) = 22!/2
        # is far past enumeration
        mods = range(3, 23)
        rep = cs.pair_formula_moments(M(*mods))
        assert rep.second_moment == walk_pair_second_moment(mods)
        assert rep.variance == rep.second_moment - cs.alpha(M(*mods)) ** 2

    def test_matches_subset_walk_seeded(self):
        rnd = random.Random(65)
        seen = set()
        while len(seen) < 100:
            mods = tuple(sorted(rnd.sample(range(3, 200), rnd.randint(1, 12))))
            if mods in seen:
                continue
            seen.add(mods)
            assert cs.pair_formula_moments(M(*mods)).second_moment == walk_pair_second_moment(mods)

    def test_modulus_two_rejected(self):
        with pytest.raises(ValueError):
            cs.pair_formula_moments(M(2, 4))

    def test_multiset_rejected(self):
        with pytest.raises(ValueError):
            cs.pair_formula_moments(M(3, 3))

    def test_variance_nonnegative(self):
        rnd = random.Random(62)
        for _ in range(30):
            mods = sorted(rnd.sample(range(3, 30), rnd.randint(1, 5)))
            assert cs.pair_formula_moments(M(*mods)).variance >= 0


class TestMomentsOracle:
    """Exact moments against naive_moments, a naive scan of every system."""

    MULTISETS = [
        (), (1,), (1, 1), (2,), (2, 2), (1, 3), (2, 4, 4), (3, 3, 2),
        (4, 6, 6), (6, 4, 6, 3), (5, 5, 5), (1, 6, 2, 6),
    ]

    @pytest.mark.parametrize("mods", MULTISETS)
    def test_enumerate_multisets(self, mods):
        rep = cs.enumerate_moments(M(*mods))
        assert (rep.mean, rep.second_moment) == naive_moments(list(mods))

    @pytest.mark.parametrize("mods", MULTISETS)
    def test_enumerate_in_one_row_blocks(self, monkeypatch, mods):
        # a budget of one word splits every level into blocks of one row
        monkeypatch.setattr(walk, "_BLOCK_WORDS", 1)
        rep = cs.enumerate_moments(M(*mods))
        assert (rep.mean, rep.second_moment) == naive_moments(list(mods))

    @pytest.mark.parametrize("others", [(), (2, 3)])
    def test_enumerate_ones_add_no_recursion_depth(self, others):
        # 1,500 levels of modulus 1 once passed the recursion limit; every
        # system holds a class mod 1, so every density is 0
        rep = cs.enumerate_moments(M(*others, *(1,) * 1500))
        assert (rep.mean, rep.second_moment, rep.variance) == (0, 0, 0)

    def test_enumerate_seeded(self):
        rnd = random.Random(63)
        done = 0
        while done < 30:
            mods = [rnd.randint(1, 8) for _ in range(rnd.randint(1, 4))]
            if math.prod(mods) * math.lcm(*mods) > 2 * 10**4:
                continue
            rep = cs.enumerate_moments(M(*mods))
            assert (rep.mean, rep.second_moment) == naive_moments(mods)
            done += 1

    def test_pair_formula_seeded(self):
        rnd = random.Random(64)
        done = 0
        while done < 20:
            mods = rnd.sample(range(3, 13), rnd.randint(1, 3))
            if math.prod(mods) * math.lcm(*mods) > 2 * 10**4:
                continue
            rep = cs.pair_formula_moments(M(*mods))
            assert (rep.mean, rep.second_moment) == naive_moments(mods)
            done += 1


def _sample_multisets():
    """Small moduli lists for sample_moments, each lcm at most 3465: divisors
    of one period with repeats and 1s, pairwise coprime sets, and even
    moduli that form one component."""
    divisors = st.sampled_from([360, 420, 840, 1260, 2520]).flatmap(
        lambda L: st.lists(st.sampled_from(divisors_of(L)), min_size=1, max_size=6)
    )
    coprime = st.lists(st.sampled_from([4, 5, 7, 9, 11]), min_size=1, max_size=4, unique=True)
    one_component = st.lists(st.sampled_from([2, 4, 6, 8, 10, 12, 14, 18]), min_size=2, max_size=6)
    return divisors | coprime | one_component


class TestSampleMoments:
    def test_2_4_within_five_se(self):
        rep = cs.sample_moments(M(2, 4), 10**4, seed=1)
        assert rep.sample_count == 10**4
        assert abs(float(rep.mean) - 0.375) <= 5 * rep.std_error

    def test_identical_deltas_give_exact_zero_variance(self):
        rep = cs.sample_moments(M(3, 4), 500, seed=2)
        assert rep.variance == 0
        assert rep.mean == Fraction(1, 2)

    def test_interval_moduli_within_five_se(self):
        # 13 distinct moduli in (30, 60] (divisors of 720720), far beyond
        # enumeration range: W ~ 8.8e20
        mods = [33, 35, 36, 39, 40, 42, 44, 45, 48, 52, 55, 56, 60]
        T = M(*mods)
        rep = cs.sample_moments(T, 1000, seed=3)
        assert abs(float(rep.mean - cs.alpha(T))) <= 5 * rep.std_error

    def test_reproducible_and_trialwise_seeded(self):
        T = M(2, 4, 6)
        a = cs.sample_moments(T, 200, seed=9)
        b = cs.sample_moments(T, 200, seed=9)
        assert a == b
        # trial t is derived from (seed, t): recompute the first trials
        # directly, on the bitmask path (a repeated modulus, a modulus 1)
        # and past the mask limit (lcm 739,024), where the split engine
        # solves each trial
        for T in (M(2, 4, 6), M(3, 4, 4, 6), M(1, 3, 5), M(11, 13, 16, 17, 19)):
            total = total_sq = Fraction(0)
            for t in range(50):
                rng = np.random.default_rng([9, t])
                system = cs.ResidueSystem.from_pairs(
                    (n, int(rng.integers(0, n))) for n in T.moduli
                )
                small = T.product() < 10**4
                d = naive_density(system) if small else cs.exact_density(system).value
                total += d
                total_sq += d * d
            rep = cs.sample_moments(T, 50, seed=9)
            assert (rep.mean, rep.second_moment) == (total / 50, total_sq / 50)

    @pytest.mark.parametrize("mods", [
        list(range(11, 21)),  # lcm 232,792,560
        [d for d in range(101, 720721) if 720720 % d == 0],  # 190 moduli
    ], ids=["11..20", "divisors-of-720720"])
    def test_past_mask_limit_matches_exact_density(self, monkeypatch, mods):
        T = M(*mods)
        deltas = []
        for t in range(3):
            rng = np.random.default_rng([0, t])
            system = cs.ResidueSystem.from_pairs((n, int(rng.integers(0, n))) for n in T.moduli)
            deltas.append(cs.exact_density(system).value)
        mean = sum(deltas) / 3
        second = sum(d * d for d in deltas) / 3

        engine, scan = stats._split_density, density._scan
        solved, scanned = [], []
        monkeypatch.setattr(stats, "_split_density",
                            lambda pairs, budget: solved.append(pairs) or engine(pairs, budget))
        monkeypatch.setattr(density, "_scan",
                            lambda pairs, L: scanned.append(L) or scan(pairs, L))
        rep = cs.sample_moments(T, 3)
        assert (rep.mean, rep.second_moment) == (mean, second)
        assert len(solved) == 3
        if lcm(*mods) > density.SCAN_LEAF:
            # the engine splits: no trial sieves the whole period
            assert scanned and max(scanned) < lcm(*mods)

    def test_builds_one_mask_per_modulus(self, monkeypatch):
        # one table per component of two or more classes, over that
        # component's lcm: {3, 9} over 9 and {4, 4, 10, 25} over 100; the
        # singletons 1, 7 and 11 build none, nor does the period 69,300
        calls = []
        build = stats._class_masks

        def spy(moduli, guard):
            calls.append((sorted(moduli), build(moduli, guard)))
            return calls[-1][1]

        monkeypatch.setattr(stats, "_class_masks", spy)
        cs.sample_moments(M(1, 3, 4, 4, 7, 9, 10, 11, 25), 20)
        assert sorted(moduli for moduli, _ in calls) == [[3, 9], [4, 4, 10, 25]]
        for moduli, (L, masks) in calls:
            assert L == lcm(*moduli)
            assert sorted(masks) == sorted(set(moduli))
            assert all(mask == sum(1 << x for x in range(0, L, n)) for n, mask in masks.items())

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(mods=_sample_multisets(), trials=st.sampled_from([1, 2, 7]),
           seed=st.integers(0, 3), guard=st.sampled_from([10**9, 1000, 50, 1]))
    # masks: repeats, 1s and coprime parts
    @example(mods=[1, 1, 4, 4, 9, 9, 5, 7], trials=7, seed=0, guard=10**9)
    # lcm 1848 past the guard: the engine scans {8, 12, 12} over 24
    @example(mods=[8, 12, 12, 7, 11], trials=7, seed=0, guard=1000)
    # refused: the engine cannot read 3 classes, nor scan one period-2520 component
    @example(mods=[3, 4, 5], trials=7, seed=0, guard=1)
    @example(mods=[2, 4, 6, 8, 10, 12, 14, 18], trials=7, seed=0, guard=1000)
    def test_matches_trialwise_oracle(self, mods, trials, seed, guard):
        T = M(*mods)
        try:
            expected = trialwise_moments(list(T.moduli), trials, seed, guard)
        except GuardExceeded:
            with pytest.raises(GuardExceeded):
                cs.sample_moments(T, trials, seed, guard)
            return
        rep = cs.sample_moments(T, trials, seed, guard)
        assert (rep.mean, rep.second_moment, rep.variance) == expected

    def test_draws_match_one_draw_per_modulus_up_to_2_63(self):
        # one vector draw per trial gives the draws of one integers(0, n)
        # call per modulus, also at the 32- and 64-bit edges
        T = M(1, 3, 2**32, 2**32 + 1, 10**15 + 37, 2**63)
        total = total_sq = Fraction(0)
        for t in range(20):
            rng = np.random.default_rng([5, t])
            system = cs.ResidueSystem.from_pairs((n, int(rng.integers(0, n))) for n in T.moduli)
            d = cs.exact_density(system).value
            total += d
            total_sq += d * d
        rep = cs.sample_moments(T, 20, seed=5)
        assert (rep.mean, rep.second_moment) == (total / 20, total_sq / 20)

    @pytest.mark.parametrize("big", [2**63 + 1, 2**64])
    def test_refuses_moduli_past_2_63_before_drawing(self, monkeypatch, big):
        def no_draws(*args):
            raise AssertionError("a residue was drawn")

        monkeypatch.setattr(stats.np.random, "default_rng", no_draws)
        monkeypatch.setattr(stats, "_draws", no_draws)
        with pytest.raises(ValueError, match=r"up to 2\^63"):
            cs.sample_moments(M(3, big), 5)

    def test_refuses_negative_seed_before_drawing(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("a residue was drawn")

        monkeypatch.setattr(stats.np.random, "default_rng", no_draws)
        monkeypatch.setattr(stats, "_draws", no_draws)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            cs.sample_moments(M(2, 4), 5, seed=-1)

    def test_numpy_redraws_every_row_when_the_checked_row_differs(self, monkeypatch):
        # a wrong first output in row 0 makes the vectorized row 0 differ
        # from numpy's; the check catches it and numpy draws every trial
        outputs = stats._pcg64_outputs

        def corrupt(entropy, k):
            out = outputs(entropy, k)
            out[0] = ~out[0]
            return out

        drawn = []
        default_rng = np.random.default_rng
        monkeypatch.setattr(stats, "_pcg64_outputs", corrupt)
        mods = [3, 4, 5, 6, 7, 8, 9, 10, 11, 12]
        expected = trialwise_moments(mods, 20, 2, DEFAULT_CELL_GUARD)
        monkeypatch.setattr(stats.np.random, "default_rng",
                            lambda entropy: drawn.append(entropy[1]) or default_rng(entropy))
        rep = cs.sample_moments(M(*mods), 20, seed=2)
        assert (rep.mean, rep.second_moment, rep.variance) == expected
        assert drawn == [0, *range(20)]

    def test_se_formula_and_scaling(self):
        T = M(2, 4)
        small = cs.sample_moments(T, 1000, seed=4)
        big = cs.sample_moments(T, 4000, seed=4)
        assert small.std_error == pytest.approx(
            math.sqrt(float(small.variance) / 1000), rel=1e-12
        )
        assert 0.3 < big.std_error / small.std_error < 0.8

    def test_requires_positive_trials(self):
        with pytest.raises(ValueError):
            cs.sample_moments(M(2, 4), 0)


def _numpy_rows(seed, first, trials, mods):
    bounds = np.array(mods, dtype=np.uint64)
    return [np.random.default_rng([seed, t]).integers(0, bounds).tolist()
            for t in range(first, first + trials)]


def _rejects(seed, t, mods):
    """Whether numpy's draw of row t rejects: a rejection takes more bits
    than drawing the same row with moduli that never reject (2^32 for a
    32-bit draw, 2^63 for a 64-bit one) leaves the generator in."""
    clean = [1 if n == 1 else 2**32 if n <= 2**32 else 2**63 for n in mods]
    states = []
    for bounds in (mods, clean):
        rng = np.random.default_rng([seed, t])
        rng.integers(0, np.array(bounds, dtype=np.uint64))
        states.append(rng.bit_generator.state)
    return states[0] != states[1]


# 2^31 + 5 and 2^64 // 3 + 1 reject about half and a third of their draws
_DRAW_MODULI = [1, 2, 3, 7, 2**31 + 5, 2**32 - 1, 2**32, 2**32 + 1, 10**15 + 37,
                2**64 // 3 + 1, 2**63]


class TestDraws:
    """_draws against one default_rng([seed, t]).integers(0, moduli) per
    row, and numpy draws only the rows it must: the row the check
    compares, rows whose Lemire draw rejects, and rows with t >= 2^32."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(seed=st.sampled_from([0, 2**32 - 1, 2**32, 2**64 + 1, 2**128 + 1]),
           first=st.sampled_from([0, 7, 2**32 - 3]),
           trials=st.integers(1, 12),
           mods=st.lists(st.sampled_from(_DRAW_MODULI), max_size=8))
    # the held uint32 half crosses one and two 64-bit draws
    @example(seed=0, first=0, trials=12, mods=[3, 2**40, 5])
    @example(seed=2**128 + 1, first=0, trials=12,
             mods=[3, 2**32 + 1, 2**63, 7, 2**32, 10**15 + 37, 2**32 - 1])
    def test_matches_numpy_row_by_row(self, seed, first, trials, mods):
        expected = _numpy_rows(seed, first, trials, mods)
        must = [t for t in range(first, first + trials)
                if t >= 2**32 or _rejects(seed, t, mods)]
        checked = [t for t in range(first, min(first + trials, 2**32)) if t not in must]
        drawn = []
        default_rng = np.random.default_rng
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(stats.np.random, "default_rng",
                          lambda entropy: drawn.append(entropy[1]) or default_rng(entropy))
            assert stats._draws(seed, first, trials, mods) == expected
        assert sorted(drawn) == sorted(checked[:1] + must)

    @pytest.mark.parametrize("n", [2**31 + 5, 2**64 // 3 + 1])
    def test_rejections_are_redrawn(self, n):
        rejected = [t for t in range(60) if _rejects(5, t, [n])]
        assert 10 < len(rejected) < 50
        assert stats._draws(5, 0, 60, [n]) == _numpy_rows(5, 0, 60, [n])

    def test_sample_moments_draws_in_blocks(self, monkeypatch):
        # a block holds at most _BLOCK_DRAWS draws, so 1000 moduli take
        # several blocks; a trial of the prime 4093 1000 times leaves
        # uncovered the residues none of its draws hit
        calls = []
        draws = stats._draws
        monkeypatch.setattr(stats, "_draws",
                            lambda *a: calls.append(a[1:3]) or draws(*a))
        mods = [4093] * 1000
        rep = cs.sample_moments(M(*mods), 140, seed=4)
        block = stats._BLOCK_DRAWS // 1000
        assert calls == [(first, min(block, 140 - first)) for first in range(0, 140, block)]
        assert len(calls) > 2
        counts = [4093 - len(set(row)) for row in _numpy_rows(4, 0, 140, mods)]
        assert len(set(counts)) > 10
        assert rep.mean == Fraction(sum(counts), 140 * 4093)
        assert rep.second_moment == Fraction(sum(c * c for c in counts), 140 * 4093**2)


class TestCountingIdentity:
    def test_fixed_point_uncovered_count(self):
        # systems leaving a fixed m uncovered number prod(n - 1)
        for mods, m in [((2, 4), 3), ((3, 4), 0), ((2, 3, 4), 5)]:
            T = M(*mods)
            count = sum(
                1
                for system in enumerate_residue_choices(T)
                if all(m % c.modulus != c.residue for c in system.classes)
            )
            assert count == math.prod(n - 1 for n in mods)


class TestVarianceBoundScan:
    def test_all_pairs_in_range(self):
        family = [
            M(a, b) for a in range(3, 13) for b in range(a + 1, 13)
        ]
        report = cs.variance_bound_scan(family)
        assert len(report.rows) == len(family)
        assert all(math.isfinite(r.ratio) for r in report.rows)
        assert report.max_ratio == max(r.ratio for r in report.rows)

    def test_consecutive_coprime_ratio_zero(self):
        report = cs.variance_bound_scan([M(7, 8)])
        assert report.rows[0].variance == 0
        assert report.rows[0].ratio == 0

    def test_interval_families(self):
        family = [M(*range(N + 1, 2 * N + 1)) for N in range(3, 9)]
        report = cs.variance_bound_scan(family)
        assert report.max_ratio > 0
        for row in report.rows:
            assert row.variance >= 0

