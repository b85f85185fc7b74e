import random
from collections import Counter
from fractions import Fraction
from itertools import accumulate
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

import coversieve as cs
from coversieve import construct, density
from coversieve.core import SEGMENT_SIZE, GuardExceeded
from coversieve.construct import GreedyStep, GreedyTrace
from coversieve.decompose import SmoothCoverError

from conftest import linear_block_schedule, naive_greedy


class TestGreedyCover:
    def test_exact_window_bookkeeping(self):
        # window = full period lcm(3..6) = 60, so all counts are exact
        trace = cs.greedy_cover(2, 3, seed=5, window=60)
        assert [s.j for s in trace.steps] == [5, 6]
        step6 = trace.steps[1]
        assert step6.divisors == (3,)
        assert step6.f == 4  # residues mod 6 avoiding the chosen class mod 3
        assert cs.greedy_step_invariant(trace, slack=0)

    def test_moduli_used_exactly_once(self):
        trace = cs.greedy_cover(3, 5, seed=1, window=2000)
        mods = Counter(c.modulus for c in trace.system.classes)
        assert mods == Counter({n: 1 for n in range(4, 16)})

    def test_uncovered_nonincreasing(self):
        trace = cs.greedy_cover(4, 8, seed=2, window=10**4)
        counts = [trace.uncovered_after_random] + [s.uncovered_after for s in trace.steps]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_admissible_count_matches_divisor_product_structure(self):
        trace = cs.greedy_cover(2, 3, seed=9, window=600)
        chosen = dict(trace.random_residues)
        for step in trace.steps:
            expected = sum(
                1
                for r in range(step.j)
                if all(r % d != chosen[d] % d for d in step.divisors)
            )
            assert step.f == expected

    def test_degenerate_no_greedy_phase(self):
        trace = cs.greedy_cover(3, 2, seed=7, window=10**5)
        assert trace.steps == ()
        frac = float(trace.final_uncovered_fraction)
        # moduli {4, 5, 6} at random residues leave roughly half uncovered
        assert 0.3 < frac < 0.7

    def test_reproducible(self):
        a = cs.greedy_cover(3, 6, seed=11, window=5000)
        b = cs.greedy_cover(3, 6, seed=11, window=5000)
        assert a == b

    def test_window_too_small(self):
        with pytest.raises(ValueError):
            cs.greedy_cover(4, 50, seed=0, window=100)

    def test_negative_seed_refused_before_drawing(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("a residue was drawn")

        monkeypatch.setattr(construct.np.random, "default_rng", no_draws)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            cs.greedy_cover(2, 3, seed=-1, window=100)

    def test_window_guard_refuses_before_painting(self, monkeypatch):
        def no_window(*args):
            raise AssertionError("window painted before the guard refused")

        monkeypatch.setattr(construct, "_Peel", no_window)
        with pytest.raises(GuardExceeded, match="greedy window") as refusal:
            cs.greedy_cover(4, 50, seed=0, window=density.DEFAULT_CELL_GUARD + 1)
        assert refusal.value.estimate == density.DEFAULT_CELL_GUARD + 1

    def test_final_fraction_exact(self):
        trace = cs.greedy_cover(2, 4, seed=3, window=1000)
        assert trace.final_uncovered_fraction == Fraction(trace.final_uncovered_count, 1000)


class TestGreedyAgainstOracle:
    """greedy_cover's uncovered residues modulo the running lcm against one
    bool array of the whole window: the whole trace must be equal, from the
    random residues through every step to the final count."""

    @pytest.mark.parametrize("N, K, seed, window", [
        (3, 5, 0, 15),  # window == K*N
        (1, 6, 1, 6),  # empty by j = 6, whose residue 0 is inadmissible: it takes 1
        (4, 20, 1, 80),
        (2, 6, 2, 5000),  # below one block
        (4, 20, 3, 777_777),
        (2, 6, 4, SEGMENT_SIZE - 1),
        (2, 6, 5, SEGMENT_SIZE),
        (2, 6, 6, SEGMENT_SIZE + 1),
        (3, 8, 7, 3 * SEGMENT_SIZE + 12_345),
        (4, 50, 0, 10**7),  # the greedy workload on a 1e7 window (ROADMAP aim 1)
    ])
    def test_trace_identical(self, N, K, seed, window):
        assert cs.greedy_cover(N, K, seed, window) == naive_greedy(N, K, seed, window)

    @pytest.mark.parametrize("width", [1, 7, 64])
    def test_block_widths(self, monkeypatch, width):
        monkeypatch.setattr(density, "SEGMENT_SIZE", width)
        for N, K, seed, window in [(2, 3, 5, 9), (2, 4, 8, 8), (3, 5, 1, 64), (3, 6, 2, 127),
                                   (4, 8, 3, 449), (5, 10, 4, 1000)]:
            assert cs.greedy_cover(N, K, seed, window) == naive_greedy(N, K, seed, window)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.integers(1, 5), st.integers(2, 8), st.integers(0, 2**16), st.data())
    def test_windows_around_the_running_lcm(self, N, K, seed, data):
        # the uncovered count c*|rho| + |rho < t| splits at multiples of the
        # lcm H of the moduli peeled so far: windows below H, and at and
        # next to a multiple of it
        running = list(accumulate(range(N + 1, K * N + 1), lcm))[N - 1:]
        H = data.draw(st.sampled_from([h for h in running if h <= 30_000] or [running[0]]))
        window = data.draw(st.one_of(
            st.integers(1, 3).flatmap(lambda m: st.sampled_from([m * H - 1, m * H, m * H + 1])),
            st.integers(1, H),
        ))
        window = min(max(window, K * N), 100_000)
        assert cs.greedy_cover(N, K, seed, window) == naive_greedy(N, K, seed, window)

    def test_oracle_steps_reach_zero(self):
        # a fully covered window leaves empty chunks behind; the trace still matches
        trace = naive_greedy(2, 6, 0, 12)
        assert trace.final_uncovered_count == 0
        assert cs.greedy_cover(2, 6, 0, 12) == trace


class TestGreedyStepInvariant:
    def _trace(self, after_random, steps):
        return GreedyTrace(
            N=2, K=3, window=100, seed=0, random_residues=((3, 0), (4, 0)),
            uncovered_after_random=after_random, steps=tuple(steps),
            system=cs.ResidueSystem(()), final_uncovered_count=steps[-1].uncovered_after,
        )

    def test_f_one_must_empty(self):
        good = self._trace(40, [GreedyStep(5, (), 1, 0, 0)])
        bad = self._trace(40, [GreedyStep(5, (), 1, 0, 3)])
        assert cs.greedy_step_invariant(good)
        assert not cs.greedy_step_invariant(bad)

    def test_f_zero_requires_empty_before(self):
        good = self._trace(0, [GreedyStep(5, (), 0, 0, 0)])
        bad = self._trace(10, [GreedyStep(5, (), 0, 0, 5)])
        assert cs.greedy_step_invariant(good)
        assert not cs.greedy_step_invariant(bad)

    def test_contraction_violation_detected(self):
        bad = self._trace(100, [GreedyStep(5, (), 5, 0, 99)])
        assert not cs.greedy_step_invariant(bad, slack=0)

    def test_real_traces_pass(self):
        for seed in (0, 1, 2):
            trace = cs.greedy_cover(3, 8, seed=seed, window=10**4)
            assert cs.greedy_step_invariant(trace)


class TestBlockSupply:
    def test_hand_sums(self):
        r1 = cs.block_supply_check(1)
        assert (r1.lhs, r1.rhs, r1.holds) == (3, 1, True)
        r2 = cs.block_supply_check(2)
        assert (r2.lhs, r2.rhs, r2.holds) == (15, 4, True)

    def test_level_five(self):
        assert cs.block_supply_check(5).holds

    def test_sieve_range_guard(self):
        with pytest.raises(GuardExceeded):
            cs.block_supply_check(9)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            cs.block_supply_check(0)


class TestExactCoverConstruct:
    def test_depth_one(self):
        plan = cs.exact_cover_construct(1)
        assert plan.system.pairs() == [(2, 0), (2, 1)]
        assert plan.min_modulus_bound == 1
        assert bool(cs.is_exact_cover(plan.system))

    def test_depth_two(self):
        plan = cs.exact_cover_construct(2)
        assert len(plan.system) == 10
        assert sorted(plan.system.pairs()) == [(10, r) for r in range(10)]
        assert plan.min_modulus_bound == 4
        assert plan.system.multiplicity() == 10 <= plan.multiplicity_bound == 27

    def test_depth_three(self):
        plan = cs.exact_cover_construct(3)
        mods = Counter(c.modulus for c in plan.system.classes)
        assert len(plan.system) == 294
        assert mods == Counter({290: 232, 310: 62})
        assert plan.system.reciprocal_sum() == 1

    def test_postconditions_verified_independently(self):
        for J in (1, 2, 3):
            plan = cs.exact_cover_construct(J)
            assert bool(cs.is_exact_cover(plan.system))
            assert min(c.modulus for c in plan.system.classes) > plan.min_modulus_bound
            assert plan.system.multiplicity() <= plan.multiplicity_bound

    def test_moduli_are_prime_block_products(self):
        plan = cs.exact_cover_construct(3)
        for n in {c.modulus for c in plan.system.classes}:
            fac = cs.factorize(n).pairs
            assert all(e == 1 for _, e in fac)  # squarefree
            primes = [p for p, _ in fac]
            assert len(primes) == 3
            for p, block in zip(primes, plan.prime_blocks):
                assert p in block

    def test_ceiling(self):
        with pytest.raises(GuardExceeded):
            cs.exact_cover_construct(5)

    def test_minimal_block_schedule(self):
        assert cs.minimal_block_schedule(4) == [1, 2, 5, 17, 67]

    @pytest.mark.parametrize("J", range(1, 7))
    def test_minimal_block_schedule_against_linear_search(self, J):
        assert cs.minimal_block_schedule(J) == linear_block_schedule(J)

    def test_minimal_block_schedule_deep(self):
        # recorded from the linear search, too slow for the suite at J = 8
        assert cs.minimal_block_schedule(8) == [1, 2, 5, 17, 67, 298, 1522, 8817, 57557]

    def test_minimal_schedule_construction_still_exact(self):
        for J in (2, 3):
            plan = cs.exact_cover_construct(J, minimal_schedule=True)
            assert bool(cs.is_exact_cover(plan.system))
            assert min(c.modulus for c in plan.system.classes) > plan.min_modulus_bound
            assert plan.system.multiplicity() <= plan.multiplicity_bound


class TestPrimeProductModuli:
    def test_n100_prime_window(self):
        st = cs.prime_product_moduli(100)
        assert st.threshold == pytest.approx(39.3756, abs=1e-3)
        assert st.primes == (41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)

    def test_sigma_ratio_matches_direct_product(self):
        st = cs.prime_product_moduli(100)
        direct = Fraction(1)
        for p in st.primes:
            direct *= Fraction(p + 1, p)
        assert st.sigma_ratio == direct

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            cs.prime_product_moduli(10)

    def test_full_divisor_stats(self):
        st = cs.prime_product_moduli(50, full_divisor_set=True)
        assert st.divisor_count == 2 ** len(st.primes) - 1
        assert st.alpha_all_divisors > float(st.beta_upper_bound)

    def test_exact_alpha_matches_float(self):
        st = cs.prime_product_moduli(50, full_divisor_set=True)
        divisors = [1]
        for p in st.primes:
            divisors += [d * p for d in divisors]
        exact = cs.alpha(divisors[1:])  # every divisor d > 1 of H
        assert float(exact) == pytest.approx(st.alpha_all_divisors, rel=1e-9)

    def test_divisor_guard(self):
        with pytest.raises(GuardExceeded):
            cs.prime_product_moduli(100, full_divisor_set=True, guard=100)


class TestExtendWitness:
    def test_worked_example(self):
        system = cs.ResidueSystem.from_pairs([(7, 3), (5, 2), (6, 1)])
        assert cs.extend_witness(system, 10, 1) == 0

    def test_smooth_cover_error(self):
        system = cs.ResidueSystem.from_pairs([(2, 0), (2, 1), (7, 3)])
        with pytest.raises(SmoothCoverError):
            cs.extend_witness(system, 8, 2)

    def test_empty_system(self):
        assert cs.extend_witness(cs.ResidueSystem(()), 10, 1) == 0

    def test_modulus_range_enforced(self):
        with pytest.raises(ValueError):
            cs.extend_witness(cs.ResidueSystem.from_pairs([(12, 1)]), 10, 1)
        with pytest.raises(ValueError):
            cs.extend_witness(cs.ResidueSystem.from_pairs([(1, 0)]), 10, 1)

    def test_multiplicity_enforced(self):
        system = cs.ResidueSystem.from_pairs([(6, 1), (6, 2)])
        with pytest.raises(ValueError):
            cs.extend_witness(system, 10, 1)

    def test_randomized_witnesses_verified(self):
        rnd = random.Random(50)
        produced = 0
        while produced < 100:
            B = rnd.randint(8, 40)
            s = rnd.randint(1, 2)
            k = rnd.randint(1, 6)
            pairs = []
            counts = Counter()
            while len(pairs) < k:
                n = rnd.randint(2, B)
                if counts[n] < s:
                    counts[n] += 1
                    pairs.append((n, rnd.randrange(n)))
            system = cs.ResidueSystem.from_pairs(pairs)
            try:
                A = cs.extend_witness(system, B, s)
            except SmoothCoverError:
                continue
            assert all(A % n != r for n, r in system.pairs())
            produced += 1
