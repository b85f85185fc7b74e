import dataclasses
import gc
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import coversieve as cs
from coversieve.core import GuardExceeded, is_prime

from conftest import divisors_of


class TestResidueClass:
    def test_residue_reduced(self):
        assert cs.ResidueClass(4, 7).residue == 3
        assert cs.ResidueClass(4, -1).residue == 3
        assert cs.ResidueClass(1, 99).residue == 0

    def test_bad_modulus(self):
        with pytest.raises(ValueError):
            cs.ResidueClass(0, 0)

    def test_zero_modulus_rejected_before_reduction(self):
        with pytest.raises(ValueError):
            cs.ResidueClass(0, 1)

    def test_frozen(self):
        c = cs.ResidueClass(3, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.residue = 2
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.modulus = 5

    def test_equal_after_reduction_with_equal_hashes(self):
        assert cs.ResidueClass(3, 7) == cs.ResidueClass(3, 1)
        assert hash(cs.ResidueClass(3, 7)) == hash(cs.ResidueClass(3, 1))
        assert len({cs.ResidueClass(3, 7), cs.ResidueClass(3, 1), cs.ResidueClass(3, -2)}) == 1

    def test_sorted_by_modulus_then_residue(self):
        classes = [cs.ResidueClass(n, r) for n, r in [(5, 1), (3, 2), (4, 0), (3, 1), (5, 0)]]
        assert [(c.modulus, c.residue) for c in sorted(classes)] == [
            (3, 1), (3, 2), (4, 0), (5, 0), (5, 1)]

    def test_slotted(self):
        c = cs.ResidueClass(3, 1)
        assert not hasattr(c, "__dict__")
        assert set(type(c).__slots__) == {"modulus", "residue"}


# repeats, a modulus 1, negative and oversized residues
MIXED_PAIRS = [(4, 1), (2, 0), (4, 1), (3, -1), (5, 12), (1, 7), (2**200, -1)]
MIXED_REDUCED = [(4, 1), (2, 0), (4, 1), (3, 2), (5, 2), (1, 0), (2**200, 2**200 - 1)]


class TestResidueSystem:
    def test_three_constructors_agree(self):
        by_pairs = cs.ResidueSystem.from_pairs(MIXED_PAIRS)
        by_classes = cs.ResidueSystem(tuple(cs.ResidueClass(n, r) for n, r in MIXED_PAIRS))
        by_columns = cs.ResidueSystem.from_columns(*zip(*MIXED_PAIRS))
        for other in (by_classes, by_columns):
            assert other == by_pairs and hash(other) == hash(by_pairs)
            assert other.classes == by_pairs.classes
            assert other.pairs() == by_pairs.pairs() == MIXED_REDUCED
            assert str(other) == str(by_pairs)
            assert other.moduli == by_pairs.moduli and other.residues == by_pairs.residues

    def test_residues_reduced_into_range(self):
        sys_ = cs.ResidueSystem.from_pairs(MIXED_PAIRS)
        assert list(zip(sys_.moduli, sys_.residues)) == MIXED_REDUCED
        assert [(c.modulus, c.residue) for c in sys_.classes] == MIXED_REDUCED
        assert str(sys_) == "{" + ", ".join(f"({n},{r})" for n, r in MIXED_REDUCED) + "}"

    @pytest.mark.parametrize("n", [0, -3])
    def test_nonpositive_modulus_rejected_by_every_constructor(self, n):
        message = f"modulus must be >= 1, got {n}"
        with pytest.raises(ValueError, match=message):
            cs.ResidueSystem.from_pairs([(2, 0), (n, 1), (-7, 0)])
        with pytest.raises(ValueError, match=message):
            cs.ResidueSystem.from_columns((2, n, -7), (0, 1, 0))
        with pytest.raises(ValueError, match=message):
            cs.ResidueSystem((cs.ResidueClass(2, 0), cs.ResidueClass(n, 1)))

    def test_columns_of_unequal_length_rejected(self):
        with pytest.raises(ValueError):
            cs.ResidueSystem.from_columns((2, 3), (0,))

    def test_empty(self):
        empties = (cs.ResidueSystem(()), cs.ResidueSystem.from_pairs([]),
                   cs.ResidueSystem.from_columns((), ()))
        for sys_ in empties:
            assert sys_ == empties[0] and hash(sys_) == hash(empties[0])
            assert len(sys_) == 0 and list(sys_) == [] and sys_.classes == ()
            assert sys_.pairs() == [] and sys_.runs() == () and str(sys_) == "{}"
            assert sys_.multiplicity() == 0 and sys_.reciprocal_sum() == 0

    def test_order_matters_for_equality(self):
        a = cs.ResidueSystem.from_pairs([(2, 0), (3, 1)])
        b = cs.ResidueSystem.from_pairs([(3, 1), (2, 0)])
        assert a != b and a == cs.ResidueSystem.from_pairs([(2, 2), (3, 4)])
        assert a != a.pairs() and a != tuple(a.classes)
        assert len({a, b, cs.ResidueSystem.from_pairs([(2, 2), (3, 4)])}) == 2

    def test_classes_built_once_and_iterated_in_order(self):
        sys_ = cs.ResidueSystem.from_pairs(MIXED_PAIRS)
        assert sys_.classes is sys_.classes
        assert list(sys_) == list(sys_.classes)
        assert all(type(c) is cs.ResidueClass for c in sys_)

    def test_classes_given_are_kept(self):
        classes = (cs.ResidueClass(3, 1), cs.ResidueClass(2, 0))
        assert cs.ResidueSystem(classes).classes is classes

    def test_immutable(self):
        sys_ = cs.ResidueSystem.from_pairs([(2, 0)])
        for name in ("moduli", "residues", "classes"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(sys_, name, ())
        with pytest.raises(dataclasses.FrozenInstanceError):
            del sys_.moduli

    def test_pickle_and_repr(self):
        sys_ = cs.ResidueSystem.from_pairs([(4, 5), (2, 0)])
        assert pickle.loads(pickle.dumps(sys_)) == sys_
        assert repr(sys_) == ("ResidueSystem(classes=(ResidueClass(modulus=4, residue=1), "
                              "ResidueClass(modulus=2, residue=0)))")

    def test_runs_of_equal_adjacent_moduli(self):
        sys_ = cs.ResidueSystem.from_pairs([(4, 1), (4, 3), (2, 0), (4, 0), (4, 2), (4, 1)])
        assert sys_.runs() == ((4, 0, 2), (2, 2, 3), (4, 3, 6))
        assert sys_.multiplicity() == 5
        assert sys_.reciprocal_sum() == Fraction(5, 4) + Fraction(1, 2)

    def test_order_and_duplicates_preserved(self):
        sys_ = cs.ResidueSystem.from_pairs([(4, 1), (2, 0), (4, 1)])
        assert sys_.pairs() == [(4, 1), (2, 0), (4, 1)]
        assert sys_.multiplicity() == 2

    def test_reciprocal_sum_is_the_fraction_sum(self):
        rnd = random.Random(12)
        for _ in range(80):
            mods = [rnd.choice(divisors_of(rnd.choice([360, 5040, 30030])))
                    for _ in range(rnd.randint(0, 12))]
            mods += mods[:2] + [1] * rnd.randint(0, 2)  # repeats and modulus 1
            rnd.shuffle(mods)
            sys_ = cs.ResidueSystem.from_pairs((n, rnd.randrange(n)) for n in mods)
            expected = sum((Fraction(1, n) for n in mods), Fraction(0))
            assert sys_.reciprocal_sum() == expected


SMALL_PRIMES = [2, 3, 5, 7, 11, 13]
NEAR_1000 = [983, 991, 997, 1009, 1013, 1019]  # the last primes tried and the first not
ABOVE_1E6 = [1000003, 1000033, 1299709]


class TestFactorize:
    def test_one_is_empty_with_sentinels(self):
        f = cs.factorize(1)
        assert f.pairs == ()
        assert f.largest_prime() == 0

    def test_small(self):
        assert cs.factorize(12).pairs == ((2, 2), (3, 1))
        assert cs.factorize(360).pairs == ((2, 3), (3, 2), (5, 1))

    def test_against_trial_division(self):
        rnd = random.Random(1)
        for _ in range(300):
            n = rnd.randint(2, 10**9)
            fac = dict(cs.factorize(n).pairs)
            m = n
            for p in sorted(fac):
                assert all(p % q for q in range(2, math.isqrt(p) + 1))
                for _ in range(fac[p]):
                    assert m % p == 0
                    m //= p
            assert m == 1

    def test_rebuild_bijection_to_1e6(self):
        # reconstruction must invert factorization on the whole range
        for n in range(1, 10**6 + 1):
            if math.prod(p**e for p, e in cs.factorize(n).pairs) != n:
                pytest.fail(f"rebuild mismatch at {n}")

    def test_pollard_path(self):
        n = 1000003 * 1000033
        assert cs.factorize(n).pairs == ((1000003, 1), (1000033, 1))

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            cs.factorize(0)

    # trial division stops at 997; cofactors below 10^6 are taken as prime,
    # larger ones go to Miller-Rabin and Pollard rho
    @pytest.mark.parametrize("n", [
        997**2, 997 * 1009, 1009**2, 999983, 10**6 - 1, 10**6, 10**6 + 1,
        2**61 - 1, 3**40 * 1009, 1009 * 1013 * 3, 999983 * 1000003,
    ])
    def test_boundary_against_sympy(self, n):
        sympy = pytest.importorskip("sympy")
        assert dict(cs.factorize(n).pairs) == sympy.factorint(n)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.lists(
        st.sampled_from(SMALL_PRIMES) | st.sampled_from(NEAR_1000) | st.sampled_from(ABOVE_1E6),
        min_size=1, max_size=6,
    ))
    def test_products_against_sympy(self, primes):
        sympy = pytest.importorskip("sympy")
        n = math.prod(primes)
        assert dict(cs.factorize(n).pairs) == sympy.factorint(n)


PSI12 = 318665857834031151167461  # least strong pseudoprime to bases 2..37
PSI13 = 3317044064679887385961981  # least strong pseudoprime to bases 2..41


class TestIsPrime:
    def test_psi12_is_composite(self):
        assert is_prime(PSI12) is False
        assert cs.factorize(PSI12).pairs == ((399165290221, 1), (798330580441, 1))
        assert cs.factorize(7 * PSI12).pairs == ((7, 1), (399165290221, 1), (798330580441, 1))

    @pytest.mark.parametrize("n", [PSI13, 2**89 - 1], ids=["psi13", "mersenne89"])
    def test_unproven_range_raises(self, n):
        with pytest.raises(ValueError):
            is_prime(n)

    def test_composite_witness_is_proof_at_any_size(self):
        assert is_prime(PSI13 * 3) is False
        assert is_prime(2**89 + 1) is False

    def test_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        rnd = random.Random(6)
        # least strong pseudoprimes to the first k prime bases, k = 1..9 (k = 7, 8 share one)
        hard = [2047, 1373653, 25326001, 3215031751, 2152302898747,
                3474749660383, 341550071728321, 3825123056546413051]
        samples = hard + list(range(2, 2000)) + [rnd.randrange(2, PSI13) for _ in range(2000)]
        for n in samples:
            assert is_prime(n) == sympy.isprime(n), n


class TestSmoothSplit:
    def test_examples(self):
        assert cs.smooth_split(360, 3) == (72, 5)
        assert cs.smooth_split(7, 10) == (7, 1)
        assert cs.smooth_split(1, 2) == (1, 1)

    @pytest.mark.parametrize("Q", [math.nan, math.inf, -math.inf, 0.5])
    def test_rejects_non_finite_or_small_q(self, Q):
        with pytest.raises(ValueError):
            cs.smooth_split(12, Q)

    def test_split_properties(self):
        rnd = random.Random(2)
        for _ in range(400):
            n = rnd.randint(1, 10**6)
            Q = rnd.choice([1, 2, 3, 5, 7, 11, 16.5, 100])
            s, r = cs.smooth_split(n, Q)
            assert s * r == n
            assert cs.factorize(s).largest_prime() <= Q
            assert r == 1 or cs.factorize(r).pairs[0][0] > Q

    def test_smooth_divisors_divide_smooth_part(self):
        rnd = random.Random(3)
        for _ in range(60):
            n = rnd.randint(2, 5000)
            Q = rnd.choice([2, 3, 5, 7])
            s, _ = cs.smooth_split(n, Q)
            for d in divisors_of(n):
                if cs.factorize(d).largest_prime() <= Q:
                    assert s % d == 0


class TestPrimesIn:
    def test_examples(self):
        assert cs.primes_in(1, 4) == [2, 3]
        assert cs.primes_in(4, 27) == [5, 7, 11, 13, 17, 19, 23]
        assert cs.primes_in(8, 9) == []

    def test_float_bounds(self):
        assert cs.primes_in(39.37, 45.0) == [41, 43]

    def test_against_naive_to_1e5(self):
        def naive(n):
            return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))

        reference = [n for n in range(2, 10**5 + 1) if naive(n)]
        assert cs.primes_in(1, 10**5) == reference
        rnd = random.Random(4)
        for _ in range(25):
            a = rnd.randint(0, 10**5 - 1)
            b = rnd.randint(a + 1, 10**5)
            assert cs.primes_in(a, b) == [p for p in reference if a < p <= b]

    def test_requires_a_below_b(self):
        with pytest.raises(ValueError):
            cs.primes_in(5, 5)


class TestLcmGuarded:
    def test_examples(self):
        assert cs.lcm_guarded(cs.ModuliSet.from_iterable([2, 3, 4, 6, 12])) == 12
        assert cs.lcm_guarded(cs.ModuliSet.from_iterable([10, 10])) == 10
        assert cs.lcm_guarded(cs.ModuliSet.from_iterable([4, 6])) == 12

    def test_against_gcd_reduction(self):
        rnd = random.Random(5)
        for _ in range(200):
            vals = [rnd.randint(1, 500) for _ in range(rnd.randint(1, 6))]
            acc = 1
            for v in vals:
                acc = acc * v // math.gcd(acc, v)
            assert cs.lcm_guarded(cs.ModuliSet.from_iterable(vals), 500**6) == acc

    def test_guard_signal_carries_estimate(self):
        big = cs.ModuliSet.from_iterable(range(101, 201))
        with pytest.raises(GuardExceeded) as info:
            cs.lcm_guarded(big, 64)
        assert info.value.estimate > 64


# Moduli all 5-smooth, so the decomposition modulus M at Q = 5 equals the
# scan period.
GUARD_PAIRS = [(4, 1), (6, 5), (9, 2), (10, 3), (15, 7)]
GUARD_LCM = 180


@pytest.mark.parametrize("call", [
    lambda g: cs.exact_density(cs.ResidueSystem.from_pairs(GUARD_PAIRS), g),
    lambda g: cs.delta_minus(cs.ModuliSet.from_iterable(n for n, _ in GUARD_PAIRS), "greedy", g),
    lambda g: cs.decompose(cs.ResidueSystem.from_pairs(GUARD_PAIRS), 5, g),
], ids=["exact_density", "delta_minus", "decompose"])
def test_guard_bounds_the_lcm_value(call):
    call(GUARD_LCM)
    with pytest.raises(GuardExceeded) as info:
        call(GUARD_LCM - 1)
    assert info.value.estimate == GUARD_LCM


def _system(lo: int, hi: int, seed: int) -> cs.ResidueSystem:
    rnd = random.Random(seed)
    return cs.ResidueSystem.from_pairs((n, rnd.randrange(n)) for n in range(lo, hi))


@pytest.mark.parametrize("call", [
    lambda: cs.delta_minus(cs.ModuliSet.from_iterable([2, 3, 4, 6, 12])),
    lambda: cs.enumerate_moments(cs.ModuliSet.from_iterable([2, 3, 4, 5])),
    lambda: cs.pair_formula_moments(cs.ModuliSet.from_iterable([3, 4, 5, 7])),
    lambda: cs.delta_plus(cs.ModuliSet.from_iterable(range(41, 81))),
    lambda: cs.exact_density(_system(41, 81, 0)),
    lambda: cs.decompose(_system(101, 141, 1), 3),
    lambda: cs.sample_moments(cs.ModuliSet.from_iterable(range(11, 21)), 3),
    lambda: cs.factorize(1000003 * 1000033),
], ids=["delta_minus", "enumerate_moments", "pair_formula_moments", "delta_plus",
        "exact_density_planner", "decompose", "sample_moments_engine", "factorize_rho"])
def test_calls_leave_no_reference_cycles(call):
    # a recursive closure refers to itself; left as a cycle, it would keep
    # its masks or memo alive until the next collection
    call()  # build lazy tables first
    gc.collect()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestCrt:
    def test_basic(self):
        assert cs.crt_coprime([(3, 2), (5, 3), (7, 2)]) == 23
        assert cs.crt_coprime([(1, 0)]) == 0
        assert cs.crt_coprime([]) == 0

    def test_rejects_common_factor(self):
        with pytest.raises(ValueError):
            cs.crt_coprime([(4, 1), (6, 2)])
