import itertools
import math
import random
from fractions import Fraction

import pytest

import coversieve as cs
from coversieve.bounds import _pair_base, _squarefree_divisors

from conftest import naive_membership, pair_sums, random_system


class TestAlpha:
    def test_worked_product(self):
        system = cs.ResidueSystem.from_pairs([(2, 0), (4, 1), (3, 0)])
        assert cs.alpha(system) == Fraction(1, 4)

    def test_interval_telescopes(self):
        # over (N, KN] the product collapses to N / KN
        S = cs.ModuliSet.from_iterable(range(11, 31))
        assert cs.alpha(S) == Fraction(10, 30)

    def test_modulus_one_kills_product(self):
        assert cs.alpha(cs.ResidueSystem.from_pairs([(1, 0)])) == 0

    def test_depends_only_on_moduli(self):
        rnd = random.Random(30)
        for _ in range(40):
            system = random_system(rnd, max_classes=5)
            perm = list(system.classes)
            rnd.shuffle(perm)
            assert cs.alpha(system) == cs.alpha(cs.ResidueSystem(tuple(perm)))


class TestBeta:
    def test_single_noncoprime_pair(self):
        system = cs.ResidueSystem.from_pairs([(2, 0), (4, 1), (3, 0)])
        assert cs.beta(system) == Fraction(1, 8)

    def test_coprime_is_zero(self):
        assert cs.beta(cs.ResidueSystem.from_pairs([(2, 0), (3, 1)])) == 0

    def test_multiset_pairs_counted(self):
        system = cs.ResidueSystem.from_pairs([(2, 0), (2, 1), (4, 3)])
        assert cs.beta(system) == Fraction(1, 2)

    def test_nonnegative_zero_iff_pairwise_coprime(self):
        rnd = random.Random(31)
        for _ in range(120):
            system = random_system(rnd, max_classes=5)
            b = cs.beta(system)
            assert b >= 0
            mods = [c.modulus for c in system.classes]
            coprime = all(
                math.gcd(mods[i], mods[j]) == 1
                for i in range(len(mods))
                for j in range(i + 1, len(mods))
            )
            assert (b == 0) == coprime


class TestPairCorrectionBound:
    def test_plain_worked(self):
        system = cs.ResidueSystem.from_pairs([(2, 0), (4, 1), (3, 0)])
        cert = cs.pair_correction_bound(system)
        assert cert.lower_bound == Fraction(1, 8)
        assert cert.kind == "pair-correction"
        assert cert.conclusion == "positive"
        assert cert.lower_bound <= cs.exact_density(system).value

    def test_refined_worked_is_tight_here(self):
        system = cs.ResidueSystem.from_pairs([(2, 0), (4, 1), (3, 0)])
        cert = cs.pair_correction_bound(system, refined=True)
        assert cert.lower_bound == Fraction(1, 6)
        assert cert.lower_bound == cs.exact_density(system).value

    def test_coprime_certificate_is_alpha(self):
        system = cs.ResidueSystem.from_pairs([(2, 0), (3, 1), (5, 2)])
        cert = cs.pair_correction_bound(system, refined=True)
        assert cert.lower_bound == cs.alpha(system)
        assert cert.components["beta"] == 0

    def test_plain_equals_alpha_minus_beta(self):
        rnd = random.Random(32)
        for _ in range(80):
            system = random_system(rnd)
            cert = cs.pair_correction_bound(system)
            assert cert.lower_bound == cs.alpha(system) - cs.beta(system)

    def test_refined_at_least_plain(self):
        rnd = random.Random(33)
        for _ in range(120):
            system = random_system(rnd)
            assert (
                cs.pair_correction_bound(system, refined=True).lower_bound
                >= cs.pair_correction_bound(system).lower_bound
            )

    def test_refined_below_delta_under_any_order(self):
        rnd = random.Random(34)
        for _ in range(25):
            system = random_system(rnd, max_classes=4)
            delta = cs.exact_density(system).value
            for perm in itertools.permutations(system.classes):
                cert = cs.pair_correction_bound(cs.ResidueSystem(perm), refined=True)
                assert cert.lower_bound <= delta

    def test_sort_desc_toggle_still_sound(self):
        rnd = random.Random(35)
        for _ in range(60):
            system = random_system(rnd)
            cert = cs.pair_correction_bound(system, refined=True, sort_desc=True)
            assert cert.lower_bound <= cs.exact_density(system).value


def running_alpha(mods):
    """prod (1 - 1/n) as a running Fraction product, the reference for alpha."""
    out = Fraction(1)
    for n in mods:
        out *= Fraction(n - 1, n)
    return out


# moduli for the Moebius kernel's edge cases: omega up to 7 (30030 =
# 2*3*5*7*11*13, 510510 = 30030*17), moduli with cofactors above 10^6
# that factor by Miller-Rabin and Pollard rho, all-equal moduli, and
# modulus 1 first and last
WIDE_MODULI = [
    [30030, 510510, 2 * 510510, 3 * 30030, 7 * 510510, 17 * 30030, 6, 35, 11, 221],
    [510510, 1021020, 30030, 60060, 19 * 23, 19 * 510510, 23],
    [2 * 1000003, 1009 * 1013 * 3, 1000003, 999983 * 1000003, 1000003**2, 1013, 6, 9],
    [1009 * 1013 * 3, 2 * 1000003, 1009 * 2, 1013 * 5, 3 * 1000003, 999983],
    [12] * 7, [510510] * 4, [7] * 5, [1000003 * 2] * 3,
    [1, 6, 10, 15, 4], [6, 10, 15, 4, 1], [1, 4, 1], [1], [1, 1], [],
]
WIDE_POOL = [30030, 510510, 2 * 1000003, 1009 * 1013 * 3, 1000003, 1, 2, 3, 4, 6, 17, 34]


class TestPairKernelOracle:
    """beta, alpha and both bound forms against direct references, exactly."""

    @staticmethod
    def systems():
        rnd = random.Random(77)
        for _ in range(60):
            # small moduli with replacement, a forced repeat, and modulus 1 in
            # every other system (it zeroes every suffix product before it)
            mods = [rnd.randint(2, 40) for _ in range(rnd.randint(0, 30))]
            mods += [rnd.randint(2, 40)] * 2 + [1] * (len(mods) % 2)
            rnd.shuffle(mods)
            yield cs.ResidueSystem.from_pairs((n, rnd.randrange(n)) for n in mods)
        for mods in WIDE_MODULI:
            yield cs.ResidueSystem.from_pairs((n, rnd.randrange(n)) for n in mods)
        for _ in range(20):
            # multiples of the pool, so that wide moduli share primes
            mods = [rnd.choice(WIDE_POOL) * rnd.randint(1, 30) for _ in range(rnd.randint(1, 25))]
            yield cs.ResidueSystem.from_pairs((n, rnd.randrange(n)) for n in mods)

    def test_beta_and_plain_bound(self):
        for system in self.systems():
            plain, _ = pair_sums([c.modulus for c in system.classes])
            assert cs.beta(system) == plain
            cert = cs.pair_correction_bound(system)
            assert cert.components["beta"] == plain
            assert cert.lower_bound == cs.alpha(system) - plain

    @pytest.mark.parametrize("sort_desc", [False, True])
    def test_refined_bound(self, sort_desc):
        for system in self.systems():
            classes = list(system.classes)
            if sort_desc:
                classes.sort(key=lambda c: (-c.modulus, c.residue))
            plain, refined = pair_sums([c.modulus for c in classes])
            cert = cs.pair_correction_bound(system, refined=True, sort_desc=sort_desc)
            assert cert.components["beta"] == plain
            assert cert.components["refined_correction"] == refined
            assert cert.lower_bound == cs.alpha(system) - refined

    def test_beta_resumed_from_a_base(self):
        # one base serves several systems, as the certificate's patterns
        rnd = random.Random(79)
        for system in self.systems():
            mods = [c.modulus for c in system.classes]
            k = rnd.randint(0, len(mods))
            base = _pair_base(mods[:k], math.lcm(*mods), mods[k:])
            before = (base[0], base[1], dict(base[2]))
            for rest in (mods[k:], rnd.sample(mods[k:], rnd.randint(0, len(mods) - k))):
                assert cs.beta(rest, base) == pair_sums(mods[:k] + rest)[0]
            assert base == before

    def test_alpha_is_running_product(self):
        for system in self.systems():
            assert cs.alpha(system) == running_alpha([c.modulus for c in system.classes])

    @pytest.mark.parametrize("Q", [3, 5])
    def test_certificate_and_averaged_beta_per_group(self, Q):
        rnd = random.Random(78 + Q)
        for _ in range(15):
            mods = [rnd.randint(1, 90) for _ in range(rnd.randint(1, 25))]
            mods += [rnd.choice(mods)]
            system = cs.ResidueSystem.from_pairs((n, rnd.randrange(n)) for n in mods)
            dec = cs.decompose(system, Q)
            cert = cs.positivity_certificate(system, Q)
            bound = avg_beta = Fraction(0)
            for g, audit in zip(dec.groups, cert.components["per_pattern"], strict=True):
                sub = [c.modulus for c in g.subsystem.classes]
                plain, _ = pair_sums(sub)
                a = running_alpha(sub)
                assert (audit["alpha"], audit["beta"]) == (a, plain)
                bound += g.count * max(Fraction(0), a - plain)
                avg_beta += g.count * plain
            assert cert.lower_bound == bound / dec.M
            assert cs.averaged_beta(system, Q) == avg_beta / dec.M

    @pytest.mark.parametrize("pairs, Q", [
        # (10, 3) lands as (5, 3), the rough pair of the base class (5, 3)
        ([(10, 3), (5, 3), (4, 1), (15, 8)], 2),
        # repeated identical classes, in the base and among the extras, and
        # distinct extras with one rough pair: (20, 3) and (10, 3) give (5, 3)
        ([(6, 1), (6, 1), (7, 2), (7, 2), (14, 9), (35, 4), (35, 4), (30, 7), (30, 7),
          (20, 3), (10, 3)], 3),
        # fully smooth classes: rough part 1, so alpha(C_h) = 0 where they land
        ([(4, 1), (6, 5), (9, 2), (7, 3), (21, 10)], 3),
        # every modulus even: no base class
        ([(2, 1), (6, 3), (10, 7), (14, 0), (12, 5), (30, 11)], 2),
        # only base classes, so M = 1 and one pattern
        ([(3, 1), (9, 4), (15, 2), (5, 0), (21, 20)], 2),
        # extras sharing rough moduli with each other and with the base:
        # (10, 3) and (20, 1) give (5, 3) and (5, 1) beside the base (5, 0),
        # and (14, 5) gives (7, 5) beside the base (7, 2)
        ([(5, 0), (10, 3), (20, 1), (7, 2), (14, 5)], 2),
    ])
    def test_certificate_edge_cases_against_naive_membership(self, pairs, Q):
        system = cs.ResidueSystem.from_pairs(pairs)
        patterns, counts = naive_membership(system, Q)
        cert = cs.positivity_certificate(system, Q)
        audit = cert.components["per_pattern"]
        assert cert.components["M"] == len(patterns)
        assert {patterns[p["representative"]]: p["h_count"] for p in audit} == counts
        bound = avg_beta = Fraction(0)
        for p in audit:
            # C_h from the membership rule, identical rough pairs merged
            sub = sorted({
                (rough, pairs[i][1] % rough)
                for i in patterns[p["representative"]]
                for rough in [cs.smooth_split(pairs[i][0], Q)[1]]
            })
            mods = [n for n, _ in sub]
            plain, _ = pair_sums(mods)
            a = running_alpha(mods)
            assert (p["alpha"], p["beta"], p["term"]) == (a, plain, max(Fraction(0), a - plain))
            bound += p["h_count"] * max(Fraction(0), a - plain)
            avg_beta += p["h_count"] * plain
        assert cert.lower_bound == bound / len(patterns)
        assert cs.averaged_beta(system, Q) == avg_beta / len(patterns)

    def test_divisor_cache_is_bounded(self):
        # one entry per distinct modulus seen; the bound caps its memory
        assert _squarefree_divisors.cache_info().maxsize is not None


class TestSmoothTailSum:
    def test_three_smooth_tail(self):
        tail = cs.smooth_tail_sum(10, 3)
        assert tail.value == Fraction(37, 72)

    def test_powers_of_two(self):
        tail = cs.smooth_tail_sum(1, 2)
        assert tail.value == 1

    def test_five_smooth_below_full_product(self):
        tail = cs.smooth_tail_sum(100, 5)
        assert tail.value == Fraction(5503, 25920)
        assert tail.value < cs.euler_product(5) == Fraction(15, 4)

    def test_monotonicity(self):
        assert cs.smooth_tail_sum(10, 3).value > cs.smooth_tail_sum(50, 3).value
        assert cs.smooth_tail_sum(50, 3).value < cs.smooth_tail_sum(50, 5).value

    def test_segment_identity(self):
        # tail(N) - tail(10N) must equal the directly enumerated segment
        for N, Q in [(10, 3), (30, 5), (12, 7)]:
            seg = sum(
                (Fraction(1, n) for n in cs.smooth_numbers(10 * N, Q) if n > N),
                Fraction(0),
            )
            assert cs.smooth_tail_sum(N, Q).value - cs.smooth_tail_sum(10 * N, Q).value == seg

    def test_shape_fields(self):
        tail = cs.smooth_tail_sum(1000, 10)
        assert tail.u == pytest.approx(3.0, abs=1e-12)
        assert tail.asymptotic_shape > 0

    def test_rejects_q_below_two(self):
        with pytest.raises(ValueError):
            cs.smooth_tail_sum(10, 1.5)

    @pytest.mark.parametrize("Q", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_q(self, Q):
        with pytest.raises(ValueError, match="finite"):
            cs.smooth_tail_sum(10, Q)


class TestLThreshold:
    def test_million(self):
        assert cs.reciprocal_sum_threshold(10**6, 1) == pytest.approx(160.6657, abs=0.001)

    def test_small_n_direct(self):
        x = math.log(20)
        expected = math.exp(math.log(20) * math.log(math.log(x)) / math.log(x))
        assert cs.reciprocal_sum_threshold(20, 1) == pytest.approx(expected, rel=1e-12)

    def test_decreasing_in_s(self):
        vals = [cs.reciprocal_sum_threshold(10**6, s) for s in (1, 10, 100)]
        assert vals[0] > vals[1] > vals[2]

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            cs.reciprocal_sum_threshold(19, 1)
        with pytest.raises(ValueError):
            cs.reciprocal_sum_threshold(10**6, 0)
