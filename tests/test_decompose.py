import importlib
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

import coversieve as cs
from coversieve import density
from coversieve.core import GuardExceeded
from coversieve.decompose import SmoothCoverError, _membership_groups

from conftest import (
    naive_membership,
    naive_subsystem,
    random_system,
    table_membership_groups,
)

WORKED = cs.ResidueSystem.from_pairs([(2, 0), (3, 1), (6, 5)])


class TestDecompose:
    def test_worked_example(self):
        dec = cs.decompose(WORKED, 2)
        assert dec.M == 2
        assert naive_subsystem(dec, 0).pairs() == [(1, 0), (3, 1)]
        assert naive_subsystem(dec, 1).pairs() == [(3, 1), (3, 2)]
        by_rep = {g.representative: g for g in dec.groups}
        assert by_rep[0].subsystem.pairs() == [(1, 0), (3, 1)]
        assert by_rep[1].subsystem.pairs() == [(3, 1), (3, 2)]

    def test_all_rough_moduli(self):
        system = cs.ResidueSystem.from_pairs([(7, 3), (11, 5), (13, 1)])
        dec = cs.decompose(system, 5)
        assert dec.M == 1
        assert len(dec.groups) == 1
        assert dec.groups[0].subsystem.pairs() == sorted(system.pairs())

    def test_fully_smooth_modulus(self):
        dec = cs.decompose(cs.ResidueSystem.from_pairs([(4, 1)]), 2)
        assert dec.M == 4
        assert naive_subsystem(dec, 1).pairs() == [(1, 0)]
        for h in (0, 2, 3):
            assert naive_subsystem(dec, h).pairs() == []

    def test_rough_moduli_coprime_to_m(self):
        rnd = random.Random(40)
        for _ in range(60):
            system = random_system(rnd, max_classes=5)
            Q = rnd.choice([2, 3, 5, 7])
            dec = cs.decompose(system, Q)
            for g in dec.groups:
                for c in g.subsystem.classes:
                    assert math.gcd(c.modulus, dec.M) == 1

    def test_membership_rule_at_every_h(self):
        rnd = random.Random(41)
        for _ in range(25):
            system = random_system(rnd, max_classes=4)
            Q = rnd.choice([2, 3, 5])
            dec = cs.decompose(system, Q)
            covered_h = 0
            for g in dec.groups:
                direct = naive_subsystem(dec, g.representative)
                assert direct.pairs() == g.subsystem.pairs()
                covered_h += g.count
            assert covered_h == dec.M

    def test_landing_conservation(self):
        # each class admits exactly M / smooth-part of the h values
        rnd = random.Random(42)
        for _ in range(40):
            system = random_system(rnd, max_classes=5)
            dec = cs.decompose(system, 3)
            landings = sum(g.count * len(g.class_indices) for g in dec.groups)
            assert landings == sum(dec.M // s for s, _ in dec.splits)

    def test_merged_duplicates_counted_once(self):
        # (3,1) and (6,4) agree mod 3 and collide in the even subsystems
        dec = cs.decompose(cs.ResidueSystem.from_pairs([(3, 1), (6, 4)]), 2)
        assert dec.M == 2
        even = naive_subsystem(dec, 0)
        assert even.pairs() == [(3, 1)]
        group = {g.representative: g for g in dec.groups}[0]
        assert len(group.class_indices) == 2 and len(group.subsystem) == 1

    def test_subsystems_share_one_rough_class_per_pair(self):
        rnd = random.Random(5)
        system = cs.ResidueSystem.from_pairs((n, rnd.randrange(n)) for n in range(101, 141))
        objects: dict[tuple[int, int], set[int]] = {}
        groups = cs.decompose(system, 3).groups
        for g in groups:
            pairs = g.subsystem.pairs()
            assert pairs == sorted(set(pairs))
            for c in g.subsystem.classes:
                objects.setdefault((c.modulus, c.residue), set()).add(id(c))
        assert len(groups) > 1 and all(len(ids) == 1 for ids in objects.values())

    def test_subsystems_built_on_first_read(self, monkeypatch):
        rnd = random.Random(6)
        system = cs.ResidueSystem.from_pairs((n, rnd.randrange(n)) for n in range(101, 141))
        # the certificate reads the decomposition it makes, but no subsystem
        module = importlib.import_module("coversieve.decompose")
        made = []
        monkeypatch.setattr(module, "decompose", lambda *a: made.append(cs.decompose(*a)) or made[-1])
        cs.positivity_certificate(system, 3)
        (dec,) = made
        assert len(dec.groups) > 1 and all("subsystem" not in vars(g) for g in dec.groups)
        first = dec.groups[0].subsystem
        assert dec.groups[0].subsystem is first
        assert all("subsystem" not in vars(g) for g in dec.groups[1:])

    def test_guard(self):
        system = cs.ResidueSystem.from_pairs([(2**20, 1), (3**13, 2)])
        with pytest.raises(GuardExceeded, match="decomposition modulus M exceeds guard of 1000000"):
            cs.decompose(system, 3, guard_m=10**6)

    def test_q_below_two_rejected(self):
        with pytest.raises(ValueError):
            cs.decompose(WORKED, 1.5)

    @pytest.mark.parametrize("Q", [math.nan, math.inf, -math.inf])
    def test_non_finite_q_rejected(self, Q):
        with pytest.raises(ValueError, match="finite"):
            cs.decompose(WORKED, Q)


def _oracle_cases():
    rnd = random.Random(43)
    for Q in (3, 5, 7):
        for k in range(30):
            yield pytest.param(random_system(rnd, max_classes=6), Q, id=f"random-Q{Q}-{k}")
    yield pytest.param(cs.ResidueSystem(()), 3, id="empty")
    yield pytest.param(cs.ResidueSystem.from_pairs([(7, 3), (11, 5), (13, 1)]), 5, id="all-rough")
    rnd = random.Random(44)
    yield pytest.param(
        cs.ResidueSystem.from_pairs((2**k, rnd.randrange(2**k)) for k in range(1, 17)), 2,
        id="powers-of-two",
    )


@pytest.mark.parametrize("system, Q", _oracle_cases())
def test_groups_match_naive_membership(system, Q):
    dec = cs.decompose(system, Q)
    patterns, counts = naive_membership(system, Q)
    assert len(patterns) == dec.M
    assert {frozenset(g.class_indices): g.count for g in dec.groups} == counts
    for g in dec.groups:
        assert 0 <= g.representative < dec.M
        assert patterns[g.representative] == frozenset(g.class_indices)


def _nested_smooth_systems(count: int):
    """Seeded systems on moduli 2^a 3^b 5^c {1, 7, 11}, half of the
    residues read off one shared x so that the p-adic balls nest."""
    rnd = random.Random(48)
    for _ in range(count):
        x = rnd.randrange(10**6)
        pairs = []
        for _ in range(rnd.randint(1, 10)):
            n = 2 ** rnd.randint(0, 6) * 3 ** rnd.randint(0, 4) * 5 ** rnd.randint(0, 2)
            n *= rnd.choice([1, 7, 11])
            pairs.append((n, x % n if rnd.random() < 0.5 else rnd.randrange(n)))
        yield cs.ResidueSystem.from_pairs(pairs), rnd.choice([2, 3, 5, 7])


def _assert_matches_table_fold(system, Q):
    dec = cs.decompose(system, Q)
    residues = [c.residue for c in system.classes]
    table = table_membership_groups(dec.splits, residues, dec.M)
    # the same patterns, counts and representatives, in the same order
    assert list(_membership_groups(dec.splits, residues, dec.M).items()) == list(table.items())
    assert [
        (sum(1 << i for i in g.class_indices), g.count, g.representative) for g in dec.groups
    ] == [(bits, cnt, rep) for bits, (cnt, rep) in sorted(table.items(), key=lambda kv: kv[1][1])]


@pytest.mark.parametrize("system, Q", _oracle_cases())
def test_groups_match_table_fold(system, Q):
    _assert_matches_table_fold(system, Q)


def test_nested_smooth_groups_match_table_fold():
    for system, Q in _nested_smooth_systems(300):
        _assert_matches_table_fold(system, Q)


def _odd_and_powers_of_two():
    # M = 2^23 at Q = 2: a table over the residues mod M holds 2^23 ints
    rnd = random.Random(3)
    mods = list(range(3, 202, 2)) + [2**j for j in range(1, 24)]
    return cs.ResidueSystem.from_pairs((n, rnd.randrange(n)) for n in mods)


def test_memory_does_not_grow_with_m():
    system = _odd_and_powers_of_two()
    tracemalloc.start()
    try:
        dec = cs.decompose(system, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dec.M == 2**23 and len(dec.groups) == 24
    assert peak < 1 << 20


def test_chain_representatives():
    # 2^(j-1) - 1 (mod 2^j) for j = 1..23 are disjoint; the h in none of
    # them are -1 (mod 2^23), so the least h of the groups are 2^j - 1
    system = cs.ResidueSystem.from_pairs((2**j, 2 ** (j - 1) - 1) for j in range(1, 24))
    dec = cs.decompose(system, 2)
    assert dec.M == 2**23
    assert [g.representative for g in dec.groups] == [2**j - 1 for j in range(24)]
    assert [g.count for g in dec.groups] == [2 ** (23 - j) for j in range(1, 24)] + [1]


class TestDecompositionIdentity:
    def test_worked_example(self):
        rep = cs.decomposition_identity(WORKED, 2)
        assert rep.lhs == Fraction(1, 6)
        assert rep.rhs == Fraction(1, 6)
        assert rep.equal

    def test_trivial_when_m_is_one(self):
        system = cs.ResidueSystem.from_pairs([(7, 3), (11, 5)])
        rep = cs.decomposition_identity(system, 5)
        assert rep.M == 1 and rep.equal

    def test_randomized_exact(self):
        rnd = random.Random(43)
        for _ in range(80):
            system = random_system(rnd, max_classes=5, allow_unit=True)
            Q = rnd.choice([2, 3, 5])
            rep = cs.decomposition_identity(system, Q)
            assert rep.equal, f"{system} Q={Q}: {rep.lhs} != {rep.rhs}"

    def test_planner_on_worked(self, monkeypatch):
        # a one-cell scan leaf leaves every step to the CRT splits
        monkeypatch.setattr(density, "SCAN_LEAF", 1)
        planned = density._split_density(WORKED.pairs(), 100)
        assert planned == cs.decomposition_identity(WORKED, 2).rhs == Fraction(1, 6)

    def test_planner_works_past_scan_guard(self, monkeypatch):
        # full period 144144 exceeds a 1e5 scan guard; one component whose
        # scan would pass the budget refuses, while splits down to leaves
        # of 1e4 cells stay within it; the unrestricted scan is the
        # independent cross-check
        system = cs.ResidueSystem.from_pairs([(84, 5), (132, 17), (234, 8), (112, 51)])
        with pytest.raises(GuardExceeded):
            cs.exact_density(system, guard=10**5)
        monkeypatch.setattr(density, "SCAN_LEAF", 10**4)
        rep = cs.exact_density(system, guard=10**5)
        assert (rep.method, rep.period) == ("planner", 144144)
        assert rep.value == Fraction(rep.uncovered_count, rep.period)
        assert rep.value == cs.exact_density(system).value


class TestAveragedBeta:
    def test_worked_example(self):
        assert cs.averaged_beta(WORKED, 2) == Fraction(1, 18)

    def test_zero_when_rough_parts_coprime(self):
        system = cs.ResidueSystem.from_pairs([(6, 1), (10, 3), (21, 2)])
        # rough parts for Q=3 are 1, 5, 7: pairwise coprime in every subsystem
        assert cs.averaged_beta(system, 3) == 0

    def test_matches_direct_per_h_average(self):
        rnd = random.Random(44)
        for _ in range(30):
            system = random_system(rnd, max_classes=4)
            Q = rnd.choice([2, 3, 5])
            dec = cs.decompose(system, Q)
            direct = sum(
                (cs.beta(naive_subsystem(dec, h)) for h in range(dec.M)), Fraction(0)
            ) / dec.M
            assert cs.averaged_beta(system, Q) == direct


class TestAveragedAlphaFloor:
    def test_worked_example(self):
        res = cs.averaged_alpha_floor(WORKED, 2)
        assert res.avg_alpha == Fraction(2, 9)
        assert res.delta_smooth == Fraction(1, 2)
        assert res.floor == pytest.approx(float(Fraction(5, 18) ** 3), rel=1e-12)
        assert res.holds

    def test_m_one_floor_below_alpha(self):
        system = cs.ResidueSystem.from_pairs([(7, 3), (11, 5)])
        res = cs.averaged_alpha_floor(system, 5)
        assert res.avg_alpha == cs.alpha(system)
        assert res.floor <= float(res.avg_alpha) + 1e-12
        assert res.holds

    def test_decomposes_once_and_builds_no_subsystem(self, monkeypatch):
        rnd = random.Random(7)
        system = cs.ResidueSystem.from_pairs((n, rnd.randrange(n)) for n in range(101, 141))
        # the per-pattern alpha comes from the certificate's patterns over
        # the one decomposition, with no subsystem built and no beta run
        module = importlib.import_module("coversieve.decompose")
        made = []
        monkeypatch.setattr(module, "decompose", lambda *a: made.append(cs.decompose(*a)) or made[-1])
        for name in ("beta", "_pair_base", "positivity_certificate"):
            monkeypatch.setattr(module, name, lambda *a, name=name: pytest.fail(f"{name} ran"))
        res = cs.averaged_alpha_floor(system, 3)
        (dec,) = made
        assert len(dec.groups) > 1 and all("subsystem" not in vars(g) for g in dec.groups)
        direct = sum((g.count * cs.alpha(g.subsystem) for g in dec.groups), Fraction(0))
        assert res.avg_alpha == direct / dec.M

    def test_smooth_cover_error(self):
        system = cs.ResidueSystem.from_pairs([(2, 0), (2, 1), (5, 2)])
        with pytest.raises(SmoothCoverError):
            cs.averaged_alpha_floor(system, 2)

    def test_holds_on_randomized_systems(self):
        rnd = random.Random(45)
        checked = 0
        while checked < 60:
            system = random_system(rnd, max_classes=5)
            Q = rnd.choice([2, 3, 5])
            try:
                res = cs.averaged_alpha_floor(system, Q)
            except SmoothCoverError:
                continue
            assert res.holds, f"{system} Q={Q}"
            checked += 1


class TestPositivityCertificate:
    def test_worked_example_tight(self):
        cert = cs.positivity_certificate(WORKED, 2)
        assert cert.lower_bound == Fraction(1, 6)
        assert cert.conclusion == "positive"
        assert cert.kind == "decomposed"

    def test_never_positive_on_exact_covers(self):
        for pairs in (
            [(2, 0), (2, 1)],
            [(2, 0), (4, 1), (4, 3)],
            [(2, 0), (3, 0), (4, 1), (6, 1), (12, 11)],
        ):
            system = cs.ResidueSystem.from_pairs(pairs)
            for Q in (2, 3, 5):
                cert = cs.positivity_certificate(system, Q)
                assert cert.conclusion == "inconclusive"
                assert cert.lower_bound <= 0

    def test_sound_against_scan(self):
        rnd = random.Random(46)
        for _ in range(100):
            system = random_system(rnd, max_classes=5)
            Q = rnd.choice([2, 3, 5, 7])
            cert = cs.positivity_certificate(system, Q)
            assert cert.lower_bound <= cs.exact_density(system).value

    def test_reduces_to_plain_bound_when_m_one(self):
        system = cs.ResidueSystem.from_pairs([(7, 3), (77, 5), (13, 1)])
        cert = cs.positivity_certificate(system, 5)
        plain = cs.pair_correction_bound(system).lower_bound
        assert cert.components["M"] == 1
        assert cert.lower_bound == max(Fraction(0), plain)

    def test_audit_totals(self):
        cert = cs.positivity_certificate(WORKED, 2)
        per = cert.components["per_pattern"]
        total = sum((row["h_count"] * row["term"] for row in per), Fraction(0))
        assert total / cert.components["M"] == cert.lower_bound

