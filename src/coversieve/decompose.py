"""Smooth-part decomposition of a residue system.

Factoring each modulus n into its largest Q-smooth divisor times a rough
cofactor splits a system C into subsystems C_h indexed by h modulo
M = lcm of the smooth parts: C_h holds the rough cofactor of every class
whose smooth congruence admits h.  The uncovered density then satisfies
the exact identity delta(C) = (1/M) sum_h delta(C_h), and per-subsystem
pair-correction bounds average into a positivity certificate for systems
whose full period is far beyond any direct scan.

Many h share an identical C_h, so subsystems are stored sparsely as
distinct membership patterns (int bitsets over the classes) with their
h-counts.  Class i admits h iff h = r_i mod gcd(s_i, q) for every prime
power q = p^e exactly dividing M: a p-adic ball of residues mod q.  Per q,
the h mod q are grouped by the deepest ball holding them, as the density
engine splits, and the groups are folded into the rest by CRT; nothing is
built over [0, q) or [0, M), so memory grows with the classes, not with M.

A group builds its subsystem only when it is read.  The classes whose
smooth part is 1 admit every h and sit in every C_h, so
positivity_certificate computes their alpha and pair mass once, as a base,
and the pair mass of each other rough modulus against that base once; each
pattern's beta resumes from that base with only the pattern's extra
classes, read from its bitset.  Neither the certificate nor
averaged_alpha_floor builds a subsystem.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, inf, lcm, prod

from .bounds import BoundCertificate, _pair_base, alpha, beta
from .core import GuardExceeded, ResidueClass, ResidueSystem, factorize, lcm_guarded, smooth_split
from .density import _ball_groups, exact_density

DEFAULT_M_GUARD = 10**7
# the averaged-alpha floor is a float power, so it is met up to this slack
ALPHA_FLOOR_SLACK = 1e-12


class SmoothCoverError(ValueError):
    """The Q-smooth part of the system already covers all integers."""


@dataclass(frozen=True)
class SubsystemGroup:
    """All h in [0, M) sharing one subsystem, stored once.

    bits is the membership pattern: bit i is set when class i of the parent
    system admits these h, and class_indices lists those i.  subsystem holds
    the rough-cofactor classes with duplicates merged, since identical pairs
    arising from different parent classes count once inside a subsystem; it
    is built on first access from rough, the rough class of every parent
    class, one tuple shared by all groups of a decomposition.
    representative is one h with this subsystem, the least one when M is a
    prime power (the CRT fold does not track least elements otherwise).
    """

    count: int
    representative: int
    bits: int
    rough: tuple[ResidueClass, ...] = field(repr=False)

    @property
    def class_indices(self) -> tuple[int, ...]:
        return tuple(_set_bits(self.bits))

    @cached_property
    def subsystem(self) -> ResidueSystem:
        return ResidueSystem(tuple(sorted({self.rough[i] for i in _set_bits(self.bits)})))


@dataclass(frozen=True)
class Decomposition:
    system: ResidueSystem
    Q: float
    M: int
    splits: tuple[tuple[int, int], ...]  # (smooth, rough) per class
    groups: tuple[SubsystemGroup, ...]
    smooth_subsystem: ResidueSystem  # classes whose modulus is Q-smooth
    # rough class per parent class, identical pairs one object; the groups share it
    rough: tuple[ResidueClass, ...] = field(repr=False)


def _membership_groups(splits, residues, M):
    """Group h in [0, M) by admitting classes via the CRT fold; bits -> [count, h]."""
    found = {(1 << len(splits)) - 1: [1, 0]}
    mod = 1
    for p, e in factorize(M).pairs:
        q = p**e
        # class i admits the x mod q of the ball r_i mod gcd(s_i, q); the
        # classes coprime to p pin the root ball together
        pinned = [(1, 0, sum(1 << i for i, (s, _) in enumerate(splits) if s % p))]
        for i, ((s, _), r) in enumerate(zip(splits, residues)):
            if s % p == 0:
                pa = gcd(s, q)
                pinned.append((pa, r % pa, 1 << i))
        # items are disjoint bits, so their sum is the group's pattern
        cells = [(sum(bits), tcnt, x) for tcnt, bits, x in _ball_groups(pinned, q, p)]
        inv = pow(mod, -1, q)
        folded: dict[int, list[int]] = {}
        for bits, (cnt, h) in found.items():
            for tbits, tcnt, x in cells:
                rep = h + mod * ((x - h) * inv % q)
                folded.setdefault(bits & tbits, [0, rep])[0] += cnt * tcnt
        found, mod = folded, mod * q
    return found


def _set_bits(bits: int):
    """Indices of the set bits of bits, ascending."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def decompose(
    system: ResidueSystem, Q: float, guard_m: int = DEFAULT_M_GUARD
) -> Decomposition:
    """Split C by Q-smooth parts into the family {C_h} modulo M.

    M is the lcm of the smooth parts of the moduli (guarded); each class
    (n, r) lands in C_h exactly when h matches r modulo the smooth part of
    n, contributing its rough cofactor.  Subsystem moduli are always
    coprime to M, which is verified structurally.  Groups come by
    ascending representative.
    """
    if not 2 <= Q < inf:  # NaN fails every comparison
        raise ValueError("Q must be a finite number >= 2")
    splits = tuple(smooth_split(n, Q) for n in system.moduli)
    try:
        M = lcm_guarded((s for s, _ in splits), guard_m)
    except GuardExceeded as refusal:
        raise GuardExceeded(
            f"decomposition modulus M exceeds guard of {guard_m}",
            estimate=refusal.estimate,
        ) from None

    # one rough class per distinct (rough, r), shared by every subsystem
    shared: dict[tuple[int, int], ResidueClass] = {}
    rough = []
    for (_, n), r in zip(splits, system.residues):
        if gcd(n, M) != 1:
            raise RuntimeError("rough cofactor not coprime to M")
        pair = (n, r % n)
        rough.append(shared.setdefault(pair, ResidueClass(*pair)))
    rough = tuple(rough)

    found = _membership_groups(splits, system.residues, M)
    groups = sorted(
        (SubsystemGroup(cnt, rep, bits, rough) for bits, (cnt, rep) in found.items()),
        key=lambda g: g.representative,
    )
    # each class admits h exactly M / smooth-part times across [0, M)
    landings = sum(g.count * g.bits.bit_count() for g in groups)
    if landings != sum(M // s for s, _ in splits):
        raise RuntimeError("membership landings do not balance")

    smooth = ResidueSystem.from_pairs(
        p for p, (_, n) in zip(system.pairs(), splits) if n == 1
    )
    return Decomposition(system, Q, M, splits, tuple(groups), smooth, rough)


@dataclass(frozen=True)
class IdentityReport:
    # delta(C) by exact_density: a direct scan within its default guard, past it
    # the split engine, whose ball grouping this decomposition shares; the
    # independent checks are the test oracles naive_membership and
    # naive_density
    lhs: Fraction
    rhs: Fraction  # (1/M) sum_h delta(C_h)
    equal: bool
    M: int


def decomposition_identity(
    system: ResidueSystem,
    Q: float,
    guard_m: int = DEFAULT_M_GUARD,
) -> IdentityReport:
    """Check delta(C) = (1/M) sum_h delta(C_h) exactly (both sides computed)."""
    dec = decompose(system, Q, guard_m)
    rhs = sum(
        (g.count * exact_density(g.subsystem).value for g in dec.groups),
        Fraction(0),
    ) / dec.M
    lhs = exact_density(system).value
    return IdentityReport(lhs, rhs, lhs == rhs, dec.M)


def averaged_beta(system: ResidueSystem, Q: float, guard_m: int = DEFAULT_M_GUARD) -> Fraction:
    """Exact (1/M) sum_h beta(C_h), the average of beta over the subsystems."""
    cert = positivity_certificate(system, Q, guard_m)
    return sum(
        (p["h_count"] * p["beta"] for p in cert.components["per_pattern"]), Fraction(0)
    ) / cert.components["M"]


@dataclass(frozen=True)
class AveragedAlpha:
    avg_alpha: Fraction  # (1/M) sum_h alpha(C_h), exact
    floor: float  # alpha(C) ** ((1 + 1/Q) / delta(C')), floating
    holds: bool
    delta_smooth: Fraction  # delta(C'), exact


def averaged_alpha_floor(
    system: ResidueSystem,
    Q: float,
    guard_m: int = DEFAULT_M_GUARD,
) -> AveragedAlpha:
    """Average of alpha over subsystems against its proved floor.

    Requires the Q-smooth classes C' to leave something uncovered; when
    they cover everything the floor does not exist and SmoothCoverError is
    raised.  The floor has an irrational exponent, so it is evaluated in
    floating point and compared with slack ALPHA_FLOOR_SLACK.
    """
    dec = decompose(system, Q, guard_m)
    d_smooth = exact_density(dec.smooth_subsystem).value
    if d_smooth == 0:
        raise SmoothCoverError("Q-smooth classes cover all integers")
    _, _, patterns = _pattern_alphas(dec)
    avg = sum(
        (g.count * Fraction(A, B) for g, (_, A, B) in zip(dec.groups, patterns)), Fraction(0)
    ) / dec.M
    exponent = (1 + 1 / Q) / float(d_smooth)
    floor = float(alpha(system)) ** exponent
    return AveragedAlpha(avg, floor, float(avg) >= floor - ALPHA_FLOOR_SLACK, d_smooth)


def _pattern_alphas(dec: Decomposition) -> tuple[list[int], list[int], list[tuple]]:
    """(base moduli, extra moduli, per group (its extra moduli, A, B)) with
    alpha(C_h) = A / B, building no subsystem.

    Every pattern is the base (the rough classes of smooth part 1) plus its
    extras: the rough classes of its other classes less the base ones,
    merged as the subsystems merge them.  Each distinct extra class is
    found once, and a pattern reads its extras from its bitset; its alpha
    is alpha(base) times prod (n - 1)/n over its extras, carried as one
    integer ratio.
    """
    rough = [(c.modulus, c.residue) for c in dec.rough]
    base = {rough[i] for i, (s, _) in enumerate(dec.splits) if s == 1}
    extra_id: dict[tuple[int, int], int] = {}
    index_id = [None if p in base else extra_id.setdefault(p, len(extra_id)) for p in rough]
    extra_bits = sum(1 << i for i, k in enumerate(index_id) if k is not None)
    extra_mods = [n for n, _ in extra_id]
    base_mods = [n for n, _ in base]
    base_alpha = alpha(base_mods)
    a_num, a_den = base_alpha.numerator, base_alpha.denominator
    patterns = []
    for g in dec.groups:
        mods = [extra_mods[k] for k in {index_id[i] for i in _set_bits(g.bits & extra_bits)}]
        patterns.append((mods, a_num * prod(n - 1 for n in mods), a_den * prod(mods)))
    return base_mods, extra_mods, patterns


def positivity_certificate(
    system: ResidueSystem, Q: float, guard_m: int = DEFAULT_M_GUARD
) -> BoundCertificate:
    """Exact lower bound delta(C) >= (1/M) sum_h max(0, alpha(C_h) - beta(C_h)).

    Clipping each subsystem bound at zero is sound (densities are never
    negative) and strictly improves averaging alpha and beta separately.
    The certificate is positive only if delta(C) > 0, and it needs no scan
    of the full period.

    Over one D, the lcm of every rough part, the base's pair mass is
    computed once, and so is each distinct extra modulus's share D/n,
    divisors and pair mass against the base; each pattern's beta resumes
    from that base with only its extras.  No subsystem is built.
    """
    dec = decompose(system, Q, guard_m)
    base_mods, extra_mods, patterns = _pattern_alphas(dec)
    base = _pair_base(base_mods, lcm(*(n for _, n in dec.splits)), extra_mods)
    total = Fraction(0)
    audit = []
    for g, (mods, A, B) in zip(dec.groups, patterns):
        a, b = Fraction(A, B), beta(mods, base)
        # alpha <= beta, compared as integers, clips the term to 0
        if A * b.denominator > b.numerator * B:
            term = a - b
            total += g.count * term
        else:
            term = Fraction(0)
        audit.append(
            {"h_count": g.count, "representative": g.representative,
             "alpha": a, "beta": b, "term": term}
        )
    bound = total / dec.M
    return BoundCertificate(
        "decomposed", bound,
        {"Q": Q, "M": dec.M, "pattern_count": len(dec.groups), "per_pattern": audit},
    )
