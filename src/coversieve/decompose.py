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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, inf

from .bounds import BoundCertificate, alpha, beta
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

    class_indices are positions into the parent system of every class
    admitting these h (before merging); subsystem holds the rough-cofactor
    classes with duplicates merged, since identical pairs arising from
    different parent classes count once inside a subsystem.
    representative is one h with this subsystem, the least one when M is a
    prime power (the CRT fold does not track least elements otherwise).
    """

    count: int
    representative: int
    class_indices: tuple[int, ...]
    subsystem: ResidueSystem


@dataclass(frozen=True)
class Decomposition:
    system: ResidueSystem
    Q: float
    M: int
    splits: tuple[tuple[int, int], ...]  # (smooth, rough) per class
    groups: tuple[SubsystemGroup, ...]
    smooth_subsystem: ResidueSystem  # classes whose modulus is Q-smooth


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


def decompose(
    system: ResidueSystem, Q: float, guard_m: int = DEFAULT_M_GUARD
) -> Decomposition:
    """Split C by Q-smooth parts into the family {C_h} modulo M.

    M is the lcm of the smooth parts of the moduli (guarded); each class
    (n, r) lands in C_h exactly when h matches r modulo the smooth part of
    n, contributing its rough cofactor.  Subsystem moduli are always
    coprime to M, which is verified structurally.
    """
    if not 2 <= Q < inf:  # NaN fails every comparison
        raise ValueError("Q must be a finite number >= 2")
    splits = tuple(smooth_split(c.modulus, Q) for c in system.classes)
    try:
        M = lcm_guarded((s for s, _ in splits), guard_m)
    except GuardExceeded as refusal:
        raise GuardExceeded(
            f"decomposition modulus M exceeds guard of {guard_m}",
            estimate=refusal.estimate,
        ) from None

    residues = [c.residue for c in system.classes]
    found = _membership_groups(splits, residues, M)

    # one rough class per distinct (rough, r), shared by every subsystem
    rough_pairs = []
    shared: dict[tuple[int, int], ResidueClass] = {}
    for (_, rough), r in zip(splits, residues):
        if gcd(rough, M) != 1:
            raise RuntimeError("rough cofactor not coprime to M")
        pair = (rough, r % rough)
        rough_pairs.append(pair)
        shared.setdefault(pair, ResidueClass(*pair))

    groups = []
    landings = 0
    for bits, (cnt, rep) in sorted(found.items(), key=lambda kv: kv[1][1]):
        indices = tuple(i for i in range(len(splits)) if bits >> i & 1)
        landings += cnt * len(indices)
        pairs = sorted({rough_pairs[i] for i in indices})
        groups.append(
            SubsystemGroup(cnt, rep, indices, ResidueSystem(tuple(map(shared.get, pairs))))
        )

    # each class admits h exactly M / smooth-part times across [0, M)
    expected = sum(M // s for s, _ in splits)
    if landings != expected:
        raise RuntimeError("membership landings do not balance")

    smooth_cls = tuple(
        c for c, (_, rough) in zip(system.classes, splits) if rough == 1
    )
    return Decomposition(system, Q, M, splits, tuple(groups), ResidueSystem(smooth_cls))


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
    dec = decompose(system, Q, guard_m)
    return sum((g.count * beta(g.subsystem) for g in dec.groups), Fraction(0)) / dec.M


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
    avg = sum(
        (g.count * alpha(g.subsystem) for g in dec.groups), Fraction(0)
    ) / dec.M
    exponent = (1 + 1 / Q) / float(d_smooth)
    floor = float(alpha(system)) ** exponent
    return AveragedAlpha(avg, floor, float(avg) >= floor - ALPHA_FLOOR_SLACK, d_smooth)


def positivity_certificate(
    system: ResidueSystem, Q: float, guard_m: int = DEFAULT_M_GUARD
) -> BoundCertificate:
    """Exact lower bound delta(C) >= (1/M) sum_h max(0, alpha(C_h) - beta(C_h)).

    Clipping each subsystem bound at zero is sound (densities are never
    negative) and strictly improves averaging alpha and beta separately.
    The certificate is positive only if delta(C) > 0, and it needs no scan
    of the full period.
    """
    dec = decompose(system, Q, guard_m)
    total = Fraction(0)
    audit = []
    for g in dec.groups:
        a = alpha(g.subsystem)
        b = beta(g.subsystem)
        term = max(Fraction(0), a - b)
        total += g.count * term
        audit.append(
            {"h_count": g.count, "representative": g.representative,
             "alpha": a, "beta": b, "term": term}
        )
    bound = total / dec.M
    return BoundCertificate(
        "decomposed", bound,
        {"Q": Q, "M": dec.M, "pattern_count": len(dec.groups), "per_pattern": audit},
    )

