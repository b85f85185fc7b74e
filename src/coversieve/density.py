"""Exact uncovered densities, cover verification, and extremal residue choices.

The workhorse is a segmented one-byte-per-residue sieve over one full period
``[0, lcm)``: covering marks are strided writes, so each class is painted
with a single slice assignment per segment.  The uncovered count is the
period minus the covered bytes, which ``np.count_nonzero`` counts per
segment at memory speed; the least uncovered integer is found with
``bytearray.find``, a memchr.  Everything returned is an exact ``Fraction``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd, lcm, prod
from typing import Collection

import numpy as np

from .core import (
    SEGMENT_SIZE,
    GuardExceeded,
    ModuliSet,
    ResidueClass,
    ResidueSystem,
    lcm_guarded,
)

DEFAULT_CELL_GUARD = 10**9


@dataclass(frozen=True)
class DensityReport:
    """An exactly computed uncovered density with its provenance.

    ``value == uncovered_count / period`` always holds, with ``period`` the
    modulus over which the density was established.
    """

    value: Fraction
    period: int
    method: str  # 'lcm-scan' | 'decomposition'
    uncovered_count: int


def _covered_segments(system: ResidueSystem, L: int):
    """Yield (lo, cov) over [0, L): cov[i] is nonzero iff lo + i is covered.

    One byte per cell; each class is painted with one strided slice
    assignment per segment.
    """
    for lo in range(0, L, SEGMENT_SIZE):
        width = min(SEGMENT_SIZE, L - lo)
        cov = bytearray(width)
        for c in system.classes:
            n, r = c.modulus, c.residue
            start = (r - lo) % n
            if start < width:
                count = (width - start + n - 1) // n
                cov[start::n] = b"\x01" * count
        yield lo, cov


def exact_density(system: ResidueSystem, guard: int = DEFAULT_CELL_GUARD) -> DensityReport:
    """Exact delta of a residue system by sieving one full period.

    Raises GuardExceeded when lcm of the moduli exceeds ``guard`` cells;
    callers should then fall back to the smooth-part decomposition or to
    lower-bound certificates.
    """
    L = lcm_guarded((c.modulus for c in system.classes), guard)
    covered = sum(
        int(np.count_nonzero(np.frombuffer(cov, np.uint8)))
        for _, cov in _covered_segments(system, L)
    )
    uncovered = L - covered
    return DensityReport(Fraction(uncovered, L), L, "lcm-scan", uncovered)


def uncovered_witness(system: ResidueSystem, guard: int = DEFAULT_CELL_GUARD) -> int | None:
    """Smallest nonnegative uncovered integer, or None when delta = 0."""
    L = lcm_guarded((c.modulus for c in system.classes), guard)
    for lo, cov in _covered_segments(system, L):
        at = cov.find(0)
        if at >= 0:
            return lo + at
    return None


@dataclass(frozen=True)
class ExactCoverCheck:
    exact: bool
    reciprocal_sum: Fraction
    failing_pair: tuple[ResidueClass, ResidueClass] | None = None
    reason: str | None = None

    def __bool__(self):
        return self.exact


def is_exact_cover(system: ResidueSystem) -> ExactCoverCheck:
    """Decide exact covering without any period scan.

    A system partitions the integers iff its class densities sum to exactly
    1 and all pairs are disjoint.  Disjointness is checked per modulus pair
    (residues compared modulo the gcd) as one set-disjointness test: each
    modulus's residues are reduced once per gcd it meets, which keeps large
    constructed systems cheap.
    """
    total = system.reciprocal_sum()
    if total != 1:
        return ExactCoverCheck(False, total, reason=f"density sum is {total}, not 1")

    by_mod: dict[int, list[ResidueClass]] = {}
    for c in system.classes:
        by_mod.setdefault(c.modulus, []).append(c)

    for n, group in by_mod.items():
        seen: dict[int, ResidueClass] = {}
        for c in group:
            if c.residue in seen:
                return ExactCoverCheck(
                    False, total, failing_pair=(seen[c.residue], c),
                    reason="repeated class",
                )
            seen[c.residue] = c

    @cache  # one set per (modulus, gcd) however many pairs share it
    def residues_mod(n: int, g: int) -> set[int]:
        return {c.residue % g for c in by_mod[n]}

    mods = sorted(by_mod)
    for i in range(len(mods)):
        for j in range(i + 1, len(mods)):
            g = gcd(mods[i], mods[j])
            if residues_mod(mods[i], g).isdisjoint(residues_mod(mods[j], g)):
                continue
            # the first intersecting pair: name the classes as the scan meets them
            left: dict[int, ResidueClass] = {}
            for c in by_mod[mods[i]]:
                left.setdefault(c.residue % g, c)
            for c in by_mod[mods[j]]:
                hit = left.get(c.residue % g)
                if hit is not None:
                    return ExactCoverCheck(
                        False, total, failing_pair=(hit, c),
                        reason="classes intersect",
                    )
    return ExactCoverCheck(True, total)


def _dominated_pruned(moduli: list[int]) -> list[int]:
    """Drop any modulus that is a multiple of another (its multiples are a subset)."""
    out = []
    for n in sorted(set(moduli)):
        if not any(n % m == 0 for m in out):
            out.append(n)
    return out


def delta_plus(S: ModuliSet, guard: int = DEFAULT_CELL_GUARD) -> Fraction:
    """Density of integers divisible by no member of S.

    This is the largest uncovered density over all residue choices for S
    (attained by choosing residue 0 everywhere).  Computed by
    inclusion-exclusion over subset lcms after dominated moduli are pruned;
    falls back to a direct sieve when too many moduli survive for 2^|S|
    terms.
    """
    if not S.distinct:
        raise ValueError("delta_plus expects distinct moduli")
    mods = _dominated_pruned(list(S.moduli))
    if 1 in mods:
        return Fraction(0)
    if len(mods) > 25:
        report = exact_density(
            ResidueSystem.from_pairs((n, 0) for n in mods), guard
        )
        return report.value

    # every subset lcm divides D, so the terms are summed as integers over D
    D = lcm(*mods)
    total = 0

    def walk(idx: int, cur_lcm: int, sign: int):
        nonlocal total
        if idx == len(mods):
            return
        walk(idx + 1, cur_lcm, sign)
        nxt = lcm(cur_lcm, mods[idx])
        total += sign * (D // nxt)
        walk(idx + 1, nxt, -sign)

    walk(0, 1, -1)
    return 1 + Fraction(total, D)


@dataclass(frozen=True)
class DeltaMinusResult:
    value: Fraction
    witness: ResidueSystem
    optimal: bool  # True for exhaustive search, False for the greedy bound
    reciprocal_sum: Fraction


def _class_mask_table(
    moduli: list[int], guard: int, base_only: Collection[int] = ()
) -> tuple[int, dict[int, list[int]]]:
    """Guarded period L = lcm(moduli) and, per distinct n, its class bitmasks.

    Mask r of n has the bits x in [0, L) with x = r (mod n).  For n in
    ``base_only`` only mask 0 is built, for callers that read no other: a
    walk that fixes the residue of that modulus by translation invariance,
    or the greedy peel, which shifts the uncovered set instead of the mask.
    """
    L = lcm_guarded(moduli, guard)
    table = {}
    for n in set(moduli):
        raw = bytearray((L + 7) // 8)
        for x in range(0, L, n):
            raw[x >> 3] |= 1 << (x & 7)
        base = int.from_bytes(raw, "little")
        # n | L, so the shifted pattern for residue r stays inside [0, L)
        table[n] = [base] if n in base_only else [base << r for r in range(n)]
    return L, table


def delta_minus(
    S: ModuliSet,
    mode: str = "exhaustive",
    guard: int = 10**6,
) -> DeltaMinusResult:
    """Minimum (exhaustive) or peeling-bound (greedy) uncovered density for S.

    Exhaustive mode enumerates residue choices (product of moduli under
    ``guard``) with depth-first search over moduli in decreasing order,
    pruning branches that cannot beat the best value found: each remaining
    class mod n can remove at most density 1/n.  The first residue is fixed
    to 0, which is sound because delta is translation invariant.

    Greedy mode peels one modulus at a time, always removing a class that
    covers a maximal share of what is still uncovered (smallest residue on
    ties).  The result is a witness whose exact density is at most
    prod(1 - 1/n).
    """
    mods = list(S.moduli)
    if not mods:
        empty = ResidueSystem(())
        return DeltaMinusResult(Fraction(1), empty, True, Fraction(0))
    if mode not in ("exhaustive", "greedy"):
        raise ValueError(f"unknown mode {mode!r}")

    order = sorted(mods, reverse=True)
    # greedy reads only mask 0 of every modulus
    base_only = set(mods)
    if mode == "exhaustive":
        # refuse before any mask is built: the period guard as the table
        # would apply it, then the residue-choice guard
        lcm_guarded(mods, guard)
        if prod(mods) > guard:
            raise GuardExceeded(
                f"residue-choice space {prod(mods)} exceeds guard {guard}",
                estimate=prod(mods),
            )
        # the search reads only residue 0 of the largest modulus, unless it repeats
        base_only = {order[0]} if order[1:2] != order[:1] else set()
    L, masks = _class_mask_table(mods, guard, base_only)
    rsum = Fraction(sum(L // n for n in mods), L)
    full = (1 << L) - 1

    if mode == "greedy":
        uncovered = full
        chosen: list[tuple[int, int]] = []
        for n in mods:
            base = masks[n][0]
            best_r, best_gain = 0, -1
            for r in range(n):
                # the bits of class r, shifted down onto the bits of class 0
                gain = ((uncovered >> r) & base).bit_count()
                if gain > best_gain:
                    best_r, best_gain = r, gain
            chosen.append((n, best_r))
            uncovered &= ~(base << best_r)
        value = Fraction(uncovered.bit_count(), L)
        return DeltaMinusResult(value, ResidueSystem.from_pairs(chosen), False, rsum)

    # residual-removal capacity of the tail of the search, as counts over [0, L)
    tail_capacity = [0] * (len(order) + 1)
    for i in range(len(order) - 1, -1, -1):
        tail_capacity[i] = tail_capacity[i + 1] + L // order[i]

    best_count = L + 1
    best_choice: list[int] = []

    def search(idx: int, uncovered: int, choice: list[int]):
        nonlocal best_count, best_choice
        count = uncovered.bit_count()
        if count - tail_capacity[idx] >= best_count:
            return
        if idx == len(order):
            if count < best_count:
                best_count = count
                best_choice = choice.copy()
            return
        n = order[idx]
        residues = range(1) if idx == 0 else range(n)
        for r in residues:
            choice.append(r)
            search(idx + 1, uncovered & ~masks[n][r], choice)
            choice.pop()

    search(0, full, [])
    witness = ResidueSystem.from_pairs(zip(order, best_choice))
    return DeltaMinusResult(Fraction(best_count, L), witness, True, rsum)

