"""Random residue systems: exact moments, pair-correlation formula, sampling.

Over all residue choices for a fixed moduli multiset T, the mean uncovered
density is exactly prod(1 - 1/n), and for distinct moduli >= 3 the second
moment collapses to a subset sum over T that never enumerates the W(T) =
prod(n) systems.  Both identities are computable exactly and are
cross-checked against direct enumeration; a seeded Monte Carlo path covers
multisets whose W(T) is out of enumeration range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod

import numpy as np

from .bounds import alpha
from .core import GuardExceeded, ModuliSet, lcm_guarded
from .density import (
    DEFAULT_CELL_GUARD,
    _class_masks,
    _components,
    _residue_walk,
    _split_density,
)

DEFAULT_W_GUARD = 10**6


@dataclass(frozen=True)
class MomentReport:
    mean: Fraction
    second_moment: Fraction
    variance: Fraction
    method: str  # 'enumeration' | 'pair-formula' | 'monte-carlo'
    sample_count: int | None = None
    std_error: float | None = None


def _bound_shape(T: ModuliSet) -> float:
    """alpha^2 log N / N^2 with N = min T, the scale the variance is read against."""
    N = min(T.moduli)
    return float(alpha(T)) ** 2 * math.log(N) / N**2


def enumerate_moments(T: ModuliSet, guard_w: int = DEFAULT_W_GUARD) -> MomentReport:
    """Exact mean, second moment and variance by enumerating all W(T) systems.

    Densities share the period L = lcm(T), so the sums run over integer
    uncovered counts and only the final normalization builds fractions.
    The walk tries each modulus n only at the residues below gcd(n, lcm of
    the moduli before it), largest first (``_residue_walk``).  Each visited
    system stands for the same number of the W(T) systems, so both sums are
    exact averages over those visited: 144 of the 362,880 for T = 2..9.
    """
    W = T.product()
    if W > guard_w:
        raise GuardExceeded(f"W(T) = {W} exceeds guard {guard_w}", estimate=W)
    mods = sorted(T.moduli, reverse=True)
    L, masks = _class_masks(mods, None)  # lcm(T) <= W(T) <= guard_w bounds the period
    visited = total = total_sq = 0

    def add(uncovered: int, _choice) -> None:
        nonlocal visited, total, total_sq
        c = uncovered.bit_count()
        visited += 1
        total += c
        total_sq += c * c

    _residue_walk(mods, L, masks, add)
    mean = Fraction(total, visited * L)
    second = Fraction(total_sq, visited * L * L)
    variance = second - mean * mean
    return MomentReport(mean, second, variance, "enumeration")


def pair_formula_moments(
    T: ModuliSet, guard_subsets: int = 1 << 22
) -> MomentReport:
    """Second moment from the pair-correlation subset expansion, no enumeration.

    For distinct moduli all >= 3,

        E[delta^2] = prod((n-2)/n) * sum over S subseteq T of 1 / (M(S) L(S))

    with M(S) = prod(n - 2) and L(S) = lcm(S).  The expansion rests on the
    count of systems leaving two fixed integers uncovered, which is a
    product of (n-1) or (n-2) factors; n = 2 breaks the division and is
    excluded (enumeration handles it).
    """
    mods = sorted(T.moduli)
    if not T.distinct:
        raise ValueError("pair formula requires distinct moduli")
    if mods and mods[0] < 3:
        raise ValueError("pair formula requires all moduli >= 3")
    if 2 ** len(mods) > guard_subsets:
        raise GuardExceeded(
            f"2^{len(mods)} subsets exceed guard", estimate=2 ** len(mods)
        )

    # M(S) | m_all and L(S) | l_all, so the terms are summed as integers
    # over the one denominator m_all * l_all.  A term depends on S only
    # through L(S) and m_all / M(S), so the subsets of the moduli seen so far
    # are kept as L(S) -> sum of m_all / M(S): at most 2^|T| entries.
    m_all = prod(n - 2 for n in mods)
    l_all = lcm(*mods)
    by_lcm = {1: m_all}
    for n in mods:
        for l_val, w in list(by_lcm.items()):
            # no subset in by_lcm holds n yet, so n - 2 divides each of its
            # m_all / M(S), and w // (n - 2) is exact
            key = lcm(l_val, n)
            by_lcm[key] = by_lcm.get(key, 0) + w // (n - 2)
    subtotal = sum(w * (l_all // l_val) for l_val, w in by_lcm.items())
    prefactor = prod((Fraction(n - 2, n) for n in mods), start=Fraction(1))
    second = prefactor * Fraction(subtotal, m_all * l_all)
    mean = alpha(T)  # the mean over all residue choices is exactly prod(1 - 1/n)
    variance = second - mean * mean
    return MomentReport(mean, second, variance, "pair-formula")


def sample_moments(
    T: ModuliSet,
    trials: int,
    seed: int = 0,
    density_guard: int = DEFAULT_CELL_GUARD,
) -> MomentReport:
    """Seeded Monte Carlo estimate of the moments, with exact per-sample deltas.

    Trial t derives its generator from (seed, t), so any execution order
    (or a parallel run) produces bit-identical results.  While L = lcm(T)
    fits min(``density_guard``, 2*10^5) bits, a trial's uncovered count
    over L is the product over the components of the shares-a-prime graph
    on T, found once by ``_components``: a one-class component of modulus
    n contributes n - 1 (its density (n - 1)/n, and 0 for n = 1), and any
    other ORs its shifted class masks, built once per component over the
    component's own lcm.  Past that bound, each trial is solved by the
    split engine with ``density_guard`` as its work budget.  Trials add
    integer counts over L and their squares; the moments are fractions
    built once at the end, and only the standard error is floating.  A
    trial draws its residues in one numpy call, which takes moduli up to
    2^63; a larger modulus is refused with a ValueError.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    mods = list(T.moduli)
    if max(mods, default=0) > 2**63:
        raise ValueError(f"sample mode draws residues of moduli up to 2^63, not {max(mods)}")
    bounds = np.array(mods, dtype=np.uint64)
    try:
        L = lcm_guarded(mods, min(density_guard, 2 * 10**5))
    except GuardExceeded:
        L, parts = lcm_guarded(mods), None
    else:
        # (period, [(mask, index into mods)]) per component of two or more classes
        const, parts = 1, []
        for period, members in _components((n, i) for i, n in enumerate(mods)):
            if len(members) == 1:
                const *= period - 1
            else:
                _, masks = _class_masks([n for n, _ in members], None)
                parts.append((period, [(masks[n], i) for n, i in members]))

    total = total_sq = 0
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        residues = rng.integers(0, bounds).tolist()
        if parts is None:
            d = _split_density(list(zip(mods, residues)), density_guard)
            count = d.numerator * (L // d.denominator)
        else:
            count = const
            for period, members in parts:
                covered = 0
                for mask, i in members:
                    covered |= mask << residues[i]
                count *= period - covered.bit_count()
        total += count
        total_sq += count * count

    if trials >= 2:
        variance = Fraction(trials * total_sq - total * total, trials * (trials - 1) * L * L)
        std_error = math.sqrt(float(variance) / trials)
    else:
        variance = Fraction(0)
        std_error = None
    return MomentReport(
        Fraction(total, trials * L), Fraction(total_sq, trials * L * L), variance,
        "monte-carlo", sample_count=trials, std_error=std_error,
    )


@dataclass(frozen=True)
class VarianceScanRow:
    T: ModuliSet
    variance: Fraction
    bound_shape: float  # alpha^2 log N / N^2 with N = min T
    ratio: float


@dataclass(frozen=True)
class VarianceScanReport:
    rows: tuple[VarianceScanRow, ...]
    max_ratio: float


def variance_bound_scan(family: list[ModuliSet]) -> VarianceScanReport:
    """Tabulate variance against alpha^2 log N / N^2 across a family of T.

    The ratio column is diagnostic (the proportionality constant is not
    effective); the scan only asserts finiteness and reports the maximum.
    Prefers the pair formula, falling back to enumeration for multisets or
    moduli below 3.
    """
    rows = []
    max_ratio = 0.0
    for T in family:
        try:
            rep = pair_formula_moments(T)
        except ValueError:
            rep = enumerate_moments(T)
        shape = _bound_shape(T)
        ratio = float(rep.variance) / shape if shape > 0 else 0.0
        if not math.isfinite(ratio):
            raise ArithmeticError(f"non-finite ratio for {T}")
        rows.append(VarianceScanRow(T, rep.variance, shape, ratio))
        max_ratio = max(max_ratio, ratio)
    return VarianceScanReport(tuple(rows), max_ratio)
