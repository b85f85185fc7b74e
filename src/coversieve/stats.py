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
import operator
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
    _split_density,
)
from .walk import _residue_walk

DEFAULT_W_GUARD = 10**6

# numpy's SeedSequence (a pool of four uint32 words) and PCG64, both
# stream-stable under NEP 19
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M64 = 2**32 - 1, 2**64 - 1
# the draws of one block: on a 2-core Xeon, 2^16 raised the peak memory
# of the bench's moments workload by 1.7 MiB, 2^13 by 0.6 MiB, and 2^11
# read no lower than 2^13
_BLOCK_DRAWS = 2**13


def _hash_constants(init: int, mult: int, calls: int):
    """SeedSequence's hash constant before and after each of ``calls``
    hashmix calls, as uint32 columns."""
    before, after, const = [], [], init
    for _ in range(calls):
        before.append(const)
        const = const * mult & _M32
        after.append(const)
    return np.array(before, np.uint32)[:, None], np.array(after, np.uint32)[:, None]


def _hashmix(value, before, after):
    value = (value ^ before) * after
    return value ^ value >> 16


def _mix(x, y):
    r = x * _MIX_L - y * _MIX_R
    return r ^ r >> 16


def _mulhi(a, b):
    """High words of the 128-bit products of uint64 arrays, by 32-bit limbs."""
    a0, a1, b0, b1 = a & _M32, a >> 32, b & _M32, b >> 32
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> 32) + (p01 & _M32) + (p10 & _M32)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _mul128(ah, al, bh, bl):
    return ah * bl + al * bh + _mulhi(al, bl), al * bl


def _add128(ah, al, bh, bl):
    lo = al + bl
    return ah + bh + (lo < al), lo


def _pcg64_outputs(entropy, k: int):
    """The first k outputs of PCG64(SeedSequence(entropy)), one row per trial.

    ``entropy`` lists uint32 arrays, word i of every row's entropy in the
    i-th.  The pool is hashed and mixed as SeedSequence does it, and
    generate_state(4, uint64) gives the seed s and the increment inc.
    PCG64 seeds its 128-bit state x as (inc + s)·M + inc and steps it to
    x·M + inc before each output, so output j reads the state
    M^(j+2)·(s + inc) + (1 + M + ... + M^(j+1))·inc, on uint64 limb pairs
    with the powers as constants.
    """
    extra = entropy[4:]
    before, after = _hash_constants(_INIT_A, _MULT_A, 16 + 4 * len(extra))
    pool = np.stack(entropy[:4] + [np.zeros_like(entropy[0])] * (4 - len(entropy[:4])))
    pool = _hashmix(pool, before[:4], after[:4])
    # each source word mixes into the three others, which take the next
    # three hash constants; each extra word then mixes into all four
    at = 4
    for src in range(4):
        dst = [i for i in range(4) if i != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], before[at:at + 3], after[at:at + 3]))
        at += 3
    for word in extra:
        pool = _mix(pool, _hashmix(word, before[at:at + 4], after[at:at + 4]))
        at += 4
    half = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], *_hash_constants(_INIT_B, _MULT_B, 8))
    w0, w1, w2, w3 = half[0::2].astype(np.uint64) | half[1::2].astype(np.uint64) << 32
    inc = (w2 << 1 | w3 >> 63)[:, None], (w3 << 1 | 1)[:, None]
    u = _add128(w0[:, None], w1[:, None], *inc)

    powers, sums = [], []
    power, total = _PCG_MULT, 1
    for _ in range(k):
        power, total = power * _PCG_MULT % 2**128, (total + power) % 2**128
        powers.append(power)
        sums.append(total)
    limbs = [np.array([v >> s & _M64 for v in vals], dtype=np.uint64)
             for vals in (powers, sums) for s in (64, 0)]
    hi, lo = _add128(*_mul128(*u, *limbs[:2]), *_mul128(*inc, *limbs[2:]))
    # XSL-RR: the xor of the halves rotated right by the top six bits
    x, rot = hi ^ lo, hi >> 58
    return x >> rot | x << (64 - rot & 63)


def _draws(seed: int, first: int, trials: int, moduli: list[int]) -> list[list[int]]:
    """Residues of trials first..first+trials-1, one row per trial.

    Row t is ``np.random.default_rng([seed, t]).integers(0, moduli)``
    as a list, computed for all rows together from numpy's own
    algorithms: the SeedSequence and PCG64 above, then Generator.integers
    with uint64 bounds.  That draws nothing for a modulus 1; below 2^32 it
    takes a 32-bit Lemire draw from the low half of a fresh output,
    keeping the high half for the next such draw (exactly 2^32 takes the
    half as it is); past 2^32 it takes a 64-bit Lemire draw from a fresh
    output and leaves the held half alone.  numpy stays the authority:
    it redraws a row where a Lemire draw rejects (the rest of the row
    then shifts), a row with t >= 2^32 (two entropy words), and every
    row if the first row kept from here differs from its own draw.
    """
    seed = operator.index(seed)
    bounds = np.array(moduli, dtype=np.uint64)

    def numpy_row(t):
        return np.random.default_rng([seed, t]).integers(0, bounds).tolist()

    # the output each draw reads and the bit it starts at
    small, small_at, small_bit, big, big_at = [], [], [], [], []
    k, held = 0, None
    for i, n in enumerate(moduli):
        if n > 2**32:
            big.append(i)
            big_at.append(k)
            k += 1
        elif n > 1:
            small.append(i)
            if held is None:
                small_at.append(k)
                small_bit.append(0)
                held, k = k, k + 1
            else:
                small_at.append(held)
                small_bit.append(32)
                held = None

    rows = max(0, min(trials, 2**32 - first))
    words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    entropy = [np.full(rows, w, dtype=np.uint32) for w in words]
    entropy.append(np.arange(first, first + rows, dtype=np.uint32))
    out = _pcg64_outputs(entropy, k)
    residues = np.zeros((rows, len(moduli)), dtype=np.uint64)
    rejected = np.zeros(rows, dtype=bool)
    if small:
        m = out[:, small_at]
        m >>= np.array(small_bit, dtype=np.uint64)
        m &= _M32
        m *= bounds[small]
        thresholds = np.array([(2**32 - moduli[i]) % moduli[i] for i in small], np.uint64)
        rejected |= ((m & _M32) < thresholds).any(axis=1)
        m >>= 32
        residues[:, small] = m
    if big:
        u, n = out[:, big_at], bounds[big]
        residues[:, big] = _mulhi(u, n)
        thresholds = np.array([(2**64 - moduli[i]) % moduli[i] for i in big], np.uint64)
        rejected |= (u * n < thresholds).any(axis=1)

    drawn = residues.tolist()
    kept = np.flatnonzero(~rejected)
    if len(kept) and drawn[kept[0]] != numpy_row(first + int(kept[0])):
        rejected[:] = True
    for r in np.flatnonzero(rejected).tolist():
        drawn[r] = numpy_row(first + r)
    drawn.extend(numpy_row(t) for t in range(first + rows, first + trials))
    return drawn


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
    The walk hands over its systems a block at a time; the counts of a
    block and their squares are summed into Python ints.
    """
    W = T.product()
    if W > guard_w:
        raise GuardExceeded(f"W(T) = {W} exceeds guard {guard_w}", estimate=W)
    mods = sorted(T.moduli, reverse=True)
    L, masks = _class_masks(mods, None)  # lcm(T) <= W(T) <= guard_w bounds the period
    visited = total = total_sq = 0

    def add(rows: np.ndarray, counts: np.ndarray, index: np.ndarray) -> None:
        # exact in int64 while the block's squares sum below 2^63
        nonlocal visited, total, total_sq
        visited += len(counts)
        total += int(counts.sum())
        if len(counts) * L * L < 2**63:
            total_sq += int(counts @ counts)
        else:
            total_sq += sum(c * c for c in counts.tolist())

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
    built once at the end, and only the standard error is floating.
    Trial t's residues are those of
    ``np.random.default_rng([seed, t]).integers(0, T.moduli)``, computed
    by ``_draws`` in one vectorized pass per block of at most
    ``_BLOCK_DRAWS`` draws (one trial if it has more); numpy stays the
    oracle and draws itself only a row whose Lemire draw rejects, a row
    with t >= 2^32, and every row of a block whose first kept row it
    would draw differently.  Moduli go up to 2^63; a larger one,
    or a negative seed, is refused with a ValueError before any draw.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    mods = list(T.moduli)
    if max(mods, default=0) > 2**63:
        raise ValueError(f"sample mode draws residues of moduli up to 2^63, not {max(mods)}")
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
    block = _BLOCK_DRAWS // max(len(mods), 1) or 1
    for first in range(0, trials, block):
        for residues in _draws(seed, first, min(block, trials - first), mods):
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
