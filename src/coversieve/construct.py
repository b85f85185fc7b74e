"""Explicit constructions: greedy near-covers, exact covers, and witnesses.

Three builders live here.  A seeded random-then-greedy procedure covers as
much of a scan window as possible using each modulus in (N, KN] exactly
once.  An inductive block-replacement scheme produces exact covering
systems whose squarefree moduli all exceed a prescribed bound.  And a
CRT-based extension turns an uncovered residue of the smooth part of a
system into a verified uncovered integer for the whole system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat

import numpy as np

from .core import (
    GuardExceeded,
    ResidueSystem,
    crt_coprime,
    factorize,
    lcm_guarded,
    primes_in,
    _prime_segments,
)
from .decompose import SmoothCoverError
from .density import DEFAULT_CELL_GUARD, _Peel, _scan


@dataclass(frozen=True)
class GreedyStep:
    j: int
    divisors: tuple[int, ...]  # divisors of j among the randomized moduli
    f: int  # admissible residue classes mod j
    residue: int
    uncovered_after: int


@dataclass(frozen=True)
class GreedyTrace:
    N: int
    K: int
    window: int
    seed: int
    random_residues: tuple[tuple[int, int], ...]  # (n, r) for N < n <= 2N
    uncovered_after_random: int
    steps: tuple[GreedyStep, ...]
    system: ResidueSystem
    final_uncovered_count: int

    @property
    def final_uncovered_fraction(self) -> Fraction:
        return Fraction(self.final_uncovered_count, self.window)


def greedy_cover(N: int, K: int, seed: int = 0, window: int | None = None) -> GreedyTrace:
    """Random residues on (N, 2N], then greedy choices on (2N, KN].

    Every integer modulus in (N, KN] is used exactly once.  The first phase
    draws each residue uniformly and independently from a seeded generator;
    the second picks, for each j, the residue class covering the most of
    the still-uncovered window, restricted to classes that avoid the
    already-chosen class of every divisor of j among the random moduli
    whenever any such class exists (smallest residue on ties).  Densities
    are measured as exact fractions of the window, so passing the full
    period as the window makes every count exact.  Each greedy choice is a
    ``density._Peel`` step over the window's uncovered residues modulo the
    lcm of the moduli peeled so far, O(residues still uncovered); once that
    lcm reaches the window they are its uncovered cells.  A window above
    DEFAULT_CELL_GUARD cells, whose positions would take about 2 bytes per
    cell, raises GuardExceeded before anything is painted.
    """
    if N < 1 or K < 2:
        raise ValueError("require N >= 1 and K >= 2")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    if window is None:
        window = 10 * K * N
    if window < K * N:
        raise ValueError("window too small: need window >= K*N")
    if window > DEFAULT_CELL_GUARD:
        raise GuardExceeded(
            f"greedy window {window} exceeds guard of {DEFAULT_CELL_GUARD} cells",
            estimate=window,
        )

    rng = np.random.default_rng(seed)
    chosen: dict[int, int] = {}
    for n in range(N + 1, 2 * N + 1):
        chosen[n] = int(rng.integers(0, n))
    peel = _Peel(chosen.items(), window)
    after_random = peel.count()

    steps = []
    for j in range(2 * N + 1, K * N + 1):
        divisors = tuple(d for d in range(N + 1, 2 * N + 1) if j % d == 0)
        admissible = np.ones(j, dtype=bool)
        for d in divisors:
            admissible[chosen[d] % d::d] = False
        f = int(admissible.sum())
        chosen[j] = r = peel.step(j, admissible if f > 0 else None)
        steps.append(GreedyStep(j, divisors, f, r, peel.count()))

    system = ResidueSystem.from_pairs(sorted(chosen.items()))
    return GreedyTrace(
        N, K, window, seed,
        tuple((n, chosen[n]) for n in range(N + 1, 2 * N + 1)),
        after_random, tuple(steps), system, peel.count(),
    )


def greedy_step_invariant(trace: GreedyTrace, slack: int = 1) -> bool:
    """Check the per-step contraction of the uncovered window count.

    Each step with f admissible classes must remove at least a 1/f share
    of what was uncovered: after <= (1 - 1/f) * before, up to ``slack``
    window-edge elements.  f = 1 forces the count to zero, and f = 0 can
    only happen when nothing was uncovered.  Pass slack=0 for traces whose
    window is the full period.
    """
    before = trace.uncovered_after_random
    for step in trace.steps:
        after = step.uncovered_after
        if after > before:
            return False
        if step.f == 0:
            if before != 0:
                return False
        elif step.f == 1:
            if after != 0:
                return False
        elif Fraction(after) > Fraction(step.f - 1, step.f) * before + slack:
            return False
        before = after
    return True


@dataclass(frozen=True)
class BlockSupplyResult:
    j: int
    lhs: int  # sum over primes p in (X_{j-1}, X_j] of floor(X_j / p)
    rhs: int  # X_{j-1}
    holds: bool


# X_8 = 9^9 is the last level bound under this sieve limit
SUPPLY_SIEVE_LIMIT = 10**9
# J = 4 already builds on the order of 1e5 classes
EXACT_COVER_MAX_J = 4


def _block_bound(j: int) -> int:
    return (j + 1) ** (j + 1)


def _block_supply(lo: int, hi: int) -> int:
    """sum of floor(hi / p) over the primes p in (lo, hi]."""
    return sum(int(np.sum(hi // block)) for block in _prime_segments(lo, hi))


def block_supply_check(j: int) -> BlockSupplyResult:
    """Exact check of the prime-block supply inequality at level j.

    Sums floor(X_j / p) over primes in (X_{j-1}, X_j] with X_j =
    (j+1)^(j+1), by segmented sieve.  j <= 8 keeps X_j under
    SUPPLY_SIEVE_LIMIT.
    """
    if j < 1:
        raise ValueError("j must be >= 1")
    lo, hi = _block_bound(j - 1), _block_bound(j)
    if hi > SUPPLY_SIEVE_LIMIT:
        raise GuardExceeded(f"X_{j} = {hi} exceeds sieve limit", estimate=hi)
    lhs = _block_supply(lo, hi)
    return BlockSupplyResult(j, lhs, lo, lhs >= lo)


def minimal_block_schedule(J: int) -> list[int]:
    """Alternative schedule: each X_j is the least integer satisfying the
    block-supply inequality given X_{j-1} (X_0 = 1).

    The supply S(x) = sum of floor(x / p) over primes p in (X_{j-1}, x]
    never decreases as x grows, so the least x with S(x) >= X_{j-1} is
    found by doubling the distance past X_{j-1} and then bisecting: about
    2 log2(X_j) sieves instead of one per candidate x.
    """
    xs = [1]
    for _ in range(J):
        prev = xs[-1]
        lo, hi = prev, prev + 1  # S(lo) = 0 < prev; hi is the first guess
        while _block_supply(prev, hi) < prev:
            lo, hi = hi, prev + 2 * (hi - prev)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if _block_supply(prev, mid) >= prev:
                hi = mid
            else:
                lo = mid
        xs.append(hi)
    return xs


@dataclass(frozen=True)
class ExactCoverPlan:
    depth: int
    block_bounds: tuple[int, ...]  # level bounds, index 0 .. depth
    prime_blocks: tuple[tuple[int, ...], ...]  # primes per level, 1 .. depth
    min_modulus_bound: int  # every modulus exceeds this
    multiplicity_bound: int  # bound at the final level
    system: ResidueSystem


def exact_cover_construct(J: int, minimal_schedule: bool = False) -> ExactCoverPlan:
    """Exact covering system of squarefree moduli, all past a prescribed floor.

    Starts from the two classes mod 2 and replaces pairs level by level:
    at level j, the pairs on each modulus n are consumed in blocks, the
    block for prime q (taken ascending through the j-th prime interval)
    replacing each of its floor(X_j / q) pairs (n, r) by the q pairs
    (nq, r + n*mu).  Each replacement splits a class into an exact
    partition, so exactness is preserved; the block-supply inequality
    guarantees the primes never run out.  J above EXACT_COVER_MAX_J raises
    GuardExceeded.
    """
    if J < 1:
        raise ValueError("J must be >= 1")
    if J > EXACT_COVER_MAX_J:
        raise GuardExceeded(f"J = {J} exceeds ceiling {EXACT_COVER_MAX_J}", estimate=J)
    xs = minimal_block_schedule(J) if minimal_schedule else [_block_bound(j) for j in range(J + 1)]
    prime_blocks = [tuple(primes_in(xs[j - 1], xs[j])) for j in range(1, J + 1)]

    # (modulus, residues) blocks of the current level, in class order; the
    # residues are int64 arrays, exact since every J <= 4 modulus is below
    # 2^63 (the largest is 3 * 23 * 251 * 3121)
    blocks: list[tuple[int, np.ndarray]] = [(2, np.arange(2))]
    for level in range(2, J + 1):
        x = xs[level]
        primes_here = prime_blocks[level - 1]
        by_mod: dict[int, list[np.ndarray]] = {}
        for n, res in blocks:
            by_mod.setdefault(n, []).append(res)
        new_blocks: list[tuple[int, np.ndarray]] = []
        for n in sorted(by_mod):
            residues = np.sort(np.concatenate(by_mod[n]))
            at = 0
            for q in primes_here:
                if at >= len(residues):
                    break
                take = min(x // q, len(residues) - at)
                # row k holds the q classes (nq, r_k + n*mu), mu < q, that split r_k
                new_blocks.append((n * q, (residues[at : at + take, None] + n * np.arange(q)).ravel()))
                at += take
            if at < len(residues):
                raise RuntimeError(
                    f"prime block exhausted at level {level}"
                )  # impossible while the supply inequality holds
        blocks = new_blocks

    floor = math.prod(xs[:J])
    system = ResidueSystem.from_columns(
        chain.from_iterable(repeat(n, len(res)) for n, res in blocks),
        np.concatenate([res for _, res in blocks]).tolist(),
    )
    return ExactCoverPlan(J, tuple(xs), tuple(prime_blocks), floor, xs[J], system)


@dataclass(frozen=True)
class PrimeProductStats:
    N: int
    threshold: float  # exp(sqrt(log N)) * log N
    primes: tuple[int, ...]  # primes in (threshold, N]
    sigma_ratio: Fraction  # sigma(H)/H = prod (1 + 1/p), exact
    divisor_count: int | None = None
    alpha_all_divisors: float | None = None  # prod over d | H, d > 1 of (1 - 1/d)
    beta_upper_bound: Fraction | None = None  # (sigma(H)/H)^2 * sum_{d|H, d>1} 1/d^2


def prime_product_moduli(
    N: int,
    full_divisor_set: bool = False,
    guard: int = 1 << 20,
) -> PrimeProductStats:
    """Primes in (exp(sqrt(log N)) log N, N] and the divisor-set statistics.

    H is the product of those primes.  With full_divisor_set, the residue
    system on all divisors d > 1 of H is profiled: alpha over the 2^k - 1
    divisors (as a log-sum float: the exact rational has enormous height)
    and the finite pair-sum bound
    beta <= (sigma(H)/H)^2 * sum_{d | H, d > 1} 1/d^2, exact because every
    d^2 divides H^2.  For suitable N the alpha value dwarfs the beta bound,
    which is what makes these systems provably non-covering.
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    threshold = math.exp(math.sqrt(math.log(N))) * math.log(N)
    ps = tuple(primes_in(threshold, N))
    if not ps:
        raise ValueError(f"no primes in ({threshold:.2f}, {N}]")
    sigma_ratio = Fraction(1)
    for p in ps:
        sigma_ratio *= Fraction(p + 1, p)
    if not full_divisor_set:
        return PrimeProductStats(N, threshold, ps, sigma_ratio)

    if 2 ** len(ps) > guard:
        raise GuardExceeded(
            f"2^{len(ps)} divisors exceed guard {guard}", estimate=2 ** len(ps)
        )
    divisors = [1]
    for p in ps:
        divisors += [d * p for d in divisors]
    divisors = sorted(divisors)[1:]  # drop d = 1

    log_alpha = sum(math.log1p(-1.0 / d) for d in divisors)
    # H is squarefree: sum_{d | H, d > 1} 1/d^2 = prod_{p | H} (1 + 1/p^2) - 1
    inv_sq = math.prod((Fraction(p * p + 1, p * p) for p in ps), start=Fraction(1)) - 1
    return PrimeProductStats(
        N, threshold, ps, sigma_ratio,
        divisor_count=len(divisors),
        alpha_all_divisors=math.exp(log_alpha),
        beta_upper_bound=sigma_ratio * sigma_ratio * inv_sq,
    )


def extend_witness(system: ResidueSystem, B: int, s: int) -> int:
    """A verified uncovered integer for C, found via its smooth part.

    With all moduli in (1, B] and multiplicities at most s, split off
    C_0 = classes whose modulus is sqrt(s*B)-smooth.  If C_0 leaves a
    residue a mod lcm(S(C_0)) uncovered, then each remaining prime p >
    sqrt(s*B) divides at most p - 1 of the moduli, so some b(p) avoids all
    their residues mod p; the CRT solution through a and the b(p) avoids
    every class of C.  The returned integer is re-verified against C
    before being returned.  a is the least uncovered cell of one sieve of
    lcm(S(C_0)), refused past DEFAULT_CELL_GUARD cells.
    """
    for n in system.moduli:
        if not (1 < n <= B):
            raise ValueError(f"modulus {n} outside (1, {B}]")
    if system.multiplicity() > s:
        raise ValueError(f"multiplicity exceeds {s}")

    cut = math.sqrt(s * B)
    smooth_pairs = []
    rough_primes: dict[int, list[int]] = {}
    for n, r in system.pairs():
        fac = factorize(n)
        if fac.largest_prime() <= cut:
            smooth_pairs.append((n, r))
        for p, _ in fac.pairs:
            if p > cut:
                rough_primes.setdefault(p, []).append(r % p)

    L = lcm_guarded((n for n, _ in smooth_pairs), DEFAULT_CELL_GUARD)
    _, a = _scan(smooth_pairs, L)
    if a is None:
        raise SmoothCoverError("smooth part covers all integers")

    congruences = [(L, a)]
    for p in sorted(rough_primes):
        taken = rough_primes[p]
        if len(taken) > p - 1:
            raise RuntimeError(
                f"{len(taken)} multiples of {p} among the moduli"
            )  # impossible when p > sqrt(s*B)
        forbidden = set(taken)
        b = next(x for x in range(p) if x not in forbidden)
        congruences.append((p, b))

    A = crt_coprime(congruences)
    for n, r in system.pairs():
        if A % n == r:
            raise RuntimeError("extension failed verification")  # must never happen
    return A
