"""Exact lower-bound machinery for uncovered densities.

Centers on the pair-correction bound

    delta(C) >= alpha(C) - beta(C),

with alpha the independent-moduli product prod(1 - 1/n) and beta the sum of
1/(n_i n_j) over non-coprime index pairs, plus its order-sensitive
refinement, exactly computed smooth reciprocal tails, and the floating
threshold function used to parameterize experiments.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import lcm, prod

from .core import ModuliSet, ResidueSystem, factorize, primes_in


@dataclass(frozen=True)
class BoundCertificate:
    """A proved lower bound on delta(C) with its audit trail.

    conclusion is 'positive' exactly when lower_bound > 0; the components
    map records whatever intermediate quantities justify the bound.
    """

    kind: str  # 'pair-correction' | 'pair-correction-refined' | 'decomposed'
    lower_bound: Fraction
    components: dict = field(default_factory=dict)

    @property
    def conclusion(self) -> str:
        return "positive" if self.lower_bound > 0 else "inconclusive"


def _moduli_of(obj) -> list[int]:
    if isinstance(obj, ResidueSystem):
        return [c.modulus for c in obj.classes]
    if isinstance(obj, ModuliSet):
        return list(obj.moduli)
    return list(obj)


def alpha(obj) -> Fraction:
    """prod (1 - 1/n) over the moduli multiset; depends only on the moduli."""
    mods = _moduli_of(obj)
    return Fraction(prod(n - 1 for n in mods), prod(mods))


@lru_cache(maxsize=4096)
def _squarefree_divisors(n: int) -> tuple[tuple[int, int], ...]:
    """(d, mu(d)) for every squarefree divisor d > 1 of n (none for n = 1)."""
    out = [(1, 1)]
    for p, _ in factorize(n).pairs:
        out += [(d * p, -mu) for d, mu in out]
    return tuple(out[1:])


def _earlier_pair_mass(
    mods: list[int], D: int | None = None, S: defaultdict[int, int] | None = None
) -> tuple[int, int, defaultdict[int, int], list[int]]:
    """(num, D, S, acc): D = lcm(mods) unless given and, per index j,
    acc_j = sum of D/n_i over the i < j with gcd(n_i, n_j) > 1, so that j's
    pair mass is acc_j / (D n_j) and beta = num / D^2 with
    num = sum_j acc_j (D/n_j).

    By Moebius inversion over the squarefree divisors d of n_j, the coprime
    earlier mass is sum_d mu(d) S_d with S_d = sum of D/n_i over the i < j
    that d divides; its d = 1 term is the whole earlier mass, so the
    non-coprime mass is -sum_{d > 1} mu(d) S_d.  That costs O(l 2^omega)
    integer additions instead of O(l^2) gcds.

    The walk resumes from the state (D, S) an earlier call returned when D
    is given as a common multiple of every modulus fed before and now; num
    then counts only the pairs that end at the new moduli, and S is updated
    in place, so a caller resuming twice copies it.
    """
    if D is None:
        D = lcm(*mods)
    if S is None:
        S = defaultdict(int)
    num, acc = 0, []
    for n in mods:
        share = D // n
        a = 0
        for d, mu in _squarefree_divisors(n):
            a -= mu * S[d]
            S[d] += share
        acc.append(a)
        num += a * share
    return num, D, S, acc


def beta(
    system: ResidueSystem, base: tuple[int, int, defaultdict[int, int]] | None = None
) -> Fraction:
    """sum of 1/(n_i n_j) over index pairs i < j with gcd(n_i, n_j) > 1.

    Pairs are counted by multiset position, so repeated moduli contribute
    (two equal moduli > 1 are never coprime).  base = (num, D, S), from the
    pair kernel over other classes with D a multiple of every modulus of
    both, puts those classes first: the result is beta of them followed by
    system, and base is left unchanged.
    """
    mods = _moduli_of(system)
    if base is None:
        num, D, _, _ = _earlier_pair_mass(mods)
    else:
        num, D, S = base
        num += _earlier_pair_mass(mods, D, S.copy())[0]
    return Fraction(num, D * D)


def pair_correction_bound(
    system: ResidueSystem,
    refined: bool = False,
    sort_desc: bool = False,
) -> BoundCertificate:
    """Exact pair-correction lower bound on delta(C).

    Plain form: alpha - beta.  Refined form scales each subtracted pair
    term 1/(n_i n_j) by prod_{u > j} (1 - 1/n_u) over the classes after j,
    so it is order sensitive and never worse than the plain form.
    ``sort_desc`` preprocesses the class order to descending modulus, which
    tends to shrink the factors on the largest subtracted terms.  The
    refined certificate also records alpha and beta, so one call yields
    both bounds.
    """
    classes = list(system.classes)
    if sort_desc:
        classes.sort(key=lambda c: (-c.modulus, c.residue))
    mods = [c.modulus for c in classes]
    a = alpha(mods)
    num, D, _, acc = _earlier_pair_mass(mods)
    plain_sub = Fraction(num, D * D)
    if not refined:
        return BoundCertificate("pair-correction", a - plain_sub, {"alpha": a, "beta": plain_sub})

    # Horner over j: after index j, num / (D * pre) is the refined mass of
    # the indices <= j, each weighted by prod (1 - 1/n_u) over u in (its
    # index, j]; pre = prod_{u <= j} n_u
    num, pre = 0, 1
    for m, n in zip(acc, mods):
        num = num * (n - 1) + m * pre
        pre *= n
    refined_sub = Fraction(num, D * pre)
    return BoundCertificate(
        "pair-correction-refined",
        a - refined_sub,
        {"alpha": a, "beta": plain_sub, "refined_correction": refined_sub},
    )


def smooth_numbers(limit: int, Q: float) -> list[int]:
    """All Q-smooth integers in [1, limit], ascending."""
    out = [1]
    for p in primes_in(1, Q):
        cur = list(out)
        for d in cur:
            v = d * p
            while v <= limit:
                out.append(v)
                v *= p
    return sorted(out)


def euler_product(Q: float) -> Fraction:
    """prod over primes p <= Q of (1 - 1/p)^-1, the full smooth reciprocal sum."""
    out = Fraction(1)
    for p in primes_in(1, Q):
        out *= Fraction(p, p - 1)
    return out


@dataclass(frozen=True)
class SmoothTail:
    value: Fraction  # exact sum of 1/n over Q-smooth n > N
    u: float  # log N / log Q
    asymptotic_shape: float  # (log Q) * exp(-u log u), constant 1


def smooth_tail_sum(N: int, Q: float) -> SmoothTail:
    """Exact reciprocal sum over Q-smooth integers above N.

    Computed as the Euler product minus the finite sum over smooth n <= N;
    both sides are exact rationals, so the whole infinite tail is a
    Fraction.  The asymptotic shape (log Q) e^{-u log u} is reported as a
    float purely for comparison; its implied constant is not effective.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if not 2 <= Q < math.inf:  # NaN fails every comparison
        raise ValueError("Q must be a finite number >= 2 for the smooth sum to converge")
    finite = sum((Fraction(1, n) for n in smooth_numbers(N, Q)), Fraction(0))
    value = euler_product(Q) - finite
    u = math.log(N) / math.log(Q)
    shape = math.log(Q) * math.exp(-u * math.log(u)) if u > 0 else math.log(Q)
    return SmoothTail(value, u, shape)


def reciprocal_sum_threshold(N: int, s: int) -> float:
    """exp( log N * loglog(s log N) / log(s log N) ).

    Floating only: this function parameterizes experiment scales and never
    enters an exact certificate.
    """
    if N < 20:
        raise ValueError("N must be >= 20")
    if s < 1:
        raise ValueError("s must be a positive integer")
    x = s * math.log(N)
    if x <= math.e:
        raise ValueError("require s * log N > e")
    return math.exp(math.log(N) * math.log(math.log(x)) / math.log(x))
