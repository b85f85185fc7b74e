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
        return list(obj.moduli)
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


def _pair_kernel(entries) -> tuple[int, list[int]]:
    """(num, acc) over entries (share, divisors, start) of moduli n_j, in
    order, with divisors = _squarefree_divisors(n_j): acc_j = start_j + the
    sum of share_i over the i < j with gcd(n_i, n_j) > 1, and
    num = sum_j acc_j share_j.

    With share_j = D/n_j for a common multiple D of the moduli, acc_j / (D
    n_j) is j's pair mass and beta = num / D^2.  By Moebius inversion over
    the squarefree divisors d of n_j, the coprime earlier share is
    sum_d mu(d) S_d with S_d = sum of share_i over the i < j that d
    divides; its d = 1 term is the whole earlier share, so the non-coprime
    share is -sum_{d > 1} mu(d) S_d.  That costs O(l 2^omega) integer
    additions instead of O(l^2) gcds.

    start_j carries pair mass from outside the entries, such as that of
    n_j against classes fed to an earlier call; an entry of share 0 adds
    nothing to S, so its acc is its mass against the entries before it.
    """
    S: dict[int, int] = {}
    num, acc = 0, []
    for share, divisors, a in entries:
        for d, mu in divisors:
            s = S.get(d)
            if s is None:
                S[d] = share
            else:
                a = a - s if mu > 0 else a + s
                S[d] = s + share
        acc.append(a)
        num += a * share
    return num, acc


def _pair_mass(mods: list[int]) -> tuple[int, int, list[int]]:
    """(num, D, acc) of the pair kernel over mods with D = lcm(mods)."""
    D = lcm(*mods)
    num, acc = _pair_kernel((D // n, _squarefree_divisors(n), 0) for n in mods)
    return num, D, acc


def _pair_base(mods: list[int], D: int, later) -> tuple[int, int, dict]:
    """(num, D, entries): the pair kernel over mods with shares D/n, for a
    common multiple D of mods and later, and per distinct modulus n of later
    its kernel entry (D/n, divisors, pair mass of n against mods), so that
    beta(system, base) resumes the kernel after mods for any system whose
    moduli are among later.
    """
    later = list(dict.fromkeys(later))
    divisors = [_squarefree_divisors(n) for n in later]
    # an entry of share 0 reads its modulus's pair mass against mods
    num, acc = _pair_kernel(
        [(D // n, _squarefree_divisors(n), 0) for n in mods] + [(0, d, 0) for d in divisors]
    )
    cross = acc[len(mods):]
    return num, D, {n: (D // n, d, c) for n, d, c in zip(later, divisors, cross)}


def beta(system: ResidueSystem, base: tuple[int, int, dict] | None = None) -> Fraction:
    """sum of 1/(n_i n_j) over index pairs i < j with gcd(n_i, n_j) > 1.

    Pairs are counted by multiset position, so repeated moduli contribute
    (two equal moduli > 1 are never coprime).  base, from _pair_base over
    other classes with every modulus of system among its later ones, puts
    those classes first: the result is beta of them followed by system.
    Only the pairs among system's own classes are walked, and base is left
    unchanged, so one base serves many systems.
    """
    mods = _moduli_of(system)
    if base is None:
        num, D, _ = _pair_mass(mods)
    else:
        num, D, entries = base
        num += _pair_kernel([entries[n] for n in mods])[0]
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
    mods = sorted(system.moduli, reverse=True) if sort_desc else list(system.moduli)
    a = alpha(mods)
    num, D, acc = _pair_mass(mods)
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
