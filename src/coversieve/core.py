"""Integer foundations and the residue-system data model.

Everything downstream works with immutable values: residue classes
``r (mod n)``, ordered multisets of them, multisets of moduli, and exact
factorizations.  Densities and bounds are ``fractions.Fraction`` throughout;
no float ever enters an exact result.
"""

from __future__ import annotations

import math
import operator
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from itertools import groupby
from math import gcd, isqrt, lcm
from typing import Iterable, Iterator, Sequence

import numpy as np

# Segment width for all segmented sieves (bools / bytes per block).  At
# 2^20 bytes the strided class writes of one segment stay in a 2 MiB
# per-core L2 cache; on a 440-class period of 2.9e8, 2^22 took 1.55x as
# long and 2^18 1.57x (narrower segments repeat the per-class overhead).
SEGMENT_SIZE = 1 << 20


class GuardExceeded(Exception):
    """Recoverable signal: a computation would exceed its resource guard.

    Carries enough context (`detail`, `estimate`) for the caller to pick a
    fallback (decomposition, bounds, sampling) instead of treating this as
    a failure.
    """

    def __init__(self, detail: str, estimate=None):
        super().__init__(detail)
        self.detail = detail
        self.estimate = estimate


@dataclass(frozen=True, order=True, slots=True)
class ResidueClass:
    """One congruence class ``residue (mod modulus)``, stored canonically.

    The residue is always reduced into ``[0, modulus)`` so that equal
    classes compare equal.  A ResidueSystem holds its classes as columns of
    ints and builds these objects only when its ``classes`` are read, or
    when a check names a failing pair; the two fields sit in slots.
    """

    modulus: int
    residue: int

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {self.modulus}")
        object.__setattr__(self, "residue", self.residue % self.modulus)

    def __str__(self):
        return f"{self.residue} (mod {self.modulus})"


class ResidueSystem:
    """A finite ordered multiset of residue classes, stored as two columns.

    Class i is ``residues[i] (mod moduli[i])``, the residue reduced into
    ``[0, moduli[i])``.  Repeated moduli and repeated identical pairs are
    both allowed, and the stored order matters: the refined pair-correction
    bound depends on it.  Constructions hold about 1e5 classes over a few
    dozen moduli (91,344 over 32 for ``exact_cover_construct(4)``), so the
    whole-system operations read the two tuples of ints, and ``classes``
    builds its ResidueClass tuple on first read.  Systems are immutable.
    """

    __slots__ = ("moduli", "residues", "_classes", "_runs")

    def __init__(self, classes: Iterable[ResidueClass]):
        classes = tuple(classes)
        self._set(tuple(c.modulus for c in classes), tuple(c.residue for c in classes), classes)

    @classmethod
    def from_columns(cls, moduli: Iterable[int], residues: Iterable[int]) -> "ResidueSystem":
        """The classes residues[i] (mod moduli[i]), validated and reduced once."""
        moduli, residues = tuple(moduli), tuple(residues)
        if len(moduli) != len(residues):
            raise ValueError(f"{len(moduli)} moduli but {len(residues)} residues")
        if moduli and min(moduli) < 1:
            bad = next(n for n in moduli if n < 1)
            raise ValueError(f"modulus must be >= 1, got {bad}")
        system = object.__new__(cls)
        system._set(moduli, tuple(map(operator.mod, residues, moduli)), None)
        return system

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "ResidueSystem":
        pairs = list(pairs)
        return cls.from_columns([n for n, _ in pairs], [r for _, r in pairs])

    def _set(self, moduli, residues, classes) -> None:
        object.__setattr__(self, "moduli", moduli)
        object.__setattr__(self, "residues", residues)
        object.__setattr__(self, "_classes", classes)
        object.__setattr__(self, "_runs", None)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self).from_columns, (self.moduli, self.residues)

    @property
    def classes(self) -> tuple[ResidueClass, ...]:
        """The classes as ResidueClass objects, built on first read."""
        if self._classes is None:
            object.__setattr__(self, "_classes", tuple(map(ResidueClass, self.moduli, self.residues)))
        return self._classes

    def pairs(self) -> list[tuple[int, int]]:
        return list(zip(self.moduli, self.residues))

    def runs(self) -> tuple[tuple[int, int, int], ...]:
        """(modulus, start, stop) of each maximal run of equal adjacent
        moduli, in order: the classes start..stop-1 share that modulus."""
        if self._runs is None:
            runs, at = [], 0
            for n, run in groupby(self.moduli):
                k = len(list(run))
                runs.append((n, at, at + k))
                at += k
            object.__setattr__(self, "_runs", tuple(runs))
        return self._runs

    def _counts(self) -> dict[int, int]:
        """Classes per distinct modulus, in order of first appearance."""
        counts: dict[int, int] = {}
        for n, start, stop in self.runs():
            counts[n] = counts.get(n, 0) + stop - start
        return counts

    def multiplicity(self) -> int:
        """Largest number of classes sharing one modulus (0 if empty)."""
        return max(self._counts().values(), default=0)

    def reciprocal_sum(self) -> Fraction:
        """sum of 1/n over the classes, as integers over the lcm D of the
        distinct moduli: sum of count_n * (D / n), one Fraction at the end."""
        counts = self._counts()
        D = lcm(*counts)
        return Fraction(sum(k * (D // n) for n, k in counts.items()), D)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.moduli == other.moduli and self.residues == other.residues

    def __hash__(self):
        return hash((self.moduli, self.residues))

    def __len__(self):
        return len(self.moduli)

    def __iter__(self) -> Iterator[ResidueClass]:
        return iter(self.classes)

    def __repr__(self):
        return f"{type(self).__name__}(classes={self.classes!r})"

    def __str__(self):
        return "{" + ", ".join(f"({n},{r})" for n, r in zip(self.moduli, self.residues)) + "}"


@dataclass(frozen=True)
class ModuliSet:
    """A multiset of moduli >= 1, stored as a sorted tuple with repeats."""

    moduli: tuple[int, ...]

    def __post_init__(self):
        if any(n < 1 for n in self.moduli):
            raise ValueError("moduli must be >= 1")
        object.__setattr__(self, "moduli", tuple(sorted(self.moduli)))

    @classmethod
    def from_iterable(cls, values: Iterable[int]) -> "ModuliSet":
        return cls(tuple(values))

    @property
    def distinct(self) -> bool:
        return len(set(self.moduli)) == len(self.moduli)

    def product(self) -> int:
        return math.prod(self.moduli)

    def __len__(self):
        return len(self.moduli)

    def __iter__(self) -> Iterator[int]:
        return iter(self.moduli)


@dataclass(frozen=True)
class Factorization:
    """Prime-power factorization as (prime, exponent) pairs, primes ascending."""

    pairs: tuple[tuple[int, int], ...]

    def largest_prime(self) -> int:
        """P(n); the empty factorization (n = 1) yields the sentinel 0."""
        return self.pairs[-1][0] if self.pairs else 0


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI13 = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Miller-Rabin over the 13 prime bases 2..41, a proof for n < _PSI13.

    _PSI13 = 3317044064679887385961981 is the least strong pseudoprime to
    all 13 bases.  A witness base proves n composite at any size; an n >=
    _PSI13 that passes every base raises ValueError (primality unproven).
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _PSI13:
        raise ValueError(f"primality of {n} is unproven: it passes every base")
    return True


def _pollard_rho(n: int) -> int:
    """One nontrivial factor of composite odd n."""
    for c in range(1, 64):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"rho failed on {n}")  # pragma: no cover


def factorize(n: int) -> Factorization:
    """Exact factorization of n >= 1; n = 1 gives the empty factorization.

    Trial division by the 168 primes below 1000 comes first.  A cofactor
    left below 10^6 is then prime: it has no factor below 1000, and
    1009^2 > 10^6.  Only larger cofactors go to Miller-Rabin and Pollard rho,
    whose factors again have no prime below 1000.
    """
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:  # n is 1 or prime
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []  # cofactors still to split; no recursive closure, no cycle
    while stack:
        m = stack.pop()
        if m < 10**6 or is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            d = _pollard_rho(m)
            stack += (d, m // d)
    return Factorization(tuple(sorted(out.items())))


def smooth_split(n: int, Q: float) -> tuple[int, int]:
    """Split n into (largest Q-smooth divisor, rough cofactor).

    The parts multiply back to n; every prime of the smooth part is <= Q
    and every prime of the rough part is > Q.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 1 <= Q < math.inf:  # NaN fails every comparison
        raise ValueError("Q must be a finite number >= 1")
    smooth = 1
    rough = 1
    for p, e in factorize(n).pairs:
        if p <= Q:
            smooth *= p**e
        else:
            rough *= p**e
    return smooth, rough


def _prime_segments(lo: int, hi: int) -> Iterator[np.ndarray]:
    """Yield int64 arrays of the primes in (lo, hi], in ascending blocks."""
    if hi <= max(lo, 1):
        return
    base_limit = isqrt(hi)
    base = np.ones(base_limit + 1, dtype=bool)
    base[:2] = False
    for p in range(2, isqrt(base_limit) + 1):
        if base[p]:
            base[p * p :: p] = False
    base_primes = np.flatnonzero(base)

    start = max(lo + 1, 2)
    while start <= hi:
        end = min(start + SEGMENT_SIZE, hi + 1)
        seg = np.ones(end - start, dtype=bool)
        for p in base_primes:
            p = int(p)
            if p * p >= end:
                break
            first = max(p * p, ((start + p - 1) // p) * p)
            if first < end:
                seg[first - start :: p] = False
        yield np.flatnonzero(seg).astype(np.int64) + start
        start = end


def primes_in(a: float, b: float) -> list[int]:
    """All primes p with a < p <= b, ascending (possibly empty)."""
    if a >= b:
        raise ValueError("require a < b")
    lo = math.floor(a)
    hi = math.floor(b)
    out: list[int] = []
    for block in _prime_segments(lo, hi):
        out.extend(int(p) for p in block)
    return out


_SMALL_PRIMES = tuple(primes_in(1, 1000))  # trial divisors of factorize


def lcm_guarded(moduli: Iterable[int], guard: int | None = None) -> int:
    """Exact lcm of a multiset of moduli, or GuardExceeded past ``guard``.

    The guard bounds the lcm value itself, in the one unit every period
    guard of the library uses: sieve cells of a density scan, the modulus M
    of the smooth-part decomposition, bits of a class-mask period.  The
    signal is raised as soon as the running lcm exceeds ``guard`` and
    carries that lcm as its estimate.  Each CLI ``--guard`` bounds such an
    lcm, except the W(T), subset-count, residue-choice-count and ``haight``
    divisor-count guards and the work budget of the density split engine.
    ``guard=None`` computes the lcm unbounded (its size is linear in the
    input; only the scans it sizes need a bound).
    """
    if guard is not None and guard < 1:
        raise ValueError("guard must be >= 1")
    acc = 1
    for n in moduli:
        acc = lcm(acc, n)
        if guard is not None and acc > guard:
            raise GuardExceeded(
                f"scan period exceeds guard of {guard} cells", estimate=acc
            )
    return acc


def crt_coprime(congruences: Sequence[tuple[int, int]]) -> int:
    """Smallest nonnegative solution of x = r (mod m) over pairwise coprime m."""
    x, mod = 0, 1
    for m, r in congruences:
        if m == 1:
            continue
        if gcd(mod, m) != 1:
            raise ValueError("moduli not pairwise coprime")
        inv = pow(mod % m, -1, m)
        x = x + mod * ((r - x) % m * inv % m)
        mod *= m
    return x % mod
