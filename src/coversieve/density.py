"""Exact uncovered densities, cover verification, and extremal residue choices.

The workhorse is a segmented one-byte-per-residue sieve over one full period
``[0, lcm)``: covering marks are strided writes, so each class is painted
with a single slice assignment per segment.  The uncovered count is the
period minus the covered bytes, which ``np.count_nonzero`` counts per
segment at memory speed; the same pass finds the least uncovered integer
with a memchr ``find``.  On a large period the sieve applies the CRT split
delta(C) = (1/q) sum_x delta(C_x) itself, over q = q1*q2 for up to two
prime powers exactly dividing L: q layers over [0, L/q), each the OR of a
table held for the segment per x mod q1 and one rebuilt per x mod q2, over
a base painted once per segment; the factors are those of least modelled
cost in writes, copies and Python calls.  Past the scan guard, the same
split over the p-adic balls of the classes reduces a system to subsystems
small enough to sieve.  Everything returned is an exact
``Fraction``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import gcd, lcm, prod

import numpy as np

from .core import (
    SEGMENT_SIZE,
    GuardExceeded,
    ModuliSet,
    ResidueClass,
    ResidueSystem,
    factorize,
    lcm_guarded,
)
from .walk import _residue_choice, _residue_walk

DEFAULT_CELL_GUARD = 10**9
# _split_density scans a component whose period is at most SCAN_LEAF cells
SCAN_LEAF = 2 * 10**6


@dataclass(frozen=True)
class DensityReport:
    """An exactly computed uncovered density with its provenance.

    ``value == uncovered_count / period`` always holds, with ``period`` the
    modulus over which the density was established.  ``witness`` is the
    least uncovered nonnegative integer, read off the same scan that counts
    them; it is None when delta = 0 and on the 'planner' path, which never
    sieves the period.
    """

    value: Fraction
    period: int
    method: str  # 'lcm-scan' | 'planner'
    uncovered_count: int
    witness: int | None = None


def _paint(view: np.ndarray, pairs, lo: int) -> None:
    """Mark in the uint8 array view every cell lo + i covered by one of the
    classes (n, r) in pairs: one strided scalar fill per class, so that no
    source of 1 bytes is built per class or kept across the segments."""
    for n, r in pairs:
        view[(r - lo) % n :: n] = 1


def _covered_segments(pairs, L: int, width: int | None = None):
    """Yield (lo, cov) over [0, L) in segments of ``width`` cells, by default
    SEGMENT_SIZE: cov[i] is nonzero iff lo + i is covered by one of the
    classes (n, r) in pairs, with 0 <= r < n."""
    width = width or SEGMENT_SIZE
    for lo in range(0, L, width):
        cov = bytearray(min(width, L - lo))
        _paint(np.frombuffer(cov, np.uint8), pairs, lo)
        yield lo, cov


# The layout rule counts in strided class writes, about 2.3 ns each on the
# 440-class bench periods (2-core Xeon, Python 3.11, numpy 2.4).  Copying,
# zeroing or OR-ing a cell costs about 0.05 ns, LAYER_COPY_COST writes; the
# Python calls of one layer visit (OR, count, witness test) about 3 us,
# LAYER_CALL_COST writes a cell of a SEGMENT_SIZE segment.  Held tables of
# 96 to 384 KiB ran within 3 % of each other under q1 = 11, 1 MiB slower.
LAYER_COPY_COST = 0.02
LAYER_CALL_COST = 0.0012
LAYER_TABLE_BYTES = 2 << 20


def _segment_width(R: int, held: int) -> int:
    """Width of the segments of a layer [0, R) with ``held`` held tables:
    SEGMENT_SIZE, or if those would pass LAYER_TABLE_BYTES the widest equal
    segments within it (a short last one costs a round of layer visits)."""
    if held == 1 or held * SEGMENT_SIZE <= LAYER_TABLE_BYTES:
        return SEGMENT_SIZE
    return -(-R // -(-R * held // LAYER_TABLE_BYTES))


def _layer_factors(pairs, L: int) -> tuple[tuple[int, int], ...]:
    """The 0-2 factors (p, q), q = p^e exactly dividing L, over whose
    product ``_scan`` lays out the period; of two, the first has the
    smaller q and is held.

    A class is painted f times less often, (1/n) / f writes a cell, with f
    the product of the chosen q whose p does not divide n.  One factor
    copies a cell a cell; two OR one and copy or zero 1/q1 + 1/q2 more.
    Each layer visit of each segment makes its Python calls.  The layout of
    least cost whose layers are a segment wide is taken; ties keep fewer.
    """
    if L < 2 * SEGMENT_SIZE:  # no layer can be a segment wide: skip factorizing
        return ()
    powers = [(p, p**e) for p, e in factorize(L).pairs]
    mass: dict[tuple[int, ...], float] = {}  # primes of L dividing n -> sum of 1/n
    for n, _ in pairs:
        sig = tuple(p for p, _ in powers if n % p == 0)
        mass[sig] = mass.get(sig, 0.0) + 1 / n
    best, choice = None, ()
    pairs_by_size = combinations(sorted(powers, key=lambda f: f[1]), 2)
    for layout in [(), *((f,) for f in powers), *pairs_by_size]:
        q = prod(f for _, f in layout)
        held, R = (layout[0][1] if len(layout) == 2 else 1), L // q
        if R < min(SEGMENT_SIZE, LAYER_TABLE_BYTES // held):
            continue
        writes = sum(m / prod(f for p, f in layout if p not in sig) for sig, m in mass.items())
        copied = 0 if q == 1 else 1 if held == 1 else 1 + 1 / held + held / q
        visits = q * -(-R // _segment_width(R, held))
        cost = writes + LAYER_COPY_COST * copied + LAYER_CALL_COST * visits * SEGMENT_SIZE / L
        if best is None or cost < best:
            best, choice = cost, layout
    return choice


def _scan(pairs, L: int) -> tuple[int, int | None]:
    """Cells of [0, L) left uncovered by the classes (n, r) in pairs, each n
    dividing L, and the least of them (None when every cell is covered), in
    one pass.

    The period is laid out by CRT over q = q1*q2, the factors of
    ``_layer_factors`` (q1 = 1 for fewer than two, q2 = 1 for none), as q
    layers over [0, R), R = L/q: layer x holds the y = x (mod q), cell y'
    of it the y = y' (mod R).  A class with g1 = gcd(n, q1), g2 = gcd(n, q2)
    covers y' = r (mod n/(g1*g2)) in the layers x = r (mod g1*g2).  Per
    segment, the classes with g1 = g2 = 1 are painted once into a base,
    those with g1 > 1 = g2 into q1 held tables, one per x mod q1, and those
    with g2 > 1 = g1 into a copy of the base rebuilt per x mod q2.  Layer x
    is the word-wise OR of its two tables, with the classes of g1, g2 > 1
    painted over it; with q1 = 1 it is the rebuilt table, with q = 1 the base.

    The cell y' of layer x is y = y' + R*t with t = (x - y') / R (mod q),
    so the cells of one t are y' = x - R*t (mod q): the least uncovered y
    of a layer is found by one strided ``find`` per t = 0, 1, ... while
    y' + R*t can still beat the least found so far.  A layer with no
    uncovered cell is not searched.
    """
    layout = _layer_factors(pairs, L)
    (_, q1), (_, q2) = ((1, 1),) * (2 - len(layout)) + layout
    q, R = q1 * q2, L // (q1 * q2)
    own: dict[tuple, list] = {}  # (x mod q1, x mod q2), None where g = 1 -> classes
    for n, r in pairs:
        g1, g2 = gcd(n, q1), gcd(n, q2)
        for x1 in range(r % g1, q1, g1) if g1 > 1 else [None]:
            for x2 in range(r % g2, q2, g2) if g2 > 1 else [None]:
                own.setdefault((x1, x2), []).append((n // (g1 * g2), r))
    e1, e2 = q2 * pow(q2, -1, q1), q1 * pow(q1, -1, q2)  # layer x from x mod q1, x mod q2
    width = min(R, _segment_width(R, q1))
    if q > 1:  # the held tables, the rebuilt one and the layer, in one allocation freed whole
        rows = np.empty((q1 + 2, -(-width // 8) * 8), np.uint8)
        words, table, cov = rows.view(np.uint64), rows[q1], rows[q1 + 1]  # ORed word-wise
    uncovered, least = L, None
    for lo, segment in _covered_segments(own.get((None, None), ()), R, width):
        base = np.frombuffer(segment, np.uint8)
        m = len(base)
        if q1 > 1:
            rows[:q1].fill(0)
            for x1 in range(q1):
                _paint(rows[x1, :m], own.get((x1, None), ()), lo)
        for x2 in range(q2):
            layer = base
            if q2 > 1:
                layer = table[:m]
                layer[:] = base
                _paint(layer, own.get((None, x2), ()), lo)
            for x1 in range(q1):
                if q1 > 1:
                    np.bitwise_or(words[x1], words[q1], out=words[q1 + 1])
                    layer = cov[:m]
                    _paint(layer, own.get((x1, x2), ()), lo)
                covered = int(np.count_nonzero(layer))
                uncovered -= covered
                if covered == m:
                    continue
                x = (x1 * e1 + x2 * e2) % q
                for t in range(q):
                    end = m if least is None else min(m, least - R * t - lo)
                    if end <= 0:
                        break
                    start = (x - R * t - lo) % q
                    at = _first_zero(layer[start:end:q])
                    if at >= 0:
                        least = lo + start + q * at + R * t
                        break
    return uncovered, least


def _first_zero(cells: np.ndarray) -> int:
    """Index of the first zero byte of the uint8 array cells, or -1."""
    return cells.tobytes().find(0)


def _ball_groups(pinned, q: int, p: int) -> list[tuple[int, list, int]]:
    """Group x in [0, q), q = p^e, by the deepest pinned p-adic ball holding x.

    Each (g, s, item) of ``pinned``, g | q and 0 <= s < g, pins the ball
    x = s (mod g); the root (1, 0) is always a ball.  Two balls nest or are
    disjoint.  Returns (cells, items, least) per nonempty group in order of
    least x: q/g less the cells of the child balls, the items of every ball
    holding the group, and its least x.  Nothing is built over the q
    residues; the work is O(balls * e).
    """
    own: dict[tuple[int, int], list] = {(1, 0): []}
    for g, s, item in pinned:
        own.setdefault((g, s), []).append(item)
    items = {(1, 0): own[1, 0]}
    holes: dict[tuple[int, int], list] = {ball: [] for ball in own}
    for g, s in sorted(own)[1:]:  # a parent comes before its children
        h = g // p
        while (h, s % h) not in own:
            h //= p
        holes[h, s % h].append((g, s))
        items[g, s] = items[h, s % h] + own[g, s]

    def least(g: int, s: int, inside: list) -> int | None:
        """Least x = s (mod g) of [0, q) outside the disjoint balls inside,
        each strictly within (g, s); None when they fill it."""
        below: dict[int, list] = {}  # child residue mod g*p -> its holes
        for hole in inside:
            below.setdefault(hole[1] % (g * p), []).append(hole)
        # a child holding no hole starts with its least element: the
        # one with the lowest free digit d is s + d*g
        digits = sorted((t - s) // g for t in below)
        d = next((i for i, u in enumerate(digits) if i != u), len(digits))
        best = s + d * g if d < p else None
        for t, sub in below.items():
            # a child that is itself a hole has nothing left, and every x
            # of child t is at least t
            if sub[0][0] != g * p and (best is None or t < best):
                x = least(g * p, t, sub)
                if x is not None and (best is None or x < best):
                    best = x
        return best

    groups = []
    for (g, s), inside in holes.items():
        cells = q // g - sum(q // h for h, _ in inside)
        if cells:
            groups.append((cells, items[g, s], least(g, s, inside) if inside else s))
    del least  # it refers to itself: free the cycle now, not at the next gc
    groups.sort(key=lambda group: group[2])
    return groups


def _components(pairs) -> list[tuple[int, list]]:
    """The components of the shares-a-prime graph on the moduli of the
    classes (n, r) in pairs, as (period, members): the lcm of the moduli
    and the classes, a new class first, then those of the components it
    joins.  A class joins each component whose period shares a prime with
    its modulus and goes last; the others keep their order."""
    components: list[tuple[int, list]] = []
    for n, r in pairs:
        period, members, apart = n, [(n, r)], []
        for comp in components:
            if gcd(comp[0], n) > 1:
                period = lcm(period, comp[0])
                members += comp[1]
            else:
                apart.append(comp)
        components = apart + [(period, members)]
    return components


def _split_density(pairs, budget: int) -> Fraction:
    """Exact delta of the classes (n, r) in pairs, without a full-period scan.

    For a prime power q = p^e exactly dividing the period, CRT gives
    delta(C) = (1/q) sum over x mod q of delta(C_x), where C_x holds
    (n/g, r mod n/g), g = gcd(n, q), for every class with x = r (mod g).
    Each such condition is a p-adic ball of residues mod q, and two balls
    nest or are disjoint, so the x with equal C_x are those whose deepest
    ball is the same: ``_ball_groups`` finds them without a table over the
    q residues.

    Every (sub)system is first canonicalized: residues reduced, duplicates
    and classes lying inside another class dropped, so that a modulus 1
    gives 0 and the empty system 1.  Its density is the product over the
    components of the shares-a-prime graph on its moduli
    (``_components``).  A one-class component has density 1 - 1/n; a
    component whose period is at most SCAN_LEAF cells is scanned; any
    other is split on a prime dividing the most of its moduli, with q its
    largest power there.  Equal components are solved once.

    The work is k^2 units per (sub)system of k classes canonicalized, plus
    the cells of each scan and balls * classes per split.  GuardExceeded is
    raised before the work passes ``budget``.
    """
    left = budget
    memo: dict[tuple, Fraction] = {}

    @cache  # subsystem moduli divide the input's, so they repeat
    def prime_powers(n: int) -> list[tuple[int, int]]:
        return [(p, p**e) for p, e in factorize(n).pairs]

    def spend(units: int) -> None:
        nonlocal left
        if units > left:
            raise GuardExceeded(
                f"density work exceeds guard of {budget} units",
                estimate=budget - left + units,
            )
        left -= units

    def solve(pairs) -> Fraction:
        spend(len(pairs) ** 2)
        kept: list[tuple[int, int]] = []
        for n, r in sorted({(n, r % n) for n, r in pairs}):
            if n == 1:
                return Fraction(0)
            if not any(n % m == 0 and r % m == s for m, s in kept):
                kept.append((n, r))
        value = Fraction(1)
        for period, members in _components(kept):
            key = tuple(sorted(members))
            part = memo.get(key)
            if part is None:
                if len(key) == 1:
                    part = Fraction(period - 1, period)
                elif period <= SCAN_LEAF:
                    spend(period)
                    part = Fraction(_scan(key, period)[0], period)
                else:
                    # split on the prime dividing the most moduli, which
                    # cuts the most edges of the component; ties go to the
                    # larger prime power
                    shares: dict[int, tuple[int, int]] = {}  # p -> (moduli, q)
                    for n, _ in key:
                        for p, pe in prime_powers(n):
                            m, top = shares.get(p, (0, 1))
                            shares[p] = (m + 1, max(top, pe))
                    _, q, p = max((m, top, p) for p, (m, top) in shares.items())
                    pinned = []
                    for n, r in key:
                        g = gcd(n, q)
                        pinned.append((g, r % g, (n // g, r)))
                    balls = {(1, 0)} | {(g, s) for g, s, _ in pinned}
                    spend(len(balls) * len(key))
                    total = Fraction(0)
                    for cells, sub, _ in _ball_groups(pinned, q, p):
                        total += cells * solve(sub)
                    part = total / q
                memo[key] = part
            value *= part
            if not value:
                break
        return value

    try:
        return solve(pairs)
    finally:
        del solve  # it refers to itself: free the cycle and its memo on return


def exact_density(system: ResidueSystem, guard: int = DEFAULT_CELL_GUARD) -> DensityReport:
    """Exact delta of a residue system.

    A period lcm of at most ``guard`` cells is sieved in one pass (method
    'lcm-scan'), which also finds the witness.  Past it, ``_split_density``
    computes delta with ``guard`` as its work budget (method 'planner'), and
    the report still gives the lcm as its period.  When that budget runs
    out too, the period guard's GuardExceeded is raised; callers should
    then fall back to lower-bound certificates.
    """
    pairs = system.pairs()
    try:
        L = lcm_guarded((n for n, _ in pairs), guard)
    except GuardExceeded as refusal:
        try:
            value = _split_density(pairs, guard)
        except GuardExceeded:
            raise refusal from None
        L = lcm_guarded(n for n, _ in pairs)
        count = value * L
        if count.denominator != 1:
            raise ArithmeticError(f"uncovered count {count} over period {L} is not an integer")
        return DensityReport(value, L, "planner", int(count))
    uncovered, least = _scan(pairs, L)
    return DensityReport(Fraction(uncovered, L), L, "lcm-scan", uncovered, least)


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
    constructed systems cheap.  The check reads the system's columns, with
    residues grouped by modulus a run at a time; ResidueClass objects are
    built only for a failing pair.
    """
    total = system.reciprocal_sum()
    if total != 1:
        return ExactCoverCheck(False, total, reason=f"density sum is {total}, not 1")

    residues = system.residues
    by_mod: dict[int, list[int]] = {}
    for n, start, stop in system.runs():
        by_mod.setdefault(n, []).extend(residues[start:stop])

    for n, group in by_mod.items():
        if len(set(group)) == len(group):
            continue
        seen: set[int] = set()
        for r in group:
            if r in seen:
                return ExactCoverCheck(
                    False, total, failing_pair=(ResidueClass(n, r), ResidueClass(n, r)),
                    reason="repeated class",
                )
            seen.add(r)

    @cache  # one set per (modulus, gcd) however many pairs share it
    def residues_mod(n: int, g: int) -> set[int]:
        return {r % g for r in by_mod[n]}

    mods = sorted(by_mod)
    for i in range(len(mods)):
        for j in range(i + 1, len(mods)):
            g = gcd(mods[i], mods[j])
            if residues_mod(mods[i], g).isdisjoint(residues_mod(mods[j], g)):
                continue
            # the first intersecting pair: name the classes as the scan meets them
            left: dict[int, int] = {}
            for r in by_mod[mods[i]]:
                left.setdefault(r % g, r)
            hit = next(r for r in by_mod[mods[j]] if r % g in left)
            return ExactCoverCheck(
                False, total,
                failing_pair=(ResidueClass(mods[i], left[hit % g]), ResidueClass(mods[j], hit)),
                reason="classes intersect",
            )
    return ExactCoverCheck(True, total)


def delta_plus(S: ModuliSet, guard: int = DEFAULT_CELL_GUARD) -> Fraction:
    """Density of integers divisible by no member of S.

    This is the largest uncovered density over all residue choices for S
    (attained by choosing residue 0 everywhere): the density of the
    residue-0 classes, computed by ``_split_density`` with ``guard`` as its
    work budget.
    """
    if not S.distinct:
        raise ValueError("delta_plus expects distinct moduli")
    return _split_density([(n, 0) for n in S.moduli], guard)


@dataclass(frozen=True)
class DeltaMinusResult:
    value: Fraction
    witness: ResidueSystem
    optimal: bool  # True for exhaustive search, False for the greedy bound
    reciprocal_sum: Fraction


def _residues(positions: np.ndarray, n: int) -> np.ndarray:
    """positions % n for nonnegative positions, in one new array.  numpy's
    floor division by a scalar is several times faster than its remainder
    (0.19 against 1.3 ms on 2^19 int32 values, numpy 2.4), so this form
    takes about half the time of ``positions % n``."""
    res = positions // n
    res *= n
    return np.subtract(positions, res, out=res)


def _chunk_width() -> int:
    """Residues per chunk of ``_Peel``: a quarter segment, so that a step's
    int64 temporaries (bincount's cast, np.compress's index) take 2 MiB
    and stay in a 2 MiB L2 cache; half segments ran 7 % slower on greedy
    windows of 1e6 to 2.5e7 cells.  Whole-segment chunks also lifted
    glibc's mmap threshold, and a 5 MB report written later in the process
    then took 3 MiB more peak memory."""
    return max(1, SEGMENT_SIZE // 4)


def _pack(pieces) -> list[np.ndarray]:
    """The ascending pieces, cut to at most ``_chunk_width()`` and joined
    into as few chunks of at most that width as a greedy run allows: any
    two neighbours hold more than the width, so there are at most
    2 * total / width + 1.  There is always one chunk."""
    width = _chunk_width()
    chunks, run, size = [], [], 0
    for piece in pieces:
        for part in (piece[lo : lo + width] for lo in range(0, len(piece) or 1, width)):
            if run and size + len(part) > width:
                chunks.append(np.concatenate(run))
                run, size = [], 0
            run.append(part)
            size += len(part)
    return chunks + [np.concatenate(run)]


class _Peel:
    """The uncovered cells of a window [0, W) as residues modulo H, the lcm
    of the moduli peeled so far: x is uncovered iff x mod H is in rho, the
    sorted uncovered residues below W, held in chunks (``_pack``).  With
    (c, t) = divmod(W, H) that is c*|rho| + |rho < t| cells.  Once H >= W,
    rho is the uncovered cells themselves.
    """

    def __init__(self, pairs, W: int):
        """The window [0, W) less the classes (n, r) in pairs: one paint over
        min(H, W) cells, H = lcm of their moduli."""
        self.W, self.H = W, lcm(*(n for n, _ in pairs))
        # a translate reaches up to W + H < 2W before it is cut at W
        dtype = np.int32 if 2 * W < 2**31 else np.int64
        segments = (
            (np.frombuffer(cov, np.uint8) == 0, np.arange(lo, lo + len(cov), dtype=dtype))
            for lo, cov in _covered_segments(pairs, min(self.H, W))
        )
        self.chunks = _pack(np.compress(free, cells) for free, cells in segments)

    def count(self) -> int:
        c, t = divmod(self.W, self.H)
        return sum(c * len(b) + self._below(b, t) for b in self.chunks)

    @staticmethod
    def _below(b: np.ndarray, t: int) -> int:
        # a typed scalar: a Python int makes searchsorted cast the array
        return int(np.searchsorted(b, b.dtype.type(t)))

    def _widen(self, n: int) -> None:
        """Lift rho to H' = lcm(H, n): the translates rho + i*H for i below
        min(H'/H, ceil(W/H)), cut at W and packed again.  A small rho takes
        as many i at once as fill one chunk, not a Python loop over i."""
        H, W = self.H, self.W
        k = n // gcd(H, n)
        if H >= W or k == 1:
            return
        self.H = H * k
        copies, size = min(k, -(-W // H)), sum(len(b) for b in self.chunks)
        width = _chunk_width()
        rho = self.chunks if size > width else [np.concatenate(self.chunks)]
        per = max(1, width // max(size, 1))
        shifts = (H * np.arange(i, min(i + per, copies), dtype=rho[0].dtype)[:, None]
                  for i in range(0, copies, per))
        pieces = ((b + shift).ravel() for shift in shifts for b in rho)
        self.chunks = _pack(piece[: self._below(piece, W)] for piece in pieces)

    def step(self, n: int, allowed: np.ndarray | None = None) -> int:
        """Peel the class r mod n covering the most uncovered cells, among
        the residues ``allowed`` marks if given (smallest r on ties), and
        return r."""
        self._widen(n)
        c, t = divmod(self.W, self.H)
        counts = np.zeros(n, dtype=np.int64)
        for b in self.chunks:
            res = _residues(b, n)
            if c:
                counts += c * np.bincount(res, minlength=n)
            m = self._below(b, t)
            if m:
                counts += np.bincount(res[:m], minlength=n)
        total = int(counts.sum())
        if allowed is not None:
            counts[~allowed] = -1
        r = int(np.argmax(counts))  # first maximum = smallest residue
        # a boolean index copies each run of kept cells: on 0.9 M random
        # cells it takes 0.5 ms when 1 % go, but 2.7 ms when 20 % go, where
        # np.compress takes 1.0 ms either way (numpy 2.4)
        dense = 20 * counts[r] > total

        def drop(b: np.ndarray, res: np.ndarray) -> np.ndarray:
            return np.compress(res != r, b) if dense else b[res != r]

        # only the last chunk (there is always one) keeps its residues for
        # the filter: holding them for every chunk doubled the live arrays,
        # and the heap they fragmented raised the next job's peak memory by
        # up to 16 MiB
        *head, last = self.chunks
        chunks = [drop(b, _residues(b, n)) for b in head] + [drop(last, res)]
        # filtering only shrinks chunks: pack them again once there are more
        # than a pack leaves, so that emptied chunks cost no per-chunk work
        if len(chunks) > 2 * sum(map(len, chunks)) // _chunk_width() + 1:
            chunks = _pack(chunks)
        self.chunks = chunks
        return r


def delta_minus(
    S: ModuliSet,
    mode: str = "exhaustive",
    guard: int = 10**6,
) -> DeltaMinusResult:
    """Minimum (exhaustive) or peeling-bound (greedy) uncovered density for S.

    Exhaustive mode enumerates residue choices (product of moduli, and the
    period L = lcm(S), under ``guard``) over the moduli in decreasing order
    with ``_residue_walk``, which expands whole blocks of choices a level at
    a time as rows of L bits, depth first.  Each modulus n tries only the
    residues below gcd(n, lcm of the moduli before it), which fixes the
    first residue to 0.  Rows that cannot beat the best count found are
    dropped before each level: each remaining class mod n can remove at
    most L/n of the L cells.  The best is replaced only by a strictly
    smaller count, the first in its block, and blocks are met in
    lexicographic order.  Every choice translates to one the walk visits
    with the same delta, so the witness is the lexicographically first
    optimal choice over all residues.

    Greedy mode peels the moduli in turn with ``_Peel.step``, the step of
    ``greedy_cover``, over the window [0, L), L <= ``guard``: each removes
    a class covering the most of the uncovered cells (smallest residue on
    ties).  The window starts as the one residue 0 mod 1 and is held as
    residues modulo the lcm of the moduli peeled so far, so no cell of
    [0, L) is painted.  The witness's exact density is at most
    prod(1 - 1/n).
    """
    mods = list(S.moduli)
    if mode not in ("exhaustive", "greedy"):
        raise ValueError(f"unknown mode {mode!r}")
    rsum = sum((Fraction(1, n) for n in mods), Fraction(0))

    if mode == "greedy":
        peel = _Peel((), lcm_guarded(mods, guard))
        chosen = [(n, peel.step(n)) for n in mods]
        value = Fraction(peel.count(), peel.W)
        return DeltaMinusResult(value, ResidueSystem.from_pairs(chosen), False, rsum)

    # refuse before any row is built: the period guard, then the choice guard
    try:
        L = lcm_guarded(mods, guard)
    except GuardExceeded as refusal:
        raise GuardExceeded(
            f"class-mask period exceeds guard of {guard} bits",
            estimate=refusal.estimate,
        ) from None
    if prod(mods) > guard:
        raise GuardExceeded(
            f"residue-choice space {prod(mods)} exceeds guard {guard}",
            estimate=prod(mods),
        )
    order = sorted(mods, reverse=True)

    # residual-removal capacity of the tail of the search, as counts over [0, L)
    tail_capacity = [0] * (len(order) + 1)
    for i in range(len(order) - 1, -1, -1):
        tail_capacity[i] = tail_capacity[i + 1] + L // order[i]

    best_count, best_index = L + 1, 0

    def prune(i: int, counts: np.ndarray) -> np.ndarray:
        return counts - tail_capacity[i] >= best_count

    def keep_best(rows: np.ndarray, counts: np.ndarray, index: np.ndarray) -> None:
        # the first least count of the block is its first leaf of that count
        nonlocal best_count, best_index
        at = int(np.argmin(counts))
        if counts[at] < best_count:
            best_count, best_index = int(counts[at]), int(index[at])

    _residue_walk(order, L, keep_best, prune)
    witness = ResidueSystem.from_pairs(zip(order, _residue_choice(order, best_index)))
    return DeltaMinusResult(Fraction(best_count, L), witness, True, rsum)
