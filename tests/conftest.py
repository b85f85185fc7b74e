"""Shared helpers: seeded random-system generators and brute-force oracles.

The oracles here deliberately avoid the library's own fast paths: densities
are rechecked by naive per-integer scans, candidate modulus sets by direct
subset search, so that library results are confirmed by independent code.
"""

import itertools
import json
import random
import warnings
from collections import Counter
from fractions import Fraction
from math import gcd, lcm, prod

import numpy as np
import pytest

import coversieve as cs
from coversieve import density, walk
from coversieve.construct import GreedyStep, GreedyTrace
from coversieve.density import DeltaMinusResult, ExactCoverCheck


@pytest.hookimpl(wrapper=True)
def pytest_runtest_makereport(item, call):
    """Import hypothesis' patch writer before its report hook does, when a
    test fails: the writer imports libcst, which imports
    mypy_extensions.TypedDict, and under -W error that DeprecationWarning
    in the hook ends the run with INTERNALERROR instead of the failure
    report.  Only that warning is ignored, and only for the import."""
    if call.excinfo is not None:
        with warnings.catch_warnings():
            warnings.filterwarnings(
                "ignore", message="mypy_extensions.TypedDict is deprecated",
                category=DeprecationWarning,
            )
            try:
                import hypothesis.extra._patching  # noqa: F401
            except ImportError:  # without libcst hypothesis writes no patch
                pass
    return (yield)


# lcms <= 1e4 with rich divisor structure; random systems draw moduli
# from the divisors of one of these
LCM_POOL = [
    12, 24, 30, 36, 48, 60, 72, 90, 96, 120, 144, 180, 240, 280, 360,
    420, 504, 540, 630, 720, 840, 1080, 1260, 1680, 2160, 2520, 3360,
    3780, 5040, 6300, 7560, 9240, 10000,
]


def divisors_of(n: int) -> list[int]:
    out = [1]
    for p, e in cs.factorize(n).pairs:
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def random_system(rnd: random.Random, max_classes: int = 8, allow_unit: bool = False):
    """A random residue system whose moduli all divide one pooled lcm <= 1e4."""
    L = rnd.choice(LCM_POOL)
    divs = [d for d in divisors_of(L) if d > 1]
    k = rnd.randint(1, max_classes)
    mods = [rnd.choice(divs) for _ in range(k)]
    if allow_unit and rnd.random() < 0.05:
        mods.append(1)
    return cs.ResidueSystem.from_pairs((n, rnd.randrange(n)) for n in mods)


def naive_density(system: cs.ResidueSystem) -> Fraction:
    """Per-integer scan over one period; the reference for exact_density."""
    L = 1
    for c in system.classes:
        L = lcm(L, c.modulus)
    unc = sum(
        1 for x in range(L)
        if all(x % c.modulus != c.residue for c in system.classes)
    )
    return Fraction(unc, L)


def divisor_system(L: int, lo: int, hi: int, seed: int) -> list[tuple[int, int]]:
    """The divisors of L in (lo, hi], and L/2 and L/3, with residues drawn
    from random.Random(seed): the shape of the bench density systems."""
    rnd = random.Random(seed)
    moduli = [d for d in range(lo + 1, hi + 1) if L % d == 0] + [L // 2, L // 3]
    return [(n, rnd.randrange(n)) for n in moduli]


def period_scan(pairs, L: int) -> tuple[int, int | None]:
    """(uncovered count, least uncovered integer or None) of [0, L) under
    the classes (n, r) in pairs, from one bool array over the whole period;
    the reference for the segments and CRT layers of density._scan."""
    covered = np.zeros(L, dtype=bool)
    for n, r in pairs:
        covered[r::n] = True
    uncovered = L - int(np.count_nonzero(covered))
    return uncovered, (int(np.argmin(covered)) if uncovered else None)


def enumerate_residue_choices(S: cs.ModuliSet):
    """All residue systems with moduli S, in lexicographic residue order."""
    mods = list(S.moduli)
    for rs in itertools.product(*(range(n) for n in mods)):
        yield cs.ResidueSystem.from_pairs(zip(mods, rs))


def naive_witness(system: cs.ResidueSystem) -> int | None:
    """Least uncovered integer by a per-integer scan; the reference for
    the witness of exact_density.  None when the period is covered."""
    L = lcm(*(c.modulus for c in system.classes))
    return next(
        (x for x in range(L)
         if all(x % c.modulus != c.residue for c in system.classes)),
        None,
    )


def naive_moments(mods: list[int]) -> tuple[Fraction, Fraction]:
    """(mean, second moment) of the density over every residue choice.

    Sums naive_density over all W = prod(mods) systems; the reference for
    enumerate_moments and pair_formula_moments.
    """
    total = total_sq = Fraction(0)
    for residues in itertools.product(*(range(n) for n in mods)):
        d = naive_density(cs.ResidueSystem.from_pairs(zip(mods, residues)))
        total += d
        total_sq += d * d
    W = prod(mods)
    return total / W, total_sq / W


def naive_membership(system: cs.ResidueSystem, Q: float) -> tuple[list[frozenset], Counter]:
    """Per-h membership patterns of the smooth decomposition, by enumeration.

    Returns the pattern of every h in [0, M) (indices i with
    h = r_i mod s_i, s_i the Q-smooth part of n_i) and their counts; M is
    the lcm of the smooth parts.  The reference for decompose's groups.
    """
    smooth = [cs.smooth_split(c.modulus, Q)[0] for c in system.classes]
    M = lcm(*smooth)
    patterns = [
        frozenset(i for i, (s, c) in enumerate(zip(smooth, system.classes))
                  if h % s == c.residue % s)
        for h in range(M)
    ]
    return patterns, Counter(patterns)


def naive_subsystem(dec, h: int) -> cs.ResidueSystem:
    """C_h of a Decomposition built directly from the membership rule; the
    reference for decompose's groups."""
    pairs = set()
    for c, (s, rough) in zip(dec.system.classes, dec.splits):
        if h % s == c.residue % s:
            pairs.add((rough, c.residue % rough))
    return cs.ResidueSystem.from_pairs(sorted(pairs))


def table_membership_groups(splits, residues, M):
    """decompose's membership fold with one table entry per residue mod q:
    each prime power q of M gets a q-entry list of class bitsets,
    deduplicated by first occurrence and folded into the rest by CRT;
    the reference for the fold over p-adic balls, down to the order of
    the groups and their representatives.  bits -> [count, h]."""
    found = {(1 << len(splits)) - 1: [1, 0]}
    mod = 1
    for p, e in cs.factorize(M).pairs:
        q = p**e
        free = sum(1 << i for i, (s, _) in enumerate(splits) if s % p)
        table = [free] * q
        for i, ((s, _), r) in enumerate(zip(splits, residues)):
            if s % p == 0:
                pa = gcd(s, q)
                for x in range(r % pa, q, pa):
                    table[x] |= 1 << i
        cells: dict[int, list[int]] = {}
        for x, tbits in enumerate(table):
            cells.setdefault(tbits, [0, x])[0] += 1
        inv = pow(mod, -1, q)
        folded: dict[int, list[int]] = {}
        for bits, (cnt, h) in found.items():
            for tbits, (tcnt, x) in cells.items():
                rep = h + mod * ((x - h) * inv % q)
                folded.setdefault(bits & tbits, [0, rep])[0] += cnt * tcnt
        found, mod = folded, mod * q
    return found


def naive_ball_groups(pinned, q: int) -> list[tuple[int, list, int]]:
    """(cells, sorted items, least x) per group of the x in [0, q) with one
    deepest pinned ball, in order of least x, by testing every x against
    every ball (g, s, item); the reference for density._ball_groups."""
    groups: dict[tuple[int, int], list] = {}
    for x in range(q):
        holding = [(g, s, item) for g, s, item in pinned if x % g == s]
        deepest = max([(1, 0)] + [(g, s) for g, s, _ in holding])
        group = groups.setdefault(deepest, [0, sorted(item for _, _, item in holding), x])
        group[0] += 1
    return [tuple(group) for group in groups.values()]


def inline_components(pairs) -> list[tuple[int, list]]:
    """(period, members) per component of the shares-a-prime graph on the
    moduli of pairs, by the loop the split engine ran inline before
    density._components took it over; the reference for that helper, down
    to the order of the components and of their members."""
    components: list[tuple[int, list]] = []  # (period, classes)
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


def trialwise_moments(mods: list[int], trials: int, seed: int, guard: int):
    """(mean, second moment, variance) of sample_moments by recomputing
    every trial: trial t draws one integers(0, n) per modulus from
    default_rng([seed, t]), its delta is naive_density, and the variance
    is the sum of squared deviations over trials - 1 (0 for one trial).
    Past the mask period min(guard, 2*10^5), a trial's system is also
    solved by exact_density with guard, so a budget the split engine
    runs out of raises GuardExceeded here too; the reference for
    sample_moments."""
    engine = lcm(*mods) > min(guard, 2 * 10**5)
    deltas = []
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        system = cs.ResidueSystem.from_pairs((n, int(rng.integers(0, n))) for n in mods)
        if engine:
            density.exact_density(system, guard)
        deltas.append(naive_density(system))
    mean = sum(deltas, Fraction(0)) / trials
    second = sum((d * d for d in deltas), Fraction(0)) / trials
    if trials < 2:
        return mean, second, Fraction(0)
    return mean, second, sum(((d - mean) ** 2 for d in deltas), Fraction(0)) / (trials - 1)


def _dominated_pruned(moduli: list[int]) -> list[int]:
    """Drop any modulus that is a multiple of another (its multiples are a subset)."""
    out = []
    for n in sorted(set(moduli)):
        if not any(n % m == 0 for m in out):
            out.append(n)
    return out


def subset_delta_plus(moduli) -> Fraction:
    """Density of integers divisible by no member of moduli, by
    inclusion-exclusion over subset lcms after dominated moduli are pruned;
    the reference for delta_plus."""
    mods = _dominated_pruned(list(moduli))
    if 1 in mods:
        return Fraction(0)

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


def walk_pair_second_moment(mods) -> Fraction:
    """Second moment of the pair formula for distinct moduli >= 3, by a
    recursive walk over all 2^|T| subsets S, each adding 1 / (M(S) L(S));
    the reference for pair_formula_moments."""
    mods = sorted(mods)
    m_all = prod(n - 2 for n in mods)
    l_all = lcm(*mods)
    subtotal = 0

    def walk(idx: int, m_prod: int, l_val: int):
        nonlocal subtotal
        if idx == len(mods):
            subtotal += (m_all // m_prod) * (l_all // l_val)
            return
        walk(idx + 1, m_prod, l_val)
        n = mods[idx]
        walk(idx + 1, m_prod * (n - 2), lcm(l_val, n))

    walk(0, 1, 1)
    prefactor = prod((Fraction(n - 2, n) for n in mods), start=Fraction(1))
    return prefactor * Fraction(subtotal, m_all * l_all)


def pair_sums(mods: list[int]) -> tuple[Fraction, Fraction]:
    """(plain, refined) subtracted pair mass of the pair-correction bound.

    The direct O(l^2) loop over index pairs i < j with gcd(n_i, n_j) > 1:
    plain adds 1/(n_i n_j), refined weights it by prod_{u > j} (1 - 1/n_u).
    """
    suffix = [Fraction(1)] * (len(mods) + 1)
    for u in range(len(mods) - 1, -1, -1):
        suffix[u] = suffix[u + 1] * Fraction(mods[u] - 1, mods[u])
    plain = refined = Fraction(0)
    for i in range(len(mods)):
        for j in range(i + 1, len(mods)):
            if gcd(mods[i], mods[j]) > 1:
                term = Fraction(1, mods[i] * mods[j])
                plain += term
                refined += term * suffix[j + 1]
    return plain, refined


def unit_sum_distinct_sets(max_lcm: int) -> list[list[int]]:
    """All sets of distinct moduli > 1 with reciprocal sum exactly 1 and
    lcm at most max_lcm (enumerated as subsets of divisors per lcm value)."""
    out = []
    for L in range(2, max_lcm + 1):
        divs = [d for d in divisors_of(L) if d > 1]
        fr = [Fraction(1, d) for d in divs]
        suffix = [Fraction(0)] * (len(divs) + 1)
        for i in range(len(divs) - 1, -1, -1):
            suffix[i] = suffix[i + 1] + fr[i]

        def dfs(i, cur, chosen, cur_lcm):
            if cur == 1:
                if cur_lcm == L:
                    out.append(list(chosen))
                return
            if i == len(divs) or cur > 1 or cur + suffix[i] < 1:
                return
            dfs(i + 1, cur, chosen, cur_lcm)
            chosen.append(divs[i])
            dfs(i + 1, cur + fr[i], chosen, lcm(cur_lcm, divs[i]))
            chosen.pop()

        dfs(0, Fraction(0), [], 1)
    return out


def exact_cover_exists(mods: list[int]) -> bool:
    """Backtracking search for pairwise-disjoint residues on the given moduli.

    The first residue is fixed to 0 (translation invariance), after which
    any coprime pair of moduli kills the branch immediately.
    """
    mods = sorted(mods)
    chosen: list[tuple[int, int]] = []

    def bt(i):
        if i == len(mods):
            return True
        n = mods[i]
        for r in range(1) if i == 0 else range(n):
            if all((r - rj) % gcd(n, nj) != 0 for nj, rj in chosen):
                chosen.append((n, r))
                if bt(i + 1):
                    return True
                chosen.pop()
        return False

    return bt(0)


def naive_greedy(N: int, K: int, seed: int, window: int) -> GreedyTrace:
    """greedy_cover over one bool array of the whole window.

    Every step sums the window reshaped to rows of j cells, so its cost is
    the window size, not what is still uncovered; the reference for
    greedy_cover's per-block positions.
    """
    rng = np.random.default_rng(seed)
    unc = np.ones(window, dtype=bool)
    chosen: dict[int, int] = {}
    for n in range(N + 1, 2 * N + 1):
        r = int(rng.integers(0, n))
        chosen[n] = r
        unc[r::n] = False
    after_random = int(unc.sum())

    steps = []
    for j in range(2 * N + 1, K * N + 1):
        divisors = tuple(d for d in range(N + 1, 2 * N + 1) if j % d == 0)
        admissible = np.ones(j, dtype=bool)
        for d in divisors:
            admissible[chosen[d] % d::d] = False
        f = int(admissible.sum())

        nrows = window // j
        counts = unc[: nrows * j].reshape(nrows, j).sum(axis=0, dtype=np.int64)
        tail = unc[nrows * j :]
        counts[: tail.size] += tail
        if f > 0:
            counts[~admissible] = -1
        r = int(np.argmax(counts))
        chosen[j] = r
        unc[r::j] = False
        steps.append(GreedyStep(j, divisors, f, r, int(unc.sum())))

    return GreedyTrace(
        N, K, window, seed,
        tuple((n, chosen[n]) for n in range(N + 1, 2 * N + 1)),
        after_random, tuple(steps),
        cs.ResidueSystem.from_pairs(sorted(chosen.items())), int(unc.sum()),
    )


def naive_is_exact_cover(system: cs.ResidueSystem) -> ExactCoverCheck:
    """is_exact_cover with a fresh residue dict for every modulus pair; the
    reference for the per-(modulus, gcd) residue sets, down to which pair
    is reported."""
    total = sum((Fraction(1, c.modulus) for c in system.classes), Fraction(0))
    if total != 1:
        return ExactCoverCheck(False, total, reason=f"density sum is {total}, not 1")

    by_mod: dict[int, list[cs.ResidueClass]] = {}
    for c in system.classes:
        by_mod.setdefault(c.modulus, []).append(c)
    for group in by_mod.values():
        seen: dict[int, cs.ResidueClass] = {}
        for c in group:
            if c.residue in seen:
                return ExactCoverCheck(False, total, failing_pair=(seen[c.residue], c),
                                       reason="repeated class")
            seen[c.residue] = c

    mods = sorted(by_mod)
    for i in range(len(mods)):
        for j in range(i + 1, len(mods)):
            g = gcd(mods[i], mods[j])
            left: dict[int, cs.ResidueClass] = {}
            for c in by_mod[mods[i]]:
                left.setdefault(c.residue % g, c)
            for c in by_mod[mods[j]]:
                hit = left.get(c.residue % g)
                if hit is not None:
                    return ExactCoverCheck(False, total, failing_pair=(hit, c),
                                           reason="classes intersect")
    return ExactCoverCheck(True, total)


def naive_greedy_peel(S: cs.ModuliSet) -> DeltaMinusResult:
    """delta_minus in greedy mode with all n shifted class masks of every
    modulus n; the reference for the peel that shifts the uncovered set
    over one mask per modulus.  S must be nonempty."""
    mods = list(S.moduli)
    L = lcm(*mods)
    masks = {
        n: [sum(1 << x for x in range(r, L, n)) for r in range(n)]
        for n in set(mods)
    }
    uncovered = (1 << L) - 1
    chosen = []
    for n in mods:
        best_r, best_gain = 0, -1
        for r in range(n):
            gain = (uncovered & masks[n][r]).bit_count()
            if gain > best_gain:
                best_r, best_gain = r, gain
        chosen.append((n, best_r))
        uncovered &= ~masks[n][best_r]
    rsum = sum((Fraction(1, n) for n in mods), Fraction(0))
    return DeltaMinusResult(
        Fraction(uncovered.bit_count(), L), cs.ResidueSystem.from_pairs(chosen), False, rsum
    )


def full_walk_delta_minus(S: cs.ModuliSet) -> DeltaMinusResult:
    """Exhaustive delta_minus whose depth-first search tries every residue
    of every modulus but the first (fixed to 0), largest modulus first,
    with the same branch-and-bound; the reference for the search over
    residues reduced modulo gcd(n, lcm of the moduli before n), down to
    the witness.  S must be nonempty."""
    order = sorted(S.moduli, reverse=True)
    L = lcm(*order)
    masks = {n: sum(1 << x for x in range(0, L, n)) for n in set(order)}
    levels = [[masks[order[0]]]] + [[masks[n] << r for r in range(n)] for n in order[1:]]
    tail_capacity = [0] * (len(order) + 1)
    for i in range(len(order) - 1, -1, -1):
        tail_capacity[i] = tail_capacity[i + 1] + L // order[i]

    best_count, best_choice = L + 1, []

    def search(idx: int, uncovered: int, choice: list[int]):
        nonlocal best_count, best_choice
        count = uncovered.bit_count()
        if count - tail_capacity[idx] >= best_count:
            return
        if idx == len(order):
            if count < best_count:
                best_count, best_choice = count, choice
            return
        for r, mask in enumerate(levels[idx]):
            search(idx + 1, uncovered & ~mask, choice + [r])

    search(0, (1 << L) - 1, [])
    rsum = sum((Fraction(1, n) for n in order), Fraction(0))
    witness = cs.ResidueSystem.from_pairs(zip(order, best_choice))
    return DeltaMinusResult(Fraction(best_count, L), witness, True, rsum)


def multiples_oracle(n: int, L: int) -> int:
    """The multiples of n in [0, L) as the bits of a Python int; the
    reference for walk._multiples.  Read from a string of L binary digits,
    bit x the digit L - 1 - x, in time linear in L."""
    digits = ["0"] * L
    digits[::n] = "1" * len(digits[::n])
    return int("".join(reversed(digits)), 2)


def row_int(words: np.ndarray) -> int:
    """A row of uint64 words as one Python int, word 0 lowest."""
    return int.from_bytes(words.astype("<u8").tobytes(), "little")


def leaf_recorder(order: list[int], leaves: list, leaf=None):
    """A leaf callback for walk._residue_walk on ``order`` that appends
    (choice, uncovered) to ``leaves`` for every leaf of a block, the choice
    read off the leaf's number and the uncovered bits of [0, L) as an int,
    checks each count against its bits, and then hands the block to
    ``leaf`` if given."""
    def record(rows, counts, index):
        for row, count, number in zip(rows, counts, index, strict=True):
            uncovered = row_int(row)
            assert uncovered.bit_count() == count
            leaves.append((tuple(walk._residue_choice(order, int(number))), uncovered))
        if leaf is not None:
            leaf(rows, counts, index)

    return record


def record_walks(monkeypatch, module) -> list[tuple[list[int], list, list[tuple[int, ...]]]]:
    """Replace module._residue_walk by the real walk run without its prune,
    recording per call (order, the (n, L, words) of every walk._multiples
    call it makes, the choice of every leaf in the order the walk meets
    them); with no prune every leaf is reached, and the leaf callback
    still gets every block, so it keeps the result."""
    walks = []
    multiples = walk._multiples

    def spy(order, L, leaf, prune=None):
        leaves, built = [], []

        def record(n, period):
            built.append((n, period, multiples(n, period)))
            return built[-1][2]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(walk, "_multiples", record)
            walk._residue_walk(order, L, leaf_recorder(order, leaves, leaf))
        walks.append((order, built, [choice for choice, _ in leaves]))

    monkeypatch.setattr(module, "_residue_walk", spy)
    return walks


def walk_widths(leaves: list[tuple[int, ...]]) -> list[int]:
    """Residues tried per level, checking that the leaves are exactly every
    choice of residues below those widths, in lexicographic order."""
    widths = [1 + max(column) for column in zip(*leaves)]
    assert leaves == list(itertools.product(*map(range, widths)))
    return widths


def indented_json(obj) -> str:
    """The stdlib's indented, key-sorted dump; the reference for the CLI's
    report writer cli._dumps."""
    return json.dumps(obj, sort_keys=True, indent=2)


def linear_block_schedule(J: int) -> list[int]:
    """minimal_block_schedule by a linear search that re-sums
    floor(x / p) over the primes in (X_{j-1}, x] for every candidate x;
    the reference for its doubling-and-bisection search."""
    xs = [1]
    for _ in range(J):
        prev = xs[-1]
        x = prev + 1
        while sum(x // p for p in cs.primes_in(prev, x)) < prev:
            x += 1
        xs.append(x)
    return xs
