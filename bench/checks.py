"""Output checks for benchmark jobs, written independently of the library.

Each ``check_*`` function takes the parsed ``result`` object of one CLI
report plus the job's inputs and returns a list of problems (empty when the
output is right).  The checks recompute what is cheap from first principles
(trial division, naive scans, product formulas) and never call into
``coversieve``.  Oracles whose cost grows with the input run only where the
input is small enough: the benchmark's tests use them at reduced sizes,
while full-size runs rely on the cheap invariants plus the reference digest.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import gcd, lcm, prod

# Naive oracles run only on inputs at most this large.
SCAN_LIMIT = 2 * 10**6  # cells of a period scan
PAIR_LIMIT = 300  # classes for the O(l^2) pair-sum oracle
LEAST_WITNESS_LIMIT = 10**5  # witnesses below this are checked to be least

# Result fields that legitimately change with the seed's translation of the
# residues; they are checked by invariants instead of by digest.
SEED_VARIANT_FIELDS = {"density": ("witness",)}


def digest(command: str, result: dict) -> str:
    """sha256 of the canonical JSON of a result, minus seed-variant fields."""
    drop = SEED_VARIANT_FIELDS.get(command, ())
    canon = {k: v for k, v in result.items() if k not in drop}
    blob = json.dumps(canon, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def frac(text: str) -> Fraction:
    p, q = text.split("/")
    return Fraction(int(p), int(q))


def smooth_part(n: int, Q: float) -> int:
    """Largest divisor of n whose primes are all <= Q, by trial division."""
    out = 1
    p = 2
    while p <= Q and n > 1:
        while n % p == 0:
            out *= p
            n //= p
        p += 1
    return out


def alpha_of(moduli) -> Fraction:
    return prod((Fraction(n - 1, n) for n in moduli), start=Fraction(1))


def beta_of(moduli) -> Fraction:
    """The O(l^2) pair sum over non-coprime index pairs."""
    out = Fraction(0)
    for i, a in enumerate(moduli):
        for b in moduli[i + 1:]:
            if gcd(a, b) > 1:
                out += Fraction(1, a * b)
    return out


def covered(x: int, pairs) -> bool:
    return any(x % n == r % n for n, r in pairs)


def scan_uncovered(pairs) -> tuple[int, int]:
    """(uncovered count, period) by marking one period cell by cell."""
    period = lcm(*(n for n, _ in pairs)) if pairs else 1
    cov = bytearray(period)
    for n, r in pairs:
        for x in range(r % n, period, n):
            cov[x] = 1
    return cov.count(0), period


def _expect(problems: list, ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)


def check_certify(result: dict, pairs, Q: float) -> list[str]:
    problems: list[str] = []
    M = lcm(*(smooth_part(n, Q) for n, _ in pairs))
    _expect(problems, result["M"] == M, f"M is {result['M']}, expected {M}")
    _expect(problems, result["kind"] == "decomposed", "kind is not 'decomposed'")
    bound = frac(result["lower_bound"])
    _expect(problems, 0 <= bound <= 1, "lower bound outside [0, 1]")
    want = "positive" if bound > 0 else "inconclusive"
    _expect(problems, result["conclusion"] == want, "conclusion disagrees with the bound")
    _expect(problems, 1 <= result["pattern_count"] <= M, "pattern count outside [1, M]")
    if lcm(*(n for n, _ in pairs)) <= SCAN_LIMIT:
        unc, period = scan_uncovered(pairs)
        _expect(problems, bound <= Fraction(unc, period), "lower bound exceeds the scanned density")
    return problems


def check_bounds(result: dict, pairs) -> list[str]:
    problems: list[str] = []
    moduli = [n for n, _ in pairs]
    a, b = frac(result["alpha"]), frac(result["beta"])
    plain, refined = frac(result["plain_bound"]), frac(result["refined_bound"])
    _expect(problems, a == alpha_of(moduli), "alpha differs from the product formula")
    _expect(problems, b >= 0, "beta is negative")
    _expect(problems, plain == a - b, "plain bound is not alpha - beta")
    _expect(problems, refined >= plain, "refined bound is below the plain bound")
    want = "positive" if refined > 0 else "inconclusive"
    _expect(problems, result["conclusion"] == want, "conclusion disagrees with the refined bound")
    if len(moduli) <= PAIR_LIMIT:
        _expect(problems, b == beta_of(moduli), "beta differs from the pair-sum oracle")
    return problems


def check_density(result: dict, pairs) -> list[str]:
    problems: list[str] = []
    period = lcm(*(n for n, _ in pairs))
    delta = frac(result["delta"])
    _expect(problems, result["method"] == "lcm-scan", "method is not 'lcm-scan'")
    _expect(problems, result["period"] == period, f"period is {result['period']}, expected {period}")
    _expect(problems, delta == Fraction(result["uncovered_count"], result["period"]),
            "delta != uncovered_count / period")
    w = result["witness"]
    if delta == 0:
        _expect(problems, w is None, "witness given for a covering system")
    elif w is None or not 0 <= w < period:
        problems.append("missing or out-of-range witness")
    else:
        _expect(problems, not covered(w, pairs), "witness is covered")
        if w <= LEAST_WITNESS_LIMIT:
            _expect(problems, all(covered(x, pairs) for x in range(w)), "witness is not the least")
    if period <= SCAN_LIMIT:
        unc, _ = scan_uncovered(pairs)
        _expect(problems, result["uncovered_count"] == unc, "uncovered count differs from the scan")
    return problems


def check_greedy(result: dict, N: int, K: int, window: int) -> list[str]:
    import numpy as np  # not at module level: run.py pins BLAS threads first

    problems: list[str] = []
    _expect(problems, result["step_invariant"] is True, "step invariant is not true")
    final = result["final_uncovered_count"]
    _expect(problems, frac(result["final_fraction"]) == Fraction(final, window),
            "final fraction != final count / window")
    classes = result["system"]["classes"]
    _expect(problems, sorted(n for n, _ in classes) == list(range(N + 1, K * N + 1)),
            "moduli are not (N, KN] used once each")
    rows = result["rows"]
    _expect(problems, [row["j"] for row in rows] == list(range(2 * N + 1, K * N + 1)),
            "greedy steps do not run over (2N, KN]")
    after = [result["uncovered_after_random"]] + [row["uncovered_after"] for row in rows]
    _expect(problems, all(x >= y for x, y in zip(after, after[1:])), "uncovered count grew")
    _expect(problems, after[-1] == final, "last step disagrees with the final count")
    unc = np.ones(window, dtype=bool)
    for n, r in classes:
        unc[r::n] = False
    _expect(problems, int(unc.sum()) == final, "final count differs from a recount of the window")
    return problems


def check_construct(result: dict, J: int) -> list[str]:
    problems: list[str] = []
    classes = result["system"]["classes"]
    _expect(problems, result["verified"] is True, "construction not verified")
    _expect(problems, result["J"] == J, "wrong depth")
    _expect(problems, result["class_count"] == len(classes), "class count disagrees with the system")
    moduli: dict[int, int] = {}
    for n, _ in classes:
        moduli[n] = moduli.get(n, 0) + 1
    _expect(problems, result["min_modulus"] == min(moduli), "min modulus disagrees with the system")
    _expect(problems, min(moduli) > result["min_modulus_bound"], "a modulus is below the bound")
    _expect(problems, result["multiplicity"] == max(moduli.values()), "multiplicity disagrees")
    total = sum((Fraction(c, n) for n, c in moduli.items()), Fraction(0))
    _expect(problems, total == 1 and frac(result["reciprocal_sum"]) == 1,
            "reciprocal sum is not 1")
    if lcm(*moduli) <= SCAN_LIMIT:
        # density sum 1 plus no uncovered integer means a partition
        unc, _ = scan_uncovered(classes)
        _expect(problems, unc == 0, "scan finds an uncovered integer")
    return problems


def check_moments(result: dict, moduli, mode: str, trials: int | None = None) -> list[str]:
    problems: list[str] = []
    mean, second, var = frac(result["mean"]), frac(result["second_moment"]), frac(result["variance"])
    _expect(problems, 0 <= mean <= 1 and 0 <= second <= 1, "moments outside [0, 1]")
    if mode == "sample":
        n = result["sample_count"]
        _expect(problems, n == trials, f"sample count {n}, expected {trials}")
        if n >= 2:
            _expect(problems, var == (second - mean * mean) * n / (n - 1),
                    "variance is not the unbiased sample variance")
        _expect(problems, result["method"] == "monte-carlo", "method is not 'monte-carlo'")
        return problems
    _expect(problems, mean == alpha_of(moduli), "mean differs from prod(1 - 1/n)")
    _expect(problems, var == second - mean * mean, "variance != second moment - mean^2")
    _expect(problems, var >= 0, "variance is negative")
    return problems


def check_delta_minus(result: dict, moduli) -> list[str]:
    problems: list[str] = []
    value = frac(result["value"])
    witness = result["witness"]["classes"]
    _expect(problems, sorted(n for n, _ in witness) == sorted(moduli), "witness uses other moduli")
    unc, period = scan_uncovered(witness)
    _expect(problems, value == Fraction(unc, period), "value differs from the witness's scanned density")
    _expect(problems, value <= alpha_of(moduli), "value exceeds the mean prod(1 - 1/n)")
    _expect(problems, frac(result["reciprocal_sum"]) == sum(Fraction(1, n) for n in moduli),
            "reciprocal sum is wrong")
    _expect(problems, result["optimal"] is True, "exhaustive search not marked optimal")
    return problems


def check_delta_plus(result: dict, moduli) -> list[str]:
    problems: list[str] = []
    value = frac(result["value"])
    # Heilbronn-Rohrbach: the residue-0 system leaves at least prod(1 - 1/n).
    _expect(problems, alpha_of(moduli) <= value <= 1, "value outside [prod(1 - 1/n), 1]")
    if lcm(*moduli) <= SCAN_LIMIT:
        unc, period = scan_uncovered([(n, 0) for n in moduli])
        _expect(problems, value == Fraction(unc, period), "value differs from the scan")
    return problems
