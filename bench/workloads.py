"""Seeded job lists for the three benchmark workloads.

A workload is a fixed list of CLI jobs; one *pass* runs the list once.
Each job carries the argv handed to ``coversieve.cli.run``, the reported
metric its time counts toward, and the checks its report must pass.  The
inputs are residue-system JSON files written here from the seed, so the
program sees only those files and the argv.

How the seed shapes the inputs.  ``draw = seed % DRAWS`` picks one of
``DRAWS`` independent residue draws (and the ``--seed`` passed to the
randomized commands).  On top of the draw, the seed translates every
residue by one common offset and, where class order cannot matter, shuffles
the classes.  Every result the checks hash is invariant under that
translation and order, so each seed yields its own input files while the
expected digests stay those recorded for its draw in ``references.json``.
Job sizes depend on the moduli only, never on the draw; see README.md for
why each size was chosen and which were left out.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import checks

DRAWS = 16

# (job, moduli range (lo, hi], Q): M = 129,600 and 62,208
CERTIFY = (("certify_q5", 50, 100, 5), ("certify_q3", 150, 300, 3))
BOUNDS_MODULI = range(301, 601)  # 300 classes, three O(l^2) pair loops

# Highly composite periods for the density systems (7.4e7, 1.5e8, 2.9e8).
DENSITY_PERIODS = (73_513_440, 147_026_880, 294_053_760)
DENSITY_DIVISOR_RANGE = (200, 20_000)

GREEDY = {"N": 4, "K": 20, "window": 4 * 10**6}
CONSTRUCT_J = 4

SAMPLE_SCAN_MODULI = tuple(range(11, 19))  # lcm 1.2e7: past the mask limit
SAMPLE_SCAN_TRIALS = 12
SAMPLE_MASK_MODULI = tuple(range(3, 13))  # lcm 27,720: bitmask path
SAMPLE_MASK_TRIALS = 3_000
PAIR_MODULI = tuple(range(3, 20))  # 2^17 subsets
ENUMERATE_MODULI = tuple(range(2, 10))  # W = 362,880 systems
DELTA_MINUS_MODULI = (3, 4, 6, 8, 9, 10, 12, 15)  # 9,331,200 choices
DELTA_MINUS_GUARD = 10**8
DELTA_PLUS_MODULI = tuple(range(30, 46))  # 2^16 subset walk


@dataclass(frozen=True)
class Job:
    name: str  # unique within the workload; keys references.json
    metric: str  # reported per-job metric this job's time counts toward
    argv: tuple[str, ...]
    check: Callable[[dict], list[str]]
    draw: int | None  # reference key; None when the result ignores the seed

    @property
    def command(self) -> str:
        return self.argv[0]


def _residues(moduli, draw: int, seed: int, tag: str) -> list[tuple[int, int]]:
    """Residues of one draw, all translated by a seed-specific offset."""
    base = random.Random(f"{tag}:draw:{draw}")
    shift = random.Random(f"{tag}:shift:{seed}").randrange(10**9)
    return [(n, (base.randrange(n) + shift) % n) for n in moduli]


def _shuffled(pairs, seed: int, tag: str):
    pairs = list(pairs)
    random.Random(f"{tag}:order:{seed}").shuffle(pairs)
    return pairs


def _write(workdir: Path, name: str, pairs) -> str:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps({"classes": [[n, r] for n, r in pairs]}))
    return str(path)


def _divisors(n: int) -> list[int]:
    out = [1]
    p = 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out = [d * p**k for d in out for k in range(e + 1)]
        p += 1
    if n > 1:
        out = out + [d * n for d in out]
    return sorted(out)


def density_moduli(period: int) -> list[int]:
    """Divisors of the period in DENSITY_DIVISOR_RANGE, plus period/2 and
    period/3 so that the lcm is the whole period.  The reciprocal sums stay
    near 0.35, so every residue choice leaves density above 0.6 uncovered."""
    lo, hi = DENSITY_DIVISOR_RANGE
    return [d for d in _divisors(period) if lo < d <= hi] + [period // 2, period // 3]


def _moduli_arg(moduli) -> str:
    return ",".join(map(str, moduli))


def certify_jobs(workdir: Path, seed: int) -> list[Job]:
    draw = seed % DRAWS
    jobs = []
    for name, lo, hi, Q in CERTIFY:
        pairs = _shuffled(_residues(range(lo + 1, hi + 1), draw, seed, name), seed, name)
        path = _write(workdir, name, pairs)
        jobs.append(Job(name, f"{name}_s", ("certify", "--input", path, "--Q", str(Q)),
                        partial(checks.check_certify, pairs=pairs, Q=Q), draw))
    # the refined bound depends on class order, so the order stays ascending
    pairs = _residues(BOUNDS_MODULI, draw, seed, "bounds")
    path = _write(workdir, "bounds", pairs)
    jobs.append(Job("bounds", "bounds_s", ("bounds", "--input", path),
                    partial(checks.check_bounds, pairs=pairs), None))
    return jobs


def scan_jobs(workdir: Path, seed: int) -> list[Job]:
    draw = seed % DRAWS
    jobs = []
    for i, period in enumerate(DENSITY_PERIODS, 1):
        name = f"density_{i}"
        pairs = _shuffled(_residues(density_moduli(period), draw, seed, name), seed, name)
        path = _write(workdir, name, pairs)
        jobs.append(Job(name, "density_s", ("density", "--input", path),
                        partial(checks.check_density, pairs=pairs), draw))
    g = GREEDY
    jobs.append(Job("greedy", "greedy_s",
                    ("greedy", "--N", str(g["N"]), "--K", str(g["K"]),
                     "--window", str(g["window"]), "--seed", str(draw)),
                    partial(checks.check_greedy, **g), draw))
    jobs.append(Job("construct_exact", "construct_exact_s",
                    ("construct-exact", "--J", str(CONSTRUCT_J)),
                    partial(checks.check_construct, J=CONSTRUCT_J), None))
    return jobs


def moments_jobs(workdir: Path, seed: int) -> list[Job]:
    draw = seed % DRAWS

    def stats(name, metric, moduli, mode, *extra, trials=None, seeded=False):
        argv = ("stats", "--moduli", _moduli_arg(moduli), "--mode", mode, *extra)
        if seeded:
            argv += ("--trials", str(trials), "--seed", str(draw))
        return Job(name, metric, argv,
                   partial(checks.check_moments, moduli=moduli, mode=mode, trials=trials),
                   draw if seeded else None)

    return [
        stats("stats_sample_scan", "stats_sample_scan_s", SAMPLE_SCAN_MODULI, "sample",
              trials=SAMPLE_SCAN_TRIALS, seeded=True),
        stats("stats_sample_mask", "stats_sample_mask_s", SAMPLE_MASK_MODULI, "sample",
              trials=SAMPLE_MASK_TRIALS, seeded=True),
        stats("stats_pair", "stats_pair_s", PAIR_MODULI, "pair"),
        stats("stats_enumerate", "stats_enumerate_s", ENUMERATE_MODULI, "enumerate"),
        Job("delta_minus", "delta_minus_s",
            ("delta-minus", "--moduli", _moduli_arg(DELTA_MINUS_MODULI),
             "--mode", "exhaustive", "--guard", str(DELTA_MINUS_GUARD)),
            partial(checks.check_delta_minus, moduli=DELTA_MINUS_MODULI), None),
        Job("delta_plus", "delta_plus_s",
            ("delta-plus", "--moduli", _moduli_arg(DELTA_PLUS_MODULI)),
            partial(checks.check_delta_plus, moduli=DELTA_PLUS_MODULI), None),
    ]


WORKLOADS = {"certify": certify_jobs, "scan": scan_jobs, "moments": moments_jobs}


def build(workload: str, workdir: Path, seed: int) -> list[Job]:
    """Write the workload's input files under workdir and return its jobs."""
    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload](workdir, seed)


def reference_key(job: Job) -> str:
    return "any" if job.draw is None else str(job.draw)
