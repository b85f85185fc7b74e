"""Tests of the benchmark itself, at reduced sizes.

    python3 -m pytest bench -q

They confirm the output checks against independent oracles (naive scans,
the decomposition identity, enumeration against the pair formula), show
that the checks reject corrupted reports, that the reference digests do
not depend on the seed's translation and class order, and that the span
recorder sees calls made through ``from .x import y`` bindings.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from coversieve import cli  # noqa: E402

# divisors of 720720 = 2^4 3^2 5 7 11 13: every period below is scannable
SMALL_MODULI = [d for d in range(11, 200) if 720720 % d == 0]


def report(*argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run([str(a) for a in argv]) == 0
    return json.loads(out.getvalue())


def system_file(tmp_path: Path, pairs, name="system") -> str:
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"classes": [list(p) for p in pairs]}))
    return str(path)


@pytest.fixture
def small(tmp_path):
    pairs = workloads._residues(SMALL_MODULI, draw=3, seed=3, tag="small")
    return pairs, system_file(tmp_path, pairs)


def test_certify_bound_at_most_scanned_density(small):
    pairs, path = small
    for Q in (2, 3, 5):
        result = report("certify", "--input", path, "--Q", Q)["result"]
        assert checks.check_certify(result, pairs, Q) == []
        unc, period = checks.scan_uncovered(pairs)
        assert checks.frac(result["lower_bound"]) <= Fraction(unc, period)


def test_decomposition_identity_matches_naive_scan(small):
    pairs, path = small
    result = report("decompose", "--input", path, "--Q", 3, "--check-identity")["result"]
    unc, period = checks.scan_uncovered(pairs)
    assert result["identity"]["equal"] is True
    assert checks.frac(result["identity"]["lhs"]) == Fraction(unc, period)
    assert checks.frac(result["identity"]["rhs"]) == Fraction(unc, period)
    assert result["M"] == 2**4 * 3**2


def test_density_and_bounds_against_oracles(small):
    pairs, path = small
    density = report("density", "--input", path)["result"]
    assert checks.check_density(density, pairs) == []
    bounds = report("bounds", "--input", path)["result"]
    assert len(pairs) <= checks.PAIR_LIMIT  # the pair-sum oracle runs
    assert checks.check_bounds(bounds, pairs) == []


def test_pair_formula_equals_enumeration_and_naive_moments():
    moduli = (3, 4, 5, 6)
    arg = ",".join(map(str, moduli))
    pair = report("stats", "--moduli", arg, "--mode", "pair")["result"]
    enum = report("stats", "--moduli", arg, "--mode", "enumerate")["result"]
    assert checks.check_moments(pair, moduli, "pair") == []
    assert checks.check_moments(enum, moduli, "enumerate") == []
    assert pair["second_moment"] == enum["second_moment"]
    deltas = []
    for residues in itertools.product(*(range(n) for n in moduli)):
        unc, period = checks.scan_uncovered(list(zip(moduli, residues)))
        deltas.append(Fraction(unc, period))
    mean = sum(deltas) / len(deltas)
    assert checks.frac(enum["mean"]) == mean
    assert checks.frac(enum["second_moment"]) == sum(d * d for d in deltas) / len(deltas)


def test_sample_delta_and_construct_checks_pass():
    sample = report("stats", "--moduli", "3,4,5,6", "--mode", "sample",
                    "--trials", 50, "--seed", 2)["result"]
    assert checks.check_moments(sample, (3, 4, 5, 6), "sample", trials=50) == []
    minus = report("delta-minus", "--moduli", "3,4,6,8")["result"]
    assert checks.check_delta_minus(minus, (3, 4, 6, 8)) == []
    plus = report("delta-plus", "--moduli", "6,8,9,10,12")["result"]
    assert checks.check_delta_plus(plus, (6, 8, 9, 10, 12)) == []
    greedy = report("greedy", "--N", 3, "--K", 6, "--window", 2000, "--seed", 1)["result"]
    assert checks.check_greedy(greedy, N=3, K=6, window=2000) == []
    construct = report("construct-exact", "--J", 2)["result"]
    assert checks.check_construct(construct, J=2) == []


def test_checks_reject_corrupted_reports(small):
    pairs, path = small
    density = report("density", "--input", path)["result"]
    bad = dict(density, uncovered_count=density["uncovered_count"] + 1)
    assert checks.check_density(bad, pairs)
    covered_point = next(x for x in range(10**6) if checks.covered(x, pairs))
    assert checks.check_density(dict(density, witness=covered_point), pairs)

    cert = report("certify", "--input", path, "--Q", 3)["result"]
    assert checks.check_certify(dict(cert, M=cert["M"] * 2), pairs, 3)
    assert checks.check_certify(dict(cert, lower_bound="1/1"), pairs, 3)

    bounds = report("bounds", "--input", path)["result"]
    beta = checks.frac(bounds["beta"]) + Fraction(1, 10**9)
    assert checks.check_bounds(dict(bounds, beta=f"{beta.numerator}/{beta.denominator}"), pairs)

    minus = report("delta-minus", "--moduli", "3,4,6,8")["result"]
    assert checks.check_delta_minus(dict(minus, value="0/1"), (3, 4, 6, 8))
    greedy = report("greedy", "--N", 3, "--K", 6, "--window", 2000, "--seed", 1)["result"]
    assert checks.check_greedy(dict(greedy, final_uncovered_count=0), N=3, K=6, window=2000)


def test_digest_ignores_translation_and_order(tmp_path):
    """Seeds of one draw give distinct inputs but the same digests."""
    moduli = SMALL_MODULI
    seeds = (5, 5 + workloads.DRAWS, 5 + 7 * workloads.DRAWS)
    files, digests = [], []
    for seed in seeds:
        pairs = workloads._shuffled(
            workloads._residues(moduli, seed % workloads.DRAWS, seed, "t"), seed, "t")
        path = system_file(tmp_path, pairs, f"s{seed}")
        files.append(Path(path).read_text())
        digests.append([checks.digest(cmd, report(cmd, "--input", path, *extra)["result"])
                        for cmd, extra in (("certify", ("--Q", 3)), ("density", ()))])
    assert len(set(files)) == len(seeds)
    assert all(d == digests[0] for d in digests)


def test_references_cover_every_job_and_draw(tmp_path):
    refs = json.loads((BENCH / "references.json").read_text())
    assert refs["draws"] == workloads.DRAWS
    for workload in workloads.WORKLOADS:
        for job in workloads.build(workload, tmp_path / workload, seed=0):
            keys = set(refs["digests"][job.name])
            want = {"any"} if job.draw is None else {str(d) for d in range(workloads.DRAWS)}
            assert keys == want, job.name


def test_recorder_sees_from_import_bindings_and_restores(small):
    pairs, path = small
    decompose_module = sys.modules["coversieve.decompose"]
    original = decompose_module.alpha
    totals = []
    for _ in range(2):
        recorder = spans.Recorder()
        patches = spans.install(recorder)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.run(["certify", "--input", path, "--Q", "3"]) == 0
        finally:
            spans.uninstall(patches)
        names = {s.name for s in recorder.spans}
        assert {"cli.run", "decompose.positivity_certificate", "decompose.decompose",
                "bounds.alpha", "bounds.beta", "core.factorize"} <= names
        beta = next(s for s in recorder.spans if s.name == "bounds.beta")
        assert recorder.spans[beta.parent].name == "decompose.positivity_certificate"
        totals.append(spans.job_totals(recorder.spans))
    assert decompose_module.alpha is original
    counts = [{k: v for k, v in t.items() if k.startswith(("count:", "calls:"))} for t in totals]
    assert counts[0] == counts[1]
    assert counts[0]["count:h_scanned"] == 2**4 * 3**2


def test_self_time_subtracts_children():
    outer = spans.Span("cli.run", 0, None, 0.0, 10.0)
    inner = spans.Span("density.exact_density", 0, 0, 1.0, 4.0, counts={"cells": 7})
    inner2 = spans.Span("core.factorize", 0, 0, 5.0, 6.0, error=True)
    t = spans.job_totals([outer, inner, inner2])
    assert t["self:cli.run"] == pytest.approx(6.0)
    assert t["incl:cli.run"] == pytest.approx(10.0)
    assert t["count:cells"] == 7 and t["errors:core"] == 1
    metrics = spans.layer_metrics(t)
    assert metrics["density.cells_per_s"] == (pytest.approx(7 / 3), "1/s")
    assert metrics["decompose.h_per_s"] == (0.0, "1/s")
