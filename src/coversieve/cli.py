"""Batch command-line front end.

Parses residue systems, dispatches to the engines, and emits one
machine-readable report per invocation on standard output.  Reports are
JSON by default (``--format csv`` for flat tables); exact rationals are
serialized as "p/q" strings and inherently floating fields carry an
``approx_`` prefix.  Exit codes: 0 success, 1 input error, 2 resource
guard exceeded.  Identical argv (including --seed) always produces a
byte-identical report, and for JSON that includes the layout: keys in
sorted order, a two-space indent, one value per line and non-ASCII
characters as ``\\uXXXX`` escapes, exactly as
``json.dumps(report, sort_keys=True, indent=2)`` lays it out.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from . import __version__
from .bounds import pair_correction_bound
from .construct import (
    exact_cover_construct,
    extend_witness,
    greedy_cover,
    greedy_step_invariant,
    prime_product_moduli,
    block_supply_check,
)
from .core import GuardExceeded, ModuliSet, ResidueSystem
from .decompose import (
    DEFAULT_M_GUARD,
    decompose,
    decomposition_identity,
    positivity_certificate,
)
from .density import (
    DEFAULT_CELL_GUARD,
    delta_minus,
    delta_plus,
    exact_density,
    is_exact_cover,
)
from .stats import enumerate_moments, pair_formula_moments, sample_moments


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with status 2
        raise UsageError(message)


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _encode(obj):
    if isinstance(obj, Fraction):
        return _frac(obj)
    if isinstance(obj, ResidueSystem):
        return {"classes": [[c.modulus, c.residue] for c in obj.classes]}
    if isinstance(obj, dict):
        return {k: _encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encode(v) for v in obj]
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    return str(obj)


# json.dumps(obj, sort_keys=True, indent=2) runs CPython's pure-Python
# encoder, because the C encoder cannot indent, and the 5 MB report of
# construct-exact --J 4 spends most of its time there.  _dumps gives the
# same bytes but hands the arrays of numbers that make up the bulk of a
# report (system classes, block bounds, primes) to the C encoder in
# compact form and re-indents the result with str.replace.
_COMPACT = json.JSONEncoder(separators=(",", ":"))


def _dumps(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=2), byte for byte, for
    objects whose dict keys are all strings."""
    out: list[str] = []
    _write(obj, "\n", out)
    return "".join(out)


def _write(obj, nl: str, out: list[str]) -> None:
    """Append obj laid out at the depth whose line break is nl."""
    inner = nl + "  "
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        sep = "{"
        for key, value in sorted(obj.items()):
            # report keys are strings; any other key raises TypeError here
            out.append(f"{sep}{inner}{encode_basestring_ascii(key)}: ")
            _write(value, inner, out)
            sep = ","
        out.append(nl + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        flat = _COMPACT.encode(obj)
        if '"' not in flat and "{" not in flat:  # numbers, bools, nulls, arrays
            if flat.count("[") == 1:  # [1,2]
                out.append(f"[{inner}{flat[1:-1].replace(',', ',' + inner)}{nl}]")
                return
            # [[1,2],[3]]: every item a non-empty array of scalars.  The
            # counts reject [[[65]],null] and [[1,2],3]; "[]" rejects [[]]
            if (flat.count("[") == len(obj) + 1 and flat.startswith("[[")
                    and flat.count("],[") == len(obj) - 1 and "[]" not in flat):
                deeper = inner + "  "
                rows = (flat[1:-1].replace(",", "," + deeper)
                        .replace("]," + deeper + "[", "]," + inner + "[")
                        .replace("[", "[" + deeper).replace("]", inner + "]"))
                out.append(f"[{inner}{rows}{nl}]")
                return
        sep = "["
        for item in obj:
            out.append(sep + inner)
            _write(item, inner, out)
            sep = ","
        out.append(nl + "]")
    else:
        out.append(_COMPACT.encode(obj))


_TEXT_LINE = re.compile(r"^\s*(-?\d+)\s+mod\s+(\d+)\s*$")


def load_system(path: str, text: bool = False) -> ResidueSystem:
    """Read a system from JSON ({"classes": [[n, r], ...]}) or text lines "r mod n"."""
    with open(path) as fh:
        raw = fh.read()
    if text:
        pairs = []
        for line in raw.splitlines():
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            m = _TEXT_LINE.match(line)
            if not m:
                raise UsageError(f"cannot parse line {line!r} (expected 'r mod n')")
            pairs.append((int(m.group(2)), int(m.group(1))))
        return ResidueSystem.from_pairs(pairs)
    doc = json.loads(raw)
    if isinstance(doc, dict):
        if "classes" not in doc:
            raise UsageError(f"{path}: missing the 'classes' key")
        doc = doc["classes"]
    if not isinstance(doc, list):
        raise UsageError(f"{path}: 'classes' is not a list of [n, r] pairs")
    for entry in doc:
        # bool is an int subclass, so test the exact type
        if not (isinstance(entry, list) and len(entry) == 2
                and all(type(v) is int for v in entry)):
            raise UsageError(
                f"{path}: bad class {json.dumps(entry)} (expected [n, r] with integers n, r)"
            )
    return ResidueSystem.from_pairs(doc)


def _parse_moduli(spec: str) -> ModuliSet:
    try:
        return ModuliSet.from_iterable(int(x) for x in spec.split(",") if x.strip())
    except ValueError as exc:
        raise UsageError(f"bad --moduli {spec!r}: {exc}") from None


def _emit(report: dict, fmt: str) -> None:
    if fmt == "csv":
        result = report.get("result", {})
        rows = result.get("rows")
        out = io.StringIO()
        if isinstance(rows, list) and rows and isinstance(rows[0], dict):
            writer = csv.DictWriter(out, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
        else:
            flat = {k: v for k, v in result.items() if not isinstance(v, (dict, list))}
            writer = csv.DictWriter(out, fieldnames=list(flat.keys()))
            writer.writeheader()
            writer.writerow(flat)
        sys.stdout.write(out.getvalue())
    else:
        sys.stdout.write(_dumps(report) + "\n")


def build_parser() -> _Parser:
    p = _Parser(
        prog="coversieve",
        description="Exact analysis of covering systems of congruences.",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, help_, epilog=None):
        sp = sub.add_parser(name, help=help_, epilog=epilog)
        sp.add_argument(
            "--format", choices=("json", "csv", "text"), default="json",
            help="output format; 'text' reads --input as 'r mod n' lines and emits JSON",
        )
        return sp

    sp = add("density", "exact uncovered density of a system",
             epilog="CSV columns: delta, period, uncovered_count, method, witness")
    sp.add_argument("--input", required=True)
    sp.add_argument("--guard", type=int, default=DEFAULT_CELL_GUARD,
                    help="max scan period in cells and, past it, max work of the "
                         "CRT splits (default 1e9)")

    sp = add("bounds", "pair-correction lower bounds (plain and refined)",
             epilog="CSV columns: alpha, beta, plain_bound, refined_bound, conclusion")
    sp.add_argument("--input", required=True)
    sp.add_argument("--sort-desc", action="store_true",
                    help="sort classes by descending modulus before the refined bound")

    sp = add("certify", "positivity certificate via smooth-part decomposition",
             epilog="CSV columns: lower_bound, conclusion, M, pattern_count")
    sp.add_argument("--input", required=True)
    sp.add_argument("--Q", type=float, required=True)
    sp.add_argument("--guard", type=int, default=DEFAULT_M_GUARD, help="max M")
    sp.add_argument("--audit", action="store_true",
                    help="include the per-pattern contribution table")

    sp = add("decompose", "smooth-part decomposition structure",
             epilog="CSV columns: M, Q, pattern_count (groups only in JSON)")
    sp.add_argument("--input", required=True)
    sp.add_argument("--Q", type=float, required=True)
    sp.add_argument("--guard", type=int, default=DEFAULT_M_GUARD, help="max M")
    sp.add_argument("--check-identity", action="store_true",
                    help="also compute delta(C) directly (a full-period scan, or the split "
                         "engine past the scan guard) and verify the density identity")

    sp = add("delta-minus", "minimum uncovered density over residue choices",
             epilog="CSV columns: value, optimal, reciprocal_sum")
    sp.add_argument("--moduli", required=True, help="comma-separated, e.g. 2,3,4,6,12")
    sp.add_argument("--mode", choices=("exhaustive", "greedy"), default="exhaustive")
    sp.add_argument("--guard", type=int, default=10**6)

    sp = add("delta-plus", "density of integers divisible by no modulus",
             epilog="CSV columns: value")
    sp.add_argument("--moduli", required=True)
    sp.add_argument("--guard", type=int, default=DEFAULT_CELL_GUARD,
                    help="max work of the CRT splits (default 1e9)")

    sp = add("greedy", "random-then-greedy near-cover on (N, KN]",
             epilog="CSV rows: one per greedy step (j, divisors, f, residue, uncovered_after)")
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--K", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--window", type=int, default=None)

    sp = add("construct-exact", "exact covering system with large squarefree moduli",
             epilog="CSV columns: J, min_modulus_bound, class_count, min_modulus, multiplicity, verified")
    sp.add_argument("--J", type=int, required=True)
    sp.add_argument("--minimal-schedule", action="store_true",
                    help="use the minimal block schedule instead of (j+1)^(j+1)")

    sp = add("haight", "prime-product modulus sets with small pair correction",
             epilog="CSV columns: N, prime_count, sigma_ratio, approx_alpha, beta_upper_bound")
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--full-divisors", action="store_true")
    sp.add_argument("--guard", type=int, default=1 << 20)

    sp = add("witness", "uncovered integer found through the smooth part",
             epilog="CSV columns: witness")
    sp.add_argument("--input", required=True)
    sp.add_argument("--B", type=int, required=True, help="all moduli lie in (1, B]")
    sp.add_argument("--s", type=int, default=1, help="multiplicity bound")

    sp = add("stats", "moments of delta over random residue systems",
             epilog="CSV columns: mean, second_moment, variance, method")
    sp.add_argument("--moduli", required=True)
    sp.add_argument("--mode", choices=("enumerate", "pair", "sample"), default="enumerate")
    sp.add_argument("--trials", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--guard", type=int, default=None,
                    help="max W(T) (enumerate), 2^|T| subsets (pair), or in sample mode the "
                         "mask period (capped at 2*10^5) and then the split engine's work")

    sp = add("verify-exact-cover", "check partition of the integers without scanning",
             epilog="CSV columns: exact, reciprocal_sum, reason")
    sp.add_argument("--input", required=True)

    sp = add("xineq", "prime-block supply inequality at level j",
             epilog="CSV columns: j, lhs, rhs, holds")
    sp.add_argument("--j", type=int, required=True)

    return p


def _dispatch(args) -> dict:
    cmd = args.command
    text = args.format == "text"

    if cmd == "density":
        system = load_system(args.input, text)
        rep = exact_density(system, args.guard)
        return {
            "inputs": {"input": args.input, "guard": args.guard},
            "result": {
                "delta": rep.value, "period": rep.period,
                "uncovered_count": rep.uncovered_count, "method": rep.method,
                "witness": rep.witness,
            },
        }

    if cmd == "bounds":
        system = load_system(args.input, text)
        cert = pair_correction_bound(system, refined=True, sort_desc=args.sort_desc)
        a, b = cert.components["alpha"], cert.components["beta"]
        return {
            "inputs": {"input": args.input, "sort_desc": args.sort_desc},
            "result": {
                "alpha": a, "beta": b,
                "plain_bound": a - b,
                "refined_bound": cert.lower_bound,
                "conclusion": cert.conclusion,
            },
        }

    if cmd == "certify":
        system = load_system(args.input, text)
        cert = positivity_certificate(system, args.Q, args.guard)
        result = {
            "kind": cert.kind, "lower_bound": cert.lower_bound,
            "conclusion": cert.conclusion,
            "M": cert.components["M"],
            "pattern_count": cert.components["pattern_count"],
        }
        if args.audit:
            result["per_pattern"] = cert.components["per_pattern"]
        return {"inputs": {"input": args.input, "Q": args.Q, "guard": args.guard},
                "result": result}

    if cmd == "decompose":
        system = load_system(args.input, text)
        dec = decompose(system, args.Q, args.guard)
        result = {
            "M": dec.M, "Q": dec.Q, "pattern_count": len(dec.groups),
            "groups": [
                {"count": g.count, "representative": g.representative,
                 "subsystem": g.subsystem}
                for g in dec.groups
            ],
            "smooth_subsystem": dec.smooth_subsystem,
        }
        if args.check_identity:
            ident = decomposition_identity(system, args.Q, args.guard)
            result["identity"] = {"lhs": ident.lhs, "rhs": ident.rhs, "equal": ident.equal}
        return {"inputs": {"input": args.input, "Q": args.Q, "guard": args.guard},
                "result": result}

    if cmd == "delta-minus":
        S = _parse_moduli(args.moduli)
        res = delta_minus(S, args.mode, args.guard)
        return {
            "inputs": {"moduli": list(S.moduli), "mode": args.mode, "guard": args.guard},
            "result": {
                "value": res.value, "witness": res.witness,
                "optimal": res.optimal, "reciprocal_sum": res.reciprocal_sum,
            },
        }

    if cmd == "delta-plus":
        S = _parse_moduli(args.moduli)
        return {
            "inputs": {"moduli": list(S.moduli), "guard": args.guard},
            "result": {"value": delta_plus(S, args.guard)},
        }

    if cmd == "greedy":
        trace = greedy_cover(args.N, args.K, args.seed, args.window)
        return {
            "inputs": {"N": args.N, "K": args.K, "window": trace.window},
            "seed": args.seed,
            "diagnostics": {"rng": "numpy default_rng(seed)"},
            "result": {
                "uncovered_after_random": trace.uncovered_after_random,
                "final_uncovered_count": trace.final_uncovered_count,
                "final_fraction": trace.final_uncovered_fraction,
                "approx_final_fraction": float(trace.final_uncovered_fraction),
                "step_invariant": greedy_step_invariant(trace),
                "system": trace.system,
                "rows": [
                    {"j": s.j, "divisors": len(s.divisors), "f": s.f,
                     "residue": s.residue, "uncovered_after": s.uncovered_after}
                    for s in trace.steps
                ],
            },
        }

    if cmd == "construct-exact":
        plan = exact_cover_construct(args.J, minimal_schedule=args.minimal_schedule)
        check = is_exact_cover(plan.system)
        return {
            "inputs": {"J": args.J, "minimal_schedule": args.minimal_schedule},
            "result": {
                "J": plan.depth, "block_bounds": list(plan.block_bounds),
                "min_modulus_bound": plan.min_modulus_bound,
                "class_count": len(plan.system),
                "min_modulus": min(c.modulus for c in plan.system),
                "multiplicity": plan.system.multiplicity(),
                "multiplicity_bound": plan.multiplicity_bound,
                "verified": bool(check),
                "reciprocal_sum": check.reciprocal_sum,
                "system": plan.system,
            },
        }

    if cmd == "haight":
        st = prime_product_moduli(args.N, args.full_divisors, args.guard)
        result = {
            "N": st.N, "approx_threshold": st.threshold,
            "prime_count": len(st.primes), "primes": list(st.primes),
            "sigma_ratio": st.sigma_ratio,
            "approx_sigma_ratio": float(st.sigma_ratio),
        }
        if args.full_divisors:
            result.update({
                "divisor_count": st.divisor_count,
                "approx_alpha": st.alpha_all_divisors,
                "beta_upper_bound": st.beta_upper_bound,
                "approx_beta_upper_bound": float(st.beta_upper_bound),
            })
        return {"inputs": {"N": args.N, "full_divisors": args.full_divisors},
                "result": result}

    if cmd == "witness":
        system = load_system(args.input, text)
        A = extend_witness(system, args.B, args.s)
        return {
            "inputs": {"input": args.input, "B": args.B, "s": args.s},
            "result": {"witness": A, "verified": True},
        }

    if cmd == "stats":
        S = _parse_moduli(args.moduli)
        guard = () if args.guard is None else (args.guard,)
        if args.mode == "enumerate":
            rep = enumerate_moments(S, *guard)
        elif args.mode == "pair":
            rep = pair_formula_moments(S, *guard)
        else:
            rep = sample_moments(S, args.trials, args.seed, *guard)
        out = {
            "inputs": {"moduli": list(S.moduli), "mode": args.mode},
            "result": {
                "mean": rep.mean, "second_moment": rep.second_moment,
                "variance": rep.variance, "method": rep.method,
            },
        }
        if args.mode == "sample":
            out["seed"] = args.seed
            out["result"]["sample_count"] = rep.sample_count
            out["result"]["approx_std_error"] = rep.std_error
            out["diagnostics"] = {"rng": "numpy default_rng([seed, trial])"}
        return out

    if cmd == "verify-exact-cover":
        system = load_system(args.input, text)
        check = is_exact_cover(system)
        return {
            "inputs": {"input": args.input},
            "result": {
                "exact": bool(check), "reciprocal_sum": check.reciprocal_sum,
                "reason": check.reason,
                "failing_pair": (
                    [[c.modulus, c.residue] for c in check.failing_pair]
                    if check.failing_pair else None
                ),
            },
        }

    if cmd == "xineq":
        res = block_supply_check(args.j)
        return {
            "inputs": {"j": args.j},
            "result": {"j": res.j, "lhs": res.lhs, "rhs": res.rhs, "holds": res.holds},
        }

    raise UsageError(f"unknown command {cmd!r}")  # pragma: no cover


def run(argv=None) -> int:
    """Parse argv, execute one command, emit its report; returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version
        return exc.code or 0

    try:
        report = _dispatch(args)
    except GuardExceeded as exc:
        _emit({"command": args.command,
               "error": {"type": "guard-exceeded", "detail": exc.detail,
                         "estimate": _encode(exc.estimate)}}, "json")
        return 2
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:  # includes SmoothCoverError, JSONDecodeError
        print(f"error: {exc}", file=sys.stderr)
        return 1

    diagnostics = {"library_version": __version__}
    diagnostics.update(report.pop("diagnostics", {}))
    report = {"command": args.command, **report, "diagnostics": diagnostics}
    _emit(_encode(report), args.format)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
