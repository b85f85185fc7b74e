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

Each subcommand is declared once, in ``COMMANDS``: its help, its CSV
columns, its input kind, its extra arguments and the handler that turns
the parsed arguments and the loaded input into the report.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Callable

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


def _default(obj):
    """JSON form of the report values JSON has no type for."""
    if isinstance(obj, Fraction):
        return _frac(obj)
    if isinstance(obj, ResidueSystem):
        return {"classes": obj.pairs()}
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


# json.dumps(obj, sort_keys=True, indent=2) runs CPython's pure-Python
# encoder, because the C encoder cannot indent.  _dumps gives the same
# bytes faster.  A residue system, the bulk of the 5 MB report of
# construct-exact --J 4, is written from its columns: one str.join over
# the residues of each run of equal moduli.  Flat arrays of numbers (block
# bounds, primes) go to the C encoder in compact form and are re-indented
# with str.replace.
_COMPACT = json.JSONEncoder(separators=(",", ":"), default=_default)
_NOT_FLAT = (dict, list, tuple, str, Fraction, ResidueSystem)


def _dumps(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=2, default=_default), byte
    for byte, for objects whose dict keys are all strings."""
    out: list[str] = []
    _write(obj, "\n", out)
    return "".join(out)


def _write(obj, nl: str, out: list[str]) -> None:
    """Append obj laid out at the depth whose line break is nl."""
    inner = nl + "  "
    if isinstance(obj, ResidueSystem):
        _write_system(obj, nl, out)
    elif isinstance(obj, dict):
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
        # [1,2]: numbers, bools and nulls only.  A report's lists hold one
        # kind of item, so a list whose first item is nested or a string is
        # written item by item without a compact encoding to throw away
        if not isinstance(obj[0], _NOT_FLAT):
            flat = _COMPACT.encode(obj)
            if '"' not in flat and "{" not in flat and flat.count("[") == 1:
                out.append(f"[{inner}{flat[1:-1].replace(',', ',' + inner)}{nl}]")
                return
        sep = "["
        for item in obj:
            out.append(sep + inner)
            _write(item, inner, out)
            sep = ","
        out.append(nl + "]")
    else:
        out.append(_COMPACT.encode(obj))


def _write_system(system: ResidueSystem, nl: str, out: list[str]) -> None:
    """Append {"classes": [[n, r], ...]} laid out at the depth of nl."""
    inner = nl + "  "
    if not len(system):
        out.append(f'{{{inner}"classes": []{nl}}}')
        return
    row, cell = inner + "  ", inner + "    "
    residues = system.residues
    runs = []
    for n, start, stop in system.runs():
        head, tail = f"{row}[{cell}{n},{cell}", f"{row}]"
        runs.append(head + f"{tail},{head}".join(map(str, residues[start:stop])) + tail)
    out.append(f'{{{inner}"classes": [{",".join(runs)}{inner}]{nl}}}')


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
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: {exc}") from None
    if isinstance(doc, dict):
        if "classes" not in doc:
            raise UsageError(f"{path}: missing the 'classes' key")
        doc = doc["classes"]
    if not isinstance(doc, list):
        raise UsageError(f"{path}: 'classes' is not a list of [n, r] pairs")
    for entry in doc:
        # bool is an int subclass, so test the exact type
        if not (type(entry) is list and len(entry) == 2
                and type(entry[0]) is int and type(entry[1]) is int):
            raise UsageError(
                f"{path}: bad class {json.dumps(entry)} (expected [n, r] with integers n, r)"
            )
    return ResidueSystem.from_pairs(doc)


def _parse_moduli(spec: str) -> ModuliSet:
    try:
        return ModuliSet.from_iterable(int(x) for x in spec.split(",") if x.strip())
    except ValueError as exc:
        raise UsageError(f"bad --moduli {spec!r}: {exc}") from None


def _load(source: str | None, args) -> tuple[object, object]:
    """The command's input, loaded once, and its echo in the report."""
    if source == "input":
        return load_system(args.input, args.format == "text"), args.input
    if source == "moduli":
        S = _parse_moduli(args.moduli)
        return S, list(S.moduli)
    return None, None


def _emit(report: dict, fmt: str, columns: tuple[str, ...] = ()) -> None:
    """Write the report: JSON, or for csv the declared columns of its result."""
    if fmt != "csv":
        sys.stdout.write(_dumps(report) + "\n")
        return
    result = report["result"]
    if "rows" in result:
        rows, fields = result["rows"], columns
    else:
        rows, fields = [result], [c for c in columns if c in result]
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(fields)
    for row in rows:
        values = (row[c] for c in fields)
        writer.writerow([_frac(v) if isinstance(v, Fraction) else v for v in values])
    sys.stdout.write(out.getvalue())


@dataclass(frozen=True)
class _Command:
    help: str
    columns: tuple[str, ...]  # CSV columns in order; the result may omit some
    source: str | None  # "input" (a system file), "moduli" (a list) or None
    arguments: tuple  # (flags, add_argument options) per extra argument
    handler: Callable[[argparse.Namespace, object], dict]  # (args, loaded input) -> report


COMMANDS: dict[str, _Command] = {}


def _command(name: str, help_: str, columns: tuple[str, ...], source: str | None, *arguments):
    """Enter the decorated handler in COMMANDS as subcommand ``name``.

    The handler reads library functions as module globals when it runs,
    so that a tracer that rebinds them here sees every call.
    """
    def register(handler):
        COMMANDS[name] = _Command(help_, columns, source, arguments, handler)
        return handler
    return register


def _arg(*flags: str, **options) -> tuple[tuple[str, ...], dict]:
    return flags, options


_SOURCES = {
    "input": _arg("--input", required=True,
                  help="system file: JSON {\"classes\": [[n, r], ...]}, or 'r mod n' "
                       "lines with --format text"),
    "moduli": _arg("--moduli", required=True, help="comma-separated, e.g. 2,3,4,6,12"),
}
_Q = _arg("--Q", type=float, required=True,
          help="smoothness bound: the smooth part of a modulus has only primes <= Q")
_M_GUARD = _arg("--guard", type=int, default=DEFAULT_M_GUARD,
                help="max decomposition modulus M (default 10^7)")
_SPLIT_WORK = "work units of the CRT splits (default 1e9)"


@_command("density", "exact uncovered density of a system",
          ("delta", "period", "uncovered_count", "method", "witness"), "input",
          _arg("--guard", type=int, default=DEFAULT_CELL_GUARD,
               help=f"max scan period in cells and, past it, max {_SPLIT_WORK}"))
def _density(args, system):
    rep = exact_density(system, args.guard)
    return {"inputs": {"guard": args.guard},
            "result": {"delta": rep.value, "period": rep.period,
                       "uncovered_count": rep.uncovered_count, "method": rep.method,
                       "witness": rep.witness}}


@_command("bounds", "pair-correction lower bounds (plain and refined)",
          ("alpha", "beta", "plain_bound", "refined_bound", "conclusion"), "input",
          _arg("--sort-desc", action="store_true",
               help="sort classes by descending modulus before the refined bound"))
def _bounds(args, system):
    cert = pair_correction_bound(system, refined=True, sort_desc=args.sort_desc)
    a, b = cert.components["alpha"], cert.components["beta"]
    return {"inputs": {"sort_desc": args.sort_desc},
            "result": {"alpha": a, "beta": b, "plain_bound": a - b,
                       "refined_bound": cert.lower_bound, "conclusion": cert.conclusion}}


@_command("certify", "positivity certificate via smooth-part decomposition",
          ("kind", "lower_bound", "conclusion", "M", "pattern_count"), "input", _Q, _M_GUARD,
          _arg("--audit", action="store_true",
               help="include the per-pattern contribution table (JSON only)"))
def _certify(args, system):
    cert = positivity_certificate(system, args.Q, args.guard)
    result = {"kind": cert.kind, "lower_bound": cert.lower_bound, "conclusion": cert.conclusion,
              "M": cert.components["M"], "pattern_count": cert.components["pattern_count"]}
    if args.audit:
        result["per_pattern"] = cert.components["per_pattern"]
    return {"inputs": {"Q": args.Q, "guard": args.guard}, "result": result}


@_command("decompose", "smooth-part decomposition structure (groups only in JSON)",
          ("M", "Q", "pattern_count"), "input", _Q, _M_GUARD,
          _arg("--check-identity", action="store_true",
               help="also compute delta(C) directly (a full-period scan, or the split "
                    "engine past the scan guard) and verify the density identity"))
def _decompose(args, system):
    dec = decompose(system, args.Q, args.guard)
    result = {
        "M": dec.M, "Q": dec.Q, "pattern_count": len(dec.groups),
        "groups": [{"count": g.count, "representative": g.representative,
                    "subsystem": g.subsystem} for g in dec.groups],
        "smooth_subsystem": dec.smooth_subsystem,
    }
    if args.check_identity:
        ident = decomposition_identity(system, args.Q, args.guard)
        result["identity"] = {"lhs": ident.lhs, "rhs": ident.rhs, "equal": ident.equal}
    return {"inputs": {"Q": args.Q, "guard": args.guard}, "result": result}


@_command("delta-minus", "minimum uncovered density over residue choices",
          ("value", "optimal", "reciprocal_sum"), "moduli",
          _arg("--mode", choices=("exhaustive", "greedy"), default="exhaustive",
               help="the minimum by branch and bound, or a greedy upper bound"),
          _arg("--guard", type=int, default=10**6,
               help="max residue choices and class-mask bits (exhaustive), or max "
                    "period cells (greedy); default 10^6"))
def _delta_minus(args, S):
    res = delta_minus(S, args.mode, args.guard)
    return {"inputs": {"mode": args.mode, "guard": args.guard},
            "result": {"value": res.value, "witness": res.witness,
                       "optimal": res.optimal, "reciprocal_sum": res.reciprocal_sum}}


@_command("delta-plus", "density of integers divisible by no modulus", ("value",), "moduli",
          _arg("--guard", type=int, default=DEFAULT_CELL_GUARD, help=f"max {_SPLIT_WORK}"))
def _delta_plus(args, S):
    return {"inputs": {"guard": args.guard}, "result": {"value": delta_plus(S, args.guard)}}


@_command("greedy", "random-then-greedy near-cover on (N, KN]; CSV: one row per greedy step",
          ("j", "divisors", "f", "residue", "uncovered_after"), None,
          _arg("--N", type=int, required=True, help="random residues for the moduli in (N, 2N]"),
          _arg("--K", type=int, required=True, help="greedy residues for the moduli in (2N, KN]"),
          _arg("--seed", type=int, default=0, help="seed of the random residues"),
          _arg("--window", type=int, default=None,
               help="cover the cells [0, window) (default 10*K*N, at most 1e9)"))
def _greedy(args, _):
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
            "rows": [{"j": s.j, "divisors": len(s.divisors), "f": s.f, "residue": s.residue,
                      "uncovered_after": s.uncovered_after} for s in trace.steps],
        },
    }


@_command("construct-exact", "exact covering system with large squarefree moduli",
          ("J", "min_modulus_bound", "class_count", "min_modulus", "multiplicity",
           "multiplicity_bound", "verified", "reciprocal_sum"), None,
          _arg("--J", type=int, required=True, help="depth: the number of block levels"),
          _arg("--minimal-schedule", action="store_true",
               help="use the minimal block schedule instead of (j+1)^(j+1)"))
def _construct_exact(args, _):
    plan = exact_cover_construct(args.J, minimal_schedule=args.minimal_schedule)
    check = is_exact_cover(plan.system)
    return {
        "inputs": {"J": args.J, "minimal_schedule": args.minimal_schedule},
        "result": {
            "J": plan.depth, "block_bounds": list(plan.block_bounds),
            "min_modulus_bound": plan.min_modulus_bound, "class_count": len(plan.system),
            "min_modulus": min(plan.system.moduli),
            "multiplicity": plan.system.multiplicity(),
            "multiplicity_bound": plan.multiplicity_bound,
            "verified": bool(check), "reciprocal_sum": check.reciprocal_sum,
            "system": plan.system,
        },
    }


@_command("haight", "prime-product modulus sets with small pair correction",
          ("N", "approx_threshold", "prime_count", "sigma_ratio", "approx_sigma_ratio",
           "divisor_count", "approx_alpha", "beta_upper_bound", "approx_beta_upper_bound"), None,
          _arg("--N", type=int, required=True, help="the primes in (exp(sqrt(log N)) log N, N]"),
          _arg("--full-divisors", action="store_true",
               help="also profile the system on every divisor d > 1 of their product"),
          _arg("--guard", type=int, default=1 << 20,
               help="max 2^k divisors over the k primes (default 2^20)"))
def _haight(args, _):
    st = prime_product_moduli(args.N, args.full_divisors, args.guard)
    result = {"N": st.N, "approx_threshold": st.threshold,
              "prime_count": len(st.primes), "primes": list(st.primes),
              "sigma_ratio": st.sigma_ratio, "approx_sigma_ratio": float(st.sigma_ratio)}
    if args.full_divisors:
        result.update({"divisor_count": st.divisor_count, "approx_alpha": st.alpha_all_divisors,
                       "beta_upper_bound": st.beta_upper_bound,
                       "approx_beta_upper_bound": float(st.beta_upper_bound)})
    return {"inputs": {"N": args.N, "full_divisors": args.full_divisors}, "result": result}


@_command("witness", "uncovered integer found through the smooth part",
          ("witness", "verified"), "input",
          _arg("--B", type=int, required=True, help="all moduli lie in (1, B]"),
          _arg("--s", type=int, default=1, help="multiplicity bound"))
def _witness(args, system):
    A = extend_witness(system, args.B, args.s)
    return {"inputs": {"B": args.B, "s": args.s}, "result": {"witness": A, "verified": True}}


@_command("stats", "moments of delta over random residue systems",
          ("mean", "second_moment", "variance", "method", "sample_count", "approx_std_error"),
          "moduli",
          _arg("--mode", choices=("enumerate", "pair", "sample"), default="enumerate",
               help="enumerate every system, use the pair formula, or sample"),
          _arg("--trials", type=int, default=1000, help="systems drawn in sample mode"),
          _arg("--seed", type=int, default=0, help="seed of the draws in sample mode"),
          _arg("--guard", type=int, default=None,
               help="max W(T) (enumerate), 2^|T| subsets (pair), or in sample mode the "
                    "mask bits (capped at 2*10^5), then the split engine's work units; default "
                    "per mode"))
def _stats(args, S):
    guard = () if args.guard is None else (args.guard,)
    if args.mode == "enumerate":
        rep = enumerate_moments(S, *guard)
    elif args.mode == "pair":
        rep = pair_formula_moments(S, *guard)
    else:
        rep = sample_moments(S, args.trials, args.seed, *guard)
    out = {"inputs": {"mode": args.mode},
           "result": {"mean": rep.mean, "second_moment": rep.second_moment,
                      "variance": rep.variance, "method": rep.method}}
    if args.mode == "sample":
        out["seed"] = args.seed
        out["result"]["sample_count"] = rep.sample_count
        out["result"]["approx_std_error"] = rep.std_error
        out["diagnostics"] = {"rng": "numpy default_rng([seed, trial])"}
    return out


@_command("verify-exact-cover", "check partition of the integers without scanning",
          ("exact", "reciprocal_sum", "reason"), "input")
def _verify_exact_cover(args, system):
    check = is_exact_cover(system)
    pair = check.failing_pair
    return {"inputs": {},
            "result": {"exact": bool(check), "reciprocal_sum": check.reciprocal_sum,
                       "reason": check.reason,
                       "failing_pair": pair and [[c.modulus, c.residue] for c in pair]}}


@_command("xineq", "prime-block supply inequality at level j", ("j", "lhs", "rhs", "holds"),
          None, _arg("--j", type=int, required=True, help="level j >= 1"))
def _xineq(args, _):
    res = block_supply_check(args.j)
    return {"inputs": {"j": args.j},
            "result": {"j": res.j, "lhs": res.lhs, "rhs": res.rhs, "holds": res.holds}}


@functools.cache
def build_parser() -> _Parser:
    """The argv parser of every subcommand, built once per process.

    parse_args keeps no state between calls, so run shares this one;
    callers must not add to it.
    """
    p = _Parser(
        prog="coversieve",
        description="Exact analysis of covering systems of congruences.",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        sp = sub.add_parser(name, help=cmd.help, description=cmd.help,
                            epilog="CSV columns: " + ", ".join(cmd.columns))
        sp.add_argument(
            "--format", choices=("json", "csv", "text"), default="json",
            help="output format; 'text' emits JSON and reads an --input file as 'r mod n' lines",
        )
        sources = (_SOURCES[cmd.source],) if cmd.source else ()
        for flags, options in (*sources, *cmd.arguments):
            sp.add_argument(*flags, **options)
    return p


def run(argv=None) -> int:
    """Parse argv, execute one command, emit its report; returns the exit code."""
    try:
        args = build_parser().parse_args(argv)
        cmd = COMMANDS[args.command]
        loaded, echo = _load(cmd.source, args)
        report = cmd.handler(args, loaded)
    except SystemExit as exc:  # --help / --version
        return exc.code or 0
    except GuardExceeded as exc:
        _emit({"command": args.command,
               "error": {"type": "guard-exceeded", "detail": exc.detail,
                         "estimate": exc.estimate}}, "json")
        return 2
    except (UsageError, ValueError, OSError) as exc:  # argv, input files, SmoothCoverError
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if cmd.source:
        report["inputs"][cmd.source] = echo
    report["command"] = args.command
    report["diagnostics"] = {"library_version": __version__, **report.get("diagnostics", {})}
    _emit(report, args.format, cmd.columns)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
