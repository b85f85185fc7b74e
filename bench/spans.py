"""Span recorder and per-layer metrics for the traced benchmark run.

The layers are the modules under ``src/coversieve/``.  ``install`` wraps
every public function of those modules in each namespace that holds a
reference to it: ``cli``, ``decompose``, ``stats`` and ``construct`` bind
names with ``from .x import y``, so rebinding only the defining module
would miss their calls.  (``coversieve.decompose`` is the *function*
``decompose`` once the package is imported, so modules are taken from
``sys.modules``.)  In ``cli`` only ``run`` is wrapped, so that its self
time covers argv parsing, input loading, encoding and the JSON emit.

A span records name, start, end, parent and the job id, plus work counts
read from the call's arguments and return value.  Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass, field

LAYERS = ("cli", "core", "decompose", "bounds", "density", "stats", "construct")


def _system_pairs(system) -> int:
    n = len(system)
    return n * (n - 1) // 2


# Work counts per wrapped function, read from (positional args, result).
COUNTERS = {
    "decompose.decompose": lambda a, res: {"h_scanned": res.M, "patterns": len(res.groups)},
    "bounds.beta": lambda a, res: {"pairs": _system_pairs(a[0])},
    "bounds.pair_correction_bound": lambda a, res: {"pairs": _system_pairs(a[0])},
    "density.exact_density": lambda a, res: {"cells": res.period},
    "stats.sample_moments": lambda a, res: {"trials": res.sample_count},
    "stats.pair_formula_moments": lambda a, res: {"subsets": 2 ** len(a[0])},
    "stats.enumerate_moments": lambda a, res: {"systems": a[0].product()},
    "construct.greedy_cover": lambda a, res: {"greedy_steps": len(res.steps)},
    "construct.exact_cover_construct": lambda a, res: {"classes_built": len(res.system)},
}


@dataclass
class Span:
    name: str  # "<layer>.<function>"
    job: int
    parent: int | None  # index of the enclosing span
    start: float
    end: float = 0.0
    error: bool = False
    counts: dict = field(default_factory=dict)


class Recorder:
    def __init__(self, job: int = 0):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.job = job

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self.job, stack[-1] if stack else None, time.perf_counter())
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counter is not None:
                span.counts = counter(args, result)
            elif name == "cli.run" and result != 0:
                span.error = True  # the CLI reports failure by exit code
            return result

        return traced


def install(recorder: Recorder) -> list[tuple[object, str, object]]:
    """Wrap the public functions of every layer; returns the patches made."""
    wrappers = {}
    modules = [sys.modules[f"coversieve.{layer}"] for layer in LAYERS]
    for layer, mod in zip(LAYERS, modules):
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_") and (layer != "cli" or attr == "run")):
                wrappers[obj] = recorder.wrap(f"{layer}.{attr}", obj)
    patches = []
    for mod in [sys.modules["coversieve"], *modules]:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                patches.append((mod, attr, obj))
                setattr(mod, attr, wrappers[obj])
    return patches


def uninstall(patches) -> None:
    for mod, attr, original in patches:
        setattr(mod, attr, original)


def job_totals(spans: list[Span]) -> dict[str, float]:
    """Sum calls, self and inclusive seconds, errors and counts over spans.

    Keys are "calls:<span>", "self:<span>", "incl:<span>", "errors:<layer>"
    and "count:<name>"; "count:scan_trials" counts exact_density calls made
    directly from sample_moments.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for i, span in enumerate(spans):
        dur = span.end - span.start
        add(f"calls:{span.name}", 1)
        add(f"incl:{span.name}", dur)
        add(f"self:{span.name}", dur - child_time[i])
        add(f"errors:{span.name.split('.')[0]}", int(span.error))
        for key, value in span.counts.items():
            add(f"count:{key}", value)
        if (span.name == "density.exact_density" and span.parent is not None
                and spans[span.parent].name == "stats.sample_moments"):
            add("count:scan_trials", 1)
    add("count:spans", len(spans))
    return out


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(t: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one pass from summed job totals."""
    g = lambda key: t.get(key, 0)  # noqa: E731
    h = g("count:h_scanned")
    pair_time = g("incl:bounds.beta") + g("incl:bounds.pair_correction_bound")
    return {
        "cli.run.self_s": (g("self:cli.run"), "s"),
        "cli.report_bytes": (g("count:report_bytes"), "B"),
        "cli.errors": (g("errors:cli"), "count"),
        "core.factorize.calls": (g("calls:core.factorize"), "count"),
        "core.factorize.self_s": (g("self:core.factorize"), "s"),
        "core.primes_in.self_s": (g("self:core.primes_in"), "s"),
        "core.errors": (g("errors:core"), "count"),
        "decompose.decompose.calls": (g("calls:decompose.decompose"), "count"),
        "decompose.decompose.self_s": (g("self:decompose.decompose"), "s"),
        "decompose.h_scanned": (h, "count"),
        "decompose.h_per_s": (_rate(h, g("incl:decompose.decompose")), "1/s"),
        "decompose.patterns": (g("count:patterns"), "count"),
        "decompose.patterns_per_h": (g("count:patterns") / h if h else 0.0, "ratio"),
        "decompose.positivity_certificate.self_s": (g("self:decompose.positivity_certificate"), "s"),
        "decompose.errors": (g("errors:decompose"), "count"),
        "bounds.beta.calls": (g("calls:bounds.beta"), "count"),
        "bounds.beta.self_s": (g("self:bounds.beta"), "s"),
        "bounds.alpha.self_s": (g("self:bounds.alpha"), "s"),
        "bounds.pair_correction_bound.self_s": (g("self:bounds.pair_correction_bound"), "s"),
        "bounds.pairs": (g("count:pairs"), "count"),
        "bounds.pairs_per_s": (_rate(g("count:pairs"), pair_time), "1/s"),
        "bounds.errors": (g("errors:bounds"), "count"),
        "density.exact_density.calls": (g("calls:density.exact_density"), "count"),
        "density.exact_density.self_s": (g("self:density.exact_density"), "s"),
        "density.cells": (g("count:cells"), "count"),
        "density.cells_per_s": (_rate(g("count:cells"), g("incl:density.exact_density")), "1/s"),
        "density.uncovered_witness.self_s": (g("self:density.uncovered_witness"), "s"),
        "density.is_exact_cover.self_s": (g("self:density.is_exact_cover"), "s"),
        "density.delta_minus.self_s": (g("self:density.delta_minus"), "s"),
        "density.delta_plus.self_s": (g("self:density.delta_plus"), "s"),
        "density.errors": (g("errors:density"), "count"),
        "stats.sample_moments.self_s": (g("self:stats.sample_moments"), "s"),
        "stats.trials": (g("count:trials"), "count"),
        "stats.trials_per_s": (_rate(g("count:trials"), g("incl:stats.sample_moments")), "1/s"),
        "stats.scan_trials": (g("count:scan_trials"), "count"),
        "stats.pair_formula_moments.self_s": (g("self:stats.pair_formula_moments"), "s"),
        "stats.subsets": (g("count:subsets"), "count"),
        "stats.subsets_per_s": (_rate(g("count:subsets"), g("incl:stats.pair_formula_moments")), "1/s"),
        "stats.enumerate_moments.self_s": (g("self:stats.enumerate_moments"), "s"),
        "stats.systems": (g("count:systems"), "count"),
        "stats.systems_per_s": (_rate(g("count:systems"), g("incl:stats.enumerate_moments")), "1/s"),
        "stats.errors": (g("errors:stats"), "count"),
        "construct.greedy_cover.self_s": (g("self:construct.greedy_cover"), "s"),
        "construct.greedy_steps": (g("count:greedy_steps"), "count"),
        "construct.greedy_steps_per_s": (_rate(g("count:greedy_steps"), g("incl:construct.greedy_cover")), "1/s"),
        "construct.greedy_step_invariant.self_s": (g("self:construct.greedy_step_invariant"), "s"),
        "construct.exact_cover_construct.self_s": (g("self:construct.exact_cover_construct"), "s"),
        "construct.classes_built": (g("count:classes_built"), "count"),
        "construct.errors": (g("errors:construct"), "count"),
        "trace.spans": (g("count:spans"), "count"),
    }
