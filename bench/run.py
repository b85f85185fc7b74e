#!/usr/bin/env python3
"""coversieve benchmark: seeded CLI job mixes timed end to end and per layer.

Usage, from the repository root:

    python3 bench/run.py --workload certify --seed 1 --seconds 30 --trace 0

The load is a closed loop with one client: one process, one thread, calling
``coversieve.cli.run(argv)`` in-process on the jobs of one workload (see
workloads.py), one after another and round-robin, until ``--seconds`` is
spent; the first full pass always runs.  Each report is captured, checked
(checks.py) and its result digest compared with references.json.

``--trace 0`` reports the end-to-end metrics: ``mix_s`` (one pass, the sum
of per-job medians), ``peak_rss_mib`` and ``setup_s`` (median over fresh
interpreters of importing coversieve and building its lazy factor table).
``--trace 1`` runs every job untraced and then traced, in turn, and reports
the per-layer metrics of spans.py per pass plus the tracing overhead.

Standard output ends with one JSON line {"correct", "attempted", "failed",
"metrics"}; the lines before it hold the environment record and every
per-job metric with its unit and sample count.  The full record, spans
included, is written to .bench_work/ in the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
SETUP_REPEATS = 11
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import coversieve
from coversieve.core import factorize
factorize(720720)  # the first call builds the smallest-prime-factor table
print(time.perf_counter() - t0, coversieve.__file__)
"""


class SetupError(Exception):
    pass


def _from_src(module_file: str) -> bool:
    return Path(module_file).resolve().is_relative_to(SRC.resolve())


def measure_setup() -> list[float]:
    """Set-up seconds of SETUP_REPEATS fresh interpreters."""
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                              capture_output=True, text=True, timeout=60, cwd=ROOT)
        if proc.returncode != 0:
            raise SetupError(f"set-up interpreter failed:\n{proc.stderr.strip()}")
        seconds, module_file = proc.stdout.split(maxsplit=1)
        if not _from_src(module_file.strip()):
            raise SetupError(f"coversieve imported from {module_file.strip()}, not {SRC}")
        out.append(float(seconds))
    return out


def import_library():
    sys.path.insert(0, str(SRC))
    try:
        import coversieve
        from coversieve import cli
        from coversieve.core import factorize
    except ImportError as exc:
        raise SetupError(f"cannot import coversieve from {SRC}: {exc}") from None
    if not _from_src(coversieve.__file__):
        raise SetupError(f"coversieve imported from {coversieve.__file__}, not {SRC}")
    factorize(720720)  # finish lazy set-up before anything is timed
    return cli


def git_commit() -> str | None:
    """HEAD of the checkout, or None where it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        return proc.stdout.strip() or None
    return None


def environment(workload: str, seed: int, draw: int) -> dict:
    import numpy

    model = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    source = hashlib.sha256()
    for path in sorted((SRC / "coversieve").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload, "seed": seed, "draw": draw,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "cpu_model": model, "platform": platform.platform(),
        "git_commit": git_commit(), "source_sha256": source.hexdigest(),
        "load": "closed loop, 1 client, 1 process, 1 thread (BLAS/OpenMP pools set to 1)",
    }


class Runner:
    def __init__(self, cli, jobs, references):
        self.cli = cli
        self.jobs = jobs
        self.references = references
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.plain = {job.name: [] for job in jobs}
        self.traced = {job.name: [] for job in jobs}
        self.totals = {job.name: [] for job in jobs}
        self.spans: list[list] = []

    def _verify(self, job, code: int, out: str, err: str) -> list[str]:
        if code != 0:
            return [f"exit code {code}: {err.strip()[:200]}"]
        try:
            result = json.loads(out)["result"]
        except (ValueError, KeyError) as exc:
            return [f"unreadable report: {exc}"]
        problems = job.check(result)
        expected = self.references.get(job.name, {}).get(workloads.reference_key(job))
        if expected is None:
            problems.append("no reference digest recorded")
        elif checks.digest(job.command, result) != expected:
            problems.append("result digest differs from the reference")
        return problems

    def execute(self, job, recorder=None) -> tuple[float, int]:
        """Run one job, record its outcome; returns (seconds, report bytes)."""
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        patches = spans.install(recorder) if recorder is not None else []
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                code = self.cli.run(list(job.argv))
                seconds = time.perf_counter() - t0
        finally:
            spans.uninstall(patches)
        text = out.getvalue()
        problems = self._verify(job, code, text, err.getvalue())
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{job.name}: {p}" for p in problems)
        return seconds, len(text.encode())

    def measure(self, seconds: float, trace: bool) -> None:
        deadline = time.perf_counter() + seconds
        cost: dict[str, float] = {}
        i = 0
        while True:
            job = self.jobs[i % len(self.jobs)]
            start = time.perf_counter()
            if i >= len(self.jobs) and start + cost[job.name] > deadline:
                break
            self.plain[job.name].append(self.execute(job)[0])
            if trace:
                recorder = spans.Recorder(job=i)
                dt, nbytes = self.execute(job, recorder)
                self.traced[job.name].append(dt)
                totals = spans.job_totals(recorder.spans)
                totals["count:report_bytes"] = nbytes
                self.totals[job.name].append(totals)
                self.spans.extend(
                    [s.job, s.name, s.parent, s.start, s.end, s.error, s.counts]
                    for s in recorder.spans)
            cost[job.name] = time.perf_counter() - start
            i += 1


def _median_sum(samples: dict[str, list[float]], names) -> float:
    return sum(statistics.median(samples[name]) for name in names)


def end_to_end(runner: Runner, setup: list[float]) -> tuple[dict, dict]:
    """(metrics, detail): the BENCHMARK.json metrics and every per-job metric."""
    plain = runner.plain
    n_min = min(len(v) for v in plain.values())
    metrics = {
        "mix_s": {"value": _median_sum(plain, plain), "unit": "s"},
        "peak_rss_mib": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                         "unit": "MiB"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
    }
    detail = {name: dict(m, n=n_min) for name, m in metrics.items()}
    detail["peak_rss_mib"]["n"] = 1
    detail["setup_s"]["n"] = len(setup)
    groups: dict[str, list[str]] = {}
    for job in runner.jobs:
        groups.setdefault(job.metric, []).append(job.name)
    for metric, names in groups.items():
        detail[metric] = {"value": _median_sum(plain, names), "unit": "s",
                          "n": min(len(plain[name]) for name in names)}
    detail["failed_ratio"] = {"value": runner.failed / runner.attempted, "unit": "ratio",
                              "n": runner.attempted}
    return metrics, detail


def per_layer(runner: Runner) -> dict:
    pass_totals: dict[str, float] = {}
    for name, runs in runner.totals.items():
        for key in set().union(*runs):
            values = [run.get(key, 0) for run in runs]
            if key.startswith("count:") and len(set(values)) > 1:
                print(f"warning: {name} {key} varies between passes: {values}", file=sys.stderr)
            pass_totals[key] = pass_totals.get(key, 0) + statistics.median(values)
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in spans.layer_metrics(pass_totals).items()}
    overhead = (_median_sum(runner.traced, runner.traced) - _median_sum(runner.plain, runner.plain))
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "coversieve" / "__init__.py").is_file():
        print(f"error: no coversieve sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    try:
        setup = measure_setup()
        cli = import_library()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    draw = args.seed % workloads.DRAWS
    jobs = workloads.build(args.workload, WORKDIR / f"{args.workload}-seed{args.seed}", args.seed)
    references = json.loads((BENCH / "references.json").read_text())["digests"]
    runner = Runner(cli, jobs, references)
    runner.measure(args.seconds, bool(args.trace))

    env = environment(args.workload, args.seed, draw)
    metrics, detail = end_to_end(runner, setup)
    if args.trace:
        metrics = per_layer(runner)
    for problem in runner.problems:
        print(f"check failed: {problem}", file=sys.stderr)

    record = {"env": env, "detail": detail, "metrics": metrics, "setup_samples": setup,
              "samples": runner.plain, "traced_samples": runner.traced,
              "problems": runner.problems, "spans": runner.spans}
    WORKDIR.mkdir(exist_ok=True)
    out = WORKDIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record))

    print(json.dumps({"env": env}))
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
