#!/usr/bin/env python3
"""Record the reference result digests that bench/run.py compares against.

    python3 bench/record.py [--workload certify scan moments]

For every draw (0 .. workloads.DRAWS - 1) the seed-dependent jobs are run
once through ``coversieve.cli.run``; seed-independent jobs run once in all.
A result is recorded only if its checks pass.  Digests of the named
workloads are merged into bench/references.json.  Re-record only when a
change is meant to alter exact outputs, and say so in CHANGES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import checks
import run
import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", default=list(workloads.WORKLOADS),
                        choices=list(workloads.WORKLOADS))
    args = parser.parse_args(argv)

    path = run.BENCH / "references.json"
    cli = run.import_library()
    doc = json.loads(path.read_text()) if path.exists() else {"digests": {}}
    digests = doc["digests"]
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        for workload in args.workload:
            for draw in range(workloads.DRAWS):
                for job in workloads.build(workload, Path(tmp) / f"{workload}-{draw}", draw):
                    key = workloads.reference_key(job)
                    if job.draw is None and draw > 0:
                        continue
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        code = cli.run(list(job.argv))
                    if code != 0:
                        print(f"{job.name}: exit code {code}", file=sys.stderr)
                        return 1
                    result = json.loads(out.getvalue())["result"]
                    problems = job.check(result)
                    if problems:
                        print(f"{job.name} draw {draw}: {problems}", file=sys.stderr)
                        return 1
                    digests.setdefault(job.name, {})[key] = checks.digest(job.command, result)
                    print(f"{workload} {job.name} {key}", file=sys.stderr, flush=True)
    doc = {"recorded_from": run.git_commit(), "draws": workloads.DRAWS,
           "digests": {name: dict(sorted(d.items(), key=lambda kv: (len(kv[0]), kv[0])))
                       for name, d in sorted(digests.items())}}
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
