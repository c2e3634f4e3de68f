"""One in-process pass over a workload's jobs.

Runs every job of the workload in this interpreter, one after another:
`dimers.cli.main(argv)` for a CLI job, `exec` for a python -c job, each in
its own working directory, its output captured to stdout.txt there.  With
--trace 1 the layer functions are wrapped first.  The pass writes its
timings, exit codes and trace aggregate as one JSON file at the end.

    python3 perfbench/inproc.py --workload census --seed 1 --dir D --trace 1 --out R.json

run.py starts this once untraced and once traced, each in a fresh
process, so caches the package keeps in memory start cold in both.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import sys
import time
import traceback
from pathlib import Path

from layers import TRACED
from tracer import Tracer
from workloads import MANIFEST, WORKLOADS, prepare

MODULES = ("cli", "core", "counting", "explore", "moves", "twist", "sample", "slab", "ideals")


def run_job(job, seed: int) -> tuple[float, int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            if job.code is not None:
                exec(compile(job.code, job.name, "exec"), {"__name__": "__main__"})
                code = 0
            else:
                argv = ["--manifest", MANIFEST, *job.arguments(seed)]
                sys.argv = ["dimers", *argv]
                code = sys.modules["dimers.cli"].main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback is a failed job, not a failed pass
            traceback.print_exc()
            code = 1
        seconds = time.perf_counter() - start
    return seconds, code, out.getvalue(), err.getvalue()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    for name in MODULES:
        importlib.import_module(f"dimers.{name}")
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install("dimers", TRACED)

    home = os.getcwd()
    jobs, done = [], {}
    for job in WORKLOADS[args.workload]:
        job_dir = args.dir / job.name
        prepare(job, job_dir, done)
        os.chdir(job_dir)
        try:
            seconds, code, stdout, stderr = run_job(job, args.seed)
        finally:
            os.chdir(home)
        done[job.name] = job_dir
        (job_dir / "stdout.txt").write_text(stdout, encoding="utf-8")
        jobs.append({"name": job.name, "seconds": seconds, "exit": code, "stderr": stderr[-2000:]})

    result: dict = {"jobs": jobs}
    if tracer is not None:
        from dimers.counting import profile_width

        trace = tracer.as_dict()
        trace["self_s"] = tracer.self_seconds()
        result["trace"] = trace
        regions = tracer.seen.get("count_region", [])
        result["profile_width"] = max((profile_width(r) for r in regions), default=0)
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
