"""Check the outputs of rounds or passes of a workload's jobs.

    python3 perfbench/verify.py --workload stream --dir D [--dir D2 ...] --out R.json

Each D holds one directory per job, named after it, with the job's stdout
in stdout.txt.  R.json maps each D, then each job name, to None or the
reason that job's output is wrong.

run.py runs this in its own process: a child's max RSS, as wait4 reports
it, starts from the RSS of the process that forked it, so the driver must
never hold the files and packages the checks load.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from checks import manifest_problem
from workloads import WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--dir", type=Path, required=True, action="append")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    problems: dict[str, dict[str, str | None]] = {}
    for jobs_dir in args.dir:
        found = problems[str(jobs_dir)] = {}
        for job in WORKLOADS[args.workload]:
            job_dir = jobs_dir / job.name
            try:
                stdout = (job_dir / "stdout.txt").read_text(encoding="utf-8")
                problem = job.check(stdout, job_dir)
                if problem is None and job.code is None:
                    problem = manifest_problem(job_dir, job.argv[0])
            except Exception as exc:  # a crash in a check is a failed check
                problem = f"check raised {type(exc).__name__}: {exc}"
            found[job.name] = problem
    args.out.write_text(json.dumps(problems), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
