"""The dimers benchmark.

    python3 perfbench/run.py --workload count --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  One driver process runs one job at a time (a closed loop with one
client) and starts no threads.

--trace 0 measures the end-to-end metrics.  It runs the workload's jobs,
each in a fresh `dimers` process, in rounds until --seconds have passed:
at least one round, and no round that the last one's length says would
overrun.  Each round starts with a no-work launch (`dimers count --box
2,2`), and a fixed reference program that imports nothing from the
package runs just before every launch and every job.

Times are reported in reference seconds: a launch's or job's time over
the time of the reference run just before it, times REFERENCE_NOMINAL_S,
and then the median over the rounds.  On the shared 2-core host the
benchmark was written on, one job's time swings by up to 2x between
states that last 10 to 30 s, and the whole host slows by up to 1.6x for
minutes at a time; over ten runs the raw wall_s spread (quartile distance
over median) reached 0.34 on one workload.  The reference slows with the
host and no change to the package can move it, so the ratio keeps what
the package does and drops most of what the host does.  The raw medians
are printed on stderr.

  wall_s         sum over the jobs of their times
  setup_s        the no-work launch's time: interpreter, import, argparse
                 and the twist calibration every manifest write triggers
  tilings_per_s  pinned tilings the jobs account for, divided by wall_s
  steps_per_s    chain window proposals, divided by wall_s; a job that runs
                 no chain counts one step per tiling, so outside `sample`
                 this equals tilings_per_s
  peak_rss_mb    largest max RSS of one job process, from os.wait4
  passed_ratio   job runs that exited 0 with the right output, divided by
                 job runs attempted

--trace 1 runs the same jobs in-process through `dimers.cli.main`, once
plain and once under the tracer, each pass in a fresh process, and
reports the per-layer metrics of layers.py.

Every job's output is checked (checks.py, run by verify.py) outside the
timed region.  A wrong output is printed on stderr with the job's name and
counted failed.  `correct` is false when any job fails, except a job whose
known_defect names the open defect it shows; that one still counts in
`failed` and in passed_ratio.  The last line of stdout is the JSON result.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

JOB_TIMEOUT_S = 120.0

# Host-speed reference: dict and integer work in a fresh interpreter, like
# the package's, but none of its code.
REFERENCE = """\
total = 0
table = {}
for i in range(400_000):
    key = (i * 7919) % 4099
    table[key] = table.get(key, 0) + i
    total += key * key
print(total)
"""
REFERENCE_OUTPUT = "2239439191307"
# the reference's fastest time, rounded, on the host the benchmark was
# written on (shared 2-core x86, Python 3.11)
REFERENCE_NOMINAL_S = 0.2

SETUP_ARGS = ["-m", "dimers.cli", "--manifest", "manifest.json", "count", "--box", "2,2"]
RUN_DEADLINE_S = 170.0  # the whole run must end within 180 s

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("tilings_per_s", "1/s"),
    ("steps_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("passed_ratio", "ratio"),
]


class Bench:
    def __init__(self, workload: str, seed: int, run_dir: Path):
        from workloads import WORKLOADS

        self.jobs = WORKLOADS[workload]
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.started = time.perf_counter()
        # a fixed hash seed keeps set and dict order, and so timings, alike
        # from run to run
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0

    def spawn(self, args: list[str], cwd: Path) -> tuple[float, int, float]:
        """Run the interpreter with args in cwd, stdout and stderr to files
        there; returns (wall seconds, exit code, max RSS in MB)."""
        timeout = min(JOB_TIMEOUT_S, RUN_DEADLINE_S - (time.perf_counter() - self.started))
        if timeout <= 0:
            return 0.0, -1, 0.0
        with open(cwd / "stdout.txt", "wb") as out, open(cwd / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=self.env,
                                    stdout=out, stderr=err)
            signal.signal(signal.SIGALRM, lambda signum, frame: proc.kill())
            signal.setitimer(signal.ITIMER_REAL, timeout)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return seconds, proc.returncode, usage.ru_maxrss / 1024

    def check(self, runs: list[tuple[Path, dict[str, int]]]) -> None:
        """Check the outputs of every (jobs dir, exit codes) run in one
        verify.py process, and count the failures."""
        out = self.run_dir / "problems.json"
        args = [str(HERE / "verify.py"), "--workload", self.workload, "--out", str(out)]
        for jobs_dir, _ in runs:
            args += ["--dir", str(jobs_dir)]
        _, code, _ = self.spawn(args, self.run_dir)
        if code == 0:
            problems = json.loads(out.read_text(encoding="utf-8"))
        else:
            reason = f"verify.py exited {code}: {(self.run_dir / 'stderr.txt').read_text()[-500:]}"
            problems = {str(d): {job.name: reason for job in self.jobs} for d, _ in runs}
        for jobs_dir, exits in runs:
            for job in self.jobs:
                problem = problems[str(jobs_dir)][job.name]
                if exits[job.name] != 0:
                    problem = f"exit code {exits[job.name]}"
                self.record(job, problem, jobs_dir.name)

    def record(self, job, problem: str | None, label: str) -> None:
        self.attempted += 1
        if problem is None:
            if job.known_defect:
                print(f"{label} {job.name}: passes; its known defect is gone", file=sys.stderr)
            return
        self.failed += 1
        if job.known_defect:
            print(f"{label} {job.name}: FAILED (known defect: {job.known_defect}): {problem}",
                  file=sys.stderr)
        else:
            self.unexpected += 1
            print(f"{label} {job.name}: FAILED: {problem}", file=sys.stderr)

    # -- trace 0 ---------------------------------------------------------

    def launch(self, cwd: Path, args: list[str], expected: str) -> float | None:
        """Time one fixed launch in a new directory; None when it fails."""
        cwd.mkdir(parents=True)
        seconds, code, _ = self.spawn(args, cwd)
        if code != 0 or (cwd / "stdout.txt").read_text().strip() != expected:
            print(f"{cwd.name} launch failed: exit {code}: "
                  f"{(cwd / 'stderr.txt').read_text()[-500:]}", file=sys.stderr)
            return None
        return seconds

    def measure(self, seconds_budget: float) -> dict | None:
        from workloads import MANIFEST, prepare

        # untimed: writes the bytecode caches
        if self.launch(self.run_dir / "warm-up", SETUP_ARGS, "2") is None:
            return None
        ratios: dict[str, list[float]] = {}  # name -> seconds over reference seconds
        raw: dict[str, list[float]] = {}
        peak_rss, min_rss = 0.0, float("inf")
        runs = []
        begin = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            round_dir = self.run_dir / f"round-{len(runs)}"
            exits: dict[str, int] = {}
            done: dict[str, Path] = {}
            for job in [None, *self.jobs]:  # None is the no-work launch
                name = "setup" if job is None else job.name
                reference = self.launch(round_dir / f"{name}.reference",
                                        ["-c", REFERENCE], REFERENCE_OUTPUT)
                if job is None:
                    seconds = self.launch(round_dir / name, SETUP_ARGS, "2")
                    code, rss = 0, 0.0
                else:
                    prepare(job, round_dir / name, done)
                    done[name] = round_dir / name
                    args = (["-c", job.code] if job.code is not None else
                            ["-m", "dimers.cli", "--manifest", MANIFEST, *job.arguments(self.seed)])
                    seconds, code, rss = self.spawn(args, round_dir / name)
                    exits[name] = code
                    peak_rss, min_rss = max(peak_rss, rss), min(min_rss, rss)
                if reference is None or seconds is None:
                    return None
                ratios.setdefault(name, []).append(seconds / reference)
                raw.setdefault(name, []).append(seconds)
                raw.setdefault("reference", []).append(reference)
                print(f"{round_dir.name} {name}: {seconds:.3f} s, {rss:.1f} MB, "
                      f"reference {reference:.3f} s", file=sys.stderr)
            runs.append((round_dir, exits))
            now = time.perf_counter()
            last = now - round_start
            if now - begin + last > seconds_budget or now - self.started + 2 * last > RUN_DEADLINE_S:
                break
        self.check(runs)
        # wait4 reports at least the forking process's peak RSS, so a job
        # reading is the job's own only while the driver stays below it
        driver_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"{len(runs)} round(s); driver peak RSS {driver_mb:.1f} MB, "
              f"smallest job reading {min_rss:.1f} MB", file=sys.stderr)
        if driver_mb >= min_rss:
            print("warning: the driver's RSS masks the smallest job's", file=sys.stderr)
        median = statistics.median
        wall = REFERENCE_NOMINAL_S * sum(median(ratios[job.name]) for job in self.jobs)
        print(f"raw wall {sum(median(raw[job.name]) for job in self.jobs):.4f} s, "
              f"raw setup {median(raw['setup']):.4f} s, "
              f"reference {median(raw['reference']):.4f} s", file=sys.stderr)
        values = {
            "wall_s": wall,
            "setup_s": REFERENCE_NOMINAL_S * median(ratios["setup"]),
            "tilings_per_s": sum(job.tilings for job in self.jobs) / wall,
            "steps_per_s": sum(job.steps or job.tilings for job in self.jobs) / wall,
            "peak_rss_mb": peak_rss,
            "passed_ratio": (self.attempted - self.failed) / self.attempted,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    # -- trace 1 ---------------------------------------------------------

    def in_process_pass(self, traced: int) -> dict | None:
        pass_dir = self.run_dir / ("traced" if traced else "untraced")
        pass_dir.mkdir()
        out = self.run_dir / f"{pass_dir.name}.json"
        _, code, _ = self.spawn(
            [str(HERE / "inproc.py"), "--workload", self.workload, "--seed", str(self.seed),
             "--dir", str(pass_dir), "--trace", str(traced), "--out", str(out)],
            self.run_dir)
        if code != 0:
            print(f"{pass_dir.name} pass failed: exit {code}: "
                  f"{(self.run_dir / 'stderr.txt').read_text()[-1000:]}", file=sys.stderr)
            return None
        result = json.loads(out.read_text(encoding="utf-8"))
        for entry in result["jobs"]:
            print(f"{pass_dir.name} {entry['name']}: {entry['seconds']:.3f} s", file=sys.stderr)
        result["dir"] = pass_dir
        return result

    def trace(self) -> dict | None:
        from layers import per_layer_metrics

        untraced = self.in_process_pass(0)
        traced = untraced and self.in_process_pass(1)
        if not traced:
            return None
        self.check([(p["dir"], {e["name"]: e["exit"] for e in p["jobs"]})
                    for p in (untraced, traced)])
        for job in self.jobs:
            plain, timed = (p["dir"] / job.name / "stdout.txt" for p in (untraced, traced))
            if plain.read_bytes() != timed.read_bytes():
                self.unexpected += 1
                print(f"{job.name}: traced output differs from untraced", file=sys.stderr)
        return per_layer_metrics(untraced, traced, {job.name: job.tilings for job in self.jobs})


def main() -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "dimers" / "cli.py").is_file():
        print(f"error: no package source at {SRC / 'dimers'}", file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        bench = Bench(args.workload, args.seed, run_dir)
        metrics = bench.trace() if args.trace else bench.measure(args.seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if not any(scratch.iterdir()):
            scratch.rmdir()
    if metrics is None:
        return 1
    print(json.dumps({
        "correct": bench.unexpected == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
