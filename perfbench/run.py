"""hk4verify benchmark: seeded CLI workloads with an independent verdict oracle.

Usage (from the repository root):

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload writes a candidate file generated from --seed and runs the
hk4verify CLI on it in a subprocess, one call at a time (closed loop), until
--seconds have passed (at least two calls, so the report hash can be
compared).  Every report is hashed, checked by ``oracle.py`` and deleted.
Resources are read per child with os.wait4, never from RUSAGE_CHILDREN,
which is a running maximum over all children.  After each call the fixed
job ``calibrate.py`` is timed too, and the time metrics are scaled by
CALIBRATION_NOMINAL_S over its median, which cancels the host's drift in
speed from run to run; the unscaled medians are printed on a ``#`` line.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
an in-process replay (``replay.py``).  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  The program is run
from ``src/`` of the same checkout; without it the benchmark exits with 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import oracle
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "_out"
CALIBRATION = Path(__file__).resolve().parent / "calibrate.py"

# median time of calibrate.py on the 2-vCPU VM the benchmark was written on;
# timings are reported as if every run had that machine speed
CALIBRATION_NOMINAL_S = 0.40
# one calibration job per this many seconds of CLI call, so the calibration
# median rests on about as many samples as the call median
CALIBRATE_EVERY_S = 3.0

SETUP_REPEATS = 21
MIN_CALLS = 2


class Child:
    """Outcome of one subprocess: wall time, its own rusage, exit code."""

    def __init__(self, argv: list[str], workdir: Path) -> None:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        with open(workdir / "stdout", "wb") as out, open(workdir / "stderr", "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            self.wall_s = time.perf_counter() - started
        # the child is reaped; tell Popen so it does not wait for it again
        proc.returncode = self.returncode = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss * 1024 / 1e6  # ru_maxrss is KiB on Linux
        self.stdout = (workdir / "stdout").read_text(errors="replace")
        self.stderr = (workdir / "stderr").read_text(errors="replace")


def hk4verify(*args: str) -> list[str]:
    return [sys.executable, "-m", "hk4verify", *args]


def measure_setup(workdir: Path) -> float:
    """Median wall time of `hk4verify --version` after one warm-up call
    (which fills the bytecode cache, as an installed package would have)."""
    Child(hk4verify("--version"), workdir)
    times = []
    for _ in range(SETUP_REPEATS):
        child = Child(hk4verify("--version"), workdir)
        if child.returncode != 0 or not child.stdout.strip():
            raise SystemExit(f"hk4verify --version failed: {child.stderr.strip()}")
        times.append(child.wall_s)
    return statistics.median(times)


def measure_import(workdir: Path) -> float:
    """Median in-process time of `import hk4verify.cli` in fresh interpreters."""
    code = (
        "import time; t = time.perf_counter(); import hk4verify.cli; "
        "print(time.perf_counter() - t)"
    )
    times = []
    for _ in range(SETUP_REPEATS):
        child = Child([sys.executable, "-c", code], workdir)
        if child.returncode != 0:
            raise SystemExit(f"import hk4verify.cli failed: {child.stderr.strip()}")
        times.append(float(child.stdout))
    return statistics.median(times)


class CallLoop:
    """Closed loop of CLI calls on one candidate file, each report checked."""

    def __init__(self, workload, candidates: Path, workdir: Path) -> None:
        self.workload = workload
        self.candidates = candidates
        self.workdir = workdir
        self.input_digest = oracle.sha256_file(candidates)
        self.calls: list[Child] = []
        self.report_bytes: list[int] = []
        self.reference_hash: str | None = None
        self.verdicts: dict[str, list[str]] = {}
        self.failed = 0
        self.calibration: list[float] = []

    def call(self) -> Child:
        report = self.workdir / "report.out"
        child = Child(
            hk4verify(*self.workload.cli_args(str(self.candidates), str(report))),
            self.workdir,
        )
        self.calls.append(child)
        problems = self._check(child, report)
        report.unlink(missing_ok=True)
        if problems:
            self.failed += 1
            for problem in problems[:5]:
                print(f"[{self.workload.name}] FAIL: {problem}", file=sys.stderr)
        return child

    def calibrate(self, after: Child) -> None:
        """Run calibrate.py about once per CALIBRATE_EVERY_S of ``after``."""
        for _ in range(max(1, round(after.wall_s / CALIBRATE_EVERY_S))):
            child = Child([sys.executable, str(CALIBRATION)], self.workdir)
            if child.returncode != 0:
                raise SystemExit(f"calibrate.py failed: {child.stderr.strip()}")
            self.calibration.append(child.wall_s)

    def _check(self, child: Child, report: Path) -> list[str]:
        if child.returncode != 0:
            return [f"exit code {child.returncode}: {child.stderr.strip()[-500:]}"]
        self.report_bytes.append(report.stat().st_size)
        digest = oracle.sha256_file(report)
        if digest not in self.verdicts:
            self.verdicts[digest] = oracle.check_report(
                self.workload.fmt,
                report.read_text(encoding="utf-8"),
                self.workload.pairs,
                self.input_digest,
            )
        problems = list(self.verdicts[digest])
        if self.reference_hash is None:
            self.reference_hash = digest
        elif digest != self.reference_hash:
            problems.append(f"report {digest} differs from first call {self.reference_hash}")
        return problems


def repeat_until(deadline: float, step, min_steps: int = MIN_CALLS) -> None:
    """Repeat ``step`` until the next one would end past ``deadline``."""
    durations: list[float] = []
    while True:
        started = time.perf_counter()
        step()
        durations.append(time.perf_counter() - started)
        if len(durations) >= min_steps and (
            time.perf_counter() + statistics.median(durations) > deadline
        ):
            return


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py"))


def end_to_end(loop: CallLoop, setup_s: float) -> dict[str, tuple[float, str]]:
    """Medians over the calls of the run; times scaled to the nominal speed."""
    calibration_s = statistics.median(loop.calibration)
    scale = CALIBRATION_NOMINAL_S / calibration_s
    raw_wall = statistics.median(c.wall_s for c in loop.calls)
    print(f"# {loop.workload.name}: unscaled wall_s={raw_wall:.6f} "
          f"setup_s={setup_s:.6f} calibration_s={calibration_s:.6f} "
          f"over {len(loop.calibration)} calibration jobs, scale={scale:.4f}")
    wall = raw_wall * scale
    return {
        "wall_s": (wall, "s"),
        "cpu_s": (statistics.median(c.cpu_s for c in loop.calls) * scale, "s"),
        "peak_rss_mb": (statistics.median(c.peak_rss_mb for c in loop.calls), "MB"),
        "candidates_per_s": (len(loop.workload.pairs) / wall, "1/s"),
        "report_mb": (statistics.median(loop.report_bytes or [0]) / 1e6, "MB"),
        "setup_s": (setup_s * scale, "s"),
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    workload = WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        candidates = workdir / "candidates.csv"
        candidates.write_text(workload.candidate_text(seed), encoding="utf-8")
        # set-up is timed before the measuring window opens, so it does not
        # shorten the closed loop that gives the other end-to-end metrics
        setup_s = None if trace else measure_setup(workdir)
        started = time.perf_counter()
        deadline = started + seconds
        loop = CallLoop(workload, candidates, workdir)
        if trace:
            import replay  # imports hk4verify, so only the traced run loads it

            tracer = replay.Tracer(name)

            def step() -> None:
                child = loop.call()
                replay.replay_once(
                    tracer, workload, candidates, child.wall_s, loop.reference_hash
                )

            repeat_until(deadline, step, min_steps=1)
            tracer.samples["cli.import_s"].append(measure_import(workdir))
            tracer.write(OUT / f"trace-{name}-seed{seed}.jsonl")
            metrics = tracer.metrics()
            attempted = len(loop.calls) + tracer.iterations
            failed = loop.failed + tracer.failed
        else:
            repeat_until(deadline, lambda: loop.calibrate(loop.call()))
            metrics = end_to_end(loop, setup_s)
            attempted, failed = len(loop.calls), loop.failed
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    error_rate = failed / attempted
    print(
        f"# {name}: seed={seed} calls={len(loop.calls)} attempted={attempted} "
        f"failed={failed} error_rate={error_rate:.4f} ratio "
        f"elapsed={time.perf_counter() - started:.1f}s"
    )
    print(
        f"# run metadata: src_lines={src_lines()} python={platform.python_version()} "
        f"nproc={os.cpu_count()}"
    )
    for metric, (value, unit) in metrics.items():
        print(f"{name:20s} {metric:42s} {value:14.6f} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so a running child is killed and the
    # scratch directory removed on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "hk4verify" / "__init__.py").is_file():
        print(f"error: no hk4verify sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{n}/{m}": v for n, r in results.items() for m, v in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
