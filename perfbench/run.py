"""Benchmark of the ``analyze`` command-line tool.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The seed generates the inputs
(``generate.py``) before any timing starts.  Each invocation is
``python -m microweave --config ... --out ...`` in a fresh process, one
after another (a closed loop with one client) until S seconds have passed;
every invocation's outputs are checked (``reference.py``).

``--trace 0`` reports the end-to-end metrics: median wall time of one
invocation (``analyze_s``), source lines per second, the analyzing
process's peak resident memory, and the set-up time of a fresh interpreter
importing ``microweave.cli`` and loading the configuration.  ``--trace 1``
alternates untraced invocations with traced ones (``tracer.py``) and
reports the per-layer metrics plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  An invocation
fails when it exits 3 or above, prints a traceback, times out, fails the
reference check, or writes outputs that differ from the first
invocation's.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import generate
import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

# Set-up probes per run, all before its first invocation.
SETUP_SAMPLES = 24
INVOCATION_TIMEOUT_S = 120
# A run stops starting invocations once the measuring time is up, so the
# slowest workload still gets this many samples.
MIN_INVOCATIONS = 3

SETUP_SCRIPT = (
    "import sys\n"
    "import microweave.cli\n"
    "from microweave.runner import load_config\n"
    "load_config(sys.argv[1])\n"
)


class Invocation:
    """One finished child process: its wall time, peak memory and status."""

    def __init__(self, argv: list[str], log: Path):
        self.wall_s = 0.0
        self.rss_mb = 0.0
        self.status: int | None = None
        self.timed_out = False
        env = {"PATH": os.environ.get("PATH", ""), "PYTHONPATH": str(SRC)}
        with open(log, "wb") as log_file:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                    stdout=log_file, stderr=subprocess.STDOUT)
            timer = threading.Timer(INVOCATION_TIMEOUT_S, self._kill, (proc.pid,))
            timer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            self.wall_s = time.perf_counter() - start
        proc.returncode = self.status = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024  # Linux reports KiB
        self.log = log.read_text(encoding="utf-8", errors="replace")

    def _kill(self, pid: int) -> None:
        # Signal the pid directly: Popen.kill would poll, which could reap
        # the child before the main thread's wait4 reads its usage.
        self.timed_out = True
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:  # it ended as the timer fired
            pass


def digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0")
        with open(path, "rb") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


class Session:
    """Inputs of one workload and seed, and the invocations run on them."""

    def __init__(self, work: Path, manifest: dict):
        self.work = work
        self.manifest = manifest
        self.config = work / "input" / "config.json"
        self.attempted = 0
        self.failures: list[str] = []
        self.first_digest: str | None = None

    def analyze(self, traced: bool) -> tuple[Invocation, Path | None]:
        """Run one invocation, check it, and return it with its span file."""
        n = self.attempted
        self.attempted += 1
        out = self.work / f"out-{n}"
        spans = self.work / f"spans-{n}.json" if traced else None
        args = ["--config", str(self.config), "--out", str(out)]
        if traced:
            argv = [sys.executable, str(HERE / "tracer.py"), str(spans), "--", *args]
        else:
            argv = [sys.executable, "-m", "microweave", *args]
        inv = Invocation(argv, self.work / f"log-{n}.txt")
        problem = self._problem(inv, out)
        if problem:
            self.failures.append(f"invocation {n}: {problem}")
        shutil.rmtree(out, ignore_errors=True)
        return inv, spans

    def _problem(self, inv: Invocation, out: Path) -> str | None:
        if inv.timed_out:
            return f"timed out after {INVOCATION_TIMEOUT_S} s"
        if inv.status is None or not 0 <= inv.status <= 2:
            return f"exit status {inv.status}: {inv.log[-2000:]}"
        if "Traceback (most recent call last)" in inv.log:
            return f"printed a traceback: {inv.log[-2000:]}"
        try:
            found = digest(out)
            if self.first_digest is not None:  # byte-identical outputs pass as the first did
                return None if found == self.first_digest else "outputs differ from the first's"
            problems = reference.check_dir(self.manifest, out)
        except (OSError, ValueError, KeyError) as exc:  # JSONDecodeError is a ValueError
            problems = [f"outputs unreadable: {exc!r}"]
        if problems:
            return f"reference check: {len(problems)} problem(s), first {problems[:5]}"
        self.first_digest = found
        return None


class SetupProbe:
    """Fresh interpreters that import ``microweave.cli`` and return from
    ``runner.load_config``: the fixed cost every invocation pays first."""

    def __init__(self, work: Path, config: Path):
        self.work = work
        self.argv = [sys.executable, "-c", SETUP_SCRIPT, str(config)]
        self.samples: list[float] = []
        self.sample()  # fill the bytecode cache; not kept
        self.samples.clear()

    def sample(self) -> None:
        inv = Invocation(self.argv, self.work / f"setup-{len(self.samples)}.txt")
        if inv.status != 0:
            raise RuntimeError(f"set-up probe failed ({inv.status}): {inv.log[-2000:]}")
        self.samples.append(inv.wall_s)


def end_to_end(session: Session, seconds: float) -> dict[str, tuple[float, str]]:
    start = time.perf_counter()
    # The probes run in one block before the first invocation, so none of
    # them starts in the wake of a large analyzing process.
    setup = SetupProbe(session.work, session.config)
    while len(setup.samples) < SETUP_SAMPLES:
        setup.sample()
    runs: list[Invocation] = []
    while time.perf_counter() - start < seconds or len(runs) < MIN_INVOCATIONS:
        runs.append(session.analyze(traced=False)[0])
    walls = [r.wall_s for r in runs]
    analyze_s = statistics.median(walls)
    print(f"analyze_s samples: n={len(walls)}; setup_s samples: n={len(setup.samples)}")
    return {
        "analyze_s": (analyze_s, "s"),
        "sloc_per_s": (session.manifest["sloc"] / analyze_s, "lines/s"),
        "peak_rss_mb": (statistics.median(r.rss_mb for r in runs), "MiB"),
        "setup_s": (statistics.median(setup.samples), "s"),
    }


def per_layer(session: Session, seconds: float, units: dict[str, str]) -> dict:
    plain: list[float] = []
    traced: list[float] = []
    layers: dict[str, list[float]] = {}
    missing: set[str] = set()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not traced:
        plain.append(session.analyze(traced=False)[0].wall_s)
        inv, spans = session.analyze(traced=True)
        traced.append(inv.wall_s)
        if not spans.is_file():  # the tracer failed, and the check above counted it
            continue
        document = json.loads(spans.read_text(encoding="utf-8"))
        missing.update(document["missing"])
        for name, value in document["metrics"].items():
            layers.setdefault(name, []).append(value)
        spans.unlink()
    if missing:
        print("missing hook points: " + "; ".join(sorted(missing)))
    # Every metric is reported: a layer the workload never reaches (or a
    # missing hook point) spent no time and counted nothing, so it reads 0.
    absent = sorted(set(units) - set(layers) - {"trace.overhead_ratio"})
    if absent:
        print("not measured on this workload, reported as 0: " + ", ".join(absent))
    print(f"traced samples: n={len(traced)}; untraced samples: n={len(plain)}")
    metrics = {name: (statistics.median(layers.get(name, [0.0])), unit)
               for name, unit in units.items()}
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(plain), units["trace.overhead_ratio"])
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the analyze tool.")
    parser.add_argument("--workload", required=True, choices=sorted(generate.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "microweave" / "cli.py").is_file():
        print(f"error: no analyzer source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end" if not args.trace else "per_layer"]}

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        manifest = generate.generate(generate.WORKLOADS[args.workload], args.seed,
                                     work / "input")
        session = Session(work, manifest)
        if args.trace:
            measured = per_layer(session, args.seconds, units)
        else:
            measured = end_to_end(session, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for failure in session.failures:
        print(f"FAILED {failure}")
    print(f"workload {args.workload} seed {args.seed}: {manifest['sloc']} source lines, "
          f"{len(manifest['services'])} services, {len(manifest['calls'])} calls")
    for name, (value, unit) in measured.items():
        print(f"{name:40s} {value:14.6f} {unit}")
    failed = len(session.failures)
    print(f"{'error_rate':40s} {failed / session.attempted:14.6f} "
          f"({failed} of {session.attempted} invocations)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": session.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in measured.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
