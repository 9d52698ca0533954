"""spindeph benchmark: time to a checked solution, memory and failure share.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src. Each
repetition of the workload runs in a fresh interpreter (perfbench/worker.py)
and calls `spindeph.cli.main` once per command, closed loop. Repetitions
continue until --seconds have been spent (at least MIN_REPS), and medians
are reported. BLAS runs single-threaded in every worker.

Every time the benchmark reports is stated at a reference host speed. On a
host whose cores are shared with other tenants (a 2-vCPU cloud VM, say),
their load slowed the witness workload by up to 60 % for minutes at a
time. Each worker therefore also times a fixed pure-Python loop
(worker.probe) next to what it measures, and each time is scaled by
REFERENCE_PROBE_S / (the loop's time in that worker): a program that gets
10 % slower still reads 10 % slower, while a host that gets slower does
not. The wall-clock samples and the loop's times are printed on text lines
before the result.

--trace 0 prints the end-to-end metrics: setup_s, solve_s, peak_rss_mb and
pass_ratio. --trace 1 alternates untraced and traced repetitions and prints
the per-layer metrics of the traced ones (see tracer.py), the tracing
overhead, the --threads 2 speed-up of the Schmidt negativity case and the
largest deviation the checks measured. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_REPS = 3  # untraced repetitions of the workload per run
MIN_SETUPS = 15  # set-up samples per run; set-up-only workers fill the gap
DEADLINE_S = 165.0  # no repetition starts after this much wall time
BLAS_THREADS = "1"
REFERENCE_PROBE_S = 0.07  # the probe loop on an idle core: 2-vCPU x86_64 VM, Python 3.11

END_TO_END = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MiB", "pass_ratio": "1"}


class Runner:
    def __init__(self, root: Path, args):
        self.root = root
        self.args = args
        self.work = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
        self.out = root / ".perfbench_out"
        self.started = time.perf_counter()
        self.count = 0
        self.env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = BLAS_THREADS
        self.env.pop("PYTHONPATH", None)

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def spawn(self, mode: str, spans: Path | None = None) -> dict:
        """Run one worker to completion and return its result."""
        self.count += 1
        work = self.work / str(self.count)
        result = work / "result.json"
        work.mkdir(parents=True)
        cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(self.root),
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--size", self.args.size, "--mode", mode, "--work", str(work),
               "--result", str(result)]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        try:
            t_spawn = time.perf_counter()
            proc = subprocess.run(cmd + ["--t-spawn", repr(t_spawn)], env=self.env, cwd=self.root,
                                  capture_output=True, text=True,
                                  timeout=max(5.0, 175.0 - self.elapsed()))
            if proc.returncode != 0:
                raise RuntimeError(f"worker ({mode}) failed:\n{proc.stderr[-4000:]}")
            with open(result) as fh:
                return json.load(fh)
        finally:
            shutil.rmtree(work, ignore_errors=True)

    def another(self, t0: float, done: int, minimum: int, last: float) -> bool:
        """Whether to start another repetition, `last` seconds long like the
        previous one: until `minimum` are done, then while it still ends
        within --seconds of t0. None starts that could overrun the deadline."""
        if self.elapsed() + 1.5 * last > DEADLINE_S:
            return False
        return done < minimum or self.elapsed() + last <= t0 + self.args.seconds


def duration(*reps) -> float:
    return sum(r["setup_s"] + r["solve_s"] + sum(r["probe_s"]) for r in reps)


def speed(probes) -> float:
    """How much slower than the reference the host ran: probe time / reference."""
    return statistics.fmean(probes) / REFERENCE_PROBE_S


def solve_at_reference(rep: dict) -> float:
    return rep["solve_s"] / speed(rep["probe_s"])


def setup_at_reference(rep: dict) -> float:
    return rep["setup_s"] / speed(rep["probe_s"][:1])


def summarize_ops(results: list):
    ops = [op for r in results for op in r.get("ops", [])]
    failed = [op for op in ops if op["status"] != "ok"]
    correct = not any(op["status"] == "wrong" for op in ops)
    return len(ops), failed, correct


def run_untraced(runner: Runner) -> tuple:
    runner.spawn("setup")  # fills bytecode caches; not measured
    reps = []
    t0 = runner.elapsed()
    while runner.another(t0, len(reps), MIN_REPS, duration(*reps[-1:])):
        reps.append(runner.spawn("run"))
    setups = list(reps)
    while len(setups) < MIN_SETUPS:
        setups.append(runner.spawn("setup"))
    attempted, failed, correct = summarize_ops(reps)
    metrics = {
        "setup_s": statistics.median(setup_at_reference(r) for r in setups),
        "solve_s": statistics.median(solve_at_reference(r) for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "pass_ratio": 1.0 - len(failed) / attempted,
    }
    print(f"repetitions: {len(reps)}; set-up samples: {len(setups)}")
    samples = {
        "solve_s at reference speed": [solve_at_reference(r) for r in reps],
        "solve_s wall": [r["solve_s"] for r in reps],
        "setup_s at reference speed": [setup_at_reference(r) for r in setups],
        "setup_s wall": [r["setup_s"] for r in setups],
        "probe_s": [p for r in setups for p in r["probe_s"]],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
    }
    for name, values in samples.items():
        print(f"  {name}: median {statistics.median(values):.4f} of " + ", ".join(f"{v:.4f}" for v in values))
    print(f"  probe reference: {REFERENCE_PROBE_S} s")
    return reps, metrics, {name: END_TO_END[name] for name in metrics}, attempted, failed, correct


def run_traced(runner: Runner) -> tuple:
    runner.spawn("setup")
    plain, traced = [], []
    spans = runner.out / f"spans-{runner.args.workload}-seed{runner.args.seed}.json"
    runner.out.mkdir(exist_ok=True)
    t0 = runner.elapsed()
    while runner.another(t0, len(traced), 1, duration(*plain[-1:], *traced[-1:])):
        plain.append(runner.spawn("run"))
        traced.append(runner.spawn("traced", spans))
    threads = runner.spawn("threads")
    metrics = {}
    for name, unit in PER_LAYER[:-3]:
        values = [r["layers"][name] for r in traced]
        if unit == "s":
            values = [v / speed(r["probe_s"]) for v, r in zip(values, traced)]
            metrics[name] = statistics.median(values)
        elif len(set(values)) == 1:
            metrics[name] = values[0]
        else:
            raise RuntimeError(f"count {name} differs between traced repetitions: {values}")
    t1 = statistics.median(threads["threads_s"]["1"])
    t2 = statistics.median(threads["threads_s"]["2"])
    solve_plain = statistics.median(solve_at_reference(r) for r in plain)
    solve_traced = statistics.median(solve_at_reference(r) for r in traced)
    all_ops = [op for r in plain + traced + [threads] for op in r["ops"]]
    metrics["cli.threads2_speedup"] = t1 / t2
    metrics["trace.overhead_ratio"] = solve_traced / solve_plain
    metrics["check.max_rel_dev"] = max((op.get("dev", 0.0) for op in all_ops), default=0.0)
    print(f"repetitions: {len(plain)} untraced, {len(traced)} traced; spans of the last in {spans}")
    print(f"  cli.threads2_speedup = {t1:.4f} s (--threads 1) / {t2:.4f} s (--threads 2)")
    print(f"  trace.overhead_ratio = {solve_traced:.4f} s traced / {solve_plain:.4f} s untraced "
          f"(at reference speed)")
    attempted, failed, correct = summarize_ops(plain + traced + [threads])
    units = dict(PER_LAYER)
    return plain + traced, metrics, units, attempted, failed, correct


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every workload, for the smoke run")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "spindeph" / "__init__.py").is_file():
        print(f"error: no spindeph sources under {root / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    runner = Runner(root, args)
    try:
        run = run_traced if args.trace else run_untraced
        reps, metrics, units, attempted, failed, correct = run(runner)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            runner.work.parent.rmdir()

    print(f"fail_ratio = {len(failed)}/{attempted} = {len(failed) / attempted:.4f} "
          f"(failed / attempted operations)")
    for op in failed:
        print(f"  failed {op['op']} [{op['status']}]: {op.get('error')}")
    for name, value in metrics.items():
        print(f"  {name} = {value!r} {units[name]}")
    print(json.dumps({"machine": reps[0]["machine"], "blas_threads_requested": int(BLAS_THREADS)}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
