"""One repetition of one workload, in a fresh interpreter.

Started by run.py. Setup is timed from the moment the parent started this
process (`--t-spawn`, a `time.perf_counter` reading, which on Linux is the
system-wide monotonic clock) until the first command can run: imports,
plus writing the seeded configs. The solve is timed from the first
`spindeph.cli.main` call until the last one returns, closed loop: each
command starts after the previous one ended. Peak RSS is read right after
the solve, before the checks run. The result is written as JSON to
`--result`.

Right after set-up, and again right after the solve, the worker times a
fixed pure-Python loop that never touches spindeph (`probe`). The two
readings say how fast the host ran this repetition; run.py uses them to
state set-up and solve times at a reference host speed.

Modes: `setup` stops after set-up; `run` solves untraced; `traced` solves
under the span tracer; `threads` times the Schmidt negativity case with
--threads 1 and --threads 2.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

THREAD_ORDER = (1, 2, 2, 1)  # --threads of the four Schmidt runs; ABBA cancels drift
PROBE_LOOPS = 1_000_000  # iterations of the host-speed probe, about 0.07 s on an idle core


def machine() -> dict:
    """The machine and numeric environment this result was measured on."""
    import platform

    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "longdouble_precision": int(np.finfo(np.longdouble).precision),
    }


def blas_threads():
    """Thread count of the loaded OpenBLAS, asked through its own API."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def probe() -> float:
    """Seconds the host takes for a fixed loop of Python bytecode."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t0


def run_ops(cli, ops, tracer=None):
    """Run the commands closed loop; return (solve seconds, return codes)."""
    codes = []
    sink = io.StringIO()
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        for op in ops:
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    codes.append(cli.main(op.argv))
            except Exception as exc:  # a command that raises is a failed operation
                codes.append(exc)
        solve = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    return solve, codes


def check_ops(ops, codes) -> list:
    """Status of each operation: ok; raised; exit (nonzero exit code); or
    wrong (a command that exited 0 wrote an output that failed its check)."""
    from reference import CheckError

    out = []
    for op, rc in zip(ops, codes):
        entry = {"op": op.name, "argv": op.argv}
        if isinstance(rc, Exception):
            entry.update(status="raised", error=f"{type(rc).__name__}: {rc}")
        else:
            try:
                entry.update(status="ok", dev=op.check(rc))
            except CheckError as exc:
                entry.update(status="wrong" if rc == 0 else "exit", error=str(exc))
        out.append(entry)
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--mode", choices=("setup", "run", "traced", "threads"), required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans")
    ap.add_argument("--t-spawn", type=float, required=True)
    args = ap.parse_args()

    root = Path(args.root)
    sys.path.insert(0, str(root / "src"))
    import spindeph
    from spindeph import cli

    if Path(spindeph.__file__).resolve().parent != (root / "src" / "spindeph").resolve():
        raise SystemExit(f"imported spindeph from {spindeph.__file__}, not from {root / 'src'}")
    import workloads

    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    if args.mode == "threads":
        ops = threads_ops(root, work, args.seed, args.size)
    else:
        ops = workloads.build(args.workload, root, work, args.seed, args.size)
    setup = time.perf_counter() - args.t_spawn
    result = {"setup_s": setup, "probe_s": [probe()]}

    if args.mode == "threads":
        times = {1: [], 2: []}
        codes = []
        for op, threads in zip(ops, THREAD_ORDER):
            solve, rc = run_ops(cli, [op])
            times[threads].append(solve)
            codes += rc
        result.update(threads_s={str(k): v for k, v in times.items()}, ops=check_ops(ops, codes))
    elif args.mode in ("run", "traced"):
        tracer = None
        if args.mode == "traced":
            from tracer import Tracer

            tracer = Tracer()
        solve, codes = run_ops(cli, ops, tracer)
        result["solve_s"] = solve
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["probe_s"].append(probe())
        result["ops"] = check_ops(ops, codes)
        if tracer is not None:
            result["layers"] = tracer.metrics()
            if args.spans:
                tracer.dump(args.spans)
        result["machine"] = machine()

    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


def threads_ops(root, work, seed, size):
    """The Schmidt negativity case four times, with --threads from THREAD_ORDER."""
    import workloads

    w = workloads.Workload(root, work, seed, size)
    cfg = w.preset("negativity_superposition_ring10.json")
    grid = w.window(w.size["threads_points"], 0.1, 1.1)
    outs = [w.path(f"threads{k}.csv") for k in range(4)]

    def same_as_first(rc, out):
        from reference import CheckError

        workloads.exit_ok(rc)
        if Path(out).read_bytes() != Path(outs[0]).read_bytes():
            raise CheckError("--threads 2 output differs from --threads 1")
        return 0.0

    for k, threads in enumerate(THREAD_ORDER):
        w.add(f"negativity-threads{threads}",
              ["negativity", "--config", cfg, "--cut", "global", "--grid", grid,
               "--threads", threads, "--out", outs[k]],
              lambda rc, out=outs[k]: same_as_first(rc, out))
    return w.ops


if __name__ == "__main__":
    sys.exit(main())
