"""Smoke run of the benchmark at tiny sizes.

    python3 perfbench/smoke.py

Run from the root of a checkout. Runs every workload with --size tiny, once
untraced and once traced, and checks the output contract: the last line is
a JSON object with exactly the keys correct, attempted, failed and metrics;
every metric named in BENCHMARK.json is present with its unit; outputs are
correct; and only the known thermo-limit N=1020 defect fails. It also
checks that the benchmark refuses to run where there are no sources.
Deliberately not named test_*.py, so the package's pytest run skips it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
KNOWN_FAILURES = {"small_systems": "thermo-limit:fraction-1020"}


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def check_result(workload: str, trace: int, spec: dict) -> None:
    proc = run(["--workload", workload, "--seed", "5", "--seconds", "1",
                "--trace", str(trace), "--size", "tiny"])
    where = f"{workload} --trace {trace}"
    assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True, f"{where}: outputs failed their checks\n{proc.stdout}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, where
    assert isinstance(result["failed"], int), where
    failed_ops = [line for line in proc.stdout.splitlines() if line.startswith("  failed ")]
    expected = KNOWN_FAILURES.get(workload)
    assert all(expected and expected in line for line in failed_ops), f"{where}: {failed_ops}"
    assert result["failed"] == len(failed_ops), where
    if expected:
        assert result["failed"] >= 1, f"{where}: the N=1020 defect no longer shows"
    wanted = {m["name"]: m["unit"] for m in spec["end_to_end" if trace == 0 else "per_layer"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == wanted, f"{where}: metrics differ: {set(got) ^ set(wanted)}"
    for name, m in result["metrics"].items():
        assert set(m) == {"value", "unit"} and isinstance(m["value"], (int, float)), f"{where}: {name}"
    if trace == 0:
        assert all(result["metrics"][n]["value"] > 0 for n in wanted), f"{where}: a zero metric"
    assert "fail_ratio = " in proc.stdout, f"{where}: fail_ratio not printed with its base"
    print(f"ok  {where}: attempted {result['attempted']}, failed {result['failed']}")


def check_refuses_without_sources(spec_path: Path) -> None:
    with tempfile.TemporaryDirectory(dir=ROOT) as bare:
        shutil.copy(spec_path, bare)
        shutil.copytree(HERE, Path(bare) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", "witness_generic", "--seed", "1", "--seconds", "1",
                    "--trace", "0"], cwd=bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), "ran without sources"
    print("ok  refuses to run without sources")


def main() -> int:
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_result(workload, trace, spec)
    check_refuses_without_sources(spec_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
