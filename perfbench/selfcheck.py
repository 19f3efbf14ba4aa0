#!/usr/bin/env python3
"""Fast self-check of the benchmark harness.

    python3 perfbench/selfcheck.py

Runs every workload briefly (seed 0, 1 second: one pass each) and asserts:
every metric BENCHMARK.json names is printed with its unit, every report
validated and repeated byte for byte (`correct`, `failed == 0`), and two
traced runs give the same per-layer counts and quality figures, so the
per-kind `fit_calls`/`predict_calls` repeat exactly. It also checks that the
benchmark refuses to run, without printing a result, from a directory that
holds only BENCHMARK.json and the benchmark's own files. Takes about two
minutes on two cores, most of it the lifecycle sweep.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT_UNITS = ("count", "bytes")
# ratios of counts, also exact on one seed
EXACT_RATIOS = ("models.useful_fit_ratio", "cycle_fail_share", "forecast_hit_share",
                "truth_mape_pct")


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "0", "--seconds", "1",
           "--trace", str(trace)]
    cmd[0] = sys.executable if cmd[0].startswith("python") else cmd[0]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def result_of(proc: subprocess.CompletedProcess, what: str) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"{what}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{what}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        raise AssertionError(f"{what}: outputs failed their checks\n{proc.stderr[-2000:]}")
    return result


def check_names(result: dict, declared: list[dict], what: str) -> None:
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    wanted = {m["name"]: m["unit"] for m in declared}
    if printed != wanted:
        missing = sorted(set(wanted) - set(printed))
        extra = sorted(set(printed) - set(wanted))
        wrong = sorted(n for n in set(wanted) & set(printed) if wanted[n] != printed[n])
        raise AssertionError(f"{what}: missing {missing}, unexpected {extra}, wrong unit {wrong}")


def check_workload(workload: str) -> str:
    check_names(result_of(run(workload, 0), f"{workload} trace 0"), SPEC["end_to_end"],
                f"{workload} trace 0")
    a = result_of(run(workload, 1), f"{workload} trace 1")
    b = result_of(run(workload, 1), f"{workload} trace 1 again")
    check_names(a, SPEC["per_layer"], f"{workload} trace 1")
    differ = sorted(
        name for name, m in a["metrics"].items()
        if (m["unit"] in EXACT_UNITS or name in EXACT_RATIOS)
        and m["value"] != b["metrics"][name]["value"]
    )
    if differ:
        raise AssertionError(f"{workload}: counts differ between two traced runs: {differ}")
    return workload


def check_bare_directory() -> None:
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = run(SPEC["workloads"][0]["name"], 0, cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            raise AssertionError("the benchmark ran without the program's sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_bare_directory()
    print("ok: refuses to run without src/")
    with ThreadPoolExecutor(max_workers=2) as pool:
        for name in pool.map(check_workload, [w["name"] for w in SPEC["workloads"]]):
            print(f"ok: {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
