#!/usr/bin/env python3
"""Smoke test of the benchmark itself, on a tiny seed-driven load.

Run from the root of a checkout:

    python3 perfbench/smoke.py

For every workload it runs ``run.py --tiny`` once untraced and twice traced
with the same seed, and checks that

* the last output line is the result object, with every metric that
  BENCHMARK.json lists and its unit;
* all six end-to-end metrics are printed by name, and ``failed_share`` is 0;
* the two traced runs give identical per-layer counts and result digest.

It also checks that the benchmark refuses to run, with a non-zero exit code
and no result line, in a directory holding only BENCHMARK.json and the
benchmark's own files.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E_PRINTED = ("throughput_ops_per_s", "latency_p50_s", "latency_tail_s", "failed_share", "setup_s", "peak_rss_mb")
SEED = 3


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check(condition: bool, message: str):
    if not condition:
        print(f"FAIL: {message}")
        raise SystemExit(1)


def result_of(proc: subprocess.CompletedProcess, section: str) -> tuple[dict, str]:
    check(proc.returncode == 0, f"exit code {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"result keys {sorted(result)}")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, f"result {result}")
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    check(got == expected, f"{section} metrics {got} != {expected}")
    record = next(line for line in lines if line.startswith("perfbench record "))
    return result, json.loads(record.removeprefix("perfbench record "))["result_digest"]


def counts(result: dict) -> dict:
    return {
        name: m["value"]
        for name, m in result["metrics"].items()
        if m["unit"] not in ("s/op", "fraction") or name == "fock.repeat_setting_share"
    }


def main() -> int:
    for workload in (w["name"] for w in SPEC["workloads"]):
        proc = run(workload, 0)
        result_of(proc, "end_to_end")
        for name in E2E_PRINTED:
            check(any(line.startswith(f"{workload} {name} ") for line in proc.stdout.splitlines()),
                  f"{workload}: {name} not printed")
        check(f"{workload} failed_share 0 " in proc.stdout, f"{workload}: failed_share is not 0")
        first, digest_1 = result_of(run(workload, 1), "per_layer")
        second, digest_2 = result_of(run(workload, 1), "per_layer")
        check(counts(first) == counts(second), f"{workload}: per-layer counts differ between same-seed runs")
        check(digest_1 == digest_2, f"{workload}: result digest differs between same-seed runs")
        print(f"ok {workload}: {len(first['metrics'])} per-layer metrics, digest {digest_1}")

    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(SPEC["workloads"][0]["name"], 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        if not any(bare.parent.iterdir()):
            bare.parent.rmdir()
    check(proc.returncode != 0 and '"metrics"' not in proc.stdout, "benchmark ran without the package sources")
    print("ok: refuses to run without the package sources")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
