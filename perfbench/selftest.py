"""Self-test of the benchmark, at smoke size (under a minute on 2 cores).

    python3 perfbench/selftest.py

Run from the root of a checkout.  Checks that every workload runs
correctly with and without tracing and prints exactly the metrics
BENCHMARK.json declares, that traced self times add up, and that the
benchmark refuses to run where the package source is missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from spans import Tracer  # noqa: E402


def check_self_times() -> None:
    t = Tracer()
    t.spans = [["cli", 0.0, 10.0, -1], ["solver_fp.solve", 1.0, 9.0, 0],
               ["phase_space.search", 2.0, 5.0, 1], ["fem.gradient", 6.0, 7.0, 1],
               ["tensors.am_defect", 7.5, 8.0, 1]]
    got = t.self_times(0)
    want = {"cli.self_s": 2.0, "solver_fp.self_s": 3.5, "phase_space.search_s": 3.0,
            "fem.gradient_s": 1.0, "tensors.am_defect_s": 0.5}
    assert got == want, got
    assert sum(got.values()) == 10.0


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    check_self_times()
    for w in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(root, w["name"], trace)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, proc.stderr
            assert set(result["metrics"]) == {m["name"] for m in spec[group]}
            print(f"ok {w['name']} trace={trace}: {result['attempted']} invocations")
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(root / "BENCHMARK.json", tmp)
        shutil.copytree(root / "perfbench", Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(Path(tmp), spec["workloads"][0]["name"], 0)
        assert proc.returncode != 0 and "{" not in proc.stdout, proc.stdout
        print("ok refuses to run without the package source")
    return 0


if __name__ == "__main__":
    sys.exit(main())
