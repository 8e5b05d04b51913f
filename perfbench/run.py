"""The ddfem benchmark: one seeded command, one workload per call.

    python3 perfbench/run.py --workload fp-patch --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout.  It generates the workload's input
files from the seed under `.perfbench/<workload>/`, then starts a fresh
worker process that calls the `ddfem` command line in-process on them
for `--seconds` seconds and checks every output.  `--trace 0` prints the
end-to-end metrics, `--trace 1` the per-layer ones (see README.md).  The
last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--smoke` shrinks every problem to a seconds-long version for the
benchmark's own self-test (selftest.py).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
# One BLAS/OpenMP thread, set before numpy loads, here and in the worker.
# On a shared 2-core host a 2-thread OpenBLAS matmul of search size ran
# bimodal (1x or 2x its best time, whichever core was free) and slower in
# the median than one thread, whose spread was a third as wide.
BLAS_THREADS = 1
THREAD_ENV = {k: str(BLAS_THREADS) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                             "MKL_NUM_THREADS")}
os.environ.update(THREAD_ENV)

# name -> (instances per run, factor from the workload's penalty unit to J)
WORKLOADS = {
    "fp-patch": (12, 1.0),      # SI: Pa * m^3
    "cs-box": (8, 1.0e-3),      # mm-N-MPa: N * mm
    "ml-rod": (10, 1.0),        # SI
}
WORKER_TIMEOUT_S = 150


def git_sha(root: Path) -> str:
    """Commit of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny problems and two instances, for the self-test")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    spec_path = root / "BENCHMARK.json"
    if not (src / "ddfem" / "__init__.py").is_file() or not spec_path.is_file():
        print("error: run from the root of a ddfem checkout "
              "(src/ddfem and BENCHMARK.json not found)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    per_layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}

    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    import numpy
    import scipy
    import gen

    n_instances, penalty_to_joule = WORKLOADS[args.workload]
    size = "smoke" if args.smoke else "full"
    if args.smoke:
        n_instances = 2
    workdir = root / ".perfbench" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    make = gen.MAKERS[args.workload]
    instances = []
    for j in range(n_instances):
        w = make(workdir / f"instance{j:02d}", args.seed, j, size)
        instances.append({"directory": str(w.directory), "argv": w.argv,
                          "formulation": w.formulation, "reference": w.reference})
    manifest = workdir / "manifest.json"
    manifest.write_text(json.dumps({
        "src": str(src), "workdir": str(workdir), "instances": instances,
        "seconds": args.seconds, "trace": args.trace,
        "penalty_to_joule": penalty_to_joule,
        "per_layer_units": per_layer_units}))

    env = dict(os.environ, **THREAD_ENV)
    try:
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "worker.py"), str(manifest)],
                              cwd=workdir, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 3
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: worker exited with code {proc.returncode}", file=sys.stderr)
        return 3
    result = json.loads(lines[-1])

    print(f"workload {args.workload} seed {args.seed} size {size}: "
          f"{result['instances']} instances, {result['attempted']} invocations "
          f"({result['samples']} untraced samples), closed loop, one client")
    print(f"env: nproc {os.cpu_count()}, BLAS/OpenMP threads {BLAS_THREADS}, "
          f"numpy {numpy.__version__}, scipy {scipy.__version__}, "
          f"python {platform.python_version()}, git {git_sha(root)}")
    print(f"failed_ratio {result['failed'] / result['attempted']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} invocations)")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
