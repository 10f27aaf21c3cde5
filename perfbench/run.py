"""fpint benchmark: one named workload at one seed, checked, with metrics.

    python3 perfbench/run.py --workload point_hook --seed 1 --seconds 34 --trace 0

Run from the root of a checkout.  Measures set-up (a fresh interpreter's
`import fpint`, several times, median), then runs the workload in a fresh
worker interpreter (perfbench/worker.py) with the BLAS thread pools pinned
to one thread, and prints as its last line one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  Lines before it describe
the run.  Files the run writes go to .perfbench_out/ in the checkout.
Exits non-zero, without a result line, when the program cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("point_hook", "point_generic", "grid_cli", "catalog_sweep")
DEFAULT_SEED = 20240801          # the catalog's default verify seed
SETUP_REPEATS = 7
WORKER_TIMEOUT_S = 170.0

# Pin every BLAS/OpenMP pool: the program's only BLAS calls are tiny least-
# squares fits, and idle pool threads only add scheduling noise.
PINNED = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                 "VECLIB_MAXIMUM_THREADS")}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup(env: dict) -> float:
    """Median wall time of a fresh interpreter that imports fpint."""
    cmd = [sys.executable, "-c", "import fpint"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=60)   # writes bytecode
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=60)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=34.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "fpint" / "__init__.py").is_file():
        print(f"no fpint package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = child_env()
    shutil.rmtree(OUT_DIR, ignore_errors=True)
    OUT_DIR.mkdir(parents=True)
    try:
        setup_s = measure_setup(env)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"import fpint failed: {exc}", file=sys.stderr)
        return 2

    result_path = OUT_DIR / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(OUT_DIR),
           "--result", str(result_path)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"worker exceeded {WORKER_TIMEOUT_S:g} s", file=sys.stderr)
        return 2
    if proc.returncode != 0 or not result_path.is_file():
        print(f"worker failed with exit code {proc.returncode}", file=sys.stderr)
        return 2
    result = json.loads(result_path.read_text(encoding="utf-8"))
    info = result.pop("info")
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    for key, value in info.items():
        print(f"# {key}: {json.dumps(value)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
