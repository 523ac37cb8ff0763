"""hlkernels benchmark: one workload per invocation, one JSON line at the end.

    python3 bench/run.py --workload kernel-paths --seed 0 --seconds 20 --trace 0

Runs from the root of a source checkout and imports hlkernels from its
`src/`.  Each workload runs in a fresh worker process with BLAS/OpenMP pinned
to one thread.  With --trace 0 the last line carries the end-to-end metrics;
with --trace 1 it carries the per-layer metrics of a traced pass.  End-to-end
times are scaled to a reference host speed (hostspeed.py).  See
bench/README.md for every metric, workload and unit.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("kernel-paths", "adjointness-grid", "ratio-table")
SETUP_SAMPLES = 9           # fresh processes timing import + model build
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
                    "units_per_s": "1/s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("bytes_computed"):
        return "B"
    if name.endswith(("_frac", "kernel_reuse")):
        return "ratio"
    return "count"


def worker_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"    # set-up always compiles hlkernels
    return env


def run_worker(args: list[str], timeout: float) -> dict:
    """Run worker.py to completion and parse its last stdout line."""
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          env=worker_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "hlkernels" / "__init__.py").is_file():
        print(f"error: no hlkernels sources under {SRC}", file=sys.stderr)
        return 2

    t_start = perf_counter()

    def setup_probes(count: int) -> list[dict]:
        return [run_worker(["--setup-only"], max(DEADLINE_S - (perf_counter() - t_start), 1.0))
                for _ in range(count)]

    try:
        # Set-up is timed in fresh processes before and after the measured
        # worker, so its median spans the host's speed over the whole run.
        setups = [] if args.trace else setup_probes(SETUP_SAMPLES // 2)
        res = run_worker(["--workload", args.workload, "--seed", str(args.seed),
                          "--seconds", str(args.seconds), "--trace", str(args.trace)],
                         DEADLINE_S - (perf_counter() - t_start))
        metrics = {}
        if args.trace:
            for name, value in res["layers"].items():
                metrics[name] = {"value": value, "unit": layer_unit(name)}
        else:
            setups += [res] + setup_probes(SETUP_SAMPLES - 1 - len(setups))
            res["setup_s"] = statistics.median(p["setup_s"] for p in setups)
            res["notes"].append("setup_s raw median: %.4f" % statistics.median(
                p["setup_raw_s"] for p in setups))
            for name, unit in END_TO_END_UNITS.items():
                metrics[name] = {"value": res[name], "unit": unit}
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for note in res["notes"]:
        print(f"# {note}")
    print(f"# workload {args.workload} seed {args.seed} passes {res['passes']}"
          + (f" units {res['units']}" if "units" in res else ""))
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    fail_frac = res["failed"] / res["attempted"]
    print(f"fail_frac {fail_frac!r} ({res['failed']}/{res['attempted']} operations)")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
