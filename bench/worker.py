"""One benchmark process: set up, run passes of one workload, print JSON.

Started by run.py with the thread pins and PYTHONPATH already set.

    worker.py --setup-only
        import hlkernels, build the domain models, print {"setup_s": ...}
    worker.py --workload W --seed S --seconds T --trace 0
        passes of W that fit in T seconds (at least one)
    worker.py --workload W --seed S --seconds T --trace 1
        one untraced pass, then one traced pass; per-layer metrics

With --trace 0 every time is scaled to the reference host speed
(hostspeed.py); the raw times are printed as notes.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter, process_time

import hostspeed
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 30           # host-speed probes right after set-up


def setup():
    """Import hlkernels from this checkout and build the domain models."""
    import hlkernels
    from hlkernels import domain, forms, kernels, quad, verify  # noqa: F401
    if SRC.resolve() not in Path(hlkernels.__file__).resolve().parents:
        raise ImportError(f"hlkernels imported from {hlkernels.__file__}, not {SRC}")
    return workloads.build_models()


def timed_setup():
    """Set-up time, raw and scaled to the host speed measured right after it
    (set-up is too short to sample during, and it imports numpy, which the
    probe needs)."""
    t0 = perf_counter()
    models = setup()
    raw = perf_counter() - t0
    sampler = hostspeed.Sampler()
    sampler.sample_now(SETUP_PROBES)
    return models, raw, raw / sampler.slowdown()


def timed_pass(wl, models, seed, references, scaled=True):
    """One pass and its check: (outputs, outcome, wall, cpu, raw wall).

    With `scaled`, wall and CPU time are scaled to the reference host speed
    and exclude the sampler's handler; otherwise they are raw."""
    sampler = hostspeed.Sampler()
    with sampler if scaled else contextlib.nullcontext():
        t_wall, t_cpu = perf_counter(), process_time()
        out = wl.run(models, seed)
        outcome = workloads.check(wl, out, seed, references)
        wall = perf_counter() - t_wall - sampler.handler_wall
        cpu = process_time() - t_cpu - sampler.handler_cpu
    slowdown = sampler.slowdown() if scaled else 1.0
    return out, outcome, wall / slowdown, cpu / slowdown, wall


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    models, setup_raw_s, setup_s = timed_setup()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0

    wl = workloads.WORKLOADS[args.workload]
    references = workloads.load_reference()
    start = perf_counter()
    scaled = not args.trace
    passes = [timed_pass(wl, models, args.seed, references, scaled)]
    # Start another pass only when it should end within --seconds.
    while (scaled and perf_counter() - start
           + statistics.fmean(p[4] for p in passes) <= args.seconds):
        passes.append(timed_pass(wl, models, args.seed, references))
    attempted = sum(p[1].attempted for p in passes)
    failed = sum(p[1].failed for p in passes)
    notes = list(passes[-1][1].notes)
    notes.append("pass wall_s: " + " ".join(f"{p[2]:.3f}" for p in passes)
                 + (" (raw: " + " ".join(f"{p[4]:.3f}" for p in passes) + ")"
                    if scaled else ""))
    result = {"setup_s": setup_s, "setup_raw_s": setup_raw_s, "passes": len(passes)}

    if args.trace:
        import tracer as tracing
        tr = tracing.Tracer()
        with tracing.instrumented(tr):
            traced = timed_pass(wl, models, args.seed, references, scaled=False)
        attempted += traced[1].attempted + 1
        failed += traced[1].failed
        if json.dumps(traced[0]) != json.dumps(passes[0][0]):
            failed += 1
            notes.append("traced outputs differ from untraced outputs")
        result["layers"] = tr.metrics(traced[2], passes[0][2])
        path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
        tr.save(path)
        notes.append(f"{len(tr.start)} spans written to {path.relative_to(ROOT)}")
    else:
        # Means over passes of times already scaled to the reference speed.
        units = wl.units(models, passes[0][0])
        wall = sum(p[2] for p in passes)
        result.update(
            wall_s=wall / len(passes),
            cpu_s=sum(p[3] for p in passes) / len(passes),
            units_per_s=units * len(passes) / wall,
            units=units,
        )
    result.update(
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        attempted=attempted, failed=failed, notes=notes,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
