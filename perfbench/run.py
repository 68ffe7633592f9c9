"""retroq benchmark: one workload per call, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a retroq source checkout; the package is imported
from ./src, never from an installed copy. The timed section repeats the
workload's fixed pass, on the same seed-derived inputs, until --seconds
have elapsed, and reports the median pass in reference seconds
(probe.py). With --trace 1 the first half of the time is spent untraced,
the second half with every public retroq function wrapped in a span
(spans.py); per-layer metrics come from the traced passes. Human-readable
lines come first; the last line of stdout is the JSON result. See
README.md here for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
NPROC = len(os.sched_getaffinity(0))
SETUP_SAMPLES = 5

# Per-layer metrics. Times are per traced pass (median over passes).
# ".s" and ".self_s" are self time; rates divide the function's work by its
# inclusive time.
SELF_S = (
    "accel.homodyne_paths", "accel.counting_paths",
    "trajectories.simulate_homodyne", "trajectories.simulate_counting",
    "trajectories.backward_homodyne", "trajectories.backward_counting",
    "trajectories.pqs_summary_csv", "retrodiction.abl_distribution",
    "dynamics.propagate_forward", "dynamics.propagate_backward",
    "dynamics.evolve_state", "dynamics.stationary_state",
    "thermo.thermo_report", "thermo.backward_neutrality_check",
    "algebra.validate_state", "retrodiction.conditional_at_stage",
    "classical.hmm_forward_backward", "classical.smoothing_chain",
    "classical.kalman_filter", "classical.rts_smoother", "classical.gaussian_batch_oracle",
    "scenarios.homodyne-cavity", "scenarios.counting", "scenarios.thermal-qubit",
    "scenarios.unsharp-qubit", "scenarios.weak-measurement", "scenarios.epr",
    "scenarios.classical-limit",
)
SELF_S_SUFFIX = ("trajectories.ensemble_homodyne", "trajectories.ensemble_counting", "cli.main")
CALLS = (
    "retrodiction.abl_distribution", "dynamics.propagate_forward", "dynamics.propagate_backward",
    "dynamics.evolve_state", "dynamics.stationary_state", "algebra.validate_state",
    "channels.Instrument.apply",
)
RATES = (  # (span, metric suffix)
    ("trajectories.ensemble_homodyne", "traj_steps_per_s"),
    ("trajectories.ensemble_counting", "traj_steps_per_s"),
    ("trajectories.simulate_homodyne", "steps_per_s"),
    ("trajectories.simulate_counting", "steps_per_s"),
    ("trajectories.backward_homodyne", "steps_per_s"),
    ("trajectories.backward_counting", "steps_per_s"),
    ("dynamics.propagate_forward", "steps_per_s"),
    ("dynamics.propagate_backward", "steps_per_s"),
)
KERNELS = ("accel.homodyne_paths", "accel.counting_paths")


def _work_counters():
    def steps(a, out):
        return out.times.size - 1

    def kernel(a, out):
        n, k = a["incr"].shape
        return n * k

    return {
        "accel.homodyne_paths": kernel,
        "accel.counting_paths": kernel,
        "trajectories.ensemble_homodyne": lambda a, out: out.dys.size,
        "trajectories.ensemble_counting": lambda a, out: out.counts.size,
        "trajectories.simulate_homodyne": lambda a, out: out[1].steps,
        "trajectories.simulate_counting": lambda a, out: out[1].steps,
        "trajectories.backward_homodyne": steps,
        "trajectories.backward_counting": steps,
        "dynamics.propagate_forward": steps,
        "dynamics.propagate_backward": steps,
        "thermo.thermo_report": lambda a, out: out.times.size,
    }


def per_layer_units():
    """Name -> unit of every per-layer metric, in report order."""
    units = {}
    for name in SELF_S:
        units[f"{name}.s"] = "s"
    for name in SELF_S_SUFFIX:
        units[f"{name}.self_s"] = "s"
    for name in CALLS:
        units[f"{name}.calls"] = "count"
    for name, suffix in RATES:
        units[f"{name}.{suffix}"] = "1/s"
    units["trajectories.traj_steps"] = "count"
    units["thermo.thermo_report.us_per_point"] = "us"
    units["trace_overhead_s"] = "s"
    return units


def layer_metrics(agg, overhead):
    """Per-layer values for one traced pass from per-name aggregates."""
    def get(name, key):
        return agg.get(name, {}).get(key, 0.0)

    out = {}
    for name in SELF_S:
        out[f"{name}.s"] = get(name, "self")
    for name in SELF_S_SUFFIX:
        out[f"{name}.self_s"] = get(name, "self")
    for name in CALLS:
        out[f"{name}.calls"] = get(name, "calls")
    for name, suffix in RATES:
        incl = get(name, "incl")
        out[f"{name}.{suffix}"] = get(name, "work") / incl if incl > 0 else 0.0
    out["trajectories.traj_steps"] = sum(get(k, "work") for k in KERNELS)
    points = get("thermo.thermo_report", "work")
    out["thermo.thermo_report.us_per_point"] = 1e6 * get("thermo.thermo_report", "incl") / points if points else 0.0
    out["trace_overhead_s"] = overhead
    return out


def aggregate(tracer, lo, hi):
    """Per-name calls, self, inclusive seconds and work over spans lo..hi-1."""
    selfs = tracer.self_times(lo, hi)
    agg = {}
    for i in range(lo, hi):
        a = agg.setdefault(tracer.names[tracer.name_idx[i]], {"calls": 0, "self": 0.0, "incl": 0.0, "work": 0.0})
        a["calls"] += 1
        a["self"] += selfs[i - lo]
        a["incl"] += tracer.end[i] - tracer.start[i]
        a["work"] += tracer.work[i]
    return agg


def machine_facts():
    import numpy
    import scipy

    from retroq import _accel

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": NPROC,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_thread_cap": os.environ["OPENBLAS_NUM_THREADS"],
        "numba_importable": _accel.HAVE_NUMBA,
        "retroq_backend": _accel.backend(),
    }


def run_pass(items, checks, fingerprints):
    """Run every item once; append its checks, compare its fingerprint.

    Returns the (start, end) clock readings of each item.
    """
    intervals = []
    for label, fn in items:
        t0 = time.perf_counter()
        try:
            found, fp = fn()
        except Exception:  # a raised exception is a failed check, not a crash
            found, fp = [(f"{label}/raised", False, traceback.format_exc(limit=3).strip().splitlines()[-1])], None
        intervals.append((t0, time.perf_counter()))
        checks.extend(found)
        if fp is None:
            continue
        if label in fingerprints:
            same = fingerprints[label] == fp
            checks.append((f"{label}/bit_identical_rerun", same, "" if same else "outputs changed between passes"))
        else:
            fingerprints[label] = fp
    return intervals


def timed_passes(items, deadline, checks, fingerprints, speed=None, tracer=None):
    """Repeat the pass while the next one is expected to end by the deadline.

    Untraced passes run under the speed probe. Returns per-pass wall
    seconds (probe time excluded), reference seconds (equal to wall seconds
    when traced) and span windows.
    """
    walls, scaled, windows, lengths = [], [], [], []
    while True:
        lo = len(tracer) if tracer is not None else 0
        t0 = time.perf_counter()
        if tracer is not None:
            with tracer.span("pass"):
                run_pass(items, checks, fingerprints)
            wall = ref = time.perf_counter() - t0
        else:
            with speed.active():
                intervals = run_pass(items, checks, fingerprints)
            wall, ref = speed.seconds(intervals)
        lengths.append(time.perf_counter() - t0)
        walls.append(wall)
        scaled.append(ref)
        windows.append((lo, len(tracer) if tracer is not None else 0))
        if time.perf_counter() + statistics.median(lengths) > deadline:
            return walls, scaled, windows


def setup(workload, seed, workdir):
    """Import retroq and build the workload's inputs; returns (items, seconds)."""
    t0 = time.perf_counter()
    import workloads

    items = workloads.build(workload, seed, workdir)
    return items, time.perf_counter() - t0


def setup_samples(workload, seed):
    """Set-up seconds in SETUP_SAMPLES fresh interpreters."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only", "--workload", workload, "--seed", str(seed)]
    out = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description="retroq benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "retroq", "__init__.py")):
        print(f"no retroq sources under {SRC}; run from the root of a retroq checkout", file=sys.stderr)
        return 2
    # One process, BLAS capped at the cores this process may use.
    os.environ["OPENBLAS_NUM_THREADS"] = str(NPROC)
    sys.path[:0] = [SRC, HERE]
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir):
    if args.setup_only:
        _, seconds = setup(args.workload, args.seed, workdir)
        print(json.dumps({"setup_s": seconds}))
        return 0
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    setups = setup_samples(args.workload, args.seed)
    items, _ = setup(args.workload, args.seed, workdir)
    import retroq

    if not os.path.abspath(retroq.__file__).startswith(SRC + os.sep):
        print(f"imported retroq from {retroq.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    print("machine " + json.dumps(machine_facts(), sort_keys=True))
    import probe

    speed = probe.SpeedProbe(probe.KIND[args.workload])

    checks, fingerprints = [], {}
    start = time.perf_counter()
    budget = args.seconds / 2 if args.trace else args.seconds
    walls, norms, _ = timed_passes(items, start + budget, checks, fingerprints, speed)
    wall = statistics.median(walls)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"untraced passes: {len(walls)}; wall " + ", ".join(f"{w:.3f}" for w in walls)
          + " s; reference " + ", ".join(f"{w:.3f}" for w in norms) + f" s; median wall {wall:.4f} s")
    print("set-up samples: " + ", ".join(f"{w:.4f}" for w in setups) + " s")

    if args.trace:
        import spans as tracing

        try:
            tracing.selftest()
            checks.append(("trace/self_time_selftest", True, ""))
        except AssertionError as exc:
            checks.append(("trace/self_time_selftest", False, str(exc)))
        tracer = tracing.Tracer()
        tracer.install(retroq, _work_counters())
        try:
            twalls, _, windows = timed_passes(items, start + args.seconds, checks, fingerprints, tracer=tracer)
        finally:
            tracer.uninstall()
        overhead = statistics.median(twalls) - wall
        per_pass = []
        for (lo, hi), w in zip(windows, twalls):
            agg = aggregate(tracer, lo, hi)
            layer_self = sum(a["self"] for n, a in agg.items() if n != "pass")
            checks.append(("trace/self_times_within_pass", layer_self <= w, f"{layer_self:.4f} s of {w:.4f} s"))
            per_pass.append(layer_metrics(agg, overhead))
        print(f"traced passes: {len(twalls)}; wall " + ", ".join(f"{w:.3f}" for w in twalls) + " s")
        print(f"traced self-time sum {layer_self:.4f} s <= untraced wall {wall:.4f} s + overhead {overhead:.4f} s")
        os.makedirs(OUT, exist_ok=True)
        tracer.dump(os.path.join(OUT, f"spans-{args.workload}.json.gz"))
        metrics = {k: {"value": statistics.median(p[k] for p in per_pass), "unit": u}
                   for k, u in per_layer_units().items()}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(norms), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    failed = [c for c in checks if not c[1]]
    for name, _, detail in failed[:20]:
        print(f"FAIL {name}: {detail}")
    print(f"checks: {len(checks)} attempted, {len(failed)} failed, fail_ratio = {len(failed) / len(checks):.6g}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failed, "attempted": len(checks), "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
