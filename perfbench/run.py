"""Benchmark for dampedstring: seeded closed-loop workloads, verified outputs.

Run from the repository root:

    python3 perfbench/run.py --workload dense_variable --seed 1 --seconds 28 --trace 0

Workloads are listed in ``workloads.WORKLOADS`` and, with the reason each
was chosen, in ``BENCHMARK.json``.  One run is one fresh process: it imports
the library from ``src/``, draws the workload's configs from ``--seed``,
runs one untimed warm-up config, then repeats closed-loop passes over the
configs (one client; the next config starts only after the previous one is
verified) until ``--seconds`` is used up.  A fixed reference kernel that
does not use the library is timed between configs, and each config's time
is reported as a multiple of the reference time around it, the median over
the passes; set-up, timed in one fresh process after each pass, is scaled
the same way (see ``end_to_end``).

With ``--trace 0`` the end-to-end metrics of ``BENCHMARK.json`` are
reported; with ``--trace 1`` passes alternate between untraced and traced,
and the per-layer metrics come from the traced ones.  A table of every
metric goes to stdout, the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``, and a result file with
the environment, the per-config verified quantities, every failure and (when
traced) the spans is written to ``perfbench/results/``.  The exit code is 0
only when every check passed.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here, before any import

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

sys.dont_write_bytecode = True
from spans import Tracer, self_times, span_totals  # noqa: E402  (stdlib only)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS = BENCH_DIR / "results"
# One BLAS thread, so both sides of a comparison get the same thread count
# whatever the machine; an explicit setting in the environment wins.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

# Set-up is imports and a small warm-up config: the reference kernel for it
# has every part, and SETUP_REFERENCE_S, that kernel's time on a quiet
# 2-vCPU VM, turns set-up's ratio to it back into seconds (see end_to_end).
SETUP_REFERENCE = ("triangular", "general", "symmetric")
SETUP_REFERENCE_S = 0.0125

# How a per-config count becomes a per-pass value.
COUNT_AGG = {
    "discretization.dense_mb": max,
    "riesz.clusters": sum,
    "riesz.max_cluster_size": max,
    "reporting.artifact_bytes": sum,
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=28.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)  # one set-up, for setup_s
    return p.parse_args(argv)


def load_workloads():
    """Import the library from this checkout's src/ and the workload table."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import dampedstring
    if Path(dampedstring.__file__).resolve().parent.parent != src:
        raise SystemExit(f"dampedstring imported from {dampedstring.__file__},"
                         f" not from {src}")
    import workloads
    return workloads


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def environment(seed: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {k: v for k, v in os.environ.items()
                    if k.endswith("_NUM_THREADS")},
        "git_commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str | None:
    """HEAD of the checkout, or None outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def reference_kernel(parts: tuple):
    """A function that runs a fixed reference kernel once.

    It does not call the library, so no change to the library moves it.
    Its ``parts`` are kinds of dense work the workloads do: ``triangular``,
    40 inversions of a 64 x 64 complex triangular matrix called from Python
    (as the Riesz quadrature does); ``general``, a 64 x 64 complex general
    eigensolve; ``symmetric``, a 256 x 256 real symmetric eigensolve.  Each
    takes 2-10 ms on a quiet 2-vCPU VM.  The inputs are fixed, not drawn
    from the workload seed."""
    import numpy as np
    import scipy.linalg
    rng = np.random.default_rng(0)
    tri = np.triu(rng.standard_normal((64, 64))
                  + 1j * rng.standard_normal((64, 64))) + 8 * np.eye(64)
    gen = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    sym = rng.standard_normal((256, 256))
    sym = sym + sym.T

    def triangular():
        for _ in range(40):
            scipy.linalg.lapack.ztrtri(tri)

    kernels = {"triangular": triangular,
               "general": lambda: np.linalg.eig(gen),
               "symmetric": lambda: np.linalg.eigh(sym)}
    chosen = [kernels[p] for p in parts]

    def run():
        for kernel in chosen:
            kernel()
    return run


def time_once(fn) -> float:
    t = time.perf_counter()
    fn()
    return time.perf_counter() - t


def run_config(wl, cfg, tracer, workdir):
    """Run and verify one config; (outcome, error text or None, seconds)."""
    import workloads
    out = workloads.Outcome()
    t = time.perf_counter()
    try:
        with tracer.span("bench.config", config=cfg.cid):
            wl.run(cfg, tracer, out, workdir)
    except Exception:  # a failing config is counted and reported, not fatal
        return out, traceback.format_exc(), time.perf_counter() - t
    return out, None, time.perf_counter() - t


def run_pass(wl, configs, tracer, workdir, reference) -> dict:
    first_span = len(tracer.spans)
    p = {"traced": tracer.enabled, "cfg_s": [], "ref_s": [], "attempted": 0,
         "failed": 0, "failures": [], "verified": {}, "counts": {}}
    counts = {k: [] for k in COUNT_AGG}
    t = time.perf_counter()
    for cfg in configs:
        p["ref_s"].append(time_once(reference))
        out, err, dt = run_config(wl, cfg, tracer, workdir)
        p["cfg_s"].append(dt)
        n_failed = sum(not c["passed"] for c in out.checks)
        if err is None and len(out.checks) != cfg.n_checks:
            err = (f"made {len(out.checks)} checks, "
                   f"expected {cfg.n_checks}")
        if err is not None:
            n_failed = cfg.n_checks  # a config that raises fails every check
            p["failures"].append({"config": cfg.cid, "error": err})
        else:
            p["failures"].extend(
                {"config": cfg.cid, "check": c} for c in out.checks
                if not c["passed"])
        p["attempted"] += cfg.n_checks
        p["failed"] += n_failed
        p["verified"][cfg.cid] = out.quantities
        for k, v in out.counts.items():
            counts[k].append(v)
    p["ref_s"].append(time_once(reference))  # so each config has one after
    p["wall_s"] = time.perf_counter() - t
    p["counts"] = {k: (COUNT_AGG[k](v) if v else 0) for k, v in counts.items()}
    p["spans"] = tracer.spans[first_span:]
    p["first_span"] = first_span
    return p


def measure(wl, configs, args, workdir, reference,
            setup_reference) -> tuple[list, list]:
    """Closed-loop passes until the next one would overrun ``args.seconds``;
    (passes, set-ups of fresh processes).

    Traced runs alternate untraced and traced passes, so both see the same
    machine state; at least one of each is made.  Untraced runs follow each
    pass with one fresh-process set-up between two timings of the set-up
    reference kernel, so the set-ups sample the same stretches of the host
    as the passes."""
    tracers = [Tracer(False), Tracer(True)] if args.trace else [Tracer(False)]
    passes, setups, rounds = [], [], []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        tracer = tracers[len(passes) % len(tracers)]
        passes.append(run_pass(wl, configs, tracer, workdir, reference))
        if not args.trace:
            before = time_once(setup_reference)
            wall = child_setup(args)
            setups.append({"wall_s": wall, "ref_s": (
                before + time_once(setup_reference)) / 2})
        rounds.append(time.perf_counter() - t)
        elapsed = time.perf_counter() - start
        if (len(passes) >= len(tracers)
                and elapsed + statistics.median(rounds) > args.seconds):
            return passes, setups


def end_to_end(passes, own_setup, setups) -> dict:
    """End-to-end metrics of the untraced passes.

    A config's cost is its time over the mean of the reference kernel's
    times just before and just after it, the median over the run's passes.
    run_ref is the sum of those costs over the workload's configs,
    cfg_p50_ref their median and cfg_max_ref the largest.  A shared host
    can run 1.7x slower for tens of seconds at a time, longer than a run:
    on a shared 2-vCPU VM, eleven 28 s windows of riesz_small passes over
    the same inputs spread by 30% (interquartile range over median) in the
    sum of per-config fastest times and by 32% in the sum of medians, but
    by 5% in the sum of median ratios to a reference kernel of the same
    kinds of work, which the slow stretches slow as much.  They slow small
    calls from Python more (1.7x) than large symmetric eigensolves (1.45x),
    so each workload names the reference parts that match its work.  The
    seconds are reported too (run_s, cfg_p50_s, cfg_max_s; per-config
    medians), with the reference kernel's median time, ref_p50_s.

    setup_s is likewise the median over the run's fresh-process set-ups of
    their time over the set-up reference kernel's, times SETUP_REFERENCE_S:
    set-up seconds on a host where that kernel takes 12.5 ms.  There, 139
    set-ups of dense_variable took a median 0.54 s with the kernel under
    14.5 ms and 0.75 s with it over 17 ms, while their ratio to it moved by
    1%; the fastest set-up of a run moved by 29% between two sets of ten
    runs of the same code.  Process CPU time is no steadier there: it
    follows wall time within 2% through the slow stretches, which are not
    stolen time.  The fastest and the median set-up, the run's own
    included, are reported as setup_wall_s and setup_wall_p50_s.
    """
    ratios = [[2 * t / (before + after) for t, before, after
               in zip(p["cfg_s"], p["ref_s"], p["ref_s"][1:])] for p in passes]
    cost = [statistics.median(col) for col in zip(*ratios)]
    seconds = [statistics.median(col)
               for col in zip(*(p["cfg_s"] for p in passes))]
    walls = [own_setup] + [x["wall_s"] for x in setups]
    attempted = sum(p["attempted"] for p in passes)
    return {
        "setup_s": SETUP_REFERENCE_S * statistics.median(
            x["wall_s"] / x["ref_s"] for x in setups),
        "setup_wall_s": min(walls),
        "setup_wall_p50_s": statistics.median(walls),
        "run_ref": sum(cost),
        "cfg_p50_ref": statistics.median(cost),
        "cfg_max_ref": max(cost),
        "run_s": sum(seconds),
        "cfg_p50_s": statistics.median(seconds),
        "cfg_max_s": max(seconds),
        "ref_p50_s": statistics.median(r for p in passes for r in p["ref_s"]),
        "pass_wall_p50_s": statistics.median(p["wall_s"] for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "fail_frac": sum(p["failed"] for p in passes) / attempted,
        "passes": len(passes),
        "configs": len(cost),
        "setup_samples": len(setups),
        "setup_ref_p50_s": statistics.median(x["ref_s"] for x in setups),
    }


def per_layer(passes, names) -> tuple[dict, dict]:
    """Per-layer metrics and the self-time table from the traced passes.

    Each is the lowest over the run's traced passes, in seconds; the
    tracing overhead compares the fastest traced pass with the fastest
    untraced one."""
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    per_pass = []
    for p in traced:
        m = {f"{k}_s": v for k, v in span_totals(p["spans"]).items()}
        m.update({f"{k}.self_s": v for k, v in
                  self_times(p["spans"], p["first_span"]).items()})
        m.update(p["counts"])
        per_pass.append(m)
    keys = set(names).union(*per_pass)
    metrics = {k: min(m.get(k, 0.0) for m in per_pass) for k in keys}
    traced_run = min(p["wall_s"] for p in traced)
    untraced_run = min(p["wall_s"] for p in untraced)
    metrics["bench.trace_overhead_s"] = traced_run - untraced_run
    table = {k[:-len(".self_s")]: v for k, v in metrics.items()
             if k.endswith(".self_s")}
    return metrics, {"self_s": table, "traced_run_s": traced_run,
                     "untraced_run_s": untraced_run,
                     "traced_passes": len(traced),
                     "untraced_passes": len(untraced)}


def child_setup(args) -> float:
    """Set-up time of a fresh process."""
    proc = subprocess.run(
        [sys.executable, "-B", str(Path(__file__).resolve()),
         "--workload", args.workload, "--seed", str(args.seed),
         "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def print_table(title, rows):
    print(title)
    for name, value, unit in rows:
        print(f"  {name:<32} {value:>14.6g} {unit}")


def main(argv=None) -> int:
    args = parse_args(argv)
    wl_mod = load_workloads()
    import numpy as np
    if args.workload not in wl_mod.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from "
                         f"{sorted(wl_mod.WORKLOADS)}")
    wl = wl_mod.WORKLOADS[args.workload]
    configs = wl.configs(np.random.default_rng(args.seed))
    spec = benchmark_spec()
    RESULTS.mkdir(exist_ok=True)
    workdir = RESULTS / f"work-{args.workload}-{os.getpid()}"
    try:
        # warm-up: untimed, its checks are set-up noise at this size, but an
        # exception in it is a real failure and ends the run
        _, err, _ = run_config(wl, wl.warmup(configs), Tracer(False), workdir)
        if err is not None:
            raise RuntimeError(f"warm-up config failed:\n{err}")
        reference = reference_kernel(wl.reference)
        setup_reference = reference_kernel(SETUP_REFERENCE)
        for _ in range(3):
            reference()
            setup_reference()
        setup = time.perf_counter() - _T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup}))
            return 0
        passes, setups = measure(wl, configs, args, workdir, reference,
                                 setup_reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if args.trace:
        listed = spec["per_layer"]
        metrics, layers = per_layer(passes, [m["name"] for m in listed])
    else:
        listed = spec["end_to_end"]
        metrics, layers = end_to_end(passes, setup, setups), None
    units = {m["name"]: m["unit"] for m in listed}

    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} passes x {len(configs)} configs, "
          f"{failed}/{attempted} checks failed")
    print_table("metrics", [
        (k, metrics[k], units.get(k) or ("s" if k.endswith("_s") else ""))
        for k in sorted(metrics)])
    if layers is not None:
        print_table("self time by layer (fastest traced pass)",
                    [(k, v, "s") for k, v in sorted(layers["self_s"].items())])
        print(f"  tracing overhead: {metrics['bench.trace_overhead_s']:.4f} s "
              f"per pass ({layers['traced_run_s']:.4f} traced vs "
              f"{layers['untraced_run_s']:.4f} untraced)")
    failures = [f for p in passes for f in p["failures"]]
    for f in failures[:20]:
        print(f"FAILED {json.dumps(f)}", file=sys.stderr)

    result = {
        "workload": wl.name, "seed": args.seed,
        "why": next((w["why"] for w in spec["workloads"]
                     if w["name"] == wl.name), None),
        "seconds": args.seconds, "trace": args.trace,
        "environment": environment(args.seed),
        "configs": [wl_mod.describe(c) for c in configs],
        "metrics": metrics, "layers": layers, "own_setup_s": setup,
        "setups": setups,
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_cfg_s": [p["cfg_s"] for p in passes],
        "pass_ref_s": [p["ref_s"] for p in passes],
        "attempted": attempted, "failed": failed, "failures": failures,
        "verified": passes[0]["verified"],
        "spans": [s for p in passes for s in p["spans"]] if args.trace else [],
    }
    path = RESULTS / f"{wl.name}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")

    missing = [k for k in units if k not in metrics]
    if missing:
        raise SystemExit(f"metrics not computed: {missing}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
