#!/usr/bin/env python3
"""delaysync benchmark.

    python3 perfbench/run.py --workload {design-sweep,sim-scale,cli-export}
                             --seed N --seconds S --trace {0,1}

Builds nothing: the library is imported from the checkout's `src/`.  A run
makes its inputs from the seed, warms up, then runs rounds of the workload
for about S seconds, measuring set-up in fresh processes at even intervals
in between, and checks every output.  With --trace 0 it prints the
end-to-end metrics; with --trace 1 it alternates untraced and traced
rounds and prints the per-layer metrics instead.  Lines starting with '#'
are for people (the environment, the warm-up time, the metrics under their
user-facing names, sample counts); the last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Detailed results (and, when traced, the spans) go to perfbench/out/.
"""

import argparse
import json
import os
import platform
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")

#: how often the speed kernel runs between operations
KERNEL_INTERVAL_S = 0.5


def _limit_blas_threads():
    """At most nproc BLAS threads; must run before numpy is imported."""
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = nproc


def _import_library():
    """Import delaysync from this checkout's sources and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "delaysync", "__init__.py")):
        sys.exit(f"benchmark: no delaysync sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, ROOT)
    import delaysync
    if not os.path.abspath(delaysync.__file__).startswith(SRC + os.sep):
        sys.exit(f"benchmark: imported delaysync from {delaysync.__file__}, "
                 f"not from {SRC}")


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    head = os.path.join(ROOT, ".git", "HEAD")
    commit = None
    if os.path.isfile(head):
        import subprocess
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(),
            "git_commit": commit}


def timed_rounds(workload, run, seconds, files):
    """Run rounds for `seconds`, stopping between operations once the first
    round is complete.  Between operations, at even intervals, run the
    set-up probes and the workload's speed kernel.  Returns the number of
    rounds begun."""
    from perfbench import speed
    from perfbench.workloads import SETUP_REPEATS
    start = time.perf_counter()
    probes, next_kernel, rounds = 0, 0.0, 0

    def between():
        nonlocal probes, next_kernel
        elapsed = time.perf_counter() - start
        if probes < SETUP_REPEATS and elapsed >= probes * seconds / SETUP_REPEATS:
            run.setup_probe(SRC, files)
            probes += 1
        if elapsed >= next_kernel:
            run.kernel_times.append(speed.timed(workload.kernel))
            next_kernel = elapsed + KERNEL_INTERVAL_S
        return elapsed

    while True:
        rounds += 1
        for _ in workload.round(run):
            if between() >= seconds and rounds > 1:
                break
        else:
            if time.perf_counter() - start < seconds:
                continue
        break
    for _ in range(SETUP_REPEATS - probes):
        run.setup_probe(SRC, files)
    return rounds


def traced_rounds(workload, run, tracer, seconds):
    """Alternate untraced and traced whole rounds, so that both see the
    same machine state, until `seconds` are about used; returns the
    durations of both kinds of round."""
    def whole_round():
        t0 = time.perf_counter()
        for _ in workload.round(run):
            pass
        return time.perf_counter() - t0

    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(whole_round())
        tracer.install()
        run.tracer = tracer
        try:
            traced.append(whole_round())
        finally:
            run.tracer = None
            tracer.uninstall()
        pair = plain[-1] + traced[-1]
        if time.perf_counter() - start + pair / 2 > seconds:
            return plain, traced


def measure(workload, seed, seconds, trace):
    from perfbench import metrics, tracing
    from perfbench.workloads import Run, fresh_dir

    run = Run()
    out_dir = fresh_dir(os.path.join(OUT, workload.name))
    files = workload.prepare(seed, out_dir)

    # Warm-up: the first calls pay for lazy imports, BLAS start-up and cold
    # caches (the first N = 400 simulate runs at well under half the speed
    # of later ones), which no later call pays; keep it out of the metrics.
    t0 = time.perf_counter()
    workload.warm_up(run)
    warmup_s = time.perf_counter() - t0

    if trace:
        tracer = tracing.Tracer()
        plain, traced = traced_rounds(workload, run, tracer, seconds)
    else:
        run.timed = True
        rounds = timed_rounds(workload, run, seconds, files)
        run.timed = False
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    workload.final_checks(run)

    import numpy as np
    info = {"workload": workload.name, "seed": seed, "seconds": seconds,
            "trace": trace, "environment": environment(),
            "warmup_s": warmup_s,
            "rounds": len(plain) + len(traced) if trace else rounds,
            "problems": run.problems}
    if trace:
        values = metrics.per_layer_values(
            tracer, len(traced), sum(traced), float(np.median(traced)),
            float(np.median(traced) / np.median(plain)))
        units = {name: unit for name, unit, _, _ in metrics.PER_LAYER}
        info["absent"] = tracer.absent
        info["spans_dropped"] = tracer.dropped
        tracer.save(os.path.join(OUT, f"{workload.name}-s{seed}-spans.npz"))
    else:
        from perfbench import speed
        factor = speed.scale(workload.kernel, run.kernel_times)
        info["speed"] = {"kernel": workload.kernel,
                         "kernel_best_s": min(run.kernel_times),
                         "kernel_runs": len(run.kernel_times),
                         "scale": factor}
        values = {"setup_s": factor * float(np.median(run.setup_times)),
                  "peak_rss_mb": peak_rss_mb}
        for kind in ("light", "heavy"):
            gmean, p90 = metrics.summarize(run.samples[kind])
            values[f"{kind}_best_s.gmean"] = factor * gmean
            values[f"{kind}_best_s.p90"] = factor * p90
            samples = metrics.pooled(run.samples[kind])
            info[f"{kind}_samples"] = len(samples)
            info[f"{kind}_inputs"] = len(run.samples[kind])
            info[f"{kind}_tail"] = metrics.tail(samples)
        info["samples"] = run.samples
        units = {name: unit for name, unit, _, _ in metrics.END_TO_END}
        info["aliases"] = workload.aliases(run, values)
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in values.items()}}
    info["result"] = result
    suffix = f"{workload.name}-s{seed}-t{int(trace)}.json"
    with open(os.path.join(OUT, suffix), "w", encoding="utf-8") as fh:
        json.dump(info, fh, indent=2)
    return result, info


def report(result, info):
    """The lines for people, then the result line."""
    print(f"# environment: {json.dumps(info['environment'])}")
    print(f"# warm-up: {info['warmup_s']:.3f} s (not in any metric); "
          f"{info['rounds']} measured rounds")
    print(f"# error_rate: {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} operations failed)")
    for problem in info["problems"]:
        print(f"# failure: {problem}")
    if "speed" in info:
        sp = info["speed"]
        print(f"# speed: {sp['kernel']} kernel best {sp['kernel_best_s']:.6g} s "
              f"over {sp['kernel_runs']} runs; times below scaled by "
              f"{sp['scale']:.4f} to nominal speed (aliases unscaled)")
    for kind in ("light", "heavy"):
        if f"{kind}_samples" in info:
            tail = info[f"{kind}_tail"]
            text = (f"p{tail[0]:.1f} = {tail[1]:.6g} s" if tail
                    else "none (fewer than 11 samples)")
            print(f"# {kind}: {info[f'{kind}_samples']} samples of "
                  f"{info[f'{kind}_inputs']} inputs; highest percentile "
                  f"with 10 samples beyond it: {text}")
    from perfbench import metrics
    for alias, unit, source in metrics.ALIASES[info["workload"]]:
        value = info.get("aliases", {}).get(alias)
        if value is not None:
            print(f"# {alias} = {value:.6g} {unit}  ({source})")
    for name in info.get("absent", []):
        print(f"# absent: {name} (no longer in the library)")
    if info.get("absent") is not None:
        print("# MB/s figures are computed from the output file sizes")
    for name, entry in result["metrics"].items():
        print(f"# {name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("design-sweep", "sim-scale", "cli-export"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _limit_blas_threads()
    _import_library()
    from perfbench.workloads import WORKLOADS
    workload = WORKLOADS[args.workload]()
    result, info = measure(workload, args.seed, args.seconds, bool(args.trace))
    report(result, info)
    return 0


if __name__ == "__main__":
    sys.exit(main())
