"""su2link benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports ``su2link`` from
``src/`` and refuses to run (exit 2) when that is missing.  The workload runs
in a fresh worker process with single-threaded BLAS and a timeout, so its
peak memory is its own and a hang becomes a failed run.  The worker sets up
(imports, parses the layout, generates the seeded inputs), warms up, then
repeats full passes until ``--seconds`` have passed.  Set-up time is then
sampled again in a few more fresh interpreters.

With ``--trace 0`` the result reports the end-to-end metrics of
``BENCHMARK.json``: ``wall_s`` (median pass time), ``setup_s`` (median
set-up time) and ``peak_rss_mb`` (the worker's peak resident memory).
Failed operations over attempted ones (``failed_ops``) is a gate: it goes to
``failed`` and ``attempted`` and must be 0.  With ``--trace 1`` the worker
alternates untraced and traced passes and the result reports the per-layer
metrics, taken from the traced passes, whose call counts must agree.

The last line of standard output is the result as one JSON object; the lines
before it give the run's manifest (versions, BLAS, revision) and the spread of
each figure.
"""
from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC_FILE = ROOT / "BENCHMARK.json"
WORKLOADS = ("triangle_figures", "two_plaquette", "triangle_verify", "matter_chain")

# One BLAS thread: the run is one single-threaded caller, and its times do not
# depend on how busy the machine's other cores are.
BLAS_THREADS = 1
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 4
SETUP_KERNEL_RUNS = 3  # speed samples on each side of a set-up
DEADLINE_S = 170.0  # the whole run, worker and set-up probes included
TRACED_MIN_PASSES = 3  # untraced, traced, traced: two traced passes to compare


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--role", choices=("run", "worker", "probe"), default="run", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# worker and set-up probe (fresh interpreters)

def worker(args: argparse.Namespace) -> dict:
    sys.path.insert(0, str(SRC))
    import speed

    before = [speed.kernel() for _ in range(SETUP_KERNEL_RUNS)]
    start = time.perf_counter()
    import workloads  # imports numpy and su2link

    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_raw = time.perf_counter() - start
    setup = setup_raw * speed.factor(before + [speed.kernel() for _ in range(SETUP_KERNEL_RUNS)])
    if args.role == "probe":
        return {"setup": [setup_raw, setup]}

    import checks
    import su2link
    import tracing

    if Path(su2link.__file__).resolve().parent != SRC / "su2link":
        raise RuntimeError(f"imported su2link from {su2link.__file__}, not from {SRC}")
    reference = checks.load_reference()[workload.name] if args.seed == workloads.DEFAULT_SEED else None
    runner = workloads.Runner(reference)
    runner.run(workload.warmup, compare=False)

    passes, traced_passes, tracers = [], [], []  # (raw, corrected) seconds per pass
    began = time.perf_counter()
    min_passes = TRACED_MIN_PASSES if args.trace else 1
    while len(passes) + len(traced_passes) < min_passes or time.perf_counter() - began < args.seconds:
        # with tracing: untraced, traced, traced, then alternating
        if args.trace and passes and len(traced_passes) <= len(passes):
            with tracing.Tracer() as tracer:
                traced_passes.append(runner.run(workload.ops))
            tracers.append(tracer)
        else:
            passes.append(runner.run(workload.ops))

    result = {
        "setup": [setup_raw, setup],
        "passes": passes,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "manifest": manifest(args),
    }
    if args.trace:
        result["traced_passes"] = traced_passes
        result["calls"] = [t.calls() for t in tracers]
        # times take their pass's speed correction and the median over traced
        # passes; counts agree between traced passes
        metrics = [t.metrics(corrected / raw if raw else 1.0) for t, (raw, corrected) in zip(tracers, traced_passes)]
        result["layers"] = {
            name: statistics.median(m[name] for m in metrics) if tracing.is_time(name) else value
            for name, value in metrics[0].items()
        }
    return result


def manifest(args: argparse.Namespace) -> dict:
    import numpy as np
    import su2link

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads_set": BLAS_THREADS,
        "blas_threads_reported": openblas_threads(np),
        "nproc": len(os.sched_getaffinity(0)),
        "su2link": su2link.__version__,
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
    }


def openblas_threads(np) -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            function = getattr(lib, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def git_revision() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def source_digest() -> str:
    """SHA-256 over the package sources, for checkouts without git metadata."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "su2link").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# orchestration

def run_child(args: argparse.Namespace, role: str, deadline: float) -> dict:
    """Run this script as a worker or probe in a fresh interpreter; returns its result."""
    env = dict(os.environ, **{name: str(BLAS_THREADS) for name in THREAD_VARIABLES})
    command = [sys.executable, str(Path(__file__).resolve()), "--role", role, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    timeout = max(deadline - time.monotonic(), 1.0)
    proc = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{role} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> str:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return f"median {statistics.median(values):.6g} q1 {q1:.6g} q3 {q3:.6g} n {len(values)}"


def orchestrate(args: argparse.Namespace) -> int:
    spec = json.loads(SPEC_FILE.read_text(encoding="utf-8"))
    deadline = time.monotonic() + DEADLINE_S
    try:
        result = run_child(args, "worker", deadline)
        setup = [result["setup"]] + [run_child(args, "probe", deadline)["setup"] for _ in range(SETUP_PROBES)]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as err:
        # a crash or hang is one failed operation; nothing was measured
        print(f"run failed: {err}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    print("manifest " + json.dumps(result["manifest"], sort_keys=True))
    for problem in result["problems"]:
        print(f"FAILED {problem}")
    walls = [corrected for _, corrected in result["passes"]]
    print(f"wall_s      {spread(walls)}")
    print(f"raw wall_s  {spread([raw for raw, _ in result['passes']])}")
    print(f"setup_s     {spread([corrected for _, corrected in setup])}")
    print(f"raw setup_s {spread([raw for raw, _ in setup])}")
    print(f"peak_rss_mb {result['peak_rss_mb']:.6g}")
    print(f"failed_ops  {result['failed']}/{result['attempted']} = {result['failed'] / result['attempted']:.6g}")
    correct = result["failed"] == 0

    if args.trace:
        traced_walls = [corrected for _, corrected in result["traced_passes"]]
        layers = dict(result["layers"])
        layers["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        print(f"traced wall_s {spread(traced_walls)}")
        if any(calls != result["calls"][0] for calls in result["calls"]):
            print("FAILED call counts differ between traced passes")
            correct = False
        for name, value in sorted(layers.items()):
            if value:
                print(f"layer {name} {value:.6g}")
        wanted, measured = spec["per_layer"], layers
    else:
        wanted = spec["end_to_end"]
        measured = {"wall_s": statistics.median(walls),
                    "setup_s": statistics.median(corrected for _, corrected in setup),
                    "peak_rss_mb": result["peak_rss_mb"]}
    metrics = {}
    for metric in wanted:
        if metric["name"] not in measured:
            print(f"note: {metric['name']} was not recorded in this program; reported as 0")
        metrics[metric["name"]] = {"value": measured.get(metric["name"], 0), "unit": metric["unit"]}
    print(json.dumps({"correct": correct, "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": metrics}))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    required = (SPEC_FILE, SRC / "su2link" / "__init__.py", BENCH / "reference_seed0.json")
    missing = [str(path.relative_to(ROOT)) for path in required if not path.is_file()]
    if missing:
        print(f"error: not a su2link source checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.role == "run":
        return orchestrate(args)
    print(json.dumps(worker(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
