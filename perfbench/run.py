#!/usr/bin/env python3
"""pan benchmark: run one workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload frame_sparse --seed 1 --seconds 5 --trace 0

Run from the root of a source checkout; pan is imported from ``src/``.
The inputs are made from ``--seed`` under ``perfbench/out/inputs/`` and
removed when the run ends; results stay in ``perfbench/out/``. Set-up is
timed in three fresh processes and reported as their median; the third
one goes on to measure. ``--trace 1`` reports the per-layer metrics of a
traced run instead of the end-to-end ones. See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_TRIALS = 3
# one BLAS thread: the loop has one caller, and a shared 2-core box gives
# steadier numbers without BLAS threads competing with other processes
BLAS_THREADS = "1"
TIMEOUT_S = 170.0


def pin_to_last_cpu() -> int:
    """Pin this process and its workers to the highest-numbered allowed CPU.

    CPU 0 usually takes most interrupts; on a 2-core shared box the same
    loop measured a quartile spread of 35-53 ms there against 34-37 ms on
    CPU 1.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


END_TO_END_UNITS = {"latency_ms_p50": "ms", "latency_ms_p90": "ms", "ops_per_s": "1/s",
                    "setup_s": "s", "peak_rss_mib": "MiB", "ok_op_share": "share"}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: small inputs and few ops, for the self-test")
    ap.add_argument("--corrupt", action="store_true",
                    help="perturb one checked output; the run must count it as failed")
    return ap.parse_args(argv)


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():  # a plain source checkout has no history
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None if done.returncode == 0 else None


def worker(args, work: Path, deadline: float, *extra) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--work", str(work), "--size", args.size, *extra]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS, PYTHONHASHSEED="0")
    done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(args, work: Path, deadline: float) -> tuple[dict, list]:
    """Set-up-only trials, then the measuring worker: its result and every set-up time."""
    extra = ["--seconds", str(args.seconds)] + (["--corrupt"] if args.corrupt else [])
    if args.trace:
        extra += ["--trace-out", str(OUT / work.name)]
        setups = []
    else:
        setups = [worker(args, work, deadline, "--setup-only")["setup_s"]
                  for _ in range(SETUP_TRIALS - 1)]
    res = worker(args, work, deadline, *extra)
    return res, setups + [res["setup_s"]]


def main(argv=None) -> int:
    start = time.monotonic()
    deadline = start + TIMEOUT_S
    args = parse_args(argv)
    if not (ROOT / "src" / "pan" / "__init__.py").is_file():
        print(f"error: no pan sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    cpus_allowed = len(os.sched_getaffinity(0))
    cpu = pin_to_last_cpu()
    os.environ.update(OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
                      MKL_NUM_THREADS=BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}" + ("-tiny" if args.size == "tiny" else "")
    work = OUT / "inputs" / tag
    work.mkdir(parents=True, exist_ok=True)
    try:
        workloads.WORKLOADS[args.workload].generate(args.seed, args.size, work)
        res, setups = measure(args, work, deadline)
    finally:
        shutil.rmtree(work)  # the seed reproduces the inputs

    attempted = res["ops"]
    failed = res["failed"]
    problems = res["problems"] + res.get("trace_problems", [])
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if args.trace:
        metrics = res["per_layer"]
    else:
        values = {key: res[key] for key in ("latency_ms_p50", "latency_ms_p90", "ops_per_s",
                                            "peak_rss_mib")}
        values["setup_s"] = statistics.median(setups)
        values["ok_op_share"] = 1.0 - failed / attempted
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    summary = {"correct": not problems, "attempted": attempted, "failed": failed,
               "metrics": metrics}
    record = dict(summary, workload=args.workload, seed=args.seed, size=args.size,
                  seconds=args.seconds, trace=args.trace, ops=res["ops"],
                  checked_ops=res["checked"], setup_s_trials=setups, problems=problems,
                  latencies_ms=res["latencies_ms"],
                  env=dict(res["env"], nproc=os.cpu_count(),
                           cpus_allowed=cpus_allowed, pinned_cpu=cpu,
                           blas_threads_requested=int(BLAS_THREADS),
                           python=platform.python_version(), git_commit=git_commit()),
                  run_s=time.monotonic() - start)
    results = OUT / f"{tag}-{'trace-' if args.trace else ''}results.json"
    results.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
