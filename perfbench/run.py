"""pdlab benchmark entry point.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 30 --trace 0

Run from the root of a pdlab source checkout.  Each workload runs in fresh
interpreters (``worker.py``), one at a time, with BLAS/OpenMP pools capped at
the CPU count.  With ``--trace 0`` the last line of standard output holds the
end-to-end metrics of BENCHMARK.json (set-up time, job time, peak RSS); with
``--trace 1`` it holds the per-layer metrics from one extra traced round.  The
exit code is 0 only when every check on the outputs passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("exact", "sampling")
SETUP_SAMPLES = 3  # set-up is timed in this many fresh interpreters; the median is reported
DEADLINE_S = 170.0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="time spent on whole rounds of the job")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def worker_env() -> dict:
    env = dict(os.environ)
    cpus = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = cpus
    return env


def run_worker(args, work: Path, deadline: float, setup_only: bool) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--work", str(work),
    ]
    if setup_only:
        cmd.append("--setup-only")
    spawned_at = time.monotonic()
    proc = subprocess.run(
        cmd + ["--spawned-at", repr(spawned_at)],
        stdout=subprocess.PIPE, text=True, env=worker_env(),
        timeout=max(1.0, deadline - time.monotonic()),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def declared_metrics() -> dict[str, list[dict]]:
    with open("BENCHMARK.json") as fh:
        doc = json.load(fh)
    return {"end_to_end": doc["end_to_end"], "per_layer": doc["per_layer"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not Path("src/pdlab/__init__.py").is_file():
        print("run.py: no src/pdlab here; run it from the root of a pdlab checkout", file=sys.stderr)
        return 2
    declared = declared_metrics()
    work_root = HERE / "_work"
    work_root.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"

    setups = []
    try:
        if not args.trace:
            for i in range(SETUP_SAMPLES - 1):
                setups.append(run_worker(args, work_root / f"{tag}-setup{i}", deadline, True)["setup_s"])
        main_run = run_worker(args, work_root / tag, deadline, False)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"run.py: {args.workload} seed {args.seed}: {exc}", file=sys.stderr)
        return 1
    setups.append(main_run["setup_s"])

    if args.trace:
        values = dict(main_run["layers"], **{"import.pdlab_s": main_run["import_s"]})
        spec = declared["per_layer"]
    else:
        values = {"setup_s": statistics.median(setups), "job_s": main_run["job_s"], "peak_rss_mb": main_run["peak_rss_mb"]}
        spec = declared["end_to_end"]
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        print(f"run.py: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}

    for failure in main_run["failures"]:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    correct = not main_run["failures"]
    result = {"correct": correct, "attempted": main_run["attempted"], "failed": main_run["failed"], "metrics": metrics}
    detail = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  setup_samples_s=setups, rounds_s=main_run["rounds_s"], ops_s=main_run["ops_s"])
    with open(work_root / "results.jsonl", "a") as fh:
        fh.write(json.dumps(detail) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
