"""One benchmark process: import pdlab, set up a workload, time whole rounds of
its job, check the outputs of the last round, print one JSON line.

Started by ``run.py`` from the root of a source checkout; pdlab is imported
from ``src/`` there.  ``--setup-only`` stops after set-up, for the extra
set-up samples.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path


def parse_args(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True, help="time.monotonic() when started")
    parser.add_argument("--work", required=True, help="scratch directory of this process")
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def memo_caches(modules) -> list:
    """The functools caches held at module level in pdlab."""
    found = {}
    for mod in modules:
        for value in vars(mod).values():
            if hasattr(value, "cache_clear") and hasattr(value, "cache_info"):
                found[id(value)] = value
    return list(found.values())


def run_round(wl, caches) -> tuple[list[float], int]:
    """One round from empty memo caches, as in a fresh process; returns (seconds per operation, failed)."""
    for cache in caches:
        cache.cache_clear()
    wl.begin_round()
    failed = 0
    times = []
    for label, op in wl.operations():
        start = time.perf_counter()
        try:
            op()
        except Exception:  # keep going: the failure is counted and the checks report missing outputs
            failed += 1
            print(f"operation {label!r} failed:", file=sys.stderr)
            traceback.print_exc()
        times.append(time.perf_counter() - start)
    return times, failed


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    start = time.perf_counter()
    import pdlab
    import pdlab.cli

    import_s = time.perf_counter() - start
    if not Path(pdlab.__file__).resolve().is_relative_to((root / "src").resolve()):
        print(f"pdlab was imported from {pdlab.__file__}, not from {root / 'src'}", file=sys.stderr)
        return 2

    import workloads

    work = Path(args.work)
    work.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, work)
        wl.setup()
        setup_s = time.monotonic() - args.spawned_at
        result = {"setup_s": setup_s, "import_s": import_s}
        if not args.setup_only:
            result.update(measure(args, wl, work))
        print(json.dumps(result))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


def measure(args, wl, work: Path) -> dict:
    modules = [m for name, m in sys.modules.items() if name == "pdlab" or name.startswith("pdlab.")]
    caches = memo_caches(modules)
    cached_logz = sys.modules["pdlab.ensembles"].cached_logz

    rounds, ops_s, failed = [], [], 0
    first_rss_growth = None
    start = time.perf_counter()
    while True:
        times, bad = run_round(wl, caches)
        ops_s.append(times)
        rounds.append(sum(times))
        failed += bad
        if first_rss_growth is None:
            first_rss_growth = wl.out.get("rss growth mb", 0.0)
        if time.perf_counter() - start + statistics.median(rounds) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ops = len(wl.operations())
    out = {
        "job_s": statistics.median(rounds),
        "rounds_s": rounds,
        "ops_s": ops_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": ops * len(rounds),
        "failed": failed,
    }

    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install(modules)
        times, bad = run_round(wl, caches)
        seconds = sum(times)
        tracer.uninstall()
        info = cached_logz.cache_info()
        layers = tracing.layer_metrics(tracer.by_name(), info.hits, info.misses)
        layers["sampler.scalar.rss_growth_mb"] = first_rss_growth
        layers["trace.job_s"] = seconds
        layers["trace.overhead_s"] = seconds - out["job_s"]
        out["layers"] = layers
        out["attempted"] += ops
        out["failed"] += bad
        tracer.write(work.parent / f"trace-{args.workload}-seed{args.seed}.jsonl")

    try:
        out["failures"] = wl.check()
    except Exception as exc:  # a missing or malformed output is a failed check, not a crash
        traceback.print_exc()
        out["failures"] = [f"checks raised {exc!r}"]
    return out


if __name__ == "__main__":
    sys.exit(main())
