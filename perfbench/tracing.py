"""Spans around calls into each pdlab layer, recorded from the benchmark's side.

``Tracer.install`` replaces each listed public function with a timing wrapper,
both in the module that defines it and under every name another pdlab module
imported it by (``pdlab.cli.build_logz``, ``pdlab.splitmerge.cached_logz``,
the package namespace, ...).  Spans stay in memory; ``layer_metrics`` turns
them into self times and counts, and ``write`` saves them when the run ends.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path


def _one(args, kwargs, result):
    return 1


def _rows(args, kwargs, result):
    return int(result.shape[0])


def _size(args, kwargs, result):
    return int(result.size)


def _cells(args, kwargs, result):
    return int(result.logz.size)


def _events(args, kwargs, result):
    return result[-1].merges + result[-1].splits if result else 0


def _saved_bytes(args, kwargs, result):
    table = args[0] if args else kwargs["table"]
    return int(table.logz.nbytes)


def _loaded_bytes(args, kwargs, result):
    return int(result.logz.nbytes) if result is not None else 0


def _cli_output_bytes(args, kwargs, result):
    """Bytes of the result files in the command's --out directory (not the log Z cache)."""
    argv = list(args[0] if args else kwargs.get("argv") or [])
    out = Path(argv[argv.index("--out") + 1]) if "--out" in argv else Path(".")
    if not out.is_dir():
        return 0
    return sum(p.stat().st_size for p in out.iterdir() if p.is_file() and not p.name.startswith("logz_"))


def _simulate_span(parent: str | None, result) -> str:
    # the long trajectory runs through `pdlab splitmerge`; library calls are the replicas
    return "splitmerge.trajectory" if parent == "cli" else "splitmerge.replicas"


def _defect_span(parent: str | None, result) -> str:
    return f"splitmerge.defect_{result.mode}"


# (module, public name, span name or name from (parent span name, result),
#  count from (args, kwargs, result))
SPANS = [
    *(("pdlab.weights", fn, "weights", None) for fn in (
        "log_weight_row", "log_weight", "limit_weight_row", "log_limit_weight",
        "limit_support", "weight_sup_distance", "assumption_report",
    )),
    ("pdlab.ensembles", "build_logz", "ensembles.build_logz", _cells),
    ("pdlab.ensembles", "cached_logz", "ensembles.cached_logz", None),
    *(("pdlab.ensembles", fn, "ensembles.marginals", None) for fn in (
        "single_site_marginals", "single_site_marginal", "size_biased_marginals",
        "size_biased_marginal", "pair_zero_probability", "zratio_diagnostic",
    )),
    *(("pdlab.ensembles", fn, "ensembles.tilted", None) for fn in (
        "grand_canonical_stats", "GrandCanonical.pmf", "invert_density", "phi_sequence", "critical_density",
    )),
    *(("pdlab.ensembles", fn, "ensembles.eoe", None) for fn in (
        "relative_entropy_bound", "tv_distance_marginal", "local_clt_report",
    )),
    ("pdlab.ensembles", "save_logz_cache", "ensembles.cache_io", _saved_bytes),
    ("pdlab.ensembles", "load_logz_cache", "ensembles.cache_io", _loaded_bytes),
    ("pdlab.sampler", "sample_configurations", "sampler.batch", _rows),
    ("pdlab.sampler", "sample_configuration", "sampler.scalar", _one),
    ("pdlab.sampler", "sample_size_biased_block", "sampler.size_biased", _one),
    ("pdlab.sampler", "sample_size_biased_blocks", "sampler.size_biased", _size),
    ("pdlab.sampler", "to_partition", "sampler.to_partition", None),
    ("pdlab.sampler", "zero_fraction_stats", "sampler.stats", None),
    ("pdlab.partitions", "stick_breaking", "partitions.stick_breaking", _one),
    ("pdlab.partitions", "stick_breaking_batch", "partitions.stick_breaking", lambda a, k, r: int(r[0].shape[0])),
    *(("pdlab.partitions", fn, "partitions.size_biased", None) for fn in (
        "size_biased", "positive_size_biased", "positive_size_biased_first_batch",
    )),
    *(("pdlab.partitions", fn, "partitions.other", None) for fn in ("norms", "pd_moment_targets", "pd_degenerate")),
    ("pdlab.splitmerge", "simulate", _simulate_span, _events),
    ("pdlab.splitmerge", "time_averaged_l2", "splitmerge.replicas", lambda a, k, r: r[1].merges + r[1].splits),
    ("pdlab.splitmerge", "reversibility_defect", _defect_span, lambda a, k, r: r.n),
    *(("pdlab.splitmerge", fn, "splitmerge.other", None) for fn in (
        "generator_apply", "cutoff_generator_apply", "discrete_generator_apply", "merge", "split",
        "lift_merge", "lift_split", "lift_split_append", "rn_derivative_check",
    )),
    *(("pdlab.diagnostics", fn, "diagnostics", None) for fn in (
        "condensed_fraction", "alpha_from_second_moment", "strictly_decreasing", "trend_report",
        "pd_gof", "variance_one_norm", "scaled_beta_cdf",
    )),
    ("pdlab.cli", "main", "cli", _cli_output_bytes),
]


class Tracer:
    """In-memory spans: [name, parent index, start, end, count]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, fn, name, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name if isinstance(name, str) else "unnamed", parent, 0.0, 0.0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if not isinstance(name, str):
                span[0] = name(spans[parent][0] if parent >= 0 else None, result)
            if count is not None:
                span[4] = count(args, kwargs, result)
            return result

        return traced

    def install(self, modules) -> None:
        """Wrap every function in SPANS wherever a pdlab module holds it."""
        for module_name, attr, name, count in SPANS:
            owner = importlib.import_module(module_name)
            if "." in attr:  # a method
                cls_name, meth = attr.split(".")
                owner, attr = getattr(owner, cls_name), meth
            original = getattr(owner, attr)
            wrapped = self.wrap(original, name, count)
            self._patch(owner, attr, wrapped)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped)

    def _patch(self, obj, attr, value) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()

    def by_name(self) -> dict[str, dict]:
        """Per span name: calls, summed count, self time."""
        covered = defaultdict(float)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        agg: dict[str, dict] = defaultdict(lambda: {"calls": 0, "count": 0, "self_s": 0.0})
        for i, (name, _, start, end, count) in enumerate(self.spans):
            entry = agg[name]
            entry["calls"] += 1
            entry["count"] += count
            entry["self_s"] += (end - start) - covered[i]
        return agg

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for name, parent, start, end, count in self.spans:
                fh.write(json.dumps({"name": name, "parent": parent, "start": start, "end": end, "count": count}))
                fh.write("\n")


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(agg: dict, cache_hits: int, cache_misses: int) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json from aggregated spans."""
    get = lambda name: agg.get(name, {"calls": 0, "count": 0, "self_s": 0.0})
    m: dict[str, float] = {}
    m["weights.calls"] = get("weights")["calls"]
    m["weights.self_s"] = get("weights")["self_s"]
    b = get("ensembles.build_logz")
    m["ensembles.build_logz.cells"] = b["count"]
    m["ensembles.build_logz.self_s"] = b["self_s"]
    m["ensembles.build_logz.cells_per_s"] = _rate(b["count"], b["self_s"])
    m["ensembles.cached_logz.hits"] = cache_hits
    m["ensembles.cached_logz.misses"] = cache_misses
    for layer in ("marginals", "tilted", "eoe"):
        m[f"ensembles.{layer}.self_s"] = get(f"ensembles.{layer}")["self_s"]
    io = get("ensembles.cache_io")
    m["ensembles.cache_io.self_s"] = io["self_s"]
    m["ensembles.cache_io.bytes"] = io["count"]
    for layer in ("batch", "scalar"):
        s = get(f"sampler.{layer}")
        m[f"sampler.{layer}.draws"] = s["count"]
        m[f"sampler.{layer}.self_s"] = s["self_s"]
        m[f"sampler.{layer}.draws_per_s"] = _rate(s["count"], s["self_s"])
    m["sampler.size_biased.draws"] = get("sampler.size_biased")["count"]
    m["sampler.size_biased.self_s"] = get("sampler.size_biased")["self_s"]
    m["sampler.to_partition.calls"] = get("sampler.to_partition")["calls"]
    m["sampler.to_partition.self_s"] = get("sampler.to_partition")["self_s"]
    sb = get("partitions.stick_breaking")
    m["partitions.stick_breaking.rows"] = sb["count"]
    m["partitions.stick_breaking.self_s"] = sb["self_s"]
    m["partitions.stick_breaking.rows_per_s"] = _rate(sb["count"], sb["self_s"])
    m["partitions.size_biased.calls"] = get("partitions.size_biased")["calls"]
    m["partitions.size_biased.self_s"] = get("partitions.size_biased")["self_s"]
    for layer, unit in (("replicas", "events"), ("trajectory", "events"), ("defect_mc", "samples"), ("defect_exact", "states")):
        s = get(f"splitmerge.{layer}")
        m[f"splitmerge.{layer}.{unit}"] = s["count"]
        m[f"splitmerge.{layer}.self_s"] = s["self_s"]
        m[f"splitmerge.{layer}.{unit}_per_s"] = _rate(s["count"], s["self_s"])
    m["diagnostics.calls"] = get("diagnostics")["calls"]
    m["diagnostics.self_s"] = get("diagnostics")["self_s"]
    c = get("cli")
    m["cli.commands"] = c["calls"]
    m["cli.self_s"] = c["self_s"]
    m["cli.output_bytes"] = c["count"]
    return m
