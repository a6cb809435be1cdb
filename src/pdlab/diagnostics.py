"""Estimators and trend checks tying exact quantities and samples to limit laws."""

from __future__ import annotations

import math
import warnings

import numpy as np

from .ensembles import LogZTable, single_site_marginals, size_biased_marginals
from .partitions import (
    OrderedPartition,
    _as_generator,
    norms,
    pd_moment_targets,
    positive_size_biased,
)
from .report import DiagnosticsReport
from .weights import LATTICE_TOL


def condensed_fraction(table: LogZTable, L: int, N: int, eps: float) -> float:
    """Exact probability that a size-biased block exceeds eps N particles."""
    if not eps >= 0.0:
        raise ValueError("eps must be >= 0")
    if eps >= 1.0:
        return 0.0
    if eps * N < 1.0:
        warnings.warn(
            "eps * N < 1: every occupied block counts as macroscopic", stacklevel=2
        )
    sb = size_biased_marginals(table, L, N)
    n_min = int(math.floor(eps * N + LATTICE_TOL)) + 1
    return float(sb[n_min:].sum())


def alpha_from_second_moment(table: LogZTable, L: int, N: int, theta: float) -> float:
    """Macroscopic mass fraction estimated from the exact single-site second moment.

    alpha^2 = (1 + theta) / rho * E[eta_x^2] / N with rho = N / L; at L = 1
    this degenerates to sqrt(1 + theta) and is a finite-size artifact.
    """
    if not 0 < theta < math.inf:
        raise ValueError("theta must be positive and finite")
    probs = single_site_marginals(table, L, N)
    n = np.arange(N + 1, dtype=float)
    second = float(np.dot(n * n, probs))
    return math.sqrt((1.0 + theta) * (L / N) * (second / N))


def strictly_decreasing(values) -> bool:
    vals = list(values)
    return all(b < a for a, b in zip(vals, vals[1:]))


def trend_report(name: str, sizes, values, params: dict | None = None) -> DiagnosticsReport:
    """Monotone-decrease verdict over at least three sizes; anything else FAILs."""
    sizes = list(sizes)
    values = [float(v) for v in values]
    if len(sizes) != len(values):
        raise ValueError("sizes and values must align")
    report = DiagnosticsReport(name=name, params=dict(params or {}))
    for s, v in zip(sizes, values):
        report.add(f"size={s}", v)
    verdict = 1.0 if len(values) >= 3 and strictly_decreasing(values) else 0.0
    report.add("trend_strictly_decreasing", verdict)
    if verdict == 0.0:
        report.params["trend"] = "FAIL"
    else:
        report.params["trend"] = "PASS"
    return report


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    mean = float(values.mean())
    if values.size < 2:
        return mean, math.inf
    return mean, float(values.std(ddof=1) / math.sqrt(values.size))


def scaled_beta_cdf(theta: float, alpha: float):
    """CDF of the first stick length on [0, alpha]: F(x) = 1 - (1 - x/alpha)^theta."""

    def cdf(x):
        z = np.clip(np.asarray(x, dtype=float) / alpha, 0.0, 1.0)
        return 1.0 - (1.0 - z) ** theta

    return cdf


def pd_gof(
    samples: list[OrderedPartition], theta: float, alpha: float, rng
) -> DiagnosticsReport:
    """Goodness-of-fit of sampled partitions against stationary targets.

    Compares Monte Carlo means of ``norms(p, 2)`` and ``norms(p, 3)`` with
    ``pd_moment_targets``, alpha^2/(1+theta) and 2 alpha^3/((1+theta)(2+theta)),
    and reports the Kolmogorov-Smirnov distance of positive size-biased first
    components to the scaled Beta(1, theta) law.
    """
    if not samples:
        raise ValueError("need at least one sampled partition")
    g = _as_generator(rng)
    l2 = np.array([norms(p, 2) for p in samples])
    l3 = np.array([norms(p, 3) for p in samples])
    firsts = np.sort(
        [positive_size_biased(p, 1, g).values[0] for p in samples if p.total > 0]
    )
    n = firsts.size  # one-sample Kolmogorov-Smirnov statistic: the ECDF's largest gap from F
    cdf, i = scaled_beta_cdf(theta, alpha)(firsts), np.arange(1.0, n + 1)
    ks_stat = float(max(np.max(i / n - cdf), np.max(cdf - (i - 1) / n))) if n else math.nan

    report = DiagnosticsReport(
        name="pd_gof",
        params={"theta": theta, "alpha": alpha, "n_samples": len(samples)},
    )
    m2, se2 = _mean_se(l2)
    m3, se3 = _mean_se(l3)
    report.add("l2sq_mean", m2, se2)
    report.add("l2sq_target", pd_moment_targets(theta, alpha, 2))
    report.add("l3cube_mean", m3, se3)
    report.add("l3cube_target", pd_moment_targets(theta, alpha, 3))
    report.add("ks_stat", ks_stat)
    report.add("ks_n", float(n))
    return report


def variance_one_norm(
    samples: list[OrderedPartition], eps: float = 0.05
) -> tuple[float, float]:
    """(variance of the mass above eps, variance of the full mass) across samples.

    The full mass has zero variance for canonical partitions (every sample
    carries total 1); the macroscopic restriction is the quantity whose
    concentration the limit theory predicts.
    """
    if not samples:
        raise ValueError("need at least one sampled partition")
    macro = np.array(
        [float(arr[arr > eps].sum()) for arr in (p.as_array() for p in samples)]
    )
    full = np.array([p.total for p in samples])
    var = lambda x: float(x.var(ddof=1)) if x.size > 1 else 0.0
    return var(macro), var(full)
