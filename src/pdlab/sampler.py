"""Exact sampling of canonical configurations and size-biased blocks.

Configurations are drawn by sequential conditional sampling: with m sites and
mass r left, the next occupation follows w(n) Z_{m-1, r-n} / Z_{m, r}, which
reproduces the canonical law exactly at every density (no rejection step that
could collapse deep in the condensed regime).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .ensembles import LogZTable, _check_cell, pair_zero_probability, single_site_marginals
from .partitions import OrderedPartition
from .report import DiagnosticsReport
from .weights import log_limit_weight


@dataclass(eq=False)
class SeededRng:
    """Reproducible random stream: NumPy PCG64 keyed by (seed, stream).

    Identical (seed, stream) pairs replay identical draws bit for bit;
    distinct stream ids are independent and safe to run in parallel.
    """

    seed: int
    stream: int = 0
    _gen: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream,))
        self._gen = np.random.Generator(np.random.PCG64(ss))

    @property
    def generator(self) -> np.random.Generator:
        return self._gen


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, SeededRng):
        return rng.generator
    raise TypeError(f"cannot interpret {type(rng).__name__} as a random generator")


@dataclass(frozen=True, eq=False)
class Configuration:
    """Occupation numbers of L sites with conserved total N."""

    occupations: np.ndarray

    def __post_init__(self):
        occ = np.asarray(self.occupations, dtype=np.int64)
        if occ.ndim != 1 or occ.size < 1:
            raise ValueError("a configuration needs at least one site")
        if (occ < 0).any():
            raise ValueError("occupations must be nonnegative")
        occ.setflags(write=False)
        object.__setattr__(self, "occupations", occ)
        object.__setattr__(self, "_total", int(occ.sum()))

    @property
    def L(self) -> int:
        return int(self.occupations.size)

    @property
    def N(self) -> int:
        return self._total

    def zero_count(self) -> int:
        return int((self.occupations == 0).sum())


def _conditional_cum(table: LogZTable, m: int, r: int) -> np.ndarray:
    """Cumulative conditional law of one site given m sites and mass r remain.

    Rows are memoized on the table; entries are immutable once stored, so
    concurrent read-mostly access is safe (a redundant recompute at worst).
    """
    key = (m, r)
    cum = table._cum_cache.get(key)
    if cum is None:
        logp = table.log_w[: r + 1] + table.logz[m - 1, r::-1] - table.logz[m, r]
        cum = np.cumsum(np.exp(logp))
        cum.setflags(write=False)
        table._cum_cache[key] = cum
    return cum


def sample_configuration(table: LogZTable, L: int, N: int, rng) -> Configuration:
    """One exact draw from the canonical law at (L, N)."""
    _check_cell(table, L, N)
    g = _as_generator(rng)
    occ = np.zeros(L, dtype=np.int64)
    r = N
    for x in range(L - 1):
        m = L - x
        cum = _conditional_cum(table, m, r)
        n = int(np.searchsorted(cum, g.random() * cum[-1], side="right"))
        n = min(n, r)
        occ[x] = n
        r -= n
    occ[L - 1] = r
    cfg = Configuration(occ)
    assert cfg.N == N
    return cfg


def sample_configurations(table: LogZTable, L: int, N: int, count: int, rng) -> np.ndarray:
    """Vectorised draws: (count, L) array of exact canonical configurations.

    The conditional rows are recomputed per (site, remaining-mass) group
    rather than memoized, which keeps memory flat for large batches.
    """
    _check_cell(table, L, N)
    g = _as_generator(rng)
    occ = np.zeros((count, L), dtype=np.int64)
    remaining = np.full(count, N, dtype=np.int64)
    logz, logw = table.logz, table.log_w
    for x in range(L - 1):
        m = L - x
        us = g.random(count)
        order = np.argsort(remaining, kind="stable")
        rs = remaining[order]
        uniq, starts = np.unique(rs, return_index=True)
        bounds = np.append(starts, count)
        for i, r in enumerate(uniq):
            lanes = order[bounds[i] : bounds[i + 1]]
            r = int(r)
            if r == 0:
                continue
            logp = logw[: r + 1] + logz[m - 1, r::-1] - logz[m, r]
            cum = np.cumsum(np.exp(logp))
            ns = np.searchsorted(cum, us[lanes] * cum[-1], side="right")
            ns = np.minimum(ns, r)
            occ[lanes, x] = ns
            remaining[lanes] -= ns
    occ[:, L - 1] = remaining
    assert (occ.sum(axis=1) == N).all()
    return occ


def _size_biased_cum(table: LogZTable, L: int, N: int) -> np.ndarray:
    key = ("size_biased", L, N)
    cum = table._cum_cache.get(key)
    if cum is None:
        probs = single_site_marginals(table, L, N)
        n = np.arange(N + 1, dtype=float)
        cum = np.cumsum((L / N) * n * probs)
        cum.setflags(write=False)
        table._cum_cache[key] = cum
    return cum


def sample_size_biased_block(table: LogZTable, L: int, N: int, rng) -> int:
    """Exact draw of the occupation at the site of a uniformly chosen particle."""
    if N < 1:
        raise ValueError("size-biased sampling needs N >= 1")
    _check_cell(table, L, N)
    g = _as_generator(rng)
    cum = _size_biased_cum(table, L, N)
    n = int(np.searchsorted(cum, g.random() * cum[-1], side="right"))
    return max(1, min(n, N))


def sample_size_biased_blocks(table: LogZTable, L: int, N: int, count: int, rng) -> np.ndarray:
    if N < 1:
        raise ValueError("size-biased sampling needs N >= 1")
    _check_cell(table, L, N)
    g = _as_generator(rng)
    cum = _size_biased_cum(table, L, N)
    ns = np.searchsorted(cum, g.random(count) * cum[-1], side="right")
    return np.clip(ns, 1, N).astype(np.int64)


def to_partition(eta: Configuration) -> OrderedPartition:
    """Rescale a configuration to the ordered partition of its mass."""
    n_total = eta.N
    if n_total == 0:
        warnings.warn("empty configuration maps to the empty partition", stacklevel=2)
        return OrderedPartition.from_masses([])
    desc = np.sort(eta.occupations)[::-1]
    desc = desc[desc > 0]
    return OrderedPartition(tuple((desc / n_total).tolist()))


def zero_fraction_stats(table: LogZTable, L: int, N: int) -> DiagnosticsReport:
    """Exact mean and variance of the empty-site fraction under the canonical law."""
    if L < 2:
        raise ValueError("zero-fraction statistics need L >= 2")
    p0 = single_site_marginals(table, L, N)[0]
    p00 = pair_zero_probability(table, L, N)
    mean = float(p0)
    var = mean / L + (1.0 - 1.0 / L) * p00 - mean * mean
    w0 = float(np.exp(log_limit_weight(table.family, 0)))
    report = DiagnosticsReport(
        name="zero_fraction",
        params={"family": table.family.to_json_dict(), "L": L, "N": N},
    )
    report.add("mean", mean)
    report.add("variance", max(var, 0.0))
    report.add("abs_dev_from_limit", abs(mean - w0))
    return report
