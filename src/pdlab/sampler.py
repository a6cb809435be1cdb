"""Exact sampling of canonical configurations and size-biased blocks.

Configurations are drawn by sequential conditional sampling: with m sites and
mass r left, the next occupation follows w(n) Z_{m-1, r-n} / Z_{m, r}, which
reproduces the canonical law exactly at every density (no rejection step that
could collapse deep in the condensed regime).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .ensembles import (
    LogZTable,
    _check_cell,
    pair_zero_probability,
    single_site_marginals,
    size_biased_marginals,
)
from .partitions import OrderedPartition, _as_generator
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


def sample_configuration(table: LogZTable, L: int, N: int, rng) -> Configuration:
    """One exact draw from the canonical law at (L, N).

    Each site inverts its conditional law by sequential search: it adds up
    p(n) = w(n) Z_{m-1, r-n} / Z_{m, r} for n = 0, 1, ... and stops at the
    first n whose running sum passes the site's uniform, so a draw reads
    N + L terms in all.  When rounding leaves the sum just short of the
    uniform, the largest n with p(n) > 0 is taken, never a zero-weight one.
    """
    _check_cell(table, L, N)
    g = _as_generator(rng)
    logz, log_w = table.logz, table.log_w[: N + 1].tolist()
    occ = np.zeros(L, dtype=np.int64)
    r = N
    for x in range(L - 1):
        m = L - x
        u = g.random()
        rest, top = logz[m - 1], logz.item(m, r)
        acc, n = 0.0, 0
        for k in range(r + 1):
            p = math.exp(log_w[k] + rest.item(r - k) - top)
            if p > 0.0:
                n = k
            acc += p
            if acc > u:
                break
        occ[x] = n
        r -= n
    occ[L - 1] = r
    return Configuration(occ)


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


def sample_size_biased_block(table: LogZTable, L: int, N: int, rng) -> int:
    """Exact draw of the occupation at the site of a uniformly chosen particle."""
    return int(sample_size_biased_blocks(table, L, N, 1, rng)[0])


def sample_size_biased_blocks(table: LogZTable, L: int, N: int, count: int, rng) -> np.ndarray:
    cum = np.cumsum(size_biased_marginals(table, L, N))
    ns = np.searchsorted(cum, _as_generator(rng).random(count) * cum[-1], side="right")
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
