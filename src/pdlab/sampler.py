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
from numpy.lib.stride_tricks import as_strided

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
    _check_draws(table, occ, N)
    return Configuration(occ)


def sample_configurations(table: LogZTable, L: int, N: int, count: int, rng) -> np.ndarray:
    """Vectorised draws: (count, L) array of exact canonical configurations.

    At each site one conditional-CDF matrix is built over the remainders r
    present, columns n = 0..max r, with the cells n > r at zero mass, so a
    row's cumulative sum equals the per-remainder one bit for bit.  Every lane
    then takes the first n whose cumulative mass passes its uniform times the
    row total, clamped to r, by a binary search over all lanes at once.
    Memory is that matrix, never a (count, N + 1) array.
    """
    _check_cell(table, L, N)
    g = _as_generator(rng)
    occ = np.zeros((count, L), dtype=np.int64)
    remaining = np.full(count, N, dtype=np.int64)
    logz, logw = table.logz, table.log_w
    for x in range(L - 1):
        m = L - x
        us = g.random(count)
        top = int(remaining.max())
        if top == 0:
            continue
        width = top + 1
        present = np.flatnonzero(np.bincount(remaining))
        present = present[present > 0]
        # lanes with r = 0 search row 0; the clamp to r below keeps them at 0
        row_of = np.zeros(width, dtype=np.int64)
        row_of[present] = np.arange(present.size)
        # window top - r of the reversed row holds log Z_{m-1, r-n} for n <= r, then -inf;
        # every window lies inside rest.  The fancy index copies the windows into one
        # matrix and the cells are formed in place; addition commutes exactly, so each
        # is (log w + log Z) - log Z bit for bit
        rest = np.concatenate([logz[m - 1, top::-1], np.full(top, -np.inf)])
        logp = as_strided(rest, (width, width), rest.strides * 2)[top - present]
        logp += logw[:width]
        logp -= logz[m, present][:, None]
        cum = np.cumsum(np.exp(logp, out=logp), axis=1, out=logp).ravel()
        start = row_of[remaining] * width
        targets = us * cum[start + remaining]
        # branch-free binary search for the first n with cum[n] > target: each
        # probe stays inside the lane's row, where the cells past r repeat cum[r]
        pos, size = start, width
        while size > 1:
            half = size // 2
            probe = pos + half
            pos = np.where(cum[probe] <= targets, probe, pos)
            size -= half
        ns = np.minimum(pos - start + (cum[pos] <= targets), remaining)
        occ[:, x] = ns
        remaining -= ns
    occ[:, L - 1] = remaining
    _check_draws(table, occ, N)
    return occ


def _check_draws(table: LogZTable, occ: np.ndarray, N: int) -> None:
    """Refuse draws whose rows miss N or hold a zero-weight occupation.

    The last site takes whatever mass is left, so a grid that disagrees with
    its weight row (corrupt, or off by rounding) can hand it an impossible
    occupation.  An explicit check, unlike an assert, also runs under -O.
    """
    zero_weight = np.isneginf(table.log_w[: N + 1])
    if (occ.sum(axis=-1) != N).any() or (zero_weight.any() and zero_weight[occ].any()):
        raise FloatingPointError(
            f"a draw at N = {N} misses the total or holds a zero-weight occupation; "
            "the log Z grid disagrees with its weight row"
        )


def sample_size_biased_block(table: LogZTable, L: int, N: int, rng) -> int:
    """Exact draw of the occupation at the site of a uniformly chosen particle."""
    return int(sample_size_biased_blocks(table, L, N, 1, rng)[0])


def sample_size_biased_blocks(table: LogZTable, L: int, N: int, count: int, rng) -> np.ndarray:
    cum = np.cumsum(size_biased_marginals(table, L, N))
    ns = np.searchsorted(cum, _as_generator(rng).random(count) * cum[-1], side="right")
    return np.clip(ns, 1, N).astype(np.int64)


def to_partition(eta: Configuration) -> OrderedPartition:
    """Rescale a configuration to the ordered partition of its mass."""
    if eta.N == 0:
        warnings.warn("empty configuration maps to the empty partition", stacklevel=2)
        return OrderedPartition.from_masses([])
    return OrderedPartition(tuple(partition_masses(eta.occupations[None, :])[0]))


def partition_masses(occ: np.ndarray) -> list[list[float]]:
    """Descending positive masses of each row of a (count, L) array over its row total.

    A row of total zero gives an empty list.
    """
    desc = np.sort(occ, axis=1)[:, ::-1]
    sizes = (desc > 0).sum(axis=1)
    desc = desc[:, : sizes.max()]
    masses = (desc / np.maximum(desc.sum(axis=1, keepdims=True), 1)).tolist()
    return [row[:k] for row, k in zip(masses, sizes.tolist())]


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
