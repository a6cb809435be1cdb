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

HEAD = 3  # cumulative cells per remainder that every lane of a batch compares first
_PAST_R = np.arange(HEAD)[:, None] >= np.arange(HEAD)  # head cell n of remainder r < HEAD with n >= r
_SITE_BLOCK = 8  # sites of a batch held row-wise before one strided write


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
        if occ.min() < 0:
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
    first n whose running sum passes the site's uniform.  So a site that
    takes 0 reads one term, a site that takes n >= 1 reads n + 1, and once
    the mass runs out (r = 0) every later site holds 0 and reads none.  The
    term n = 0 is tested before the scan, which gives the same bits as
    adding it to 0.0.  The L - 1 uniforms come from one call, the same
    doubles as one call per site, and all of them are drawn even when the
    mass runs out early.  When rounding leaves the sum at or below the
    uniform, the walk steps back from r to the largest n with p(n) > 0,
    never a zero-weight one.  The grid is read through a flat memoryview,
    which indexes faster than the array and yields the same doubles, at one
    index that moves by -(width + n) from site to site.
    """
    _check_cell(table, L, N)
    g = _as_generator(rng)
    logz = np.ascontiguousarray(table.logz)
    flat, width = memoryview(logz).cast("B").cast("d"), logz.shape[1]
    log_w = table.log_w[: N + 1].tolist()
    log_w0 = log_w[0]
    occ = [0] * L
    r, at = N, L * width + N  # flat[at] is log Z_{m, r}
    for x, u in enumerate(g.random(L - 1).tolist()):
        if not r:
            break
        top = flat[at]
        at -= width  # term n reads log Z_{m-1, r-n} at flat[at - n]
        acc = math.exp(log_w0 + flat[at] - top)
        if acc > u:
            continue
        for n in range(1, r + 1):
            acc += math.exp(log_w[n] + flat[at - n] - top)
            if acc > u:
                break
        else:
            while n > 0 and not math.exp(log_w[n] + flat[at - n] - top) > 0.0:
                n -= 1
        occ[x] = n
        r -= n
        at -= n
    occ[L - 1] = r
    occ = np.fromiter(occ, np.int64, L)
    _check_draws(table, occ, N)
    return Configuration(occ)


def sample_configurations(table: LogZTable, L: int, N: int, count: int, rng) -> np.ndarray:
    """Vectorised draws: (count, L) array of exact canonical configurations.

    At each site one conditional-CDF matrix is built over the remainders r
    present, columns n = 0..max r, with the cells n > r at zero mass, so a
    row's cumulative sum equals the per-remainder one bit for bit.  Every lane
    takes the first n whose cumulative mass passes its uniform times the row
    total, clamped to r.  Most lanes settle on short arrays indexed by r: the
    row totals and the first ``HEAD`` cumulative cells, with the cells n >= r
    set to +inf, so a lane counts the cells n < r at or below its target and
    needs no clamp.  Three cells, because a positive fraction of sites hold a
    small occupation under the canonical law (the paper's lemma on j-occupied
    sites): at gap 200x400 and inclusion 100x200 only 2.2 and 2.9 % of the
    lanes pass all three.  Only those search the rest of their row, by a
    branch-free binary search.  The cells, the targets and the clamp, and so
    the draws, are those of a search over the whole matrix.  Memory is that
    matrix, never a (count, N + 1) array.
    """
    _check_cell(table, L, N)
    if count < 1:
        raise ValueError("count must be >= 1")
    g = _as_generator(rng)
    occ = np.zeros((count, L), dtype=np.int64)
    remaining = np.full(count, N, dtype=np.int64)
    logz, logw = table.logz, table.log_w
    # sites are written _SITE_BLOCK at a time, one strided pass over occ per block
    block = np.empty((_SITE_BLOCK, count), dtype=np.int64)
    for first in range(0, L - 1, _SITE_BLOCK):
        last = min(first + _SITE_BLOCK, L - 1)
        for x in range(first, last):
            m = L - x
            block[x - first] = ns = _site_draws(logz[m - 1], logz[m], logw, remaining, g.random(count))
            remaining -= ns
        occ[:, first:last] = block[: last - first].T
    occ[:, L - 1] = remaining
    _check_draws(table, occ, N)
    return occ


def _site_draws(
    rest: np.ndarray, row: np.ndarray, logw: np.ndarray, remaining: np.ndarray, us: np.ndarray
) -> np.ndarray:
    """Every lane's occupation at a site with m sites left: row is log Z_m, rest log Z_{m-1}."""
    counts = np.bincount(remaining)
    top = counts.size - 1
    if top == 0:
        return np.zeros_like(remaining)
    width = top + 1
    counts[0] = 0
    present = np.flatnonzero(counts)
    # window top - r of the reversed row holds log Z_{m-1, r-n} for n <= r, then -inf;
    # every window lies inside rest.  The fancy index copies the windows into one
    # matrix and the cells are formed in place; addition commutes exactly, so each
    # is (log w + log Z) - log Z bit for bit
    rest = np.concatenate([rest[top::-1], np.full(top, -np.inf)])
    logp = as_strided(rest, (width, width), rest.strides * 2)[top - present]
    logp += logw[:width]
    logp -= row[present][:, None]
    cum = np.cumsum(np.exp(logp, out=logp), axis=1, out=logp)
    # by remainder: the row total and the head cells; lanes with r = 0 read
    # +inf cells and a zero total, and so take 0
    total = np.zeros(width)
    total[present] = cum[np.arange(present.size), present]
    head = np.full((HEAD, width), np.inf)
    head[: min(HEAD, width), present] = cum[:, :HEAD].T
    head[:, :HEAD][_PAST_R[:, :width]] = np.inf
    targets = us * total[remaining]
    ns = (head[0][remaining] <= targets).astype(np.int64)
    for k in range(1, HEAD - 1):
        ns += head[k][remaining] <= targets
    # the cells rise along a row, so a lane past the last head cell is past them all
    deep = np.flatnonzero(head[HEAD - 1][remaining] <= targets)
    if deep.size:
        r, t = remaining[deep], targets[deep]
        flat = cum.ravel()
        start = (np.cumsum(counts > 0) - 1)[r] * width
        # cum[pos] <= t holds throughout; each probe stays inside the lane's
        # row, where the cells past r repeat cum[r]
        pos, size = start + HEAD - 1, width - HEAD + 1
        while size > 1:
            half = size // 2
            pos += half * (flat[pos + half] <= t)
            size -= half
        ns[deep] = np.minimum(pos - start + 1, r)
    return ns


def _check_draws(table: LogZTable, occ: np.ndarray, N: int) -> None:
    """Refuse draws whose rows miss N or hold a zero-weight occupation.

    The last site takes whatever mass is left, so a grid that disagrees with
    its weight row (corrupt, or off by rounding) can hand it an impossible
    occupation.  An explicit check, unlike an assert, also runs under -O.
    One draw and a batch alike are tested against the zero-weight mask of
    w(0..N), a byte per entry instead of a double.
    """
    zero_weight = np.isneginf(table.log_w[: N + 1])
    if (occ.sum(axis=-1) != N).any() or (zero_weight.any() and zero_weight[occ].any()):
        raise FloatingPointError(
            f"a draw at N = {N} misses the total or holds a zero-weight occupation; "
            "the log Z grid disagrees with its weight row"
        )


def sample_size_biased_block(table: LogZTable, L: int, N: int, rng) -> int:
    """Exact draw of the occupation at the site of a uniformly chosen particle."""
    return int(_size_biased_blocks(table, L, N, 1, rng)[0])


def sample_size_biased_blocks(table: LogZTable, L: int, N: int, count: int, rng) -> np.ndarray:
    """Vectorised size-biased block draws: count exact draws in one array."""
    return _size_biased_blocks(table, L, N, count, rng)


def _size_biased_blocks(table: LogZTable, L: int, N: int, count: int, rng) -> np.ndarray:
    # the body of both public functions, so a traced scalar draw counts once
    if count < 1:
        raise ValueError("count must be >= 1")
    cum = np.cumsum(size_biased_marginals(table, L, N))
    ns = np.searchsorted(cum, _as_generator(rng).random(count) * cum[-1], side="right")
    return np.clip(ns, 1, N).astype(np.int64)


def to_partition(eta: Configuration) -> OrderedPartition:
    """Rescale a configuration to the ordered partition of its mass."""
    if eta.N == 0:
        warnings.warn("empty configuration maps to the empty partition", stacklevel=2)
        return OrderedPartition.from_masses([])
    # n / N rises with n, so the sorted counts give the masses in order
    occ = eta.occupations
    return OrderedPartition(tuple((np.sort(occ[occ > 0])[::-1] / eta.N).tolist()))


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
