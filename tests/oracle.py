"""Brute-force oracles: direct enumeration of all configurations.

Kept deliberately independent of the library's convolution machinery — plain
floating-point products over stars-and-bars enumerations — so agreement is a
real two-route check.  The log-space grid at the end is the reference for the
library's rescaled linear-space kernel: an (N+1)x(N+1) log-sum-exp matrix per
row, which never underflows.  The reference reversibility defect walks every
configuration with the library's lattice generator, so it checks how the
library groups and weights configurations, not the generator itself.

The last two oracles are the NumPy forms of the two hot loops, kept as the
code the loop-free versions must reproduce bit for bit: the batch sampler
with one cumsum and searchsorted per (site, remainder) group, and the
split-merge event step with a cumsum and searchsorted over an array of the
blocks on every event.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.special import logsumexp


def enumerate_configs(L: int, N: int):
    """All occupation vectors of length L summing to N (stars and bars)."""
    for bars in itertools.combinations(range(N + L - 1), L - 1):
        edges = (-1, *bars, N + L - 1)
        yield tuple(edges[i + 1] - edges[i] - 1 for i in range(L))


def weight_of(config, w) -> float:
    out = 1.0
    for n in config:
        out *= w(n)
    return out


def partition_function(w, L: int, N: int) -> float:
    return sum(weight_of(c, w) for c in enumerate_configs(L, N))


def site_marginal(w, L: int, N: int) -> np.ndarray:
    """Law of the first site's occupation."""
    z = partition_function(w, L, N)
    probs = np.zeros(N + 1)
    for c in enumerate_configs(L, N):
        probs[c[0]] += weight_of(c, w)
    return probs / z


def size_biased_law(w, L: int, N: int) -> np.ndarray:
    """Law of the occupation at the site of a uniformly chosen particle."""
    z = partition_function(w, L, N)
    probs = np.zeros(N + 1)
    for c in enumerate_configs(L, N):
        pi = weight_of(c, w) / z
        for n in c:
            if n > 0:
                probs[n] += pi * n / N
    return probs


def pair_zero(w, L: int, N: int) -> float:
    """Probability that the first two sites are both empty."""
    z = partition_function(w, L, N)
    total = sum(
        weight_of(c, w) for c in enumerate_configs(L, N) if c[0] == 0 and c[1] == 0
    )
    return total / z


def config_law(w, L: int, N: int) -> dict[tuple, float]:
    z = partition_function(w, L, N)
    return {c: weight_of(c, w) / z for c in enumerate_configs(L, N)}


def defect_integrand(theta: float, N: int, eps: float, f, g, config) -> float:
    """h = f G g - g G f of the lattice generator at one configuration."""
    from pdlab.splitmerge import _discrete_apply_many

    masses = np.array(sorted((n / N for n in config if n > 0), reverse=True))
    applied, base = _discrete_apply_many(theta, N, eps, masses, (f, g))
    return base[0] * applied[1] - base[1] * applied[0]


def reference_defect(w, L: int, N: int, eps: float, theta: float, f, g) -> float:
    """mu_{L,N}(f G g) - mu_{L,N}(g G f), one term per configuration.

    Weights are plain products of w over the sites, normalised by their own
    sum, so no log Z grid and no partition multiplicity enters.
    """
    total = z = 0.0
    for c in enumerate_configs(L, N):
        weight = weight_of(c, w)
        if weight == 0.0:
            continue
        total += weight * defect_integrand(theta, N, eps, f, g, c)
        z += weight
    return total / z


def inclusion_weight(theta: float, L: int):
    """Direct log-gamma evaluation of the rising-factorial weights."""
    d = theta / L

    def w(n: int) -> float:
        return math.exp(math.lgamma(n + d) - math.lgamma(n + 1) - math.lgamma(d))

    return w


def bulk_tail_weight(theta: float, A: int, bulk, L: int):
    def w(n: int) -> float:
        if n <= A:
            return bulk[n]
        return theta / (n * L)

    return w


def table_weight(seq):
    def w(n: int) -> float:
        return seq[n] if n < len(seq) else 0.0

    return w


def log_convolve_row(prev: np.ndarray, logw: np.ndarray) -> np.ndarray:
    """logsumexp_k (logw[k] + prev[n-k]) for every n."""
    size = prev.size
    idx = np.arange(size)
    shift = idx[:, None] - idx[None, :]
    mat = np.where(shift >= 0, logw[None, :] + prev[np.maximum(shift, 0)], -np.inf)
    with np.errstate(invalid="ignore"):
        return logsumexp(mat, axis=1)


def log_space_grid(logw: np.ndarray, L: int) -> np.ndarray:
    """log Z_{l,n} for l <= L, n < logw.size, entirely in log space."""
    grid = np.full((L + 1, logw.size), -np.inf)
    grid[0, 0] = 0.0
    grid[1] = logw
    for l in range(2, L + 1):
        grid[l] = log_convolve_row(grid[l - 1], logw)
    return grid


def sample_configurations_by_group(logz: np.ndarray, logw: np.ndarray, L: int, N: int, count: int, g):
    """Batch canonical draws, one conditional row per (site, remainder) group."""
    occ = np.zeros((count, L), dtype=np.int64)
    remaining = np.full(count, N, dtype=np.int64)
    for x in range(L - 1):
        m = L - x
        us = g.random(count)
        order = np.argsort(remaining, kind="stable")
        uniq, starts = np.unique(remaining[order], return_index=True)
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
    return occ


def searchsorted_pick(weights, x: float) -> int:
    """First index whose cumulative weight exceeds x, clamped to the last index."""
    cum = np.cumsum(np.asarray(weights, dtype=float))
    return min(int(np.searchsorted(cum, x, side="right")), cum.size - 1)


class NumpySplitMergeCore:
    """Split-merge event step over a NumPy array of the blocks.

    Same rates, stream calls and mass arithmetic as the library's core: a
    split rounds its larger piece and subtracts it from the block, a merge
    is clamped at the initial total.
    """

    def __init__(self, masses, theta: float):
        self.blocks = [float(v) for v in masses if v > 0.0]
        self.theta = float(theta)
        self.s1 = float(sum(self.blocks))
        self.s2 = float(sum(v * v for v in self.blocks))
        self.merges = self.splits = 0
        self._events_since_refresh = 0

    def step(self, g) -> float:
        if self._events_since_refresh >= 4096:
            self.s2 = float(sum(v * v for v in self.blocks))
            self._events_since_refresh = 0
        merge_rate = max(self.s1 * self.s1 - self.s2, 0.0)
        split_rate = self.theta * self.s2
        total = merge_rate + split_rate
        if total <= 0.0 or len(self.blocks) == 0:
            return math.inf
        dt = g.exponential(1.0 / total)
        arr = np.asarray(self.blocks)
        if g.random() * total < merge_rate:
            cum = np.cumsum(arr)
            while True:
                i = int(np.searchsorted(cum, g.random() * cum[-1], side="right"))
                j = int(np.searchsorted(cum, g.random() * cum[-1], side="right"))
                i = min(i, arr.size - 1)
                j = min(j, arr.size - 1)
                if i != j:
                    break
            vi, vj = self.blocks[i], self.blocks[j]
            self.s2 += 2.0 * vi * vj
            self.blocks[i] = min(vi + vj, self.s1)
            del self.blocks[j]
            self.merges += 1
        else:
            cum2 = np.cumsum(arr * arr)
            i = int(np.searchsorted(cum2, g.random() * cum2[-1], side="right"))
            i = min(i, arr.size - 1)
            while True:
                u = g.random()
                if 0.0 < u < 1.0:
                    break
            v = self.blocks[i]
            self.s2 -= 2.0 * u * (1.0 - u) * v * v
            if u >= 0.5:
                stay = u * v
                piece = v - stay
            else:
                piece = (1.0 - u) * v
                stay = v - piece
            self.blocks[i] = stay
            if piece > 0.0:
                self.blocks.append(piece)
            self.splits += 1
        self._events_since_refresh += 1
        return dt
