"""Brute-force oracles: direct enumeration of all configurations.

Kept deliberately independent of the library's convolution machinery — plain
floating-point products over stars-and-bars enumerations — so agreement is a
real two-route check.  The log-space grid at the end is the reference for the
library's rescaled linear-space kernel: an (N+1)x(N+1) log-sum-exp matrix per
row, which never underflows.
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
