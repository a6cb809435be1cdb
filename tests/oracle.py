"""Brute-force oracles: direct enumeration of all configurations.

Kept deliberately independent of the library's convolution machinery — plain
floating-point products over stars-and-bars enumerations — so agreement is a
real two-route check.  The log-space grid at the end is the reference for the
library's rescaled linear-space kernel: an (N+1)x(N+1) log-sum-exp matrix per
row, which never underflows.

The closed form of the full generator on a one-block partition is the
reference for its quadrature.  The lattice and cutoff generators are kept
here in their per-block form: merges one pair at a time by a Python scan,
splits block by block with the other blocks' leading entries re-read for
each.  The library sums every move in one batch; these are the reference it
must match, and the reference reversibility defect walks every
configuration with the per-block lattice generator.

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


LATTICE_TOL = 1e-9


def leading(arr: np.ndarray, m: int) -> np.ndarray:
    out = np.zeros(m)
    k = min(m, arr.size)
    out[:k] = arr[:k]
    return out


def merge_tops(arr: np.ndarray, i: int, j: int, m: int) -> list[float]:
    """Leading m entries after merging blocks i and j of a descending array."""
    v = arr[i] + arr[j]
    out: list[float] = []
    placed = False
    for t in range(arr.size):
        if len(out) >= m:
            break
        if t == i or t == j:
            continue
        val = float(arr[t])
        if not placed and v >= val:
            out.append(v)
            placed = True
            if len(out) >= m:
                break
        out.append(val)
    if not placed and len(out) < m:
        out.append(v)
    out.extend(0.0 for _ in range(m - len(out)))
    return out[:m]


def split_tops(others: np.ndarray, a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """Leading m entries after replacing a block by pieces a, b (vectorised)."""
    cands = np.empty((a.size, m + 2))
    cands[:, :m] = others[None, :]
    cands[:, m] = a
    cands[:, m + 1] = b
    cands.sort(axis=1)
    return cands[:, ::-1][:, :m]


def others_leading(arr: np.ndarray, skip: int, m: int) -> np.ndarray:
    out = np.zeros(m)
    pos = 0
    for t in range(arr.size):
        if t == skip:
            continue
        out[pos] = arr[t]
        pos += 1
        if pos == m:
            break
    return out


def merge_sum(arr: np.ndarray, fs, base, eps: float) -> list[float]:
    """sum over ordered pairs of p_i p_j [f(merged) - f(p)], cut at eps (none when eps = 0)."""
    m = max(f.depends_on for f in fs)
    if eps > 0.0:
        idxs = np.nonzero(arr >= eps - LATTICE_TOL)[0]
    else:
        idxs = np.nonzero(arr > 0.0)[0]
    pairs = [(i, j) for a, i in enumerate(idxs) for j in idxs[a + 1 :]]
    if not pairs:
        return [0.0 for _ in fs]
    tops = np.array([merge_tops(arr, i, j, m) for i, j in pairs])
    wts = np.array([2.0 * arr[i] * arr[j] for i, j in pairs])
    return [float(np.dot(wts, f.evaluate_tops(tops) - b)) for f, b in zip(fs, base)]


def lattice_apply_per_row(theta: float, N: int, eps: float, arr: np.ndarray, fs):
    """Lattice generator on descending masses arr, one block at a time.

    Returns (applied values, base values f(p)).
    """
    counts = np.rint(arr * N).astype(np.int64)
    m = max(f.depends_on for f in fs)
    tops0 = leading(arr, m)
    base = [float(f.evaluate_tops(tops0[None, :])[0]) for f in fs]

    merge_parts = merge_sum(arr, fs, base, eps=eps)

    split_parts = [0.0 for _ in fs]
    if theta != 0.0:
        eps_n = eps * N
        for i in range(arr.size):
            if arr[i] < 2 * eps - LATTICE_TOL:
                continue
            c = int(counts[i])
            klo = max(1, int(math.ceil(eps_n - LATTICE_TOL)))
            khi = min(c - 1, int(math.floor(c - eps_n + LATTICE_TOL)))
            if khi < klo:
                continue
            k = np.arange(klo, khi + 1, dtype=float)
            a = k / N
            b = arr[i] - a
            tops = split_tops(others_leading(arr, i, m), a, b, m)
            for t, f in enumerate(fs):
                vals = f.evaluate_tops(tops)
                split_parts[t] += float(arr[i]) * float(np.sum(vals - base[t]))

    scale_merge = N / (N - 1)
    scale_split = theta / (N - 1)
    applied = [scale_merge * mp + scale_split * sp for mp, sp in zip(merge_parts, split_parts)]
    return applied, base


def cutoff_apply_per_row(theta: float, eps: float, arr: np.ndarray, f) -> float:
    """eps-cutoff generator on descending masses arr, one split integral per block.

    Uses the library's panel nodes, so it checks how the moves are assembled
    and summed, not the quadrature.
    """
    from pdlab.splitmerge import _panel_points

    m = f.depends_on
    base = float(f.evaluate_tops(leading(arr, m)[None, :])[0])
    merge_part = merge_sum(arr, (f,), (base,), eps)[0]
    split_part = 0.0
    if theta != 0.0:
        for i in range(arr.size):
            v = float(arr[i])
            if v < 2 * eps:
                continue
            lo = eps / v
            others = np.delete(arr, i)
            breaks = {0.5}
            for q in others:
                if 0 < q < v:
                    breaks.update((q / v, 1.0 - q / v))
            us, ws = _panel_points(lo, 1.0 - lo, breaks)
            tops = split_tops(leading(others, m), us * v, (1.0 - us) * v, m)
            integral = float(np.dot(ws, f.evaluate_tops(tops)))
            split_part += v * v * (integral - (1.0 - 2.0 * lo) * base)
    return merge_part + theta * split_part


def one_block_monomial_split(theta: float, v: float, f) -> float:
    """Closed form of the full generator at the one-block partition (v), for f of p_1 only.

    A lone block has nothing to merge with, so only the split term remains:
    theta v^2 [int_0^1 f(max(u, 1 - u) v) du - f(v)], with
    int_0^1 max(u, 1 - u)^k du = 2 (1 - 2^-(k+1)) / (k + 1).
    """
    total = 0.0
    for coeff, powers in f.terms:
        if any(idx != 1 for idx, _ in powers):
            raise ValueError("closed form needs a function of p_1 only")
        k = sum(power for _, power in powers)
        integral = coeff * v**k * 2.0 * (1.0 - 0.5 ** (k + 1)) / (k + 1)
        total += v * v * (integral - coeff * v**k)
    return theta * total


def defect_integrand(theta: float, N: int, eps: float, f, g, config) -> float:
    """h = f G g - g G f of the lattice generator at one configuration."""
    masses = np.array(sorted((n / N for n in config if n > 0), reverse=True))
    applied, base = lattice_apply_per_row(theta, N, eps, masses, (f, g))
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
