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

The last oracles are earlier forms of hot loops, kept as the code the
library must reproduce bit for bit: the log Z build that forms up to 32 rows
per block product, written out, and splits each row into the cells above
and below the floor by boolean masks (its earlier ``np.convolve`` row is kept
beside it as the reference to rounding), stick-breaking
that draws and fills each 64-column block for all rows at once, the batch
sampler with one cumsum and searchsorted per (site, remainder) group, the
scalar sampler reading the grid with one ``ndarray.item`` call per term and
scanning every site from n = 0 (no shortcut for an empty site, none for a
spent mass), the ordered partition of a configuration built by
``from_masses`` (divide, drop zeros, sort), and
the split-merge event step with a cumsum and searchsorted over an array of
the blocks on every event, and the L-fold convolution that folds every
operand's whole span.  The split-merge chain driven through ``wait`` and
``jump`` method calls, the ``pdlab sample`` writer that builds each
partitions.csv line by concatenation, and the ``OrderedPartition``
validator that tests each mass in a generator are the forms the library's
event loop, writer and validator replaced.
"""

from __future__ import annotations

import itertools
import math
import warnings
from bisect import bisect_right

import numpy as np
from scipy.special import logsumexp

from pdlab.ensembles import _COLS, _DEPTH, _ROWS, LogZTable, _logsumexp
from pdlab.partitions import TOTAL_SLACK, OrderedPartition
from pdlab.splitmerge import EVENT_WORK_CAP, UNIFORM_BLOCK, SplitMergeState
from pdlab.weights import log_weight_row


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


def toeplitz_block(s: np.ndarray) -> np.ndarray:
    """build_logz's (M x C) Toeplitz block of a row s: block[r, c] = s[c + M - C - r], 0 outside s.

    C = _COLS and M = s.size rounded up to C, so row m of the Toeplitz matrix
    T[m, n] = s[n - m], on the columns n0..n0 + C, is row M - C - n0 + m."""
    C = _COLS
    M = -(-s.size // C) * C
    block = np.zeros((M, C))
    for r in range(M):
        for c in range(C):
            if 0 <= c + M - C - r < s.size:
                block[r, c] = s[c + M - C - r]
    return block


def blocked_head(heads: np.ndarray, block: np.ndarray) -> np.ndarray:
    """The first n cells of each row of heads convolved with block's row, as build_logz forms them.

    n is the width of heads (a 1-D heads is one row, and one row comes back).
    Column block n0..n1, n1 = min(n0 + C, n), reads rows m < n1 of the
    Toeplitz matrix, in chunks of _DEPTH of the inner dimension, each one
    matrix product, added in order."""
    rows = np.atleast_2d(heads)
    n = rows.shape[1]
    M, C = block.shape
    out = np.zeros(rows.shape)
    for n0 in range(0, n, C):
        n1 = min(n0 + C, n)
        for c0 in range(0, n1, _DEPTH):
            c1 = min(c0 + _DEPTH, n1)
            out[:, n0:n1] += rows[:, c0:c1] @ block[M - C - n0 + c0 : M - C - n0 + c1, : n1 - n0]
    return out[0] if heads.ndim == 1 else out


def scaled_row(row: np.ndarray) -> tuple[np.ndarray, float]:
    """exp(row - max(row)), with the cells below the smallest normal double set to 0, and max(row)."""
    off = row.max()
    s = np.exp(row - off)
    s[s < np.finfo(float).tiny] = 0.0
    return s, off


def block_steps(L: int):
    """The (k, j) of build_logz's products: rows k+1..k+j from row k and rows 1..j."""
    k = 1
    while k < L:
        j = min(k, _ROWS, L - k)
        yield k, j
        k += j


def build_logz_masked_rows(family, L: int, N: int, blocked: bool = True) -> LogZTable:
    """log Z grid with each row's kept and underflowed cells chosen by boolean masks.

    blocked=True forms rows k+1..k+j from row k and rows 1..j by ``blocked_head``
    and compares the floor with that product; blocked=False is the earlier loop,
    which ran ``np.convolve`` of row l - 1 and the weight row over all 2N + 1
    cells and compared the floor after dividing by its peak."""
    if L < 1:
        raise ValueError("L must be >= 1")
    if N < 0:
        raise ValueError("N must be >= 0")
    logw = np.asarray(log_weight_row(family, L, N))
    grid = np.full((L + 1, N + 1), -np.inf)
    grid[0, 0] = 0.0
    grid[1] = logw
    ks = np.flatnonzero(logw > -np.inf)
    w_off = logw.max() if ks.size else 0.0
    w_lin = np.exp(logw - w_off)
    step = int(np.gcd.reduce(ks - ks[:1])) or 1
    floor = (N + 1) * np.finfo(float).tiny / np.finfo(float).eps
    steps = block_steps(L) if blocked else ((l - 1, 1) for l in range(2, L + 1))
    for k, j in steps:
        off = grid[k].max()
        if off == -np.inf:
            break
        if blocked:
            heads, offs = zip(*(scaled_row(grid[i]) for i in range(1, j + 1)))
            lins = blocked_head(np.array(heads), toeplitz_block(scaled_row(grid[k])[0]))
            scales = [o + off for o in offs]
        else:
            out = np.convolve(np.exp(grid[k] - off), w_lin)
            peak = out.max()
            lins, scales = [out[: N + 1] / peak], [off + w_off + math.log(peak)]
        for i in range(j):
            l, lin, prev = k + i + 1, lins[i], grid[k + i]
            ok = lin >= floor
            grid[l, ok] = np.log(lin[ok]) + scales[i]
            n = np.flatnonzero(~ok)
            n = n[(n - l * ks[0]) % step == 0]
            if n.size:
                fin = prev > -np.inf
                bits = int.from_bytes(np.packbits(fin, bitorder="little").tobytes(), "little")
                top = int(n[-1])
                reach = 0
                for k_ in ks[: np.searchsorted(ks, top - int(np.argmax(fin)), side="right")].tolist():
                    reach |= bits << k_
                reach &= (2 << top) - 1
                hit = np.frombuffer(reach.to_bytes(top // 8 + 1, "little"), dtype=np.uint8)
                n = n[np.unpackbits(hit, count=top + 1, bitorder="little")[n] == 1]
            if n.size:
                shift = n[:, None] - ks
                terms = np.where(shift >= 0, logw[ks] + prev[np.maximum(shift, 0)], -np.inf)
                grid[l, n] = _logsumexp(terms, axis=1)
    if N > 0 and grid[L, N] == -np.inf:
        warnings.warn(f"Z_{{{L},{N}}} is exactly zero: no configuration carries mass {N}", stacklevel=2)
    grid.setflags(write=False)
    return LogZTable(family=family, L_max=L, N_max=N, logz=grid, log_w=logw)


def stick_breaking_whole_blocks(theta: float, alpha: float, count: int, g):
    """Stick-breaking with each 64-column block drawn as one (count, 64) array."""
    blocks = []
    residual = np.full(count, alpha)
    k = 0
    while k < 10_000 and float(residual.max()) >= 1e-12:
        step = min(64, 10_000 - k)
        e = g.standard_exponential((count, step))
        e /= -theta
        pieces = np.expm1(e)
        np.negative(pieces, out=pieces)
        keep = np.exp(np.cumsum(e, axis=1, out=e), out=e)
        keep *= residual[:, None]
        pieces[:, 0] *= residual
        pieces[:, 1:] *= keep[:, :-1]
        blocks.append(pieces)
        residual = keep[:, -1].copy()
        k += step
    return (blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=1)), residual


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


def sample_configuration_by_item(logz: np.ndarray, log_w: np.ndarray, L: int, N: int, g) -> list[int]:
    """Scalar canonical draw by sequential search, one ``ndarray.item`` per grid read."""
    log_w = log_w[: N + 1].tolist()
    occ = []
    r = N
    for m, u in zip(range(L, 1, -1), g.random(L - 1).tolist()):
        rest, top = logz[m - 1], logz.item(m, r)
        acc = 0.0
        for n in range(r + 1):
            acc += math.exp(log_w[n] + rest.item(r - n) - top)
            if acc > u:
                break
        else:
            while n > 0 and not math.exp(log_w[n] + rest.item(r - n) - top) > 0.0:
                n -= 1
        occ.append(n)
        r -= n
    occ.append(r)
    return occ


def partition_by_from_masses(occ: np.ndarray) -> OrderedPartition:
    """Ordered partition of a configuration's counts through ``from_masses``: divide, filter, sort."""
    return OrderedPartition.from_masses((occ[occ > 0] / occ.sum()).tolist())


def searchsorted_pick(weights, x: float) -> int:
    """First index whose cumulative weight exceeds x, clamped to the last index."""
    cum = np.cumsum(np.asarray(weights, dtype=float))
    return min(int(np.searchsorted(cum, x, side="right")), cum.size - 1)


def block_uniforms(g):
    """Uniforms of g read 256 per ``Generator.random`` call, in stream order."""
    while True:
        block = g.random(256)
        for k in range(block.size):
            yield float(block[k])


class NumpySplitMergeCore:
    """Split-merge event step over a NumPy array of the blocks.

    Same rates, uniforms and mass arithmetic as the library's core: the wait
    is -log1p(-u) / rate, a split rounds its larger piece and subtracts it
    from the block, a merge is clamped at the initial total.
    """

    def __init__(self, masses, theta: float, g):
        self.uniforms = block_uniforms(g)
        self.blocks = [float(v) for v in masses if v > 0.0]
        self.theta = float(theta)
        self.s1 = float(sum(self.blocks))
        self.s2 = float(sum(v * v for v in self.blocks))
        self.merges = self.splits = 0
        self._events_since_refresh = 0

    def step(self) -> float:
        us = self.uniforms
        if self._events_since_refresh >= 4096:
            self.s2 = float(sum(v * v for v in self.blocks))
            self._events_since_refresh = 0
        merge_rate = max(self.s1 * self.s1 - self.s2, 0.0)
        split_rate = self.theta * self.s2
        total = merge_rate + split_rate
        if total <= 0.0 or len(self.blocks) == 0:
            return math.inf
        dt = -math.log1p(-next(us)) / total
        arr = np.asarray(self.blocks)
        if next(us) * total < merge_rate:
            cum = np.cumsum(arr)
            while True:
                i = int(np.searchsorted(cum, next(us) * cum[-1], side="right"))
                j = int(np.searchsorted(cum, next(us) * cum[-1], side="right"))
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
            i = int(np.searchsorted(cum2, next(us) * cum2[-1], side="right"))
            i = min(i, arr.size - 1)
            while True:
                u = next(us)
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


def span_power_convolve(p: np.ndarray, L: int) -> tuple[np.ndarray, float]:
    """L-fold convolution of p folding each operand up to its last nonzero cell.

    Binary exponentiation; each fold correlates the longer span with the
    reversed shorter one, the left operand first on a tie, and scales its
    result to peak 1.  Returns the full length L * (p.size - 1) + 1.
    """

    def fold(a, log_a, b, log_b):
        if a.size < b.size:
            a, b = b, a
        out = np.correlate(a, b[::-1], "full")
        peak = out[int(out.argmax())]
        out = out / peak
        return out[: np.flatnonzero(out)[-1] + 1], log_a + log_b + math.log(peak)

    result, log_result = np.array([1.0]), 0.0
    base, log_base = p[: np.flatnonzero(p)[-1] + 1], 0.0
    k = L
    while k:
        if k & 1:
            result, log_result = fold(result, log_result, base, log_base)
        k >>= 1
        if k:
            base, log_base = fold(base, log_base, base, log_base)
    return np.pad(result, (0, L * (p.size - 1) + 1 - result.size)), log_result


def _first_above(cum: list[float], x: float) -> int:
    return min(bisect_right(cum, x), len(cum) - 1)


def _method_uniforms(g):
    while True:
        yield from g.random(UNIFORM_BLOCK).tolist()


class MethodSplitMergeCore:
    """Split-merge chain advanced by a ``wait`` and a ``jump`` method call per event.

    Same rates, picks, uniforms, mass arithmetic and EVENT_WORK_CAP refresh
    as the library's event loop, with its state in attributes.
    """

    def __init__(self, masses, theta: float, g):
        if not 0.0 <= theta < math.inf:
            raise ValueError("theta must be >= 0 and finite")
        self._next_u = _method_uniforms(g).__next__
        self.blocks = [float(v) for v in masses if v > 0.0]
        self.theta = float(theta)
        self.s1 = float(sum(self.blocks))
        if not 0.0 < self.s1 <= 1.0 + 1e-12:
            raise ValueError("initial mass must lie in (0, 1]")
        self.s2 = float(sum(v * v for v in self.blocks))
        self.merges = 0
        self.splits = 0
        self._events_since_refresh = 0
        self._work = 0

    def _refresh(self):
        self.s2 = float(sum(v * v for v in self.blocks))
        self._work += self._events_since_refresh * len(self.blocks)
        if self._work > EVENT_WORK_CAP:
            raise FloatingPointError("the split-merge event loop passed EVENT_WORK_CAP")
        self._events_since_refresh = 0

    def wait(self) -> float:
        if self._events_since_refresh >= 4096:
            self._refresh()
        self._merge_rate = max(self.s1 * self.s1 - self.s2, 0.0)
        self._total = self._merge_rate + self.theta * self.s2
        if self._total <= 0.0 or len(self.blocks) == 0:
            return math.inf
        return -math.log1p(-self._next_u()) / self._total

    def jump(self) -> None:
        blocks, next_u = self.blocks, self._next_u
        if next_u() * self._total < self._merge_rate:
            cum = list(itertools.accumulate(blocks))
            while True:
                i = _first_above(cum, next_u() * cum[-1])
                j = _first_above(cum, next_u() * cum[-1])
                if i != j:
                    break
            vi, vj = blocks[i], blocks[j]
            self.s2 += 2.0 * vi * vj
            blocks[i] = min(vi + vj, self.s1)
            del blocks[j]
            self.merges += 1
        else:
            cum2 = list(itertools.accumulate(v * v for v in blocks))
            i = _first_above(cum2, next_u() * cum2[-1])
            while True:
                u = next_u()
                if 0.0 < u < 1.0:
                    break
            v = blocks[i]
            self.s2 -= 2.0 * u * (1.0 - u) * v * v
            if u >= 0.5:
                stay = u * v
                piece = v - stay
            else:
                piece = (1.0 - u) * v
                stay = v - piece
            blocks[i] = stay
            if piece > 0.0:
                blocks.append(piece)
            self.splits += 1
        self._events_since_refresh += 1

    def state(self, t: float) -> SplitMergeState:
        return SplitMergeState(
            partition=OrderedPartition.from_masses(self.blocks), time=t, merges=self.merges, splits=self.splits
        )


def simulate_by_methods(theta: float, p0, t_max: float, g, sample_times=()) -> list:
    """States at the sample times (or at t_max), recorded before the jump past each."""
    times = sorted(float(t) for t in sample_times) or [float(t_max)]
    core = MethodSplitMergeCore(p0.masses, theta, g)
    out = []
    t = 0.0
    while True:
        t_next = t + core.wait()
        while len(out) < len(times) and times[len(out)] < t_next:
            out.append(core.state(times[len(out)]))
        if len(out) == len(times):
            return out
        core.jump()
        t = t_next


def time_averaged_l2_by_methods(theta: float, p0, burn_in: float, duration: float, g):
    """Time average of sum p_i^2 over (burn_in, burn_in + duration], plus the final state."""
    core = MethodSplitMergeCore(p0.masses, theta, g)
    t = 0.0
    t_end = burn_in + duration
    acc = 0.0
    while True:
        s2_now = core.s2
        dt = core.wait()
        t_next = min(t + dt, t_end)
        lo = max(t, burn_in)
        if t_next > lo:
            acc += s2_now * (t_next - lo)
        t = t + dt
        if t >= t_end:
            return acc / duration, core.state(t_end)
        core.jump()


def partition_blocks_by_concatenation(rows: list[list[int]], L: int, N: int) -> list[str]:
    """partitions.csv after its header: each row sorted in place, each line concatenated."""
    masses = [repr(n / max(N, 1)) for n in range(N + 1)]
    ranks = [f",{r}," for r in range(L + 1)]
    blocks = ["sample,rank,mass"]
    for s, row in enumerate(rows):
        row.sort(reverse=True)
        if row[0]:
            head = str(s)
            blocks.append("\n".join([head + ranks[r] + masses[n] for r, n in enumerate(row, start=1) if n]))
    return blocks


def validate_masses_by_generator(m: tuple) -> None:
    """OrderedPartition's checks, in order, each a generator over the masses."""
    if not all(0.0 <= x <= 1.0 + TOTAL_SLACK for x in m):
        raise ValueError("masses must lie in [0, 1]")
    if any(m[i] < m[i + 1] for i in range(len(m) - 1)):
        raise ValueError("masses must be nonincreasing")
    if m and m[-1] == 0.0:
        raise ValueError("trailing zeros must be trimmed (use from_masses)")
    if sum(m) > 1.0 + TOTAL_SLACK:
        raise ValueError("total mass exceeds 1")


def masses_by_generator(values) -> tuple:
    """from_masses' input to OrderedPartition: the nonzero values as floats, descending."""
    return tuple(sorted((float(v) for v in values if v != 0.0), reverse=True))
