"""Exact log-space canonical partition functions and ensemble diagnostics.

Partition functions are built on linear rows that each carry one log
offset, and are stored in log space, since Z spans hundreds of orders of
magnitude already for L, N in the hundreds.  With the weight row pinned at
w_L, ``Z_{k+i} = Z_k * Z_i``, so up to 32 rows come from one matrix product
of rows 1..32 with row k's Toeplitz matrix, triangular and cut into fixed
inner chunks; a cell below the floor is redone by the recursion
``Z_{l,n} = sum_k w_L(k) Z_{l-1,n-k}`` in log space.  All marginal,
grand-canonical, entropy, and local-CLT quantities are derived from those
tables or from tilted single-site laws.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

from .report import DiagnosticsReport
from .weights import (
    LATTICE_TOL,
    NEG_INF,
    WeightFamily,
    log_weight_row,
    weight_sup_distance,
)


class OutOfDomainError(ValueError):
    """Fugacity outside the convergence domain of the tilted series."""


class SupercriticalDensityError(ValueError):
    """Requested density exceeds the range of the mean-density curve."""


# ---------------------------------------------------------------------------
# canonical partition functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LogZTable:
    """Triangular grid of log Z_{l,n} for l <= L_max, n <= N_max.

    The weight row is pinned at the build size ``L_max``: every row of the
    grid (and every marginal derived from it) uses w_{L_max}, which is what
    the conditional decomposition of the canonical measure requires.
    """

    family: WeightFamily
    L_max: int
    N_max: int
    logz: np.ndarray
    log_w: np.ndarray

    def covers(self, L: int, N: int) -> bool:
        return 1 <= L <= self.L_max and 0 <= N <= self.N_max


_ROWS = 32  # rows one product makes at most: rows k+1..k+32 from row k and rows 1..32
_COLS = 64  # columns per triangular block of a product
_DEPTH = 256  # inner-dimension chunk of a product: short enough that the BLAS thread count leaves its bytes alone


def _logsumexp(a: np.ndarray, axis: int | None = None):
    """log sum exp(a) over axis (all of a if None); -inf where every entry is -inf.

    The copies of the maximum top are counted, not summed (Blanchard, Higham &
    Higham 2021): log1p(rest / count) + log(count) + top."""
    top = np.max(a, axis=axis, keepdims=True)
    at_top = a == top
    count = np.sum(at_top, axis=axis, keepdims=True, dtype=float)
    with np.errstate(invalid="ignore"):  # -inf - -inf in a row of -inf
        rest = np.sum(np.exp(np.where(at_top, NEG_INF, a) - top), axis=axis, keepdims=True)
    out = np.where(top == NEG_INF, NEG_INF, np.log1p(rest / count) + np.log(count) + top)
    return np.squeeze(out, axis=axis)[()]


def _repair_row(row: np.ndarray, prev: np.ndarray, lin: np.ndarray, l: int,
                ks: np.ndarray, logw: np.ndarray, floor: float) -> None:
    """Redo the cells of row l whose product lin lies below the floor, from row l - 1 in log space.

    Each is reset to -inf and, if n <= l * max(ks) lies in the sumset of ks
    and row l - 1's finite cells, gets a log-sum-exp over ks."""
    n = np.flatnonzero(lin < floor)
    row[n] = NEG_INF
    # row l - 1 is finite only up to (l - 1) * max(ks): no shift reaches past l * max(ks)
    n = n[n <= l * ks[-1]]
    if n.size:
        fin = prev > NEG_INF
        bits = int.from_bytes(np.packbits(fin, bitorder="little").tobytes(), "little")
        top = int(n[-1])
        reach = 0
        # a shift past top minus the first finite cell reaches no cell <= top
        for k in ks[: np.searchsorted(ks, top - int(np.argmax(fin)), side="right")].tolist():
            reach |= bits << k
        reach &= (2 << top) - 1
        hit = np.frombuffer(reach.to_bytes(top // 8 + 1, "little"), dtype=np.uint8)
        n = n[np.unpackbits(hit, count=top + 1, bitorder="little")[n] == 1]
    if n.size:
        shift = n[:, None] - ks
        terms = np.where(shift >= 0, logw[ks] + prev[np.maximum(shift, 0)], NEG_INF)
        row[n] = _logsumexp(terms, axis=1)


def build_logz(family: WeightFamily, L: int, N: int) -> LogZTable:
    """The full log Z grid up to (L, N), up to _ROWS rows per matrix product.

    The weight row is pinned at w_L, so Z_{k+i} = Z_k * Z_i on cells 0..N.
    From a finished row k, rows k+1..k+j, j = min(k, _ROWS, L - k), are one
    product: rows 1..j, each scaled to maximum 1 and kept once built, times
    row k's Toeplitz matrix T[m, n] = s(n - m), s row k scaled to maximum 1.
    Row k+i is the log of product row i plus the two rows' offsets.  So
    steps make 1, 2, 4, 8, 16 and then 32 rows; longer steps would multiply
    rows of wider range, whose products underflow in more cells.  The
    product runs in column blocks of _COLS: block n0..n1 reads only rows
    m < n1 of T, so only the block's own diagonal corner multiplies zeros.
    Every block reads rows of one (M x _COLS) Toeplitz block of row k, M =
    N + 1 rounded up to _COLS.  The inner dimension is cut into chunks of
    _DEPTH, each one BLAS call, added in a fixed order: OpenBLAS gave
    products with an inner dimension past 384 other bytes under two threads
    than under one (README, "Numerical conventions").  A term below the
    smallest normal double removes at most (N+1) * tiny from a cell, so
    factors below tiny are set to 0 (a subnormal operand is a slow path in
    the BLAS), and a cell below (N+1) * tiny / eps, on the product's scale,
    is redone from row l - 1 by ``_repair_row``, row by row in row order.
    """
    if L < 1:
        raise ValueError("L must be >= 1")
    if N < 0:
        raise ValueError("N must be >= 0")
    logw = np.asarray(log_weight_row(family, L, N))
    grid = np.full((L + 1, N + 1), NEG_INF)
    grid[0, 0] = 0.0
    grid[1] = logw
    ks = np.flatnonzero(logw > NEG_INF)
    C = _COLS
    M = -(-(N + 1) // C) * C
    J = min(_ROWS, L - 1)  # rows of the largest product
    heads, head_offs = np.empty((J, N + 1)), np.empty(J)
    padded = np.zeros(M + C - 1)  # s at C - 1: row r of the Toeplitz block is the window from M - 1 - r
    scaled = padded[C - 1 : C + N]
    windows = np.lib.stride_tricks.sliding_window_view(padded, C)[::-1]
    block = np.empty((M, C))  # block[r, c] = s(c + M - C - r), so T[m, n0 + c] = block[M - C - n0 + m, c]
    prod, part = np.empty((J, N + 1)), np.empty((J, C))
    tiny = np.finfo(float).tiny
    floor = (N + 1) * tiny / np.finfo(float).eps
    k, built = 1, 0  # rows 1..built of heads are set
    with np.errstate(divide="ignore"):  # log 0 = -inf, in a cell below the floor
        while k < L:
            off = grid[k].max()
            if off == NEG_INF:
                break  # every later row is empty too
            j = min(k, _ROWS, L - k)
            if built < j:  # rows up to k are finished, and none is empty
                rows, scaled_rows = grid[built + 1 : j + 1], heads[built:j]
                np.max(rows, axis=1, out=head_offs[built:j])
                np.exp(rows - head_offs[built:j, None], out=scaled_rows)
                scaled_rows[scaled_rows < tiny] = 0.0
                built = j
            np.exp(np.subtract(grid[k], off, out=scaled), out=scaled)
            scaled[scaled < tiny] = 0.0
            np.copyto(block, windows)
            for n0 in range(0, N + 1, C):
                n1, base = min(n0 + C, N + 1), M - C - n0
                cols = prod[:j, n0:n1]
                for c0 in range(0, n1, _DEPTH):
                    c1 = min(c0 + _DEPTH, n1)
                    dst = part[:j, : n1 - n0] if c0 else cols
                    np.matmul(heads[:j, c0:c1], block[base + c0 : base + c1, : n1 - n0], out=dst)
                    if c0:
                        cols += dst
            lin, new = prod[:j], grid[k + 1 : k + j + 1]
            np.add(np.log(lin), (head_offs[:j] + off)[:, None], out=new)
            for i in np.flatnonzero(lin.min(axis=1) < floor).tolist():
                _repair_row(new[i], grid[k + i], lin[i], k + i + 1, ks, logw, floor)
            k += j
    if N > 0 and grid[L, N] == NEG_INF:
        warnings.warn(f"Z_{{{L},{N}}} is exactly zero: no configuration carries mass {N}", stacklevel=2)
    grid.setflags(write=False)
    return LogZTable(family=family, L_max=L, N_max=N, logz=grid, log_w=logw)


@lru_cache(maxsize=32)
def cached_logz(family: WeightFamily, L: int, N: int) -> LogZTable:
    """Memoized build_logz for internal reuse across diagnostics."""
    return build_logz(family, L, N)


# names the arithmetic of build_logz in cache files: a grid another kernel wrote passes
# every value check but differs in its last digits, so it must be a miss
_KERNEL_TAG = "blk32"


def _cache_path(family: WeightFamily, L: int, N: int, directory) -> Path:
    return Path(directory) / f"logz_{family.digest()}_{L}_{N}_{_KERNEL_TAG}.npy"


def save_logz_cache(table: LogZTable, directory) -> Path:
    """Write the grid as ``logz_<family digest>_<L>_<N>_<kernel tag>.npy`` in directory; return its path."""
    path = _cache_path(table.family, table.L_max, table.N_max, directory)
    np.save(path, np.asarray(table.logz), allow_pickle=False)
    return path


def load_logz_cache(family: WeightFamily, L: int, N: int, directory) -> LogZTable | None:
    """The grid save_logz_cache wrote for (family, L, N), or None when it is missing or invalid.

    A grid depends only on w_L(0..N), L, N and the kernel that built it, whose
    tag is in the file name, so it is used only when it is float64 of shape
    (L+1, N+1) with no NaN or +inf, row 0 is (0, -inf, ...), row 1 the weight
    row exactly, and cell (L, N) the recursion from row L - 1 to 1e-10.  Else
    the caller rebuilds and overwrites it.
    """
    try:
        grid = np.load(_cache_path(family, L, N, directory), allow_pickle=False)
    except (OSError, ValueError, EOFError):
        return None
    logw = np.asarray(log_weight_row(family, L, N))
    if (not isinstance(grid, np.ndarray)
            or grid.dtype != np.float64 or grid.shape != (L + 1, N + 1)
            or np.isnan(grid).any() or (grid == np.inf).any() or grid[0, 0] != 0.0
            or (grid[0, 1:] != NEG_INF).any() or not np.array_equal(grid[1], logw)
            or not np.isclose(grid[L, N], _logsumexp(logw + grid[L - 1, ::-1]), rtol=1e-10, atol=1e-10)):
        return None
    grid.setflags(write=False)
    return LogZTable(family=family, L_max=L, N_max=N, logz=grid, log_w=logw)


def _check_cell(table: LogZTable, L: int, N: int) -> None:
    if not table.covers(L, N):
        raise ValueError(f"table covers up to ({table.L_max},{table.N_max}), not ({L},{N})")
    if table.logz[L, N] == NEG_INF:
        raise ValueError(f"Z_{{{L},{N}}} is exactly zero: no configuration carries mass {N}")


def single_site_marginals(table: LogZTable, L: int, N: int) -> np.ndarray:
    """Exact vector of pi_{L,N}[eta_1 = n] for n = 0..N."""
    _check_cell(table, L, N)
    logp = table.log_w[: N + 1] + table.logz[L - 1, N::-1] - table.logz[L, N]
    with np.errstate(over="ignore"):
        return np.exp(logp)


def single_site_marginal(table: LogZTable, L: int, N: int, n: int) -> float:
    if not 0 <= n <= N:
        raise ValueError("n out of range")
    return float(single_site_marginals(table, L, N)[n])


def size_biased_marginals(table: LogZTable, L: int, N: int) -> np.ndarray:
    """Exact law of the occupation on the site of a uniformly chosen particle."""
    probs = single_site_marginals(table, L, N)
    if N < 1:
        raise ValueError("size-biased marginal needs N >= 1")
    n = np.arange(N + 1, dtype=float)
    return (L / N) * n * probs


def size_biased_marginal(table: LogZTable, L: int, N: int, n: int) -> float:
    if not 0 <= n <= N:
        raise ValueError("n out of range")
    return float(size_biased_marginals(table, L, N)[n])


def pair_zero_probability(table: LogZTable, L: int, N: int) -> float:
    """pi_{L,N}[eta_x = 0, eta_y = 0] for a pair of distinct sites."""
    _check_cell(table, L, N)
    if L < 2:
        raise ValueError("pair probability needs L >= 2")
    return float(np.exp(2 * table.log_w[0] + table.logz[L - 2, N] - table.logz[L, N]))


def zratio_diagnostic(table: LogZTable, L: int, N: int, kappa: float) -> float:
    """Partition-function ratio Z_{L-1, floor((1-kappa) N)} / Z_{L,N}."""
    _check_cell(table, L, N)
    if not 0.0 <= kappa <= 1.0:
        raise ValueError("kappa must lie in [0, 1]")
    n_low = int(math.floor((1.0 - kappa) * N + LATTICE_TOL))
    return float(np.exp(table.logz[L - 1, n_low] - table.logz[L, N]))


# ---------------------------------------------------------------------------
# grand-canonical single-site laws
# ---------------------------------------------------------------------------


TAIL_TOL = 1e-12  # relative tail mass a truncated tilted law may drop


@dataclass(frozen=True)
class GrandCanonical:
    """Tilted single-site law with fugacity phi; L = None means the limiting weights."""

    family: WeightFamily
    L: int | None
    phi: float
    log_z: float
    mean: float
    variance: float
    n_trunc: int
    terms: np.ndarray = field(repr=False, compare=False)  # log(w(n) phi^n), n <= n_trunc

    def pmf(self) -> np.ndarray:
        p = np.exp(self.terms - self.log_z)
        return p / p.sum()


def _tilted_terms(family: WeightFamily, L: int | None, phi: float) -> tuple[np.ndarray, int]:
    """log(w(n) phi^n) up to a truncation with relative tail mass < TAIL_TOL."""
    if not 0 <= phi < math.inf:
        raise ValueError("phi must be >= 0 and finite")
    if phi == 0.0:
        logw0 = log_weight_row(family, L, 0)[0]
        if logw0 == NEG_INF:
            raise OutOfDomainError("w(0) = 0 and phi = 0 leave an empty law")
        return np.array([logw0]), 0

    logphi = math.log(phi)
    hi = 256
    cap = 1 << 21
    while True:
        logw = log_weight_row(family, L, hi)
        terms = logw + logphi * np.arange(hi + 1)
        finite = terms > NEG_INF
        if not finite.any():
            raise OutOfDomainError("all tilted weights vanish")
        last = int(np.nonzero(finite)[0][-1])
        if last < hi:  # finitely supported: nothing to truncate
            return terms[: last + 1], last
        # geometric domination test on the trailing terms
        window = terms[-17:]
        ratios = np.exp(np.diff(window))
        r = float(np.max(ratios))
        total = _logsumexp(terms)
        if r < 1.0:
            tail = terms[-1] + math.log(r) - math.log1p(-r)
            if tail - total < math.log(TAIL_TOL * 0.5):
                # also trim computed entries whose joint mass stays below budget
                rev = np.cumsum(np.exp(terms - total)[::-1])
                k = int(np.searchsorted(rev, TAIL_TOL * 0.5, side="left"))
                n_trunc = hi - k
                return terms[: n_trunc + 1], n_trunc
        if hi >= cap:
            raise OutOfDomainError(
                f"tilted series does not pass the tail test by n = {cap}; "
                f"phi = {phi} is outside the convergence domain"
            )
        hi *= 2


def grand_canonical_stats(family: WeightFamily, L: int | None, phi: float) -> GrandCanonical:
    """Normalisation, mean density and variance of the tilted single-site law."""
    terms, n_trunc = _tilted_terms(family, L, phi)
    log_z = float(_logsumexp(terms))
    p = np.exp(terms - log_z)
    n = np.arange(terms.size, dtype=float)
    mean = float(np.dot(n, p))
    var = float(np.dot((n - mean) ** 2, p))
    terms.setflags(write=False)
    return GrandCanonical(
        family=family, L=L, phi=float(phi), log_z=log_z, mean=mean, variance=var,
        n_trunc=n_trunc, terms=terms,
    )


def critical_density(family: WeightFamily) -> float:
    """Mean of w normalised (nu_{rho_c} = w at phi = 1): the largest density ``invert_density`` attains."""
    return grand_canonical_stats(family, None, 1.0).mean


def invert_density(family: WeightFamily, L: int | None, rho: float) -> float:
    """Fugacity phi with mean density R_L(phi) = rho, by bisection to within 1e-10.

    The mean-density curve is strictly increasing on the convergence domain.
    For the limiting weights (L = None) the domain is capped at phi = 1; a
    density above the critical one is reported as supercritical.
    """
    if not rho >= 0:
        raise ValueError("rho must be >= 0")
    if rho == 0.0:
        return 0.0

    def mean_at(phi: float) -> float:
        try:
            return grand_canonical_stats(family, L, phi).mean
        except OutOfDomainError:
            return math.inf

    hi = 1.0
    while mean_at(hi) < rho:
        if L is None:  # the limiting weights converge only up to phi = 1
            raise SupercriticalDensityError(
                f"rho = {rho} exceeds the critical density; no finite fugacity exists"
            )
        if 2.0 * hi > 1e9:
            raise SupercriticalDensityError(
                f"rho = {rho} is not attained by the tilted law at any fugacity"
            )
        hi *= 2.0
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        r_mid = mean_at(mid)
        if abs(r_mid - rho) <= 1e-10:
            return mid
        if r_mid < rho:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-16 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


def phi_sequence(family: WeightFamily, L: int) -> float:
    """The near-critical fugacity 1 - ||w_L - w||_inf^{1/4}, clipped to [0, 1).

    When w_L coincides with w the value is clipped just below 1 and a warning
    is emitted, since the construction assumes a strictly positive distance.
    """
    s = weight_sup_distance(family, L)
    if s == 0.0:
        warnings.warn(
            "w_L equals the limiting weights exactly; clipping phi_L below 1",
            stacklevel=2,
        )
        return 1.0 - 1e-16
    return min(max(1.0 - s**0.25, 0.0), 1.0 - 1e-16)


# ---------------------------------------------------------------------------
# equivalence-of-ensembles diagnostics
# ---------------------------------------------------------------------------


def _nonzero_head(a: np.ndarray) -> np.ndarray:
    """a up to its last nonzero cell; its first cell if a holds none."""
    nz = np.flatnonzero(a)
    return a[: nz[-1] + 1 if nz.size else 1]


def _chernoff_horizon(p: np.ndarray, L: int) -> int:
    """A horizon H with P[X_1 + ... + X_L >= H] <= 2^-64 / (L * (p.size - 1) + 1) for X_i drawn from p.

    That tail is 2^-64 of the smallest peak a law on L * (p.size - 1) + 1
    cells can have.  By Chernoff the probability is at most
    exp(L log E e^(tX) - tH) for every t > 0, so each t gives a valid horizon
    (L log E e^(tX) - log tail) / t.  The smallest over a grid of t around the
    Gaussian optimum is taken, plus a cell to spare.
    """
    log_tail = -64 * math.log(2) - math.log(L * (p.size - 1) + 1)
    k = np.arange(p.size, dtype=float)
    var = float(np.dot((k - np.dot(k, p)) ** 2, p))
    t = math.sqrt(-2.0 * log_tail / (L * var)) if var > 0.0 else 1.0
    t *= 2.0 ** (np.arange(-32, 33) / 4.0)
    with np.errstate(divide="ignore"):  # log 0 = -inf in a cell where p is 0
        logp = np.log(p)
    rows = max(1, 2**16 // p.size)  # about 64k terms at a time
    log_mgf = np.concatenate(
        [_logsumexp(logp + t[i : i + rows, None] * k, axis=1) for i in range(0, t.size, rows)]
    )
    return math.ceil(float(np.min((L * log_mgf - log_tail) / t))) + 1


def _power_convolve(p: np.ndarray, L: int, horizon: int) -> tuple[np.ndarray, float]:
    """First H cells of the L-fold convolution of a pmf, scaled to peak 1, and its log scale.

    H is min(horizon, L * (p.size - 1) + 1): the caller proves that its
    window holds what it reads.  Binary exponentiation: each fold cuts its
    operands to their first H cells and to their last nonzero cell (past it
    the folded laws hold cells that underflowed to exactly 0), takes the
    first H cells of ``np.convolve`` of the two (which runs the longer
    operand first, the left one on a tie) and scales them by their own peak.
    A cell below H depends only on the operands' cells below H, whatever the
    summation order, and each sums nonnegative products, so it is exact to a
    relative error of its length times the rounding unit unless a term
    underflows.  Leading zeros (w(0) = 0) are kept: dropping them moves where
    each dot product starts, and so the rounding near the peak.
    A window in which every cell underflowed, p's first H cells too, stays
    zero, with log scale -inf.
    """
    H = min(horizon, L * (p.size - 1) + 1)

    def fold(x, y):
        (a, log_a), (b, log_b) = x, y
        out = np.convolve(a, b)[:H]
        peak = out[int(out.argmax())]
        if peak == 0.0:
            return out[:1], -math.inf
        out /= peak
        return _nonzero_head(out), log_a + log_b + math.log(peak)

    result, base = (np.array([1.0]), 0.0), (_nonzero_head(p[:H]), 0.0)
    k = L
    while True:
        if k & 1:
            result = fold(result, base)
        k >>= 1
        if not k:
            break
        base = fold(base, base)
    cells, log_scale = result
    return np.pad(cells, (0, H - cells.size)), log_scale


def _retilt(logp: np.ndarray, L: int, N: int) -> tuple[np.ndarray, float]:
    """The law with log-probabilities logp tilted so that its mean is N / L, and the log normaliser c.

    The tilt is e^{tn} with t = sL, written centred as e^{s(nL - N)}: the
    tilted law is p_t(n) = p(n) e^{s(nL - N) - c}.  Any L draws that sum to N
    have sum(n_i L - N) = 0, so log P[S_L = N] = log P_t[S_L = N] + L c
    exactly, for every s; this is the identity log P_t - tN + L log sum p e^{tn}
    with the tN folded into the exponent.  s is found by bisection on the sign
    of the tilted mean minus N / L, down to adjacent doubles.  The bracket
    doubles until that sign changes or the mean reaches N / L to the last
    bit, which at an end of the support happens only once every other cell
    has underflowed next to the end cell.  logp is taken as it is, so a cell
    whose probability is below the double range keeps its weight.
    """
    k = np.arange(logp.size, dtype=float) * L - N  # exact integers

    def offset(s):  # L * (tilted mean) - N
        b = logp + s * k
        q = np.exp(b - b.max())
        return float(np.dot(k, q) / q.sum())

    lo, hi = -1.0, 1.0
    while offset(lo) > 0.0:
        lo *= 2.0
    while offset(hi) < 0.0:
        hi *= 2.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if offset(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    b = logp + lo * k
    c = float(_logsumexp(b))
    return np.exp(b - c), c


def relative_entropy_bound(table: LogZTable, L: int, N: int, phi: float) -> float:
    """Per-site relative-entropy bound -(1/L) log P[sum of L tilted draws = N].

    The tilted row log p(n) = log w(n) + n log phi - log z(phi) is taken over
    n = 0..N, the only cells that can reach S_L = N, and its L-fold law is
    computed exactly on its first N + 1 cells by ``_power_convolve``, the log
    scale carried through the folds.  Like the marginal, the row and its
    normaliser z(phi) use the table's pinned weight row w_{L_max}, also when
    L < L_max.  A total that no configuration carries (Z_{L,N} = 0) is refused
    by the table's exact test; at phi = 0 every site holds 0, so the bound is
    0 at N = 0 and +inf past it.  When cell N of the window underflows
    (P[S_L = N] far below the double range, as near an end of the support),
    the row is re-tilted in log space so that its mean is N / L (see
    ``_retilt``) and folded again, which brings cell N back into range; a
    re-tilted cell that is still 0 raises FloatingPointError.
    """
    gc = grand_canonical_stats(table.family, table.L_max, phi)
    _check_cell(table, L, N)
    if phi == 0.0:
        return 0.0 if N == 0 else math.inf
    logp = table.log_w[: N + 1] + math.log(phi) * np.arange(N + 1) - gc.log_z
    vec, log_scale = _power_convolve(np.exp(logp), L, N + 1)
    if vec[N] <= 0.0:
        tilted, c = _retilt(logp, L, N)
        vec, log_scale = _power_convolve(tilted, L, N + 1)
        log_scale += L * c
    if vec[N] <= 0.0:
        raise FloatingPointError(f"P[S_{L} = {N}] underflowed to zero after the re-tilt")
    return -(math.log(vec[N]) + log_scale) / L


def tv_distance_marginal(table: LogZTable, L: int, N: int, phi: float) -> float:
    """Total-variation distance between the exact single-site marginal and its tilted law.

    The marginal uses the table's pinned weight row w_{L_max}, so the tilted
    law is that row's, also when L < L_max.
    """
    pi = single_site_marginals(table, L, N)
    gc = grand_canonical_stats(table.family, table.L_max, phi)
    nu = gc.pmf()
    k = min(pi.size, nu.size)
    dist = float(np.abs(pi[:k] - nu[:k]).sum())
    dist += float(np.abs(pi[k:]).sum()) + float(np.abs(nu[k:]).sum())
    return 0.5 * dist


def local_clt_report(family: WeightFamily, L: int) -> DiagnosticsReport:
    """Local-CLT diagnostics for the sum of L draws from the near-critical tilted law.

    Reports the centering a_L = L R_L(phi_L), the scale b_L = sqrt(L sigma_L^2),
    the overlap statistic Q_L, the sup-norm distance between the exact lattice
    law of the sum and the Gaussian density, and Lindeberg sums at a few
    thresholds.  The sum's law is convolved in linear space with one
    rescaling per fold, its log carried along, because the sup-norm comparison
    needs absolute probabilities.  The sup is taken over the law's first H
    cells, H the Chernoff horizon past which the tail holds at most 2^-64 of
    the smallest peak a law on L * n + 1 cells can have.  When that window
    cannot be shown to hold the sup, the whole law is folded once.
    """
    phi_l = phi_sequence(family, L)
    gc = grand_canonical_stats(family, L, phi_l)
    report = DiagnosticsReport(
        name="local_clt",
        params={"family": family.to_json_dict(), "L": L, "phi_L": phi_l},
    )
    report.add("phi_L", phi_l)
    report.add("mean", gc.mean)
    report.add("variance", gc.variance)
    if gc.variance <= 0.0:
        report.add("degenerate_variance", 1.0)
        return report

    nu = gc.pmf()
    a_l = L * gc.mean
    b_l = math.sqrt(L * gc.variance)
    q_l = L * float(np.minimum(nu[:-1], nu[1:]).sum())

    def gauss(n):
        return np.exp(-0.5 * ((n - a_l) / b_l) ** 2) / math.sqrt(2 * math.pi)

    # the sup over the first H cells is the sup over all once no cell from H on
    # can reach it: b_L P[S_L >= H] <= b_L 2^-64 / size by the horizon's own
    # bound, which holds at every larger H too, and the Gaussian past its
    # centre, at most its value at H
    size = L * (nu.size - 1) + 1
    for H in (_chernoff_horizon(nu, L), size):
        vec, log_scale = _power_convolve(nu, L, H)
        pmf = vec * math.exp(log_scale)
        sup_err = float(np.max(np.abs(b_l * pmf - gauss(np.arange(pmf.size, dtype=float)))))
        if pmf.size == size or (H > a_l and 2 * gauss(H) < sup_err and b_l * 2.0**-64 / size < sup_err / 2):
            break

    report.add("a_L", a_l)
    report.add("b_L", b_l)
    report.add("Q_L", q_l)
    report.add("clt_sup_error", sup_err)

    k = np.arange(nu.size, dtype=float)
    dev2 = (k - gc.mean) ** 2
    for eps in (0.1, 0.5, 1.0):
        cut = dev2 > (eps * b_l) ** 2
        report.add(f"lindeberg_eps={eps}", float(np.dot(dev2[cut], nu[cut])) / gc.variance)
    report.add("n_trunc", float(gc.n_trunc))
    return report
