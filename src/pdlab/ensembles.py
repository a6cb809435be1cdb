"""Exact log-space canonical partition functions and ensemble diagnostics.

Partition functions are built by the convolution recursion
``Z_{l,n} = sum_k w_L(k) Z_{l-1,n-k}`` on linear rows that each carry one log
offset, and are stored in log space, since Z spans hundreds of orders of
magnitude already for L, N in the hundreds.  All marginal, grand-canonical,
entropy, and local-CLT quantities are derived from those tables or from
tilted single-site laws.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

from .report import DiagnosticsReport
from .weights import (
    NEG_INF,
    WeightFamily,
    limit_support,
    limit_weight_row,
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


def _scaled_convolve(a: np.ndarray, log_a: float, b: np.ndarray, log_b: float):
    """Linear convolution of exp(log_a) * a and exp(log_b) * b as (vector, log offset).

    The vector is rescaled to peak 1, positive as each input holds a 1 or is a
    pmf.  All terms are nonnegative, so every cell is exact to a relative error
    of its length times the rounding unit, as long as no term underflows.
    """
    out = np.convolve(a, b)
    peak = out.max()
    return out / peak, log_a + log_b + math.log(peak)


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


def build_logz(family: WeightFamily, L: int, N: int) -> LogZTable:
    """Build the full log Z grid up to (L, N).

    Each row is the previous row convolved with the weight row in linear
    space, both scaled to maximum 1.  A term below the smallest normal
    double removes at most (N+1) * tiny from a cell, so a cell n whose scaled
    value is below (N+1) * tiny / eps gets a log-sum-exp over k in the weight
    support ks if reached: if n is on l * ks[0] + gcd(ks - ks[0]) * Z and in
    the sumset of ks and the finite cells of row l - 1, taken exactly as the
    OR of that row's finite mask, packed into an int, shifted by each k.
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
    w_off = logw.max() if ks.size else 0.0
    w_lin = np.exp(logw - w_off)
    step = int(np.gcd.reduce(ks - ks[:1])) or 1
    floor = (N + 1) * np.finfo(float).tiny / np.finfo(float).eps
    for l in range(2, L + 1):
        prev = grid[l - 1]
        off = prev.max()
        if off == NEG_INF:
            break  # every later row is empty too
        lin, log_scale = _scaled_convolve(np.exp(prev - off), off, w_lin, w_off)
        lin = lin[: N + 1]
        ok = lin >= floor
        grid[l, ok] = np.log(lin[ok]) + log_scale
        n = np.flatnonzero(~ok)
        n = n[(n - l * ks[0]) % step == 0]
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
            grid[l, n] = _logsumexp(terms, axis=1)
    if N > 0 and grid[L, N] == NEG_INF:
        warnings.warn(
            f"Z_{{{L},{N}}} is exactly zero: no configuration carries mass {N}",
            stacklevel=2,
        )
    grid.setflags(write=False)
    return LogZTable(family=family, L_max=L, N_max=N, logz=grid, log_w=logw)


@lru_cache(maxsize=32)
def cached_logz(family: WeightFamily, L: int, N: int) -> LogZTable:
    """Memoized build_logz for internal reuse across diagnostics."""
    return build_logz(family, L, N)


def save_logz_cache(table: LogZTable, directory) -> Path:
    """Binary cache keyed by (family digest, L, N); plain .npy plus a JSON sidecar."""
    directory = Path(directory)
    key = f"logz_{table.family.digest()}_{table.L_max}_{table.N_max}"
    path = directory / f"{key}.npy"
    np.save(path, np.asarray(table.logz), allow_pickle=False)
    meta = {
        "family": table.family.to_json_dict(),
        "digest": table.family.digest(),
        "L": table.L_max,
        "N": table.N_max,
    }
    (directory / f"{key}.json").write_text(json.dumps(meta, sort_keys=True) + "\n")
    return path


def load_logz_cache(family: WeightFamily, L: int, N: int, directory) -> LogZTable | None:
    """The cached grid for (family, L, N), or None when it is missing or invalid.

    A grid is used only when its JSON sidecar names the same family digest,
    L and N, and the array is float64 of shape (L+1, N+1) with no NaN or
    +inf.  Anything else is a miss, so the caller rebuilds and overwrites it.
    """
    key = f"logz_{family.digest()}_{L}_{N}"
    path = Path(directory) / f"{key}.npy"
    try:
        meta = json.loads((Path(directory) / f"{key}.json").read_text())
        grid = np.load(path, allow_pickle=False)
    except (OSError, ValueError, EOFError):
        return None
    if not isinstance(meta, dict) or not isinstance(grid, np.ndarray):
        return None
    if (meta.get("digest"), meta.get("L"), meta.get("N")) != (family.digest(), L, N):
        return None
    if grid.dtype != np.float64 or grid.shape != (L + 1, N + 1):
        return None
    if np.isnan(grid).any() or (grid == np.inf).any():
        return None
    grid.setflags(write=False)
    return LogZTable(
        family=family, L_max=L, N_max=N, logz=grid,
        log_w=np.asarray(log_weight_row(family, L, N)),
    )


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
    _check_cell(table, L, N)
    if N < 1:
        raise ValueError("size-biased marginal needs N >= 1")
    probs = single_site_marginals(table, L, N)
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
    n_low = int(math.floor((1.0 - kappa) * N + 1e-9))
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
        p = np.exp(self.terms - _logsumexp(self.terms))
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
    """First moment of the limiting weights, sum_n n w(n)."""
    top = limit_support(family)
    w = np.exp(limit_weight_row(family, top))
    return float(np.dot(np.arange(top + 1, dtype=float), w))


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

    if L is None:
        hi = 1.0
        if mean_at(hi) < rho:
            raise SupercriticalDensityError(
                f"rho = {rho} exceeds the critical density; no finite fugacity exists"
            )
    else:
        hi = 1.0
        while mean_at(hi) < rho:
            hi *= 2.0
            if hi > 1e9:
                raise SupercriticalDensityError(
                    f"rho = {rho} is not attained by the tilted law at any fugacity"
                )
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


def _power_convolve(p: np.ndarray, L: int) -> tuple[np.ndarray, float]:
    """L-fold convolution of a pmf by binary exponentiation with per-fold rescaling."""
    result, log_result = np.array([1.0]), 0.0
    base, log_base = p.copy(), 0.0
    k = L
    while k:
        if k & 1:
            result, log_result = _scaled_convolve(result, log_result, base, log_base)
        k >>= 1
        if k:
            base, log_base = _scaled_convolve(base, log_base, base, log_base)
    return result, log_result


def relative_entropy_bound(family: WeightFamily, L: int, N: int, phi: float) -> float:
    """Per-site relative-entropy bound -(1/L) log P[sum of L tilted draws = N].

    The sum's law is computed exactly by L-fold convolution of the truncated
    single-site law (log scale carried through the folds).  A numerically
    vanishing probability is reported as +inf.
    """
    gc = grand_canonical_stats(family, L, phi)
    p = gc.pmf()
    vec, log_scale = _power_convolve(p, L)
    if N >= vec.size or vec[N] <= 0.0:
        warnings.warn(
            f"P[S_{L} = {N}] underflowed to zero (support up to {vec.size - 1}, "
            f"truncation at n = {gc.n_trunc})",
            stacklevel=2,
        )
        return math.inf
    return -(math.log(vec[N]) + log_scale) / L


def tv_distance_marginal(table: LogZTable, L: int, N: int, phi: float) -> float:
    """Total-variation distance between the exact single-site marginal and its family's tilted law."""
    pi = single_site_marginals(table, L, N)
    gc = grand_canonical_stats(table.family, L, phi)
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
    thresholds.  The sum's law is convolved in linear space with one global
    rescaling per fold, because the sup-norm comparison needs absolute
    probabilities.
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

    vec, log_scale = _power_convolve(nu, L)
    pmf = vec * math.exp(log_scale)
    n = np.arange(pmf.size, dtype=float)
    gauss = np.exp(-0.5 * ((n - a_l) / b_l) ** 2) / math.sqrt(2 * math.pi)
    sup_err = float(np.max(np.abs(b_l * pmf - gauss)))

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
