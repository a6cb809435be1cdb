"""Reference values computed without pdlab, and the statistics the checks use.

Nothing here imports pdlab: every value comes from a closed form, exact
integer or rational arithmetic, or brute-force enumeration, so agreement with
the program is a check by a second route.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

NEG_INF = float("-inf")

# A correct program fails a test at this level with probability below 1e-6,
# whatever the seed and however the program orders its random streams.
Z_LIMIT = 5.0
DKW_DELTA = 1e-6


# ---------------------------------------------------------------------------
# partition functions
# ---------------------------------------------------------------------------


def inclusion_log_weight(theta: float, L: int, n: int) -> float:
    """log w_L(n) = log[(d)_n / n!] with d = theta / L."""
    d = theta / L
    return math.lgamma(n + d) - math.lgamma(d) - math.lgamma(n + 1)


def inclusion_logz(theta: float, L: int, l: int, n: int) -> float:
    """log Z_{l,n} = log[(l theta / L)_n / n!] for weights pinned at size L."""
    if l == 0:
        return 0.0 if n == 0 else NEG_INF
    a = l * theta / L
    return math.lgamma(n + a) - math.lgamma(a) - math.lgamma(n + 1)


def flat_count(l: int, n: int, top: int) -> int:
    """Compositions of n into l parts in {0..top}, by inclusion-exclusion."""
    if l == 0:
        return 1 if n == 0 else 0
    s = top + 1
    return sum(
        (-1) ** j * math.comb(l, j) * math.comb(n - s * j + l - 1, l - 1)
        for j in range(min(l, n // s) + 1)
    )


def log_int(value: int) -> float:
    return math.log(value) if value > 0 else NEG_INF


def bulk_tail_logz(theta: float, A: int, bulk, L: int, l_max: int, n_max: int):
    """Exact rational log Z_{l,n} for l <= l_max, n <= n_max, weights pinned at L."""
    w = [Fraction(bulk[n]) if n <= A else Fraction(theta) / (n * L) for n in range(n_max + 1)]
    row = [Fraction(1)] + [Fraction(0)] * n_max
    out = [[_log_fraction(z) for z in row]]
    for _ in range(l_max):
        row = [sum(w[k] * row[n - k] for k in range(n + 1)) for n in range(n_max + 1)]
        out.append([_log_fraction(z) for z in row])
    return out


def _log_fraction(z: Fraction) -> float:
    if z == 0:
        return NEG_INF
    return math.log(z.numerator) - math.log(z.denominator)


def inclusion_marginal(theta: float, L: int, N: int) -> list[float]:
    """Exact law of one site's occupation under the canonical inclusion measure."""
    top = inclusion_logz(theta, L, L, N)
    return [
        math.exp(inclusion_log_weight(theta, L, n) + inclusion_logz(theta, L, L - 1, N - n) - top)
        for n in range(N + 1)
    ]


# ---------------------------------------------------------------------------
# lattice split-merge generator and reversibility defect
# ---------------------------------------------------------------------------

LATTICE_TOL = 1e-9


def p1(masses):
    return masses[0]


def p1_p2(masses):
    return masses[0] * masses[1]


def _masses(counts, N: int) -> list[float]:
    desc = sorted((c for c in counts if c), reverse=True)
    return [c / N for c in desc] + [0.0, 0.0]


def lattice_generator(counts, N: int, eps: float, theta: float, f) -> float:
    """Lattice split-merge generator at cutoff eps applied to f, from its definition.

    Merges: ordered pairs of distinct blocks, both of mass >= eps, at rate
    p_i p_j, scaled by N / (N - 1).  Splits: blocks of mass >= 2 eps, cut at
    every lattice point k with both pieces >= eps, at rate p_i, scaled by
    theta / (N - 1).
    """
    base = f(_masses(counts, N))
    merge_sum = 0.0
    big = [i for i, c in enumerate(counts) if c / N >= eps - LATTICE_TOL]
    for i in big:
        for j in big:
            if i == j:
                continue
            rest = [c for t, c in enumerate(counts) if t not in (i, j)]
            merged = f(_masses(rest + [counts[i] + counts[j]], N))
            merge_sum += counts[i] * counts[j] / (N * N) * (merged - base)
    split_sum = 0.0
    k_lo = max(1, math.ceil(eps * N - LATTICE_TOL))
    for i, c in enumerate(counts):
        if c / N < 2 * eps - LATTICE_TOL:
            continue
        rest = counts[:i] + counts[i + 1 :]
        k_hi = min(c - 1, math.floor(c - eps * N + LATTICE_TOL))
        for k in range(k_lo, k_hi + 1):
            split_sum += c / N * (f(_masses(rest + [k, c - k], N)) - base)
    return N / (N - 1) * merge_sum + theta / (N - 1) * split_sum


def lattice_defect(weight_theta: float, L: int, N: int, eps: float, theta: float, f, g) -> float:
    """mu(f G g) - mu(g G f) under the canonical inclusion measure, by enumeration.

    Every configuration of N particles on L sites is listed with
    ``itertools.combinations`` (stars and bars) and weighted by the
    closed-form inclusion weights.
    """
    logw = [inclusion_log_weight(weight_theta, L, n) for n in range(N + 1)]
    h_cache: dict[tuple, float] = {}
    terms, weights = [], []
    for bars in itertools.combinations(range(N + L - 1), L - 1):
        occ = [b - a - 1 for a, b in zip((-1, *bars), (*bars, N + L - 1))]
        key = tuple(sorted((n for n in occ if n), reverse=True))
        h = h_cache.get(key)
        if h is None:
            counts = list(key)
            masses = _masses(counts, N)
            h = f(masses) * lattice_generator(counts, N, eps, theta, g) - g(
                masses
            ) * lattice_generator(counts, N, eps, theta, f)
            h_cache[key] = h
        w = math.exp(math.fsum(logw[n] for n in occ))
        weights.append(w)
        terms.append(w * h)
    return math.fsum(terms) / math.fsum(weights)


# ---------------------------------------------------------------------------
# Poisson-Dirichlet moments
# ---------------------------------------------------------------------------


def pd_moment(theta: float, alpha: float, k: int) -> float:
    """E sum_i p_i^k for stick-breaking on [0, alpha]: alpha^k (k-1)! / prod_{j<k} (j + theta)."""
    return alpha**k * math.factorial(k - 1) / math.prod(j + theta for j in range(1, k))


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def mean_se(values) -> tuple[float, float]:
    vals = [float(v) for v in values]
    n = len(vals)
    mean = math.fsum(vals) / n
    var = math.fsum((v - mean) ** 2 for v in vals) / (n - 1)
    return mean, math.sqrt(var / n)


def chi_square_z(observed, probs, min_expected: float = 5.0) -> tuple[float, int]:
    """Pearson's chi-square of counts against a law, as a Wilson-Hilferty z-score.

    Adjacent outcomes are pooled until each bin expects at least
    ``min_expected`` observations.  Also returns the number of observations
    that fell on outcomes of probability zero.
    """
    total = sum(observed)
    impossible = sum(o for o, p in zip(observed, probs) if p <= 0.0 and o)
    bins: list[list[float]] = []
    obs_acc = exp_acc = 0.0
    for o, p in zip(observed, probs):
        obs_acc += o
        exp_acc += total * p
        if exp_acc >= min_expected:
            bins.append([obs_acc, exp_acc])
            obs_acc = exp_acc = 0.0
    if bins:
        bins[-1][0] += obs_acc
        bins[-1][1] += exp_acc
    dof = len(bins) - 1
    if dof < 1:
        return 0.0, impossible
    x2 = math.fsum((o - e) ** 2 / e for o, e in bins)
    c = 2.0 / (9.0 * dof)
    z = ((x2 / dof) ** (1.0 / 3.0) - (1.0 - c)) / math.sqrt(c)
    return z, impossible


def ks_uniform(values) -> float:
    """Kolmogorov-Smirnov distance of a sample to U[0, 1]."""
    xs = sorted(float(v) for v in values)
    n = len(xs)
    return max(max((i + 1) / n - x, x - i / n) for i, x in enumerate(xs))


def dkw_bound(n: int, delta: float = DKW_DELTA) -> float:
    """Distance the empirical CDF of n draws exceeds with probability at most delta."""
    return math.sqrt(math.log(2.0 / delta) / (2.0 * n))
