"""Split-merge dynamics on ordered partitions and their lattice counterparts.

The continuous-time chain merges distinct blocks i, j at rate p_i p_j (over
ordered pairs, so each unordered pair counts twice) and splits block i at a
uniform point at rate theta p_i^2.  The lattice generator acts on partitions
with masses in (1/N) Z and only moves blocks above a cutoff eps; its exact
large-N limit, the cutoff generator, and the full generator are all available
for the convergence and reversibility diagnostics.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .ensembles import _check_cell, cached_logz
from .partitions import OrderedPartition, _as_generator
from .report import DiagnosticsReport
from .sampler import Configuration, sample_configurations
from .weights import WeightFamily

LATTICE_TOL = 1e-9


# ---------------------------------------------------------------------------
# cylinder test functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CylinderFunction:
    """Bounded function of finitely many partition coordinates.

    ``terms`` is a sum of monomials, each a coefficient together with
    (1-based index, power) pairs.  kind "bounded_exp" wraps the sum s(p) as
    exp(-s(p)); the other kinds evaluate the sum directly.
    """

    kind: str
    terms: tuple[tuple[float, tuple[tuple[int, int], ...]], ...]
    label: str = ""

    def __post_init__(self):
        if self.kind not in ("monomial", "poly", "bounded_exp"):
            raise ValueError(f"unknown cylinder function kind {self.kind!r}")
        for _, powers in self.terms:
            for idx, power in powers:
                if idx < 1 or power < 1:
                    raise ValueError("indices and powers must be >= 1")

    @classmethod
    def monomial(cls, powers: dict[int, int], coeff: float = 1.0, label: str = "") -> "CylinderFunction":
        term = (float(coeff), tuple(sorted(powers.items())))
        return cls(kind="monomial", terms=(term,), label=label)

    @classmethod
    def poly(cls, terms, label: str = "") -> "CylinderFunction":
        packed = tuple((float(c), tuple(sorted(p.items()))) for c, p in terms)
        return cls(kind="poly", terms=packed, label=label)

    @property
    def depends_on(self) -> int:
        """Largest coordinate index the function reads."""
        return max(idx for _, powers in self.terms for idx, _ in powers)

    def evaluate_tops(self, tops: np.ndarray) -> np.ndarray:
        """Evaluate on a (batch, m) array of leading entries, m >= depends_on."""
        acc = np.zeros(tops.shape[0])
        for coeff, powers in self.terms:
            term = np.full(tops.shape[0], coeff)
            for idx, power in powers:
                term = term * tops[:, idx - 1] ** power
            acc += term
        if self.kind == "bounded_exp":
            return np.exp(-acc)
        return acc

    def __call__(self, p) -> float:
        arr = p.as_array() if isinstance(p, OrderedPartition) else np.asarray(p, dtype=float)
        tops = _leading(arr, self.depends_on)
        return float(self.evaluate_tops(tops[None, :])[0])


P1 = CylinderFunction.monomial({1: 1}, label="p1")
P1_SQUARED = CylinderFunction.monomial({1: 2}, label="p1^2")
P1_P2 = CylinderFunction.monomial({1: 1, 2: 1}, label="p1*p2")
P1_PLUS_P2 = CylinderFunction.poly([(1.0, {1: 1}), (1.0, {2: 1})], label="p1+p2")
EXP_NEG_P1 = CylinderFunction(kind="bounded_exp", terms=((1.0, ((1, 1),)),), label="exp(-p1)")

FUNCTION_LIBRARY = {f.label: f for f in (P1, P1_SQUARED, P1_P2, P1_PLUS_P2, EXP_NEG_P1)}


def _leading(arr: np.ndarray, m: int) -> np.ndarray:
    out = np.zeros(m)
    k = min(m, arr.size)
    out[:k] = arr[:k]
    return out


def _merge_tops(arr: np.ndarray, i: int, j: int, m: int) -> list[float]:
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


def _split_tops(others: np.ndarray, a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """Leading m entries after replacing a block by pieces a, b (vectorised)."""
    cands = np.empty((a.size, m + 2))
    cands[:, :m] = others[None, :]
    cands[:, m] = a
    cands[:, m + 1] = b
    cands.sort(axis=1)
    return cands[:, ::-1][:, :m]


def _others_leading(arr: np.ndarray, skip: int, m: int) -> np.ndarray:
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


# ---------------------------------------------------------------------------
# elementary moves
# ---------------------------------------------------------------------------


def merge(p: OrderedPartition, i: int, j: int) -> OrderedPartition:
    """Replace blocks i and j (1-based) by one block of their combined mass."""
    n = len(p)
    if i == j or not (1 <= i <= n) or not (1 <= j <= n):
        raise ValueError("merge needs two distinct in-range indices")
    vals = list(p.masses)
    merged = vals[i - 1] + vals[j - 1]
    rest = [v for t, v in enumerate(vals) if t not in (i - 1, j - 1)]
    return OrderedPartition.from_masses(rest + [merged])


def split(p: OrderedPartition, i: int, u: float) -> OrderedPartition:
    """Split block i (1-based) into pieces u p_i and (1-u) p_i."""
    if not (1 <= i <= len(p)):
        raise ValueError("split index out of range")
    if not 0.0 < u < 1.0:
        raise ValueError("split point must lie strictly inside (0, 1)")
    vals = list(p.masses)
    v = vals.pop(i - 1)
    return OrderedPartition.from_masses(vals + [u * v, (1.0 - u) * v])


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def _gauss_legendre(nodes: int):
    x, w = np.polynomial.legendre.leggauss(nodes)
    return x, w


def _panel_points(lo: float, hi: float, breaks, nodes: int):
    """Gauss-Legendre nodes and weights on [lo, hi], subdivided at breakpoints.

    The integrands here are piecewise smooth with kinks where the sorted
    order changes, so panel-wise quadrature is exact to machine precision for
    polynomial test functions.
    """
    x, w = _gauss_legendre(nodes)
    pts = sorted({lo, hi, *(b for b in breaks if lo < b < hi)})
    us, ws = [], []
    for a, b in zip(pts, pts[1:]):
        if b - a <= 0:
            continue
        us.append(0.5 * (b - a) * x + 0.5 * (a + b))
        ws.append(0.5 * (b - a) * w)
    return np.concatenate(us), np.concatenate(ws)


def _merge_sum(arr: np.ndarray, fs, base, eps: float) -> list[float]:
    """sum over ordered pairs of p_i p_j [f(merged) - f(p)], cut at eps (none when eps = 0)."""
    m = max(f.depends_on for f in fs)
    if eps > 0.0:
        idxs = np.nonzero(arr >= eps - LATTICE_TOL)[0]
    else:
        idxs = np.nonzero(arr > 0.0)[0]
    pairs = [(i, j) for a, i in enumerate(idxs) for j in idxs[a + 1 :]]
    if not pairs:
        return [0.0 for _ in fs]
    tops = np.array([_merge_tops(arr, i, j, m) for i, j in pairs])
    wts = np.array([2.0 * arr[i] * arr[j] for i, j in pairs])
    return [float(np.dot(wts, f.evaluate_tops(tops) - b)) for f, b in zip(fs, base)]


def _split_integral(arr, i, f_list, nodes, lo, hi):
    """integral over u in [lo, hi] of f(partition with block i split at u), per f."""
    m = max(f.depends_on for f in f_list)
    v = float(arr[i])
    others_all = np.delete(arr, i)
    breaks = {0.5}
    for q in others_all:
        if 0 < q < v:
            breaks.add(q / v)
            breaks.add(1.0 - q / v)
    us, ws = _panel_points(lo, hi, breaks, nodes)
    tops = _split_tops(_leading(others_all, m), us * v, (1.0 - us) * v, m)
    return [float(np.dot(ws, f.evaluate_tops(tops))) for f in f_list]


def _one_block_monomial_split(theta: float, v: float, f: CylinderFunction) -> float:
    """Closed form of the split term for a single block and a monomial in p_1."""
    total = 0.0
    for coeff, powers in f.terms:
        if any(idx != 1 for idx, _ in powers):
            raise ValueError("closed form needs a function of p_1 only")
        k = sum(power for _, power in powers)
        integral = coeff * v**k * 2.0 * (1.0 - 0.5 ** (k + 1)) / (k + 1)
        total += v * v * (integral - coeff * v**k)
    return theta * total


def generator_apply(
    theta: float,
    p: OrderedPartition,
    f: CylinderFunction,
    quadrature_nodes: int = 64,
    split_method: str = "quadrature",
) -> float:
    """Apply the full split-merge generator to f at p.

    Merge part: sum over ordered pairs i != j of p_i p_j [f(merge) - f(p)].
    Split part: theta sum_i p_i^2 [int_0^1 f(split at u) du - f(p)], with the
    integral evaluated by panel-subdivided Gauss-Legendre quadrature (the
    cutoff generator at eps = 0), or by the exact closed form for monomials
    in p_1 on a one-block partition.
    """
    if split_method == "quadrature":
        return cutoff_generator_apply(theta, 0.0, p, f, quadrature_nodes)
    if split_method != "closed_form":
        raise ValueError("split_method must be 'quadrature' or 'closed_form'")
    arr = p.as_array()
    if arr.size > 1:
        raise ValueError("closed form applies to one-block partitions only")
    # a lone block has nothing to merge with, so only the split term remains
    return _one_block_monomial_split(theta, float(arr[0]), f) if arr.size else 0.0


def cutoff_generator_apply(
    theta: float,
    eps: float,
    p: OrderedPartition,
    f: CylinderFunction,
    quadrature_nodes: int = 64,
) -> float:
    """Apply the eps-cutoff generator, the exact large-N limit of the lattice one.

    Merges only pairs with both blocks >= eps; splits only blocks >= 2 eps and
    only into pieces >= eps, i.e. the split integral runs over u in
    [eps/p_i, 1 - eps/p_i] of f(split at u) - f(p).  eps = 0 is the full
    generator.
    """
    if not eps >= 0.0:
        raise ValueError("eps must be nonnegative")
    arr = p.as_array()
    if arr.size == 0:
        return 0.0
    base = [f(p)]
    merge_part = _merge_sum(arr, (f,), base, eps=eps)[0]
    split_part = 0.0
    if theta != 0.0:
        for i in range(arr.size):
            v = float(arr[i])
            if v < 2 * eps:
                continue
            lo = eps / v
            integral = _split_integral(arr, i, (f,), quadrature_nodes, lo=lo, hi=1.0 - lo)[0]
            split_part += v * v * (integral - (1.0 - 2.0 * lo) * base[0])
    return merge_part + theta * split_part


def _lattice_check(arr: np.ndarray, N: int) -> np.ndarray:
    counts = np.rint(arr * N)
    if np.max(np.abs(arr * N - counts)) > LATTICE_TOL:
        raise ValueError("partition masses must be multiples of 1/N")
    return counts.astype(np.int64)


def _discrete_apply_many(theta, N, eps, arr, fs):
    """Lattice generator applied to several test functions at once.

    Returns (applied values, base values f(p)).
    """
    counts = _lattice_check(arr, N)
    m = max(f.depends_on for f in fs)
    tops0 = _leading(arr, m)
    base = [float(f.evaluate_tops(tops0[None, :])[0]) for f in fs]

    merge_parts = _merge_sum(arr, fs, base, eps=eps)

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
            tops = _split_tops(_others_leading(arr, i, m), a, b, m)
            for t, f in enumerate(fs):
                vals = f.evaluate_tops(tops)
                split_parts[t] += float(arr[i]) * float(np.sum(vals - base[t]))

    scale_merge = N / (N - 1)
    scale_split = theta / (N - 1)
    applied = [scale_merge * mp + scale_split * sp for mp, sp in zip(merge_parts, split_parts)]
    return applied, base


def discrete_generator_apply(
    theta: float, N: int, eps: float, p: OrderedPartition, f: CylinderFunction
) -> float:
    """Apply the lattice split-merge generator at cutoff eps to f at p.

    Masses must be multiples of 1/N.  Merges need both blocks >= eps; splits
    act on blocks >= 2 eps and enumerate lattice split points k from
    ceil(eps N) to floor(N (p_i - eps)).
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if N < 2:
        raise ValueError("N must be >= 2")
    arr = p.as_array()
    if arr.size == 0:
        return 0.0
    applied, _ = _discrete_apply_many(theta, N, eps, arr, (f,))
    return applied[0]


# ---------------------------------------------------------------------------
# event-driven simulation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SplitMergeState:
    partition: OrderedPartition
    time: float
    merges: int
    splits: int


def _first_above(cum: list[float], x: float) -> int:
    """First index whose running sum exceeds x, clamped to the last index."""
    return min(bisect_right(cum, x), len(cum) - 1)


class _SplitMergeCore:
    """Mutable block list with the running split/merge event kernel.

    Picks invert running sums of the Python block list by binary search, the
    direct method of Gillespie with no NumPy call per event.
    """

    def __init__(self, masses, theta: float):
        self.blocks = [float(v) for v in masses if v > 0.0]
        self.theta = float(theta)
        self.s1 = float(sum(self.blocks))
        self.s2 = float(sum(v * v for v in self.blocks))
        self.merges = 0
        self.splits = 0
        self._events_since_refresh = 0

    def _refresh(self):
        self.s2 = float(sum(v * v for v in self.blocks))
        self._events_since_refresh = 0

    def step(self, g: np.random.Generator) -> float:
        """Advance one event; returns the waiting time (inf when absorbed)."""
        if self._events_since_refresh >= 4096:
            self._refresh()
        merge_rate = max(self.s1 * self.s1 - self.s2, 0.0)
        split_rate = self.theta * self.s2
        total = merge_rate + split_rate
        blocks = self.blocks
        if total <= 0.0 or len(blocks) == 0:
            return math.inf
        dt = g.exponential(1.0 / total)
        if g.random() * total < merge_rate:
            cum = list(accumulate(blocks))
            while True:
                i = _first_above(cum, g.random() * cum[-1])
                j = _first_above(cum, g.random() * cum[-1])
                if i != j:
                    break
            vi, vj = blocks[i], blocks[j]
            self.s2 += 2.0 * vi * vj
            # a rounded sum may pass the total; no block may hold more than all of it
            blocks[i] = min(vi + vj, self.s1)
            del blocks[j]
            self.merges += 1
        else:
            cum2 = list(accumulate(v * v for v in blocks))
            i = _first_above(cum2, g.random() * cum2[-1])
            while True:
                u = g.random()
                if 0.0 < u < 1.0:
                    break
            v = blocks[i]
            self.s2 -= 2.0 * u * (1.0 - u) * v * v
            # round the larger piece, subtract it from v exactly (Sterbenz): the pieces sum to v
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
        return dt

    def state(self, t: float) -> SplitMergeState:
        return SplitMergeState(
            partition=OrderedPartition.from_masses(self.blocks),
            time=t,
            merges=self.merges,
            splits=self.splits,
        )


def simulate(
    theta: float,
    p0: OrderedPartition,
    t_max: float,
    rng,
    sample_times=(),
) -> list[SplitMergeState]:
    """Event-driven split-merge trajectory started from p0.

    Records the state at each requested sample time (and at t_max when no
    times are given).  A split rounds its larger piece and stores the other
    as the block minus it, a subtraction that is exact by Sterbenz's lemma,
    so the two pieces sum to the block exactly.  A merge rounds the sum of
    its blocks and clamps it at the initial total, so no block ever holds
    more than the total; the only drift left is that rounding, half an ulp
    per merge at most.
    """
    if t_max <= 0.0:
        raise ValueError("t_max must be positive")
    if theta < 0.0:
        raise ValueError("theta must be >= 0")
    if not 0.0 < p0.total <= 1.0 + 1e-12:
        raise ValueError("initial mass must lie in (0, 1]")
    g = _as_generator(rng)
    times = sorted(float(t) for t in sample_times)
    if not times:
        times = [float(t_max)]
    if times[-1] > t_max:
        raise ValueError("sample times must not exceed t_max")
    core = _SplitMergeCore(p0.masses, theta)
    out: list[SplitMergeState] = []
    t = 0.0
    pending = 0
    while pending < len(times):
        dt = core.step(g)
        t_next = t + dt
        while pending < len(times) and times[pending] < t_next:
            out.append(core.state(times[pending]))
            pending += 1
        t = t_next
    return out


def time_averaged_l2(
    theta: float,
    p0: OrderedPartition,
    burn_in: float,
    duration: float,
    rng,
) -> tuple[float, SplitMergeState]:
    """Time average of sum_i p_i^2 over (burn_in, burn_in + duration], plus the final state."""
    if duration <= 0.0 or burn_in < 0.0:
        raise ValueError("need burn_in >= 0 and duration > 0")
    g = _as_generator(rng)
    core = _SplitMergeCore(p0.masses, theta)
    t = 0.0
    t_end = burn_in + duration
    acc = 0.0
    while t < t_end:
        s2_now = core.s2
        dt = core.step(g)
        t_next = min(t + dt, t_end)
        lo = max(t, burn_in)
        if t_next > lo:
            acc += s2_now * (t_next - lo)
        t = t + dt
    return acc / duration, core.state(t_end)


# ---------------------------------------------------------------------------
# lifted configuration moves
# ---------------------------------------------------------------------------


def lift_merge(eta: Configuration, x: int, y: int) -> Configuration:
    """Move all of site y's particles onto site x (1-based sites)."""
    L = eta.L
    if x == y or not (1 <= x <= L) or not (1 <= y <= L):
        raise ValueError("merge needs two distinct in-range sites")
    occ = eta.occupations.copy()
    occ[x - 1] += occ[y - 1]
    occ[y - 1] = 0
    return Configuration(occ)


def lift_split(eta: Configuration, x: int, y: int, k: int) -> Configuration:
    """Move k particles from site x onto the empty site y; inverse of lift_merge."""
    L = eta.L
    if x == y or not (1 <= x <= L) or not (1 <= y <= L):
        raise ValueError("split needs two distinct in-range sites")
    occ = eta.occupations.copy()
    if occ[y - 1] != 0:
        raise ValueError("the target site must be empty")
    if not 1 <= k <= occ[x - 1]:
        raise ValueError("k must satisfy 1 <= k <= eta_x")
    occ[x - 1] -= k
    occ[y - 1] = k
    return Configuration(occ)


def lift_split_append(eta: Configuration, x: int, k: int) -> Configuration:
    """Split k particles off site x onto a fresh site appended at the end.

    Only for full configurations (no empty site available); the result has
    L + 1 sites.
    """
    L = eta.L
    if not 1 <= x <= L:
        raise ValueError("site out of range")
    if eta.zero_count() != 0:
        raise ValueError("append split is reserved for configurations with no empty site")
    occ = eta.occupations
    if not 1 <= k <= occ[x - 1]:
        raise ValueError("k must satisfy 1 <= k <= eta_x")
    out = np.concatenate([occ, [0]])
    out[x - 1] -= k
    out[L] = k
    return Configuration(out)


# ---------------------------------------------------------------------------
# reversibility diagnostics
# ---------------------------------------------------------------------------


def rn_derivative_check(
    family: WeightFamily, L: int, N: int, samples: int, rng
) -> DiagnosticsReport:
    """Check the change-of-measure identity for merges on random configurations.

    For random (eta, x, y) with eta_y = k > 0, the log canonical probability
    drop from eta to the merged configuration must equal
    log[w(eta_x) w(k)] - log[w(eta_x + k) w(0)].  The left side is evaluated
    through the full product over sites, so the comparison exercises the whole
    weight pipeline; deviations are pure floating-point noise.
    """
    if N < 1:
        raise ValueError("the check needs N >= 1")
    table = cached_logz(family, L, N)
    logw = table.log_w
    if logw[0] == -math.inf:
        raise ValueError("the merge ratio needs w(0) > 0")
    g = _as_generator(rng)
    occ = sample_configurations(table, L, N, samples, g)
    worst = 0.0
    for row in occ:
        nz = np.nonzero(row)[0]
        y = int(nz[g.integers(nz.size)])
        x = int(g.integers(L - 1))
        if x >= y:
            x += 1
        k = int(row[y])
        merged = row.copy()
        merged[x] += k
        merged[y] = 0
        lhs = float(np.sum(logw[row]) - np.sum(logw[merged]))
        rhs = float(logw[row[x]] + logw[k] - logw[row[x] + k] - logw[0])
        worst = max(worst, abs(lhs - rhs))
    report = DiagnosticsReport(
        name="rn_derivative_check",
        params={"family": family.to_json_dict(), "L": L, "N": N, "samples": samples},
    )
    report.add("max_abs_log_deviation", worst)
    return report


@dataclass(frozen=True)
class DefectResult:
    """Signed reversibility defect mu(f G g) - mu(g G f) with its uncertainty."""

    defect: float
    stderr: float | None
    mode: str
    n: int
    params: dict

    def to_json_dict(self) -> dict:
        doc = dict(self.params)
        doc.update(
            {"defect": self.defect, "se": self.stderr, "mode": self.mode, "n": self.n}
        )
        return doc


EXACT_STATE_CAP = 10**7


def _partition_count(n: int, parts: int) -> int:
    """Number of partitions of n into at most ``parts`` parts, in O(n * parts).

    Uses p(m, <= k) = p(m, <= k - 1) + p(m - k, <= k) over part sizes k (a
    partition into at most k parts is the conjugate of one with parts <= k).
    The count only grows with k, so it stops as soon as it passes
    EXACT_STATE_CAP and then returns a number that is only known to exceed it.
    """
    counts = [1] + [0] * n
    for k in range(1, min(parts, n) + 1):
        for m in range(k, n + 1):
            counts[m] += counts[m - k]
        if counts[n] > EXACT_STATE_CAP:
            break
    return counts[n]


def _partitions(n: int, parts: int, largest: int):
    """Partitions of n into at most ``parts`` parts, none above ``largest``, descending.

    The head runs down from min(n, largest) to ceil(n / parts), the least head
    the remaining parts can follow, so no branch is a dead end.
    """
    if n == 0:
        yield ()
        return
    for head in range(min(n, largest), -(-n // parts) - 1, -1):
        for rest in _partitions(n - head, parts - 1, head):
            yield (head, *rest)


def _partition_array(row: np.ndarray, N: int) -> np.ndarray:
    desc = np.sort(row)[::-1]
    desc = desc[desc > 0]
    return desc.astype(float) / N


def reversibility_defect(
    family: WeightFamily,
    L: int,
    N: int,
    eps: float,
    theta: float,
    f: CylinderFunction,
    g: CylinderFunction,
    mode: str = "exact",
    samples: int | None = None,
    rng=None,
    chunk: int = 20_000,
) -> DefectResult:
    """mu_{L,N}(f G g) - mu_{L,N}(g G f) for the lattice generator at cutoff eps.

    The integrand h = f G g - g G f depends only on the sorted partition of a
    configuration.  Exact mode enumerates the partitions of N into at most L
    parts, each weighted by its canonical probability times the number
    L! / ((L - l)! prod_j m_j!) of configurations that sort to it (l parts,
    m_j of size j); it refuses more than 10^7 partitions, and ``n`` is their
    count.  mc mode averages h over ``samples`` exact canonical draws, one h
    per distinct sorted configuration of each chunk, and reports a standard
    error; ``n`` is the sample count.  The defect is antisymmetric in (f, g)
    by construction.
    """
    params = {
        "family": family.to_json_dict(),
        "L": L,
        "N": N,
        "eps": eps,
        "theta": theta,
        "f": f.label or "f",
        "g": g.label or "g",
    }

    def h_value(row: np.ndarray) -> float:
        applied, base = _discrete_apply_many(theta, N, eps, _partition_array(row, N), (f, g))
        return base[0] * applied[1] - base[1] * applied[0]

    if mode == "exact":
        n_states = _partition_count(N, L)
        if n_states > EXACT_STATE_CAP:
            raise ValueError(
                f"more than {EXACT_STATE_CAP} partitions of {N} into at most {L} parts "
                "exceed the exact-mode cap; use mode='mc'"
            )
        table = cached_logz(family, L, N)
        _check_cell(table, L, N)
        logw = table.log_w
        log_norm = math.lgamma(L + 1) - float(table.logz[L, N])
        total = 0.0
        for parts in _partitions(N, L, N):
            row = np.zeros(L, dtype=np.int64)
            row[: len(parts)] = parts
            # summing over all L sites keeps an exact zero weight, w(0) too, at -inf
            log_weight = float(np.sum(logw[row])) + log_norm - math.lgamma(L - len(parts) + 1)
            log_weight -= sum(math.lgamma(m + 1) for m in Counter(parts).values())
            weight = math.exp(log_weight)
            if weight == 0.0:
                continue
            total += weight * h_value(row)
        return DefectResult(defect=total, stderr=None, mode="exact", n=n_states, params=params)

    if mode != "mc":
        raise ValueError("mode must be 'exact' or 'mc'")
    if not samples or samples < 2:
        raise ValueError("mc mode needs a sample count >= 2")
    gen = _as_generator(rng)
    table = cached_logz(family, L, N)
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < samples:
        take = min(chunk, samples - done)
        occ = sample_configurations(table, L, N, take, gen)
        # group equal sorted rows by their bytes; np.unique(axis=0) compares
        # rows field by field and costs more than the draws on wide rows
        groups = Counter(map(bytes, np.sort(occ, axis=1)))
        for key, count in groups.items():
            h = h_value(np.frombuffer(key, dtype=occ.dtype))
            total += count * h
            total_sq += count * h * h
        done += take
    mean = total / samples
    var = max(total_sq - samples * mean * mean, 0.0) / (samples - 1)
    stderr = math.sqrt(var / samples)
    return DefectResult(defect=mean, stderr=stderr, mode="mc", n=samples, params=params)
