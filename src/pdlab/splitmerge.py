"""Split-merge dynamics on ordered partitions and their lattice counterparts.

The continuous-time chain merges distinct blocks i, j at rate p_i p_j (over
ordered pairs, so each unordered pair counts twice) and splits block i at a
uniform point at rate theta p_i^2.  The lattice generator acts on partitions
of N particles, in whole counts, and only moves blocks above a cutoff eps;
its exact large-N limit, the cutoff generator, and the full generator are all
available for the convergence and reversibility diagnostics.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain, islice, repeat
from operator import mul

import numpy as np

from .ensembles import _check_cell, cached_logz
from .partitions import OrderedPartition, _as_generator
from .report import DiagnosticsReport
from .sampler import Configuration, sample_configurations
from .weights import LATTICE_TOL, WeightFamily

# rows per lattice-kernel call: bounds the move arrays, a few hundred moves a row
ROW_BATCH = 512
MC_CHUNK = 20_000  # canonical draws per chunk of an mc defect; equal sorted rows share one h
UNIFORM_BLOCK = 256  # uniforms per Generator call in the event loop
# events times blocks one event loop may run: each event scans the block list,
# so this bounds its time; checked every 4096 events, with the s2 refresh
EVENT_WORK_CAP = 10**8


# ---------------------------------------------------------------------------
# cylinder test functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CylinderFunction:
    """Bounded function of finitely many partition coordinates.

    ``terms`` is a sum of monomials, each a coefficient together with
    (1-based index, power) pairs.  kind "poly" evaluates the sum s(p)
    directly; kind "bounded_exp" wraps it as exp(-s(p)).
    """

    kind: str
    terms: tuple[tuple[float, tuple[tuple[int, int], ...]], ...]
    label: str = ""

    def __post_init__(self):
        if self.kind not in ("poly", "bounded_exp"):
            raise ValueError(f"unknown cylinder function kind {self.kind!r}")
        for _, powers in self.terms:
            for idx, power in powers:
                if idx < 1 or power < 1:
                    raise ValueError("indices and powers must be >= 1")

    @classmethod
    def monomial(cls, powers: dict[int, int], label: str = "") -> "CylinderFunction":
        return cls.poly([(1.0, powers)], label=label)

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
        tops = np.zeros((1, self.depends_on))
        k = min(self.depends_on, arr.size)
        tops[0, :k] = arr[:k]
        return float(self.evaluate_tops(tops)[0])


P1 = CylinderFunction.monomial({1: 1}, label="p1")
P1_SQUARED = CylinderFunction.monomial({1: 2}, label="p1^2")
P1_P2 = CylinderFunction.monomial({1: 1, 2: 1}, label="p1*p2")
P1_PLUS_P2 = CylinderFunction.poly([(1.0, {1: 1}), (1.0, {2: 1})], label="p1+p2")
EXP_NEG_P1 = CylinderFunction(kind="bounded_exp", terms=((1.0, ((1, 1),)),), label="exp(-p1)")

FUNCTION_LIBRARY = {f.label: f for f in (P1, P1_SQUARED, P1_P2, P1_PLUS_P2, EXP_NEG_P1)}


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
    """Split block i (1-based) into pieces u p_i and (1-u) p_i.

    The larger piece is rounded and the other is p_i minus it, a subtraction
    that is exact by Sterbenz's lemma, so the pieces sum to p_i exactly.
    """
    if not (1 <= i <= len(p)):
        raise ValueError("split index out of range")
    if not 0.0 < u < 1.0:
        raise ValueError("split point must lie strictly inside (0, 1)")
    vals = list(p.masses)
    v = vals.pop(i - 1)
    big = max(u, 1.0 - u) * v
    return OrderedPartition.from_masses(vals + [big, v - big])


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def _gauss_legendre():
    # 64 nodes integrate each panel of a polynomial of degree <= 127 exactly;
    # np.polynomial is read on first use, not at import, to keep import RSS down
    return np.polynomial.legendre.leggauss(64)


def _panel_points(lo: float, hi: float, breaks):
    """Gauss-Legendre nodes and weights on [lo, hi], subdivided at breakpoints.

    The integrands here are piecewise smooth with kinks where the sorted
    order changes, so panel-wise quadrature is exact to machine precision for
    polynomial test functions.
    """
    x, w = _gauss_legendre()
    pts = sorted({lo, hi, *(b for b in breaks if lo < b < hi)})
    # a block of exactly 2 eps has lo == hi: no panel, no split point
    us, ws = [np.empty(0)], [np.empty(0)]
    for a, b in zip(pts, pts[1:]):
        us.append(0.5 * (b - a) * x + 0.5 * (a + b))
        ws.append(0.5 * (b - a) * w)
    return np.concatenate(us), np.concatenate(ws)


def _tops_after(arr, owner, drop_i, drop_j, new_a, new_b, m: int) -> np.ndarray:
    """Leading m entries after each move, as a (moves, m) array.

    Move r acts on row owner[r] of arr, a (rows, K) array of descending,
    zero-padded masses: it removes blocks drop_i[r] and drop_j[r] (a split
    drops the same index twice) and adds new_a[r] and new_b[r].  At most two
    blocks leave, so the leading m entries after the move are among the first
    m + 2 blocks of its row and the two new values: m + 4 candidates per move.
    """
    cands = np.zeros((owner.size, m + 4))
    k = min(m + 2, arr.shape[1])
    cands[:, :k] = arr[owner, :k]
    moves = np.arange(owner.size)
    # a drop past the first m + 2 blocks zeroes column m + 2, which new_a then fills
    cands[moves, np.minimum(drop_i, m + 2)] = 0.0
    cands[moves, np.minimum(drop_j, m + 2)] = 0.0
    cands[:, m + 2] = new_a
    cands[:, m + 3] = new_b
    cands.sort(axis=1)
    return cands[:, ::-1][:, :m]


def _move_sum(sizes, fs, cut, unit, merge_scale: float, owner, block, piece, weight):
    """Per row, sum over its moves of weight * [f(p after the move) - f(p)], for each f in fs.

    sizes holds descending, zero-padded block sizes, one row per partition:
    particle counts on the lattice, masses in the continuum; f reads the
    masses sizes / unit.  Each row gets a null move of weight 0 first, whose
    value is f(p).  Merge moves join each pair of blocks of size >= cut, a
    prefix of the row, weight merge_scale * 2 p_i p_j.  Split move r replaces
    block[r] of row owner[r] by sizes piece[r] and the rest of the block,
    weight weight[r].  Returns (applied values, base values f(p)), an array
    over the rows for each f.
    """
    m = max(f.depends_on for f in fs)
    rows = sizes.shape[0]
    n_big = (sizes >= cut).sum(axis=1)
    pi, pj = np.triu_indices(n_big.max(initial=0), 1)
    mrow, pair = np.nonzero(pj < n_big[:, None])
    pi, pj = pi[pair], pj[pair]
    a, b = sizes[mrow, pi], sizes[mrow, pj]
    null = np.full(rows, m + 2)
    owners = np.concatenate((np.arange(rows), mrow, owner))
    drop_i, drop_j = np.concatenate((null, pi, block)), np.concatenate((null, pj, block))
    new_a = np.concatenate((np.zeros(rows), a + b, piece))
    new_b = np.concatenate((np.zeros(rows + a.size), sizes[owner, block] - piece))
    tops = _tops_after(sizes, owners, drop_i, drop_j, new_a, new_b, m) / unit
    wts = np.concatenate((np.zeros(rows), 2.0 * merge_scale * (a / unit) * (b / unit), weight))
    vals = [f.evaluate_tops(tops) for f in fs]
    applied = [np.bincount(owners, weights=wts * (v - v[owners]), minlength=rows) for v in vals]
    return applied, [v[:rows] for v in vals]


def generator_apply(theta: float, p: OrderedPartition, f: CylinderFunction) -> float:
    """Apply the full split-merge generator to f at p.

    Merge part: sum over ordered pairs i != j of p_i p_j [f(merge) - f(p)].
    Split part: theta sum_i p_i^2 [int_0^1 f(split at u) du - f(p)], with the
    integral evaluated by panel-subdivided Gauss-Legendre quadrature: the
    cutoff generator at eps = 0.
    """
    return cutoff_generator_apply(theta, 0.0, p, f)


def cutoff_generator_apply(
    theta: float,
    eps: float,
    p: OrderedPartition,
    f: CylinderFunction,
) -> float:
    """Apply the eps-cutoff generator, the exact large-N limit of the lattice one.

    Merges only pairs with both blocks >= eps; splits only blocks >= 2 eps and
    only into pieces >= eps, i.e. the split integral runs over u in
    [eps/p_i, 1 - eps/p_i] of f(split at u) - f(p).  eps = 0 is the full
    generator.  The split points are Gauss-Legendre nodes u_k, weights w_k,
    on panels broken where a piece passes another block; split row (i, u_k)
    has weight theta p_i^2 w_k.
    """
    if not eps >= 0.0:
        raise ValueError("eps must be nonnegative")
    if not 0.0 <= theta < math.inf:
        raise ValueError("theta must be >= 0 and finite")
    arr = p.as_array()
    blocks, pieces, weights = [np.empty(0, dtype=np.intp)], [np.empty(0)], [np.empty(0)]
    if theta != 0.0:
        vals = p.masses
        for i, v in enumerate(vals):
            if v < 2 * eps:
                continue
            # a piece passes another block q where u = q / v or 1 - q / v
            ratios = [q / v for q in vals if q < v]
            breaks = {0.5, *ratios, *(1.0 - r for r in ratios)}
            us, ws = _panel_points(eps / v, 1.0 - eps / v, breaks)
            blocks.append(np.full(us.size, i))
            # the larger piece, so that v minus it is exact (Sterbenz) and the pieces sum to v
            pieces.append(np.maximum(us, 1.0 - us) * v)
            weights.append(theta * v * v * ws)
    block, piece, weight = (np.concatenate(parts) for parts in (blocks, pieces, weights))
    applied, _ = _move_sum(arr[None, :], (f,), eps, 1.0, 1.0, np.zeros_like(block), block, piece, weight)
    return float(applied[0][0])


def _lattice_check(arr: np.ndarray, N: int) -> np.ndarray:
    counts = np.rint(arr * N)
    if np.max(np.abs(arr * N - counts), initial=0.0) > LATTICE_TOL:
        raise ValueError("partition masses must be multiples of 1/N")
    return counts.astype(np.int64)


def _lattice_apply(theta: float, N: int, eps: float, counts: np.ndarray, fs):
    """Lattice generator on rows of descending particle counts, for each f in fs.

    Rows are zero-padded to width K, and f reads the masses counts / N.  The
    cutoff e = max(1, ceil(eps N)), with an eps N within LATTICE_TOL of an
    integer read as that integer and an eps N past N + 1 read as N + 1, is
    computed once: it is the one place where eps meets the lattice.  Merges
    join blocks of >= e particles into one of c_i + c_j, with the factor
    N / (N - 1).  Split move (row, i, k) moves k
    particles of a block of c >= 2e to a new block, for k = e .. c - e, which
    leaves pieces k and c - k, with weight theta (c / N) / (N - 1).  Returns
    (applied values, base values f(p)), one array over the rows for each f.
    """
    if not 0.0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")
    if N < 2:
        raise ValueError("N must be >= 2")
    if not 0.0 <= theta < math.inf:
        raise ValueError("theta must be >= 0 and finite")
    e = max(1, math.ceil(min(eps * N, N + 1) - LATTICE_TOL))
    row, block = np.nonzero((counts >= 2 * e) & (theta != 0.0))
    # each (row, block) cell splits off k = e .. c - e: a run of c - 2e + 1 per cell
    run = counts[row, block] - (2 * e - 1)
    row, block = np.repeat(row, run), np.repeat(block, run)
    k = e + np.arange(row.size) - np.repeat(np.cumsum(run) - run, run)
    weight = theta / (N - 1) * (counts[row, block] / N)
    return _move_sum(counts, fs, e, N, N / (N - 1), row, block, k, weight)


def discrete_generator_apply(
    theta: float, N: int, eps: float, p: OrderedPartition, f: CylinderFunction
) -> float:
    """Apply the lattice split-merge generator at cutoff eps to f at p.

    Masses must be multiples of 1/N, read as particle counts: with e =
    max(1, ceil(eps N)), merges need both blocks >= e particles, and a
    block of c >= 2e particles splits into k and c - k for k = e .. c - e.
    """
    applied, _ = _lattice_apply(theta, N, eps, _lattice_check(p.as_array(), N)[None, :], (f,))
    return float(applied[0][0])


# ---------------------------------------------------------------------------
# event-driven simulation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SplitMergeState:
    partition: OrderedPartition
    time: float
    merges: int
    splits: int


def _uniforms(g: np.random.Generator):
    """The ``__next__`` of endless uniforms on [0, 1) from g, UNIFORM_BLOCK per Generator call."""
    return chain.from_iterable(map(np.ndarray.tolist, map(g.random, repeat(UNIFORM_BLOCK)))).__next__


class _SplitMergeCore:
    """Block list, event counts and running s2 of one split-merge chain.

    ``events`` is its event loop, the direct method of Gillespie: the wait is
    -log1p(-u) / rate, and picks invert running sums of the Python block list
    by binary search.  Every uniform comes from a ``_uniforms`` block of g, so
    no event makes a NumPy call and g advances by whole blocks.  Past
    EVENT_WORK_CAP events times blocks, the loop raises FloatingPointError: a
    split rate so large that every wait rounds to ~0 never lets the clock
    reach its end.
    """

    def __init__(self, masses, theta: float, g: np.random.Generator):
        if not 0.0 <= theta < math.inf:
            raise ValueError("theta must be >= 0 and finite")
        self._next_u = _uniforms(g)
        self.blocks = [float(v) for v in masses if v > 0.0]
        self.theta = float(theta)
        self.s1 = float(sum(self.blocks))
        if not 0.0 < self.s1 <= 1.0 + 1e-12:
            raise ValueError("initial mass must lie in (0, 1]")
        self.s2 = float(sum(map(mul, self.blocks, self.blocks)))
        self.merges = 0
        self.splits = 0

    def events(self):
        """The event loop: yield the wait to the next event (inf when absorbed), apply its jump when resumed.

        At each yield, ``blocks``, ``merges``, ``splits`` and ``s2`` describe
        the state before that event; ``s2`` is the value the last jump left,
        before the refresh every 4096 events recomputes it.  Values sent in
        are ignored.  A core runs one loop.
        """
        blocks, next_u, theta, s1 = self.blocks, self._next_u, self.theta, self.s1
        s1_sq, s2 = s1 * s1, self.s2
        since_refresh = work = 0
        while True:
            if since_refresh >= 4096:
                s2 = float(sum(map(mul, blocks, blocks)))
                work += since_refresh * len(blocks)
                if work > EVENT_WORK_CAP:
                    raise FloatingPointError(
                        f"the split-merge event loop passed EVENT_WORK_CAP = {EVENT_WORK_CAP} events x blocks "
                        f"({self.merges + self.splits} events, {len(blocks)} blocks) before its end time "
                        f"at theta = {theta:g}; a smaller theta or end time needs less"
                    )
                since_refresh = 0
            merge_rate = s1_sq - s2
            if merge_rate < 0.0:
                merge_rate = 0.0
            total = merge_rate + theta * s2
            if total <= 0.0:
                yield math.inf
                continue
            yield -math.log1p(-next_u()) / total
            last = len(blocks) - 1
            if next_u() * total < merge_rate:
                cum = list(accumulate(blocks))
                mass = cum[-1]
                while True:
                    # the first running sum above the target, clamped to the last block
                    i = bisect_right(cum, next_u() * mass)
                    j = bisect_right(cum, next_u() * mass)
                    if i > last:
                        i = last
                    if j > last:
                        j = last
                    if i != j:
                        break
                vi, vj = blocks[i], blocks[j]
                s2 += 2.0 * vi * vj
                # a rounded sum may pass the total; no block may hold more than all of it
                merged = vi + vj
                blocks[i] = s1 if s1 < merged else merged
                del blocks[j]
                self.merges += 1
            else:
                cum2 = list(accumulate(map(mul, blocks, blocks)))
                i = bisect_right(cum2, next_u() * cum2[-1])
                if i > last:
                    i = last
                while True:
                    u = next_u()
                    if 0.0 < u < 1.0:
                        break
                v = blocks[i]
                s2 -= 2.0 * u * (1.0 - u) * v * v
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
            self.s2 = s2
            since_refresh += 1

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
    if not 0.0 < t_max < math.inf:
        raise ValueError("t_max must be positive and finite")
    g = _as_generator(rng)
    times = sorted(float(t) for t in sample_times) or [float(t_max)]
    if not all(0.0 <= t <= t_max for t in times):
        raise ValueError("sample times must lie in [0, t_max]")
    core = _SplitMergeCore(p0.masses, theta, g)
    out: list[SplitMergeState] = []
    t = 0.0
    t_rec = times[0]
    for dt in core.events():
        # the state holds until the jump at t + dt: record it at every sample time before then
        t = t + dt
        while t_rec < t:
            out.append(core.state(t_rec))
            if len(out) == len(times):
                return out
            t_rec = times[len(out)]


def time_averaged_l2(
    theta: float,
    p0: OrderedPartition,
    burn_in: float,
    duration: float,
    rng,
) -> tuple[float, SplitMergeState]:
    """Time average of sum_i p_i^2 over (burn_in, burn_in + duration], plus the final state."""
    if not (0.0 <= burn_in < math.inf and 0.0 < duration < math.inf):
        raise ValueError("need a finite burn_in >= 0 and a finite duration > 0")
    core = _SplitMergeCore(p0.masses, theta, _as_generator(rng))
    t = 0.0
    t_end = burn_in + duration
    acc = 0.0
    for dt in core.events():
        t_next = t + dt
        # the state's s2 over [t, t_next), clipped to the window
        hi = t_end if t_end < t_next else t_next
        lo = burn_in if burn_in > t else t
        if hi > lo:
            acc += core.s2 * (hi - lo)
        t = t_next
        if t >= t_end:  # the state at t_end is the one before the jump at t
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
    drop from eta to ``lift_merge(eta, x, y)`` must equal
    log[w(eta_x) w(k)] - log[w(eta_x + k) w(0)].  The left side is evaluated
    through the full product over sites, so the comparison exercises the whole
    weight pipeline; deviations are pure floating-point noise.
    """
    if N < 1:
        raise ValueError("the check needs N >= 1")
    if samples < 1:
        raise ValueError("samples must be >= 1")
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
        merged = lift_merge(Configuration(row), x + 1, y + 1).occupations
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
        return {**self.params, "defect": self.defect, "se": self.stderr, "mode": self.mode,
                "n": self.n}


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

    Each is zero-padded to ``parts`` entries.  The head runs down from
    min(n, largest) to ceil(n / parts), the least head the remaining parts
    can follow, so no branch is a dead end.
    """
    if n == 0:
        yield (0,) * parts
        return
    for head in range(min(n, largest), -(-n // parts) - 1, -1):
        for rest in _partitions(n - head, parts - 1, head):
            yield (head, *rest)


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
) -> DefectResult:
    """mu_{L,N}(f G g) - mu_{L,N}(g G f) for the lattice generator at cutoff eps.

    The integrand h = f G g - g G f depends only on the sorted partition of a
    configuration.  Exact mode enumerates the partitions of N into at most L
    parts, each a row of L sorted counts weighted by its canonical probability
    times the number L! / prod_v m_v! of configurations that sort to it (m_v
    entries equal to v, zeros counted as a value); a row of weight 0 adds
    0 * h.  It refuses a sample count, which it would not use, and more than
    10^7 partitions; ``n`` is their count.
    mc mode averages h over ``samples`` exact canonical draws, one h per
    distinct sorted configuration of each ``MC_CHUNK`` draws, and reports a
    standard error; ``n`` is the sample count.  Both modes pass their rows to
    the lattice generator ROW_BATCH at a time.  The defect is antisymmetric
    in (f, g) by construction.
    """
    params = {"family": family.to_json_dict(), "L": L, "N": N, "eps": eps, "theta": theta,
              "f": f.label or "f", "g": g.label or "g"}
    if mode == "exact":
        if samples is not None:
            raise ValueError("exact mode takes no sample count: it sums over every partition")
        n_states = _partition_count(N, L)
        if n_states > EXACT_STATE_CAP:
            raise ValueError(
                f"more than {EXACT_STATE_CAP} partitions of {N} into at most {L} parts "
                "exceed the exact-mode cap; use mode='mc'"
            )
        table = cached_logz(family, L, N)
        _check_cell(table, L, N)
        batches = _exact_batches(table, L, N)
    elif mode == "mc":
        if not samples or samples < 2:
            raise ValueError("mc mode needs a sample count >= 2")
        batches = _mc_batches(cached_logz(family, L, N), L, N, samples, _as_generator(rng))
    else:
        raise ValueError("mode must be 'exact' or 'mc'")

    total = total_sq = 0.0
    for rows, weights in batches:
        applied, base = _lattice_apply(theta, N, eps, rows, (f, g))
        h = base[0] * applied[1] - base[1] * applied[0]
        total += float(np.dot(weights, h))
        total_sq += float(np.dot(weights, h * h))
    if mode == "exact":
        return DefectResult(defect=total, stderr=None, mode="exact", n=n_states, params=params)
    mean = total / samples
    var = max(total_sq - samples * mean * mean, 0.0) / (samples - 1)
    stderr = math.sqrt(var / samples)
    return DefectResult(defect=mean, stderr=stderr, mode="mc", n=samples, params=params)


def _exact_batches(table, L: int, N: int):
    """(rows, probability times multiplicity) of the partitions of N, ROW_BATCH at a time."""
    log_norm = math.lgamma(L + 1) - float(table.logz[L, N])
    sites = np.arange(L)
    parts = _partitions(N, L, N)
    while batch := list(islice(parts, ROW_BATCH)):
        rows = np.array(batch, dtype=np.int64)
        # sum_v log m_v! is the sum of log(rank) over each run of equal entries
        starts = np.where(np.diff(rows, axis=1, prepend=-1) != 0, sites, 0)
        log_mult = np.log(sites - np.maximum.accumulate(starts, axis=1) + 1).sum(axis=1)
        # summing over all L sites keeps an exact zero weight, w(0) too, at -inf
        yield rows, np.exp(table.log_w[rows].sum(axis=1) + log_norm - log_mult)


def _mc_batches(table, L: int, N: int, samples: int, gen):
    """(distinct sorted rows, their counts) of each MC_CHUNK draws, ROW_BATCH at a time."""
    for done in range(0, samples, MC_CHUNK):
        occ = sample_configurations(table, L, N, min(MC_CHUNK, samples - done), gen)
        occ.sort(axis=1)
        # group equal sorted rows by their bytes; np.unique(axis=0) compares
        # rows field by field and costs more than the draws on wide rows
        groups = iter(Counter(map(bytes, occ)).items())
        del occ  # free the draws before the kernel runs, to keep peak memory down
        while batch := list(islice(groups, ROW_BATCH)):
            keys, counts = zip(*batch)
            rows = np.frombuffer(b"".join(keys), dtype=np.int64).reshape(-1, L)[:, ::-1]
            yield rows, np.array(counts, dtype=float)
