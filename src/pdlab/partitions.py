"""Ordered mass partitions, stick-breaking samplers, and size-biased resampling.

Partitions are finite nonincreasing sequences of masses in [0, 1] with total
at most 1; they stand in for the infinite sequences by trimming trailing
zeros.  Size-biased sampling follows the zero-reservoir convention: a sample
draws the value of a block with probability equal to its mass, or zero with
the deficit probability 1 - ||p||_1, renormalising as blocks are consumed.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from operator import lt

import numpy as np

TOTAL_SLACK = 1e-12
TRUNC_EPS = 1e-12  # stick-breaking stops once the unbroken remainder is below this
K_MAX = 10_000  # ... or once it has broken this many sticks
STICK_CHUNK_ROWS = 4_096  # rows filled at a time: a 2 MB temporary per 64-column block
STICK_MAX_BYTES = 1 << 30  # refuse a stick-breaking result larger than this


@dataclass(frozen=True)
class OrderedPartition:
    """Nonincreasing masses in [0, 1] with ||p||_1 <= 1, trailing zeros trimmed."""

    masses: tuple[float, ...]

    def __post_init__(self):
        m = self.masses
        if not m:
            return
        # min and max may pass over a NaN, which makes the sum NaN
        if not (0.0 <= min(m) and max(m) <= 1.0 + TOTAL_SLACK and (total := sum(m)) == total):
            raise ValueError("masses must lie in [0, 1]")
        if any(map(lt, m, m[1:])):
            raise ValueError("masses must be nonincreasing")
        if m[-1] == 0.0:
            raise ValueError("trailing zeros must be trimmed (use from_masses)")
        if total > 1.0 + TOTAL_SLACK:
            raise ValueError("total mass exceeds 1")

    @classmethod
    def from_masses(cls, values) -> "OrderedPartition":
        # float() first, so that None or a string is refused as before; 0.0 and -0.0 are falsy
        return cls(tuple(sorted(filter(None, map(float, values)), reverse=True)))

    @property
    def total(self) -> float:
        return float(sum(self.masses))

    def __len__(self) -> int:
        return len(self.masses)

    def entry(self, i: int) -> float:
        """i-th largest mass, 1-based; zero beyond the trimmed length."""
        if i < 1:
            raise IndexError("entries are 1-based")
        return self.masses[i - 1] if i <= len(self.masses) else 0.0

    def as_array(self) -> np.ndarray:
        return np.asarray(self.masses, dtype=float)


@dataclass(frozen=True)
class SizeBiasedSample:
    """Sequence of size-biased draws (not ordered) plus the source's total mass."""

    values: tuple[float, ...]
    source_total: float

    def __post_init__(self):
        if sum(self.values) > self.source_total + TOTAL_SLACK:
            raise ValueError("size-biased values exceed the source mass")


@dataclass(frozen=True)
class StickBreakingResult:
    """A stick-breaking draw: the raw sequence, its reordering, and the leftover.

    ``gem`` runs to the end of the 64-column block, or ``K_MAX``, in which the
    remainder fell below ``TRUNC_EPS``; ``residual`` is what its pieces leave.
    """

    gem: tuple[float, ...]
    partition: OrderedPartition
    residual: float


def stick_breaking(
    theta: float,
    alpha: float = 1.0,
    rng: np.random.Generator | None = None,
) -> StickBreakingResult:
    """One stick-breaking draw on [0, alpha]: row 0 of a ``stick_breaking_batch`` of one.

    ``gem`` holds the row's positive pieces in breaking order.  Breaking runs
    to the end of the 64-column block, or ``K_MAX``, in which the remainder
    fell below ``TRUNC_EPS``; the remainder is reported, never silently dropped.
    """
    pieces, residual = _stick_breaking_batch(theta, alpha, 1, rng)
    gem = pieces[0][pieces[0] > 0].tolist()
    return StickBreakingResult(tuple(gem), OrderedPartition.from_masses(gem), float(residual[0]))


def stick_breaking_batch(
    theta: float,
    alpha: float,
    count: int,
    rng,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised stick-breaking: (count, K) matrix of unsorted pieces and residuals.

    Every row carries enough sticks that its residual is below ``TRUNC_EPS``
    (or ``K_MAX`` columns).  Column padding beyond a row's stopping index simply
    keeps breaking, which leaves the row's law unchanged.

    Each Beta(1, theta) fraction u comes from one standard exponential E by
    inverting its CDF 1 - (1 - x)^theta: log(1 - u) = -E / theta.  So a block
    of 64 columns is u = -expm1(e) and the kept lengths exp(cumsum(e)), with
    e = -E / theta.  Each block is allocated once and filled
    ``STICK_CHUNK_ROWS`` rows at a time, with e formed in place: memory is the
    result plus a chunk's (rows, 64) temporaries, and two copies of the result
    while several blocks are concatenated.  The exponentials come from one
    stream in C order, so the chunks read the same values as one (count, 64)
    draw, and the rows are bitwise those of a whole-block fill.

    A result past ``STICK_MAX_BYTES`` (theta near 1e300 runs every row to
    ``K_MAX`` columns) raises FloatingPointError before it is allocated.
    """
    return _stick_breaking_batch(theta, alpha, count, rng)


def _stick_breaking_batch(theta: float, alpha: float, count: int, rng) -> tuple[np.ndarray, np.ndarray]:
    # the body of both public functions, so a traced stick_breaking counts once
    if not 0 < theta < math.inf:
        raise ValueError("theta must be positive and finite")
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    if count < 1:
        raise ValueError("count must be >= 1")
    g = _as_generator(rng)
    blocks: list[np.ndarray] = []
    residual = np.full(count, alpha)
    k = 0
    while k < K_MAX and float(residual.max()) >= TRUNC_EPS:
        step = min(64, K_MAX - k)
        if count * (k + step) * 8 > STICK_MAX_BYTES:
            raise FloatingPointError(
                f"stick-breaking at theta = {theta!r} would need a {count} x {k + step} "
                f"matrix, past the {STICK_MAX_BYTES}-byte cap"
            )
        block = np.empty((count, step))
        for a in range(0, count, STICK_CHUNK_ROWS):
            b = min(a + STICK_CHUNK_ROWS, count)
            e = g.standard_exponential((b - a, step))
            e /= -theta
            pieces = np.expm1(e, out=block[a:b])
            np.negative(pieces, out=pieces)
            keep = np.exp(np.cumsum(e, axis=1, out=e), out=e)
            keep *= residual[a:b, None]
            pieces[:, 0] *= residual[a:b]
            pieces[:, 1:] *= keep[:, :-1]
            residual[a:b] = keep[:, -1]
        blocks.append(block)
        k += step
    return (blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=1)), residual


def pd_degenerate(alpha: float) -> OrderedPartition:
    """The theta = 0 partition: a single block of size alpha (empty when alpha = 0)."""
    if not 0 <= alpha <= 1:
        raise ValueError("alpha must lie in [0, 1]")
    return OrderedPartition.from_masses([alpha] if alpha > 0 else [])


def size_biased(
    p: OrderedPartition, count: int, rng: np.random.Generator
) -> SizeBiasedSample:
    """Size-biased draws from p with a zero reservoir of probability 1 - ||p||_1.

    The i-th draw picks a remaining block's value with probability mass /
    (1 - sum of earlier draws), or zero with the renormalised deficit.  Once
    the drawn mass exhausts ||p||_1 within floating point, every further draw
    is zero deterministically.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    return _size_biased_draws(p, count, rng, reservoir=True)


def positive_size_biased(
    p: OrderedPartition, count: int, rng: np.random.Generator
) -> SizeBiasedSample:
    """Size-biased draws of p / ||p||_1 rescaled by ||p||_1: no zeros before exhaustion."""
    if p.total <= 0.0:
        raise ValueError("positive size-biasing needs ||p||_1 > 0")
    return _size_biased_draws(p, count, rng, reservoir=False)


def _size_biased_draws(p: OrderedPartition, count: int, rng, reservoir: bool) -> SizeBiasedSample:
    """``count`` size-biased draws without replacement from the blocks of p.

    A draw scales a uniform by the mass not yet drawn, counted from 1 with the
    zero reservoir and from ||p||_1 without.  A uniform past the blocks draws
    zero from the reservoir, or else (only rounding gives it) the last block.
    A spent mass, or no block left outside the reservoir, draws zero and reads
    no uniform.
    """
    g = _as_generator(rng)
    masses = list(p.masses)
    total = p.total
    start, spent = (1.0, 1e-15) if reservoir else (total, 1e-15 * total)
    drawn = 0.0
    values: list[float] = []
    for _ in range(count):
        value = 0.0
        if start - drawn > spent and (masses or reservoir):
            cum = list(accumulate(masses))
            u = g.random() * (start - drawn)
            if not reservoir or (cum and u < cum[-1]):
                value = masses.pop(_first_above(cum, u))
                drawn += value
        values.append(value)
    return SizeBiasedSample(values=tuple(values), source_total=total)


def _first_above(cum: list[float], x: float) -> int:
    """First index whose running sum exceeds x, clamped to the last index."""
    return min(bisect_right(cum, x), len(cum) - 1)


def positive_size_biased_first_batch(
    masses: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """First positive size-biased component for each row of a (count, K) mass matrix."""
    cum = np.cumsum(masses, axis=1)
    targets = _as_generator(rng).random(masses.shape[0]) * cum[:, -1]
    idx = (cum < targets[:, None]).sum(axis=1)
    idx = np.minimum(idx, masses.shape[1] - 1)
    return masses[np.arange(masses.shape[0]), idx]


def norms(p: OrderedPartition, k: int) -> float:
    """sum_i p_i^k (the k-norm raised to the k-th power)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return float(np.sum(p.as_array() ** k))


def pd_moment_targets(theta: float, alpha: float, k: int) -> float:
    """Stationary prediction for E sum_i p_i^k on partitions of [0, alpha]:
    alpha^k (k-1)! / prod_{j=1}^{k-1} (j + theta)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    denom = math.prod(j + theta for j in range(1, k))
    return alpha**k * math.factorial(k - 1) / denom


def _as_generator(rng) -> np.random.Generator:
    if rng is None:
        raise ValueError("an explicit seeded generator is required for reproducibility")
    if isinstance(rng, np.random.Generator):
        return rng
    gen = getattr(rng, "generator", None)
    if gen is not None:
        return gen
    raise TypeError(f"cannot interpret {type(rng).__name__} as a random generator")
