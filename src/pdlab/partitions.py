"""Ordered mass partitions, stick-breaking samplers, and size-biased resampling.

Partitions are finite nonincreasing sequences of masses in [0, 1] with total
at most 1; they stand in for the infinite sequences by trimming trailing
zeros.  Size-biased sampling follows the zero-reservoir convention: a sample
draws the value of a block with probability equal to its mass, or zero with
the deficit probability 1 - ||p||_1, renormalising as blocks are consumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TOTAL_SLACK = 1e-12
TRUNC_EPS = 1e-12  # stick-breaking stops once the unbroken remainder is below this
K_MAX = 10_000  # ... or once it has broken this many sticks


@dataclass(frozen=True)
class OrderedPartition:
    """Nonincreasing masses in [0, 1] with ||p||_1 <= 1, trailing zeros trimmed."""

    masses: tuple[float, ...]

    def __post_init__(self):
        m = self.masses
        if not all(0.0 <= x <= 1.0 + TOTAL_SLACK for x in m):
            raise ValueError("masses must lie in [0, 1]")
        if any(m[i] < m[i + 1] for i in range(len(m) - 1)):
            raise ValueError("masses must be nonincreasing")
        if m and m[-1] == 0.0:
            raise ValueError("trailing zeros must be trimmed (use from_masses)")
        if sum(m) > 1.0 + TOTAL_SLACK:
            raise ValueError("total mass exceeds 1")

    @classmethod
    def from_masses(cls, values) -> "OrderedPartition":
        vals = sorted((float(v) for v in values if v != 0.0), reverse=True)
        return cls(tuple(vals))

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

    def to_csv(self) -> str:
        lines = ["rank,mass"]
        lines += [f"{i},{mass!r}" for i, mass in enumerate(self.masses, start=1)]
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {"order": "sorted", "masses": list(self.masses)}


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
    """A stick-breaking draw: the raw sequence, its reordering, and the leftover."""

    gem: tuple[float, ...]
    partition: OrderedPartition
    residual: float

    def to_json_dict(self) -> dict:
        return {
            "gem": {"order": "gem", "masses": list(self.gem)},
            "sorted": self.partition.to_json_dict(),
            "residual": self.residual,
        }


def stick_breaking(
    theta: float,
    alpha: float = 1.0,
    k_max: int = K_MAX,
    rng: np.random.Generator | None = None,
) -> StickBreakingResult:
    """One stick-breaking draw on [0, alpha] with Beta(1, theta) fractions.

    Breaking stops when the unbroken remainder falls below ``TRUNC_EPS`` or
    after ``k_max`` sticks; the remainder is reported, never silently dropped.
    """
    if not theta > 0:
        raise ValueError("theta must be positive (theta = 0 is the degenerate case)")
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    g = _as_generator(rng)
    pieces: list[float] = []
    residual = alpha
    while residual >= TRUNC_EPS and len(pieces) < k_max:
        u = g.beta(1.0, theta)
        pieces.append(residual * u)
        residual *= 1.0 - u
    return StickBreakingResult(
        gem=tuple(pieces),
        partition=OrderedPartition.from_masses(pieces),
        residual=residual,
    )


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
    e = -E / theta, formed in place: at most three (count, 64) float arrays
    are alive per block, besides the finished blocks.  The draws differ from
    ``stick_breaking``'s ``Generator.beta`` stream; the law is the same.
    """
    if not theta > 0:
        raise ValueError("theta must be positive")
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    g = _as_generator(rng)
    blocks: list[np.ndarray] = []
    residual = np.full(count, alpha)
    k = 0
    while k < K_MAX and float(residual.max()) >= TRUNC_EPS:
        step = min(64, K_MAX - k)
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


def pd_degenerate(alpha: float) -> OrderedPartition:
    """The theta = 0 partition: a single block of size alpha (empty when alpha = 0)."""
    if not 0 <= alpha <= 1:
        raise ValueError("alpha must lie in [0, 1]")
    return OrderedPartition.from_masses([alpha] if alpha > 0 else [])


def _pick(masses: list[float], available: list[int], u: float) -> int | None:
    """Slot in ``available`` whose running mass first exceeds u; None when u passes them all."""
    acc = 0.0
    for slot, j in enumerate(available):
        acc += masses[j]
        if u < acc:
            return slot
    return None


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
    g = _as_generator(rng)
    masses = list(p.masses)
    available = list(range(len(masses)))
    total = p.total
    drawn = 0.0
    values: list[float] = []
    for _ in range(count):
        denom = 1.0 - drawn
        if denom <= 1e-15:
            values.append(0.0)
            continue
        pick = _pick(masses, available, g.random() * denom)
        if pick is None:
            # landed in the zero reservoir of mass (1 - total) / denom
            values.append(0.0)
        else:
            j = available.pop(pick)
            values.append(masses[j])
            drawn += masses[j]
    return SizeBiasedSample(values=tuple(values), source_total=total)


def positive_size_biased(
    p: OrderedPartition, count: int, rng: np.random.Generator
) -> SizeBiasedSample:
    """Size-biased draws of p / ||p||_1 rescaled by ||p||_1: no zeros before exhaustion."""
    total = p.total
    if total <= 0.0:
        raise ValueError("positive size-biasing needs ||p||_1 > 0")
    g = _as_generator(rng)
    masses = list(p.masses)
    available = list(range(len(masses)))
    remaining = total
    values: list[float] = []
    for _ in range(count):
        if not available or remaining <= 1e-15 * total:
            values.append(0.0)
            continue
        pick = _pick(masses, available, g.random() * remaining)
        if pick is None:
            # rounding left u past the last block: take it
            pick = len(available) - 1
        j = available.pop(pick)
        values.append(masses[j])
        remaining -= masses[j]
    return SizeBiasedSample(values=tuple(values), source_total=total)


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
    if not p.masses:
        return 0.0
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
