"""Output checks shared by the workloads and by ``selftest.py``.

Each check takes plain values (arrays, numbers, file text) and returns a list
of failure messages; an empty list means the check passed.
"""

from __future__ import annotations

import math

import numpy as np

import reference as ref

LOGZ_TOL = 1e-9  # relative; the log-space recursion is good to ~1e-12


def _close(a: float, b: float, tol: float = LOGZ_TOL) -> bool:
    if a == b:
        return True
    return math.isfinite(b) and abs(a - b) <= tol * max(1.0, abs(b))


def inclusion_grid(grid: np.ndarray, theta: float, label: str) -> list[str]:
    """Every cell against the lgamma closed form."""
    L = grid.shape[0] - 1
    bad = [
        (l, n)
        for l in range(grid.shape[0])
        for n in range(grid.shape[1])
        if not _close(float(grid[l, n]), ref.inclusion_logz(theta, L, l, n))
    ]
    return [f"{label}: {len(bad)} cells differ from the closed form, first {bad[0]}"] if bad else []


def flat_table_grid(grid: np.ndarray, top: int, label: str) -> list[str]:
    """Every cell against the inclusion-exclusion count of compositions."""
    bad = []
    for l in range(grid.shape[0]):
        for n in range(grid.shape[1]):
            want = ref.log_int(ref.flat_count(l, n, top))
            if not _close(float(grid[l, n]), want):
                bad.append((l, n))
    return [f"{label}: {len(bad)} cells differ from the exact count, first {bad[0]}"] if bad else []


def bulk_tail_corner(grid, theta, A, bulk, l_max: int, n_max: int, label: str) -> list[str]:
    """The cells l <= l_max, n <= n_max against an exact rational recursion."""
    L = grid.shape[0] - 1
    want = ref.bulk_tail_logz(theta, A, bulk, L, l_max, n_max)
    bad = [
        (l, n)
        for l in range(l_max + 1)
        for n in range(n_max + 1)
        if not _close(float(grid[l, n]), want[l][n])
    ]
    return [f"{label}: {len(bad)} corner cells differ from the rational recursion, first {bad[0]}"] if bad else []


def same_bytes(a: bytes, b: bytes, label: str) -> list[str]:
    return [] if a == b else [f"{label}: outputs differ ({len(a)} vs {len(b)} bytes)"]


def sums_to_one(vec, label: str, tol: float = 1e-9) -> list[str]:
    total = math.fsum(float(v) for v in vec)
    return [] if abs(total - 1.0) <= tol else [f"{label}: sums to {total!r}, not 1"]


def near(value: float, target: float, tol: float, label: str) -> list[str]:
    if math.isfinite(value) and abs(value - target) <= tol:
        return []
    return [f"{label}: {value!r} is not within {tol} of {target!r}"]


def strictly_decreasing(values, label: str) -> list[str]:
    vals = list(values)
    if all(b < a for a, b in zip(vals, vals[1:])):
        return []
    return [f"{label}: {vals} is not strictly decreasing"]


def configurations(occ: np.ndarray, N: int, allowed: np.ndarray, label: str) -> list[str]:
    """Every row sums to N and uses only occupations n with allowed[n] (positive weight)."""
    out = []
    sums = occ.sum(axis=1)
    if (sums != N).any():
        out.append(f"{label}: {int((sums != N).sum())} configurations do not sum to {N}")
    if (occ < 0).any() or (occ > N).any():
        out.append(f"{label}: occupations outside 0..{N}")
    elif not allowed[occ].all():
        out.append(f"{label}: {int((~allowed[occ]).sum())} occupations have zero weight")
    return out


def occupation_law(values: np.ndarray, probs, label: str) -> list[str]:
    """Goodness of fit of observed occupations to an exact law."""
    if (values < 0).any():
        return [f"{label}: negative occupations"]
    counts = np.bincount(values, minlength=len(probs))
    if counts.size > len(probs):
        return [f"{label}: occupations beyond the support of the law"]
    z, impossible = ref.chi_square_z(counts.tolist(), [float(p) for p in probs])
    out = []
    if impossible:
        out.append(f"{label}: {impossible} draws on outcomes of probability zero")
    if not z <= ref.Z_LIMIT:
        out.append(f"{label}: chi-square z = {z:.2f} > {ref.Z_LIMIT} over {int(counts.sum())} draws")
    return out


def stick_moments(masses: np.ndarray, theta: float, alpha: float, label: str) -> list[str]:
    out = []
    for k in (2, 3, 4):
        mean, se = ref.mean_se((masses**k).sum(axis=1))
        target = ref.pd_moment(theta, alpha, k)
        if not abs(mean - target) <= ref.Z_LIMIT * se:
            out.append(f"{label}: E sum p^{k} = {mean!r}, target {target!r}, se {se:.2e}")
    return out


def partitions_csv(text: str, count: int, label: str) -> list[str]:
    """Each sample's masses are descending and sum to 1; every sample is present."""
    samples: dict[int, list[float]] = {}
    for line in text.splitlines():
        if line.startswith("#") or line.startswith("sample,"):
            continue
        s, rank, mass = line.split(",")
        masses = samples.setdefault(int(s), [])
        if int(rank) != len(masses) + 1:
            return [f"{label}: sample {s} skips rank {len(masses) + 1}"]
        masses.append(float(mass))
    out = []
    if sorted(samples) != list(range(count)):
        out.append(f"{label}: {len(samples)} samples listed, expected {count}")
    unsorted = [s for s, m in samples.items() if any(b > a for a, b in zip(m, m[1:]))]
    if unsorted:
        out.append(f"{label}: {len(unsorted)} samples not descending, first {unsorted[0]}")
    off = [s for s, m in samples.items() if abs(math.fsum(m) - 1.0) > 1e-9]
    if off:
        out.append(f"{label}: {len(off)} samples do not sum to 1, first {off[0]}")
    return out


def mass_conserved(totals, label: str, tol: float = 1e-9) -> list[str]:
    worst = max(abs(float(t) - 1.0) for t in totals)
    return [] if worst <= tol else [f"{label}: total mass off by up to {worst:.3e}"]


def mean_within_se(values, target: float, label: str) -> list[str]:
    mean, se = ref.mean_se(values)
    if abs(mean - target) <= ref.Z_LIMIT * se:
        return []
    return [f"{label}: mean {mean!r} is {abs(mean - target) / se:.1f} se from {target!r}"]


def ks_uniform(values, label: str) -> list[str]:
    d, bound = ref.ks_uniform(values), ref.dkw_bound(len(values))
    return [] if d <= bound else [f"{label}: KS distance {d:.4f} > {bound:.4f}"]


def trajectory_csv(text: str, records: int, label: str) -> list[str]:
    """Time increases, event counts never decrease, masses are ordered."""
    rows = [
        [float(x) for x in line.split(",")]
        for line in text.splitlines()
        if line and not line.startswith("#") and not line.startswith("time,")
    ]
    out = []
    if len(rows) != records:
        out.append(f"{label}: {len(rows)} records, expected {records}")
    if any(b[0] <= a[0] for a, b in zip(rows, rows[1:])):
        out.append(f"{label}: time does not increase")
    if any(b[5] < a[5] or b[6] < a[6] for a, b in zip(rows, rows[1:])):
        out.append(f"{label}: event counts decrease")
    if any(not (1.0 >= r[1] >= r[2] >= r[3] >= 0.0 and 0.0 < r[4] <= 1.0 + 1e-12) for r in rows):
        out.append(f"{label}: masses out of order or ||p||^2 outside (0, 1]")
    return out


def mc_matches_exact(mean: float, se: float, exact: float, label: str) -> list[str]:
    if se > 0.0 and abs(mean - exact) <= ref.Z_LIMIT * se:
        return []
    return [f"{label}: MC {mean!r} (se {se!r}) is not within {ref.Z_LIMIT} se of {exact!r}"]
