"""Size-dependent stationary weight families and numerical checks of their scaling.

A family provides single-site weights ``w_L(n)`` for every system size L,
together with the limiting weights ``w(n) = lim_L w_L(n)``, which are its
L = None row.  Everything downstream (partition functions, marginals,
grand-canonical tilts) consumes weights through :func:`log_weight_row`, so
exact zeros are represented as ``-inf`` throughout.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .report import DiagnosticsReport

NEG_INF = float("-inf")
# slack, in particles, where a fraction of N becomes a whole count: an eps N a few
# ulps off an integer (0.29 * 100 = 28.999999999999996) counts as that integer
LATTICE_TOL = 1e-9

_KINDS = ("inclusion", "bulk_tail", "table")


def _check_weights(seq) -> None:
    if not seq or not all(0.0 <= w < math.inf for w in seq):  # NaN fails every test
        raise ValueError("weight sequences must be nonempty, finite and nonnegative")


@dataclass(frozen=True)
class WeightFamily:
    """Immutable description of a weight family.

    kind = "inclusion":
        w_L(n) = d (d+1) ... (d+n-1) / n!   with  d = theta / L.
        The limit is a point mass at n = 0.
    kind = "bulk_tail":
        w_L(n) = bulk[n] for n <= A  and  theta / (n L) for n > A.
        The limit keeps the bulk and kills the tail, so the tail scaling
        n w_L(n) L = theta holds exactly above the cutoff.
    kind = "table":
        explicit finite weight sequence, optionally overridden per L; the
        default sequence doubles as the limiting weights.
    """

    kind: str
    theta: float = 1.0
    A: int | None = None
    bulk: tuple[float, ...] | None = None
    table: tuple[float, ...] | None = None
    table_per_L: tuple[tuple[int, tuple[float, ...]], ...] = ()

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown weight family kind {self.kind!r}")
        if not -math.inf < self.theta < math.inf:
            raise ValueError("theta must be finite")
        if self.kind in ("inclusion", "bulk_tail") and not self.theta > 0:
            raise ValueError("theta must be positive")
        if self.kind == "bulk_tail":
            if self.A is None or self.A < 0:
                raise ValueError("bulk_tail needs a nonnegative integer cutoff A")
            if self.bulk is None or len(self.bulk) != self.A + 1:
                raise ValueError("bulk must list the A+1 weights w(0..A)")
            _check_weights(self.bulk)
            if abs(sum(self.bulk) - 1.0) > 1e-12:
                raise ValueError("bulk weights must sum to 1")
        if self.kind == "table":
            if not self.table:
                raise ValueError("table kind needs an explicit weight sequence")
            for seq in (self.table, *(seq for _, seq in self.table_per_L)):
                _check_weights(seq)

    # -- constructors -------------------------------------------------

    @classmethod
    def inclusion(cls, theta: float) -> "WeightFamily":
        return cls(kind="inclusion", theta=float(theta))

    @classmethod
    def bulk_tail(cls, theta: float, A: int, bulk) -> "WeightFamily":
        return cls(kind="bulk_tail", theta=float(theta), A=int(A), bulk=tuple(float(b) for b in bulk))

    @classmethod
    def from_table(cls, weights, theta: float = 1.0, per_L=None) -> "WeightFamily":
        per = ()
        if per_L:
            per = tuple(sorted((int(L), tuple(float(w) for w in seq)) for L, seq in dict(per_L).items()))
        return cls(kind="table", theta=float(theta), table=tuple(float(w) for w in weights), table_per_L=per)

    @classmethod
    def from_json(cls, source) -> "WeightFamily":
        """Parse a family from a JSON document, file path or already-loaded dict."""
        if isinstance(source, dict):
            doc = source
        elif isinstance(source, str) and source.lstrip().startswith("{"):
            doc = json.loads(source)
        else:
            with open(source) as fh:
                doc = json.load(fh)
        kind = doc["kind"]
        if kind == "inclusion":
            return cls.inclusion(doc["theta"])
        if kind == "bulk_tail":
            return cls.bulk_tail(doc["theta"], doc["A"], doc["bulk"])
        if kind == "table":
            return cls.from_table(doc["weights"], theta=doc.get("theta", 1.0), per_L=doc.get("per_L"))
        raise ValueError(f"unknown weight family kind {kind!r}")

    @classmethod
    def from_csv(cls, path) -> "WeightFamily":
        """Load a table family from CSV rows (L, n, w); L = 0 rows set the default sequence."""
        rows: dict[int, dict[int, float]] = {}
        with open(path, newline="") as fh:
            for rec in csv.reader(fh):
                if not rec or rec[0].strip().lower() in ("l", "#l"):
                    continue
                if len(rec) < 3:
                    raise ValueError(f"family CSV row {rec!r} needs the three fields L, n, w")
                L, n, w = int(rec[0]), int(rec[1]), float(rec[2])
                if L < 0 or n < 0:
                    raise ValueError(f"family CSV row {rec!r} has a negative L or n")
                rows.setdefault(L, {})[n] = w

        def to_seq(d):
            return tuple(d.get(i, 0.0) for i in range(max(d) + 1))

        default = rows.pop(0, None)
        if default is None:
            # no explicit default: reuse the largest-L sequence as the limit
            default = rows[max(rows)]
        per_L = {L: to_seq(d) for L, d in rows.items()}
        return cls.from_table(to_seq(default), per_L=per_L)

    # -- misc ----------------------------------------------------------

    def to_json_dict(self) -> dict:
        doc: dict = {"kind": self.kind, "theta": self.theta}
        if self.kind == "bulk_tail":
            doc["A"] = self.A
            doc["bulk"] = list(self.bulk)
        if self.kind == "table":
            doc["weights"] = list(self.table)
            if self.table_per_L:
                doc["per_L"] = {str(L): list(seq) for L, seq in self.table_per_L}
        return doc

    def digest(self) -> str:
        import hashlib

        blob = json.dumps(self.to_json_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def _table_sequence(family: WeightFamily, L: int | None) -> tuple[float, ...]:
    for Lkey, seq in family.table_per_L:
        if Lkey == L:
            return seq
    return family.table


def _log_seq(seq, N: int) -> np.ndarray:
    out = np.full(N + 1, NEG_INF)
    k = min(len(seq), N + 1)
    vals = np.asarray(seq[:k], dtype=float)
    pos = vals > 0
    out[:k][pos] = np.log(vals[pos])
    return out


@lru_cache(maxsize=256)
def _log_weight_row_cached(family: WeightFamily, L: int | None, N: int) -> np.ndarray:
    if family.kind == "inclusion":
        d = 0.0 if L is None else family.theta / L
        # log w_L(n) accumulated from the ratio (n + d)/(n + 1); this stays
        # accurate for d ~ 1e-8 where forming Gamma(d) directly would not.
        # At d = 0 (the limit) the first ratio is log 0 = -inf, so w(n) = 0 for n >= 1.
        j = np.arange(N, dtype=float)
        with np.errstate(divide="ignore"):
            row = np.concatenate(([0.0], np.cumsum(np.log(j + d) - np.log(j + 1.0))))
    elif family.kind == "bulk_tail":
        row = _log_seq(family.bulk, N)
        if L is not None and N > family.A:
            n = np.arange(family.A + 1, N + 1, dtype=float)
            row[family.A + 1 :] = math.log(family.theta) - np.log(n) - math.log(L)
    else:
        row = _log_seq(_table_sequence(family, L), N)
    row.setflags(write=False)
    return row


def _row(family: WeightFamily, L: int | None, N: int) -> np.ndarray:
    if N < 0:
        raise ValueError("N must be >= 0")
    # round the cached length up so scans with growing N reuse one row
    span = max(256, 1 << int(math.ceil(math.log2(N + 1))))
    return _log_weight_row_cached(family, L, span)[: N + 1]


def log_weight_row(family: WeightFamily, L: int | None, N: int) -> np.ndarray:
    """log w_L(n) for n = 0..N as a read-only array; L = None gives the limit w."""
    if L is not None and L < 1:
        raise ValueError("L must be >= 1")
    return _row(family, L, N)


def log_weight(family: WeightFamily, L: int, n: int) -> float:
    """log w_L(n); exact zero weights come back as -inf."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return float(log_weight_row(family, L, n)[n])


def limit_weight_row(family: WeightFamily, N: int) -> np.ndarray:
    """log w(n) for n = 0..N, where w is the pointwise limit of w_L."""
    return _row(family, None, N)


def log_limit_weight(family: WeightFamily, n: int) -> float:
    if n < 0:
        raise ValueError("n must be >= 0")
    return float(limit_weight_row(family, n)[n])


def limit_support(family: WeightFamily) -> int:
    """Largest n with w(n) > 0, or 0 if w vanishes (every limit here is finitely supported)."""
    support = np.flatnonzero(_row(family, None, len(family.bulk or family.table or ())) > NEG_INF)
    return int(support[-1]) if support.size else 0


def weight_sup_distance(family: WeightFamily, L: int) -> float:
    """sup_n |w_L(n) - w(n)| scanned over n <= 4096.

    For the built-in kinds the deviation is decreasing beyond a few entries,
    so a fixed scan window captures the supremum.
    """
    wl = np.exp(log_weight_row(family, L, 4096))
    w = np.exp(limit_weight_row(family, 4096))
    return float(np.max(np.abs(wl - w)))


def assumption_report(
    family: WeightFamily, L: int, N: int, eps: float, J: int
) -> DiagnosticsReport:
    """Numerical scan of the scaling assumptions for a family at size (L, N).

    Reports the macroscopic tail deviation sup_{eps N <= n <= N} |n w_L(n) L - theta|,
    its sup over n > J, the sup-norm distance between w_L and w, the overlap
    sup_n [w(n-1) ^ w(n)] of the limiting weights with their unit shift, and a
    scan of (1/L) log w_L(aL) for a in {0.25, 0.5, 1.0}.
    """
    # lo below is ceil(eps N - LATTICE_TOL), at most N when eps N <= N + LATTICE_TOL; NaN fails every test
    if not (math.isfinite(eps) and 1 <= eps * N <= N + LATTICE_TOL):
        raise ValueError("eps must be finite with 1 <= eps * N and ceil(eps * N) <= N (empty supremum range)")
    if J < 0:
        raise ValueError("J must be >= 0")
    span = max(N, int(math.ceil(L)))
    logw = log_weight_row(family, L, span)
    n = np.arange(span + 1, dtype=float)
    with np.errstate(invalid="ignore"):
        nwl = n * np.exp(logw) * L

    lo = int(math.ceil(eps * N - LATTICE_TOL))
    a3 = float(np.max(np.abs(nwl[lo : N + 1] - family.theta)))
    b3 = NEG_INF
    if J < N:
        b3 = float(np.max(np.abs(nwl[J + 1 : N + 1] - family.theta)))
    b1 = float(np.max(np.abs(np.exp(logw[: N + 1]) - np.exp(limit_weight_row(family, N)))))

    w = np.exp(limit_weight_row(family, max(N, limit_support(family) + 1)))
    bern = float(np.max(np.minimum(w[:-1], w[1:])))

    report = DiagnosticsReport(
        name="assumptions",
        params={"family": family.to_json_dict(), "L": L, "N": N, "eps": eps, "J": J},
    )
    report.add("macroscopic_tail_sup", a3)
    report.add("tail_sup_beyond_J", b3)
    report.add("weight_sup_distance", b1)
    report.add("bernoulli_overlap", bern)
    for a in (0.25, 0.5, 1.0):
        idx = min(span, int(math.ceil(a * L)))
        report.add(f"log_weight_rate_a={a}", float(logw[idx]) / L)
    return report
