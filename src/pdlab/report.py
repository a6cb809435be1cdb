"""Named diagnostic results with reproducibility metadata; ``pdlab.cli`` writes their JSON."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class ReportRow:
    label: str
    value: float
    stderr: float | None = None


@dataclass
class DiagnosticsReport:
    """A bag of named scalar results.

    ``params`` must carry everything needed to reproduce the numbers
    (family description, L, N, theta, eps, seed, ...).
    """

    name: str
    params: dict = field(default_factory=dict)
    series: list[ReportRow] = field(default_factory=list)

    def add(self, label: str, value: float, stderr: float | None = None) -> None:
        self.series.append(ReportRow(label, float(value), stderr))

    def value(self, label: str) -> float:
        for row in self.series:
            if row.label == label:
                return row.value
        raise KeyError(f"no row labelled {label!r} in report {self.name!r}")

    def stderr(self, label: str) -> float | None:
        for row in self.series:
            if row.label == label:
                return row.stderr
        raise KeyError(f"no row labelled {label!r} in report {self.name!r}")

    def labels(self) -> list[str]:
        return [row.label for row in self.series]

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "params": self.params,
            "series": [
                {"label": r.label, "value": r.value}
                if r.stderr is None
                else {"label": r.label, "value": r.value, "stderr": r.stderr}
                for r in self.series
            ],
        }
