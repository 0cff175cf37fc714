"""Run configuration for the end-to-end pipeline."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .bibliometrics import INPUT_LABELS, OUTPUT_LABELS
from .dea import CRS, EFFICIENCY_EPS, VRS
from .errors import StructuralError

REGIME_ALL = "all"
REGIMES = (CRS, VRS, REGIME_ALL)

FORMAT_CSV = "csv"
FORMAT_JSON = "json"
FORMATS = (FORMAT_CSV, FORMAT_JSON)

DATA_FILE_NAMES = {
    "staff": "staff.csv",
    "publications": "publications.csv",
    "journals": "journals.csv",
    "funding": "funding.csv",
    "affiliations": "affiliations.csv",
}


@dataclass(frozen=True)
class RunConfig:
    """Everything the pipeline needs to know besides the data itself.

    Paths may stay None when the corpus is built in memory; the CLI
    always fills them in.
    """

    staff_path: Path | None = None
    publications_path: Path | None = None
    journals_path: Path | None = None
    funding_path: Path | None = None
    affiliations_path: Path | None = None
    manual_overrides_path: Path | None = None
    years: tuple[int, ...] = (2001, 2002, 2003)
    lag: int = 1
    min_staff: float = 4.0
    regime: str = REGIME_ALL
    input_labels: tuple[str, ...] = INPUT_LABELS
    output_labels: tuple[str, ...] = OUTPUT_LABELS
    drop_inputs: tuple[str, ...] = ()
    compare_partial: bool = False
    report_format: str = FORMAT_CSV

    def __post_init__(self):
        years = tuple(sorted(set(self.years)))
        if not years:
            raise StructuralError("years must be non-empty")
        for y in years:
            if not isinstance(y, int):
                raise StructuralError(f"years must be integers, got {y!r}")
        object.__setattr__(self, "years", years)
        if not isinstance(self.lag, int) or self.lag < 0:
            raise StructuralError(f"lag must be a non-negative integer, got {self.lag!r}")
        if not (math.isfinite(self.min_staff) and self.min_staff >= 0):
            raise StructuralError(
                f"min_staff must be finite and >= 0, got {self.min_staff}"
            )
        if self.regime not in REGIMES:
            raise StructuralError(
                f"regime must be one of {REGIMES}, got {self.regime!r}"
            )
        if self.report_format not in FORMATS:
            raise StructuralError(
                f"report format must be one of {FORMATS}, got {self.report_format!r}"
            )
        inputs = tuple(self.input_labels)
        outputs = tuple(self.output_labels)
        if not inputs or not outputs:
            raise StructuralError("at least one input and one output required")
        for lbl in inputs:
            if lbl not in INPUT_LABELS:
                raise StructuralError(
                    f"unknown input label {lbl!r}; known: {INPUT_LABELS}"
                )
        for lbl in outputs:
            if lbl not in OUTPUT_LABELS:
                raise StructuralError(
                    f"unknown output label {lbl!r}; known: {OUTPUT_LABELS}"
                )
        if len(set(inputs)) != len(inputs) or len(set(outputs)) != len(outputs):
            raise StructuralError("input/output labels must not repeat")
        object.__setattr__(self, "input_labels", inputs)
        object.__setattr__(self, "output_labels", outputs)
        drops = tuple(self.drop_inputs)
        if len(set(drops)) != len(drops):
            raise StructuralError(f"dropped inputs must not repeat, got {drops}")
        for lbl in drops:
            if lbl not in inputs:
                raise StructuralError(
                    f"cannot drop input {lbl!r}: not among selected inputs {inputs}"
                )
        if drops and len(inputs) < 2:
            raise StructuralError(
                "sensitivity drops need at least two selected inputs"
            )
        object.__setattr__(self, "drop_inputs", drops)

    @staticmethod
    def for_data_dir(data_dir: Path, **kwargs) -> "RunConfig":
        """Config with the conventional five file names under one directory."""
        data_dir = Path(data_dir)
        paths = {
            f"{key}_path": data_dir / name
            for key, name in DATA_FILE_NAMES.items()
        }
        paths.update(kwargs)
        return RunConfig(**paths)

    def snapshot(self) -> dict:
        """JSON-friendly view of the configuration for report headers."""
        return {
            "years": list(self.years),
            "lag": self.lag,
            "min_staff": self.min_staff,
            "efficiency_eps": EFFICIENCY_EPS,
            "regime": self.regime,
            "input_labels": list(self.input_labels),
            "output_labels": list(self.output_labels),
            "drop_inputs": list(self.drop_inputs),
            "compare_partial": self.compare_partial,
            "report_format": self.report_format,
        }
