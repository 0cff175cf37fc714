"""The study parameters of a run, and their checks."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bibliometrics import INPUT_LABELS, OUTPUT_LABELS
from .dea import CRS, EFFICIENCY_EPS, VRS
from .errors import StructuralError

REGIME_ALL = "all"
REGIMES = (CRS, VRS, REGIME_ALL)

FORMAT_CSV = "csv"
FORMAT_JSON = "json"
FORMATS = (FORMAT_CSV, FORMAT_JSON)


@dataclass(frozen=True)
class RunConfig:
    """Everything the pipeline needs to know besides the data itself."""

    years: tuple[int, ...] = (2001, 2002, 2003)
    lag: int = 1
    min_staff: float = 4.0
    regime: str = REGIME_ALL
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
        drops = tuple(self.drop_inputs)
        if len(set(drops)) != len(drops):
            raise StructuralError(f"dropped inputs must not repeat, got {drops}")
        for lbl in drops:
            if lbl not in INPUT_LABELS:
                raise StructuralError(
                    f"cannot drop input {lbl!r}: not among inputs {INPUT_LABELS}"
                )
        object.__setattr__(self, "drop_inputs", drops)
        if self.regime == CRS and (drops or self.compare_partial):
            raise StructuralError(
                "--drop-input and --compare-partial need the variable-"
                "returns scores; use --regime vrs or all"
            )

    def snapshot(self) -> dict:
        """JSON-friendly view of the configuration for report headers."""
        return {
            "years": list(self.years),
            "lag": self.lag,
            "min_staff": self.min_staff,
            "efficiency_eps": EFFICIENCY_EPS,
            "regime": self.regime,
            "input_labels": list(INPUT_LABELS),
            "output_labels": list(OUTPUT_LABELS),
            "drop_inputs": list(self.drop_inputs),
            "compare_partial": self.compare_partial,
            "report_format": self.report_format,
        }
