"""The study parameters of a run, and their checks."""

from __future__ import annotations

import sys
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
        try:
            years = tuple(self.years)
        except TypeError:
            raise StructuralError(
                f"years must be a sequence of years, got {self.years!r}"
            ) from None
        if not years:
            raise StructuralError("years must be non-empty")
        # type() rather than isinstance(): a bool is not a year or a lag
        for y in years:
            if type(y) is not int:
                raise StructuralError(f"years must be integers, got {y!r}")
        object.__setattr__(self, "years", tuple(sorted(set(years))))
        if type(self.lag) is not int or self.lag < 0:
            raise StructuralError(f"lag must be a non-negative integer, got {self.lag!r}")
        if isinstance(self.min_staff, bool) or not isinstance(
                self.min_staff, (int, float)):
            raise StructuralError(
                f"min_staff must be a number, got {self.min_staff!r}"
            )
        # a comparison, unlike math.isfinite, also takes an int too large
        # for a float
        if not 0 <= self.min_staff <= sys.float_info.max:
            raise StructuralError(
                f"min_staff must be finite and >= 0, got {self.min_staff}"
            )
        # an int and its float are one setting, recorded one way
        object.__setattr__(self, "min_staff", float(self.min_staff))
        if type(self.compare_partial) is not bool:
            raise StructuralError("compare_partial must be True or False, "
                                  f"got {self.compare_partial!r}")
        if self.regime not in REGIMES:
            raise StructuralError(
                f"regime must be one of {REGIMES}, got {self.regime!r}"
            )
        if self.report_format not in FORMATS:
            raise StructuralError(
                f"report format must be one of {FORMATS}, got {self.report_format!r}"
            )
        if isinstance(self.drop_inputs, str):
            raise StructuralError(
                "drop_inputs must be a sequence of input labels, not the "
                f"string {self.drop_inputs!r}"
            )
        try:
            drops = tuple(self.drop_inputs)
        except TypeError:
            raise StructuralError(
                "drop_inputs must be a sequence of input labels, got "
                f"{self.drop_inputs!r}") from None
        for lbl in drops:
            if lbl not in INPUT_LABELS:
                raise StructuralError(
                    f"cannot drop input {lbl!r}: not among inputs {INPUT_LABELS}"
                )
        if len(set(drops)) != len(drops):
            raise StructuralError(f"dropped inputs must not repeat, got {drops}")
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
