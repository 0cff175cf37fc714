"""The report's tables and their deterministic emission.

``TABLE_SPECS`` names each table once, in emission order; the name is
the CSV file stem and the JSON key.  CSV mode writes one file per table
plus the config snapshot; JSON mode writes a single document.
Efficiency-score columns use fixed six decimal places; other numeric
columns use 12 significant digits; JSON, written cell by cell with the
bytes of ``json.dumps(indent=2)``, carries full float precision.
Emission is byte-stable for a fixed report.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Mapping

from .config import FORMAT_JSON

STR = "str"
INT = "int"
NUM = "num"
SCORE = "score"
BOOL = "bool"

#: table name -> ((column, kind), ...), in emission order
TABLE_SPECS: dict[str, tuple[tuple[str, str], ...]] = {
    "descriptive_stats": (
        ("area_id", STR), ("variable", STR), ("n", INT),
        ("mean", NUM), ("min", NUM), ("max", NUM), ("std_dev", NUM),
    ),
    "efficiency_by_area": (
        ("area_id", STR), ("n_universities", INT),
        ("te_mean", SCORE), ("pte_mean", SCORE), ("se_mean", SCORE),
        ("te_efficient", INT), ("pte_efficient", INT),
        ("rts_constant", INT), ("rts_increasing", INT),
        ("rts_decreasing", INT),
    ),
    "tertiles": (
        ("area_id", STR), ("efficient", INT), ("inefficient", INT),
        ("t1_n", INT), ("t1_mean", SCORE),
        ("t2_n", INT), ("t2_mean", SCORE),
        ("t3_n", INT), ("t3_mean", SCORE),
    ),
    "scores": (
        ("area_id", STR), ("university_id", STR),
        ("te", SCORE), ("pte", SCORE), ("se", SCORE), ("rts", STR),
        ("theta", SCORE), ("area_rank", INT),
    ),
    "global_ranking": (
        ("university_id", STR), ("theta_tot", SCORE), ("rank", INT),
        ("areas_active", INT), ("staff_weight_total", NUM),
    ),
    "partial_comparison": (
        ("area_id", STR), ("n_universities", INT), ("changed", INT),
        ("max_delta", INT), ("mean_delta", NUM), ("median_delta", NUM),
        ("cv_delta", NUM), ("cv_defined", BOOL),
    ),
    "sensitivity": (
        ("area_id", STR), ("dropped_input", STR), ("n_universities", INT),
        ("changed", INT), ("max_delta", INT), ("mean_delta", NUM),
        ("median_delta", NUM), ("cv_delta", NUM), ("cv_defined", BOOL),
        ("no_longer_efficient", INT),
    ),
    "disambiguation_stats": (
        ("total", INT), ("resolved", INT), ("manual", INT),
        ("discarded", INT), ("unresolvable", INT),
    ),
    "exclusions": (
        ("area_id", STR), ("university_id", STR), ("reason", STR),
        ("detail", STR),
    ),
    "area_failures": (("area_id", STR), ("reason", STR), ("detail", STR)),
    "manual_review": (
        ("pub_id", STR), ("author_position", INT), ("token", STR),
        ("candidates", STR),
    ),
    "warnings": (("message", STR),),
}


@dataclass(frozen=True)
class AnalysisReport:
    """``tables`` maps each name of ``TABLE_SPECS``, in its order, to a
    tuple of row dicts keyed by the table's columns.  The per-area
    tables list their areas by id, and within an area their universities
    by id (``descriptive_stats``: variables in label order;
    ``sensitivity``: dropped inputs in the configured order).
    ``global_ranking`` is ordered by rank, then university id;
    ``manual_review`` follows ``publications.csv``; ``warnings`` is
    sorted text; ``disambiguation_stats`` is a single row."""

    config: Mapping[str, object]
    areas_analyzed: tuple[str, ...]
    tables: Mapping[str, tuple[dict, ...]]

    @property
    def fully_successful(self) -> bool:
        return not self.tables["area_failures"]


def _format_cell(value, kind: str) -> str:
    if value is None:
        return ""
    if kind == STR:
        return str(value)
    if kind == INT:
        return str(int(value))
    if kind == BOOL:
        return "true" if value else "false"
    if kind == SCORE:
        return f"{float(value):.6f}"
    return format(float(value), ".12g")  # NUM


def render_table(report: AnalysisReport, table: str) -> str:
    """One table as CSV text with a header row and LF line endings."""
    columns = TABLE_SPECS[table]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow([name for name, _ in columns])
    for row in report.tables[table]:
        writer.writerow(
            [_format_cell(row[name], kind) for name, kind in columns]
        )
    return buffer.getvalue()


#: How json.dumps writes a cell of exactly one of these types; another
#: scalar, or a non-finite float (ValueError), goes to json.dumps itself.
_dumps = functools.partial(json.dumps, allow_nan=False)
_CONSTANTS = {True: "true", False: "false", None: "null"}
_SCALARS = {str: encode_basestring_ascii, int: int.__repr__,
            float: lambda v: float.__repr__(v) if math.isfinite(v)
            else _dumps(v),
            bool: _CONSTANTS.__getitem__, type(None): _CONSTANTS.__getitem__}


def _row(row: Mapping[str, object]) -> str:
    """A non-empty table row, three levels deep, in its own key order."""
    return "{\n        " + ",\n        ".join([
        encode_basestring_ascii(name) + ": "
        + _SCALARS.get(type(value), _dumps)(value)
        for name, value in row.items()]) + "\n      }"


def render_json(report: AnalysisReport) -> str:
    """The whole report as one JSON document at full float precision:
    the bytes of ``json.dumps(body, indent=2, allow_nan=False)`` and a
    newline, with each table row written here, cell by cell."""
    tables = ",\n    ".join(
        encode_basestring_ascii(name) + ": " + (
            "[\n      " + ",\n      ".join(map(_row, rows)) + "\n    ]"
            if rows else "[]")
        for name, rows in report.tables.items())
    # json.dumps writes the rest, up to the "{}" of an empty "tables".
    head = json.dumps({"config": dict(report.config),
                       "areas_analyzed": list(report.areas_analyzed),
                       "tables": {}}, indent=2, allow_nan=False)[:-4]
    return head + ("{\n    " + tables + "\n  }" if tables else "{}") + "\n}\n"


def _write_new_file(target: Path, text: str) -> None:
    """Write ``text`` to ``target`` as a new file, removing any file or
    link there first: a link is replaced, not written through, and on
    ext4 closing a truncated, rewritten file starts its write-back at
    once, which made re-runs into one directory up to 7x slower."""
    target.unlink(missing_ok=True)
    target.write_text(text, encoding="utf-8")


def write_report(report: AnalysisReport, out_dir: Path) -> list[Path]:
    """Write the report under ``out_dir``, in the format its config's
    ``report_format`` names, and list the files created."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if report.config["report_format"] == FORMAT_JSON:
        target = out_dir / "report.json"
        _write_new_file(target, render_json(report))
        return [target]
    written: list[Path] = []
    for table in report.tables:
        target = out_dir / f"{table}.csv"
        _write_new_file(target, render_table(report, table))
        written.append(target)
    config_path = out_dir / "run_config.json"
    _write_new_file(
        config_path,
        json.dumps(dict(report.config), indent=2, sort_keys=True) + "\n",
    )
    written.append(config_path)
    return written
