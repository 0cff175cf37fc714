"""Read an emitted CSV table back into typed rows, for assertions.

It reads only what ``render_table`` wrote: the header must be the
table's columns, and each cell is parsed by its column's kind, with an
empty cell read as None.
"""

from __future__ import annotations

import csv
from pathlib import Path

from uniprod.report import BOOL, INT, STR, TABLE_SPECS

_PARSE = {STR: str, INT: int, BOOL: lambda text: text == "true"}


def read_table(path: Path) -> list[dict]:
    columns = TABLE_SPECS[path.stem]
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        assert next(reader) == [name for name, _ in columns], path.name
        return [
            {name: None if cell == "" else _PARSE.get(kind, float)(cell)
             for (name, kind), cell in zip(columns, raw, strict=True)}
            for raw in reader
        ]
