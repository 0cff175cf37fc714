"""Emission invariants: round-trip fidelity, determinism, formats."""

import http
import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from uniprod.config import RunConfig
from uniprod.ingest import ingest
from uniprod.pipeline import run_pipeline
from uniprod.report import TABLE_SPECS, render_json, render_table, write_report

from .fixtures import write_demo_dataset
from .tables import read_table


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    root = write_demo_dataset(tmp_path_factory.mktemp("demo"))
    corpus = ingest(root)
    config = RunConfig(compare_partial=True, drop_inputs=("PR",))
    return run_pipeline(corpus, config)


def in_format(report, fmt):
    """``report`` with ``fmt`` as its configured report format."""
    return replace(report, config={**report.config, "report_format": fmt})


class TestCsvRoundTrip:
    def test_every_table_round_trips(self, report, tmp_path):
        for table, columns in TABLE_SPECS.items():
            path = tmp_path / f"{table}.csv"
            path.write_text(render_table(report, table), encoding="utf-8")
            parsed = read_table(path)
            raw = report.tables[table]
            assert len(parsed) == len(raw), table
            for got, want in zip(parsed, raw):
                for name, kind in columns:
                    w = want.get(name)
                    g = got[name]
                    if w is None:
                        assert g is None, (table, name)
                    elif kind == "score":
                        assert g == pytest.approx(w, abs=5e-7), (table, name)
                    elif kind == "num":
                        assert g == pytest.approx(w, rel=1e-11), (table, name)
                    else:
                        assert g == w, (table, name)

    def test_score_columns_have_six_decimals(self, report):
        text = render_table(report, "scores")
        body = text.splitlines()[1:]
        assert body
        for line in body:
            te_cell = line.split(",")[2]
            whole, _, frac = te_cell.partition(".")
            assert len(frac) == 6, line

    def test_int_columns_print_every_digit(self, report):
        # Twelve significant digits, the NUM rule, would print 1e+12.
        rows = ({"total": 10**12 + 1, "resolved": 10**12, "manual": 0,
                 "discarded": 1, "unresolvable": 0},)
        report = replace(report, tables={**report.tables,
                                         "disambiguation_stats": rows})
        text = render_table(report, "disambiguation_stats")
        assert text.splitlines()[1] == "1000000000001,1000000000000,0,1,0"

    def test_header_only_when_no_rows(self, report):
        text = render_table(report, "area_failures")
        assert text == "area_id,reason,detail\n"


class TestJson:
    def test_json_preserves_exact_values(self, report):
        doc = json.loads(render_json(report))
        assert doc["areas_analyzed"] == list(report.areas_analyzed)
        assert doc["config"] == dict(report.config)
        for table in TABLE_SPECS:
            raw = list(report.tables[table])
            assert doc["tables"][table] == raw, table

    def test_json_is_deterministic(self, report):
        assert render_json(report) == render_json(report)

    # Rows that json.dumps escapes or formats in its own way: non-ASCII
    # text, quotes, backslashes, control characters, a string that looks
    # like the break between two rows, signed zeros, exponents, a big
    # int, booleans, None, and scalars of other types: NumPy's float64,
    # a float subclass, and an IntEnum.
    EDGE_ROWS = (
        {"text": "Universit\u00e0 \u4e2d \U0001F600 \"q\" \\ \t\n\x00",
         "joint": '"},\n      {"', "zero": 0.0, "negative_zero": -0.0,
         "small": 1e-07, "large": 1e16, "big_int": 2**70},
        {"yes": True, "no": False, "nothing": None, "int": -3,
         "numpy": np.float64(0.1), "flag": http.HTTPStatus.OK, "": ""},
    )

    @pytest.mark.parametrize("case", ["demo", "empty-tables", "no-tables",
                                      "edge-rows"])
    def test_json_has_the_bytes_of_json_dumps(self, report, case):
        if case == "empty-tables":
            report = replace(report, areas_analyzed=(),
                             tables={name: () for name in report.tables})
        elif case == "no-tables":
            report = replace(report, tables={})
        elif case == "edge-rows":
            report = replace(report, tables={**report.tables,
                                             "warnings": self.EDGE_ROWS})
        body = {
            "config": dict(report.config),
            "areas_analyzed": list(report.areas_analyzed),
            "tables": dict(report.tables),
        }
        assert render_json(report) == (
            json.dumps(body, indent=2, allow_nan=False) + "\n")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf,
                                       np.float64("nan")])
    def test_json_refuses_non_finite_numbers(self, report, value):
        rows = ({"message": "m", "value": value},)
        with pytest.raises(ValueError):
            render_json(replace(report, tables={**report.tables,
                                                "warnings": rows}))


class TestWriteReport:
    def test_csv_mode_writes_all_tables(self, report, tmp_path):
        assert report.config["report_format"] == "csv"
        written = write_report(report, tmp_path / "out")
        names = sorted(p.name for p in written)
        assert "run_config.json" in names
        for table in TABLE_SPECS:
            assert f"{table}.csv" in names
        config_doc = json.loads((tmp_path / "out" / "run_config.json").read_text())
        assert config_doc == dict(report.config)

    def test_json_mode_writes_single_file(self, report, tmp_path):
        written = write_report(in_format(report, "json"), tmp_path / "out")
        assert [p.name for p in written] == ["report.json"]
        doc = json.loads(written[0].read_text(encoding="utf-8"))
        assert doc["config"]["report_format"] == "json"

    def test_emission_is_byte_stable(self, report, tmp_path):
        first = write_report(report, tmp_path / "a")
        second = write_report(report, tmp_path / "b")
        for p1, p2 in zip(first, second):
            assert p1.read_bytes() == p2.read_bytes(), p1.name

    @pytest.mark.parametrize("fmt, linked", [("csv", "scores.csv"),
                                             ("json", "report.json")])
    def test_rerun_writes_new_files(self, report, tmp_path, fmt, linked):
        """A re-run into one directory replaces each file: a hard link to
        an earlier report file keeps that file, and the bytes equal a run
        into a fresh directory."""
        report = in_format(report, fmt)
        out = tmp_path / "out"
        write_report(report, out)
        link = tmp_path / "link"
        os.link(out / linked, link)
        again = write_report(report, out)
        fresh = write_report(report, tmp_path / "fresh")
        assert not os.path.samefile(out / linked, link)
        assert [p.name for p in again] == [p.name for p in fresh]
        for p1, p2 in zip(again, fresh):
            assert p1.read_bytes() == p2.read_bytes(), p1.name


class TestSchema:
    """Every run fills every table, in ``TABLE_SPECS`` order, with rows
    keyed by exactly that table's columns: a misspelled or missing key
    would otherwise reach the CSV as a blank cell or the JSON as a
    stray field."""

    # Without these staff members area A02 has one analyzable unit.
    A02_STARVED = frozenset({"S021", "S022", "S023", "S024", "S025"})

    # The JSON report writes each row's keys in row order, so every other
    # table's rows must list their keys in column order.  The
    # efficiency_by_area row is built as te_mean, te_efficient, pte_mean,
    # ... against the columns te_mean, pte_mean, se_mean, te_efficient,
    # ...; reordering it would change the bytes of every JSON report and
    # so the benchmark's recorded output digests.  It is checked as a
    # key set only.
    KEY_SET_ONLY = frozenset({"efficiency_by_area"})

    @pytest.mark.parametrize("starved", [frozenset(), A02_STARVED],
                             ids=["demo", "one-area-fails"])
    @pytest.mark.parametrize("config", [
        RunConfig(regime="all", compare_partial=True, drop_inputs=("PR",)),
        RunConfig(regime="vrs", compare_partial=True, drop_inputs=("PR",)),
        RunConfig(regime="crs"),
    ], ids=["all", "vrs", "crs"])
    def test_rows_carry_their_tables_columns(self, tmp_path, config,
                                             starved):
        corpus = ingest(write_demo_dataset(tmp_path, starved))
        report = run_pipeline(corpus, config)
        assert list(report.tables) == list(TABLE_SPECS)
        for table, columns in TABLE_SPECS.items():
            names = [name for name, _ in columns]
            for row in report.tables[table]:
                if table in self.KEY_SET_ONLY:
                    assert set(row) == set(names), table
                else:
                    assert list(row) == names, table
        assert bool(report.tables["area_failures"]) == bool(starved)
        if config.regime == "all" and not starved:
            empty = [t for t, rows in report.tables.items() if not rows]
            assert empty == ["area_failures"]
