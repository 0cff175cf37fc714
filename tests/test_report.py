"""Emission invariants: round-trip fidelity, determinism, formats."""

import json

import pytest

from uniprod.config import RunConfig
from uniprod.errors import StructuralError
from uniprod.ingest import ingest
from uniprod.pipeline import run_pipeline
from uniprod.report import (
    TABLE_SPECS,
    read_table,
    render_json,
    render_table,
    write_report,
)

from .fixtures import write_demo_dataset


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    root = write_demo_dataset(tmp_path_factory.mktemp("demo"))
    corpus = ingest(root)
    config = RunConfig(compare_partial=True, drop_inputs=("PR",))
    return run_pipeline(corpus, config)


def _raw_rows(report, attribute):
    value = getattr(report, attribute)
    if isinstance(value, dict):
        return [value]
    if attribute == "warning_rows":
        return [{"message": m} for m in value]
    return list(value)


class TestCsvRoundTrip:
    def test_every_table_round_trips(self, report, tmp_path):
        for table, (attribute, columns) in TABLE_SPECS.items():
            path = tmp_path / f"{table}.csv"
            path.write_text(render_table(report, table), encoding="utf-8")
            parsed = read_table(path)
            raw = _raw_rows(report, attribute)
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

    def test_header_only_when_no_rows(self, report):
        text = render_table(report, "area_failures")
        assert text == "area_id,reason,detail\n"

    def test_unknown_table_rejected(self, report, tmp_path):
        with pytest.raises(StructuralError):
            render_table(report, "nope")
        bad = tmp_path / "nope.csv"
        bad.write_text("x\n", encoding="utf-8")
        with pytest.raises(StructuralError):
            read_table(bad)

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("wrong,header\n", encoding="utf-8")
        with pytest.raises(StructuralError):
            read_table(path)


class TestJson:
    def test_json_preserves_exact_values(self, report):
        doc = json.loads(render_json(report))
        assert doc["areas_analyzed"] == list(report.areas_analyzed)
        assert doc["config"] == dict(report.config)
        for table, (attribute, _) in TABLE_SPECS.items():
            raw = _raw_rows(report, attribute)
            assert doc["tables"][table] == raw, table

    def test_json_is_deterministic(self, report):
        assert render_json(report) == render_json(report)


class TestWriteReport:
    def test_csv_mode_writes_all_tables(self, report, tmp_path):
        written = write_report(report, tmp_path / "out", "csv")
        names = sorted(p.name for p in written)
        assert "run_config.json" in names
        for table in TABLE_SPECS:
            assert f"{table}.csv" in names
        config_doc = json.loads((tmp_path / "out" / "run_config.json").read_text())
        assert config_doc == dict(report.config)

    def test_json_mode_writes_single_file(self, report, tmp_path):
        written = write_report(report, tmp_path / "out", "json")
        assert [p.name for p in written] == ["report.json"]

    def test_unknown_format_rejected(self, report, tmp_path):
        with pytest.raises(StructuralError):
            write_report(report, tmp_path, "xml")

    def test_emission_is_byte_stable(self, report, tmp_path):
        first = write_report(report, tmp_path / "a", "csv")
        second = write_report(report, tmp_path / "b", "csv")
        for p1, p2 in zip(first, second):
            assert p1.read_bytes() == p2.read_bytes(), p1.name
