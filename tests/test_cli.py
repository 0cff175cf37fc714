"""CLI behavior: flags, exit codes, emitted files."""

import json

import pytest

from uniprod.cli import build_parser, main, parse_years
from uniprod.config import RunConfig
from uniprod.report import read_table

from .fixtures import write_demo_dataset, write_override_file


@pytest.fixture()
def data_dir(tmp_path):
    return write_demo_dataset(tmp_path / "data")


class TestParseYears:
    def test_range(self):
        assert parse_years("2001-2003") == (2001, 2002, 2003)

    def test_comma_list(self):
        assert parse_years("2001,2003") == (2001, 2003)

    def test_single(self):
        assert parse_years("2002") == (2002,)

    @pytest.mark.parametrize("bad", ["2003-2001", "x", "2001-2002-2003", "",
                                     "2001-10000", "999-2001", "2001,10000"])
    def test_rejects(self, bad):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_years(bad)


class TestExitCodes:
    def test_success_is_zero(self, data_dir, tmp_path, capsys):
        code = main([str(data_dir), "--out", str(tmp_path / "r")])
        assert code == 0
        out = capsys.readouterr().out
        assert "areas analyzed: 2" in out

    def test_partial_failure_is_two(self, data_dir, tmp_path, capsys):
        code = main([str(data_dir), "--min-staff", "50",
                     "--out", str(tmp_path / "r")])
        assert code == 2
        out = capsys.readouterr().out
        assert "skipped" in out
        rows = read_table(tmp_path / "r" / "area_failures.csv")
        assert {r["area_id"] for r in rows} == {"A01", "A02"}

    def test_missing_files_are_fatal(self, tmp_path, capsys):
        code = main([str(tmp_path / "void"), "--out", str(tmp_path / "r")])
        assert code == 1
        err = capsys.readouterr().err
        assert "staff.csv" in err

    def test_usage_error_exits_one(self, data_dir, capsys):
        with pytest.raises(SystemExit) as exc:
            main([str(data_dir), "--years", "2003-2001"])
        assert exc.value.code == 1
        assert "year range '2003-2001' is reversed" in capsys.readouterr().err

    def test_year_outside_four_digits_is_usage_error(self, data_dir, capsys):
        # An unbounded range would be built in memory and checked year by
        # year; the bound rejects it before either happens.
        with pytest.raises(SystemExit) as exc:
            main([str(data_dir), "--years", "2001-10000"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: uniprod")
        assert "year 10000 in '2001-10000' is outside 1000-9999" in err

    def test_unknown_flag_exits_one(self, data_dir):
        with pytest.raises(SystemExit) as exc:
            main([str(data_dir), "--frobnicate"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_min_staff_is_fatal(self, data_dir, tmp_path, capsys,
                                           value):
        code = main([str(data_dir), "--min-staff", value,
                     "--out", str(tmp_path / "r")])
        assert code == 1
        assert "min_staff must be finite" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_bad_drop_label_is_fatal(self, data_dir, tmp_path, capsys):
        code = main([str(data_dir), "--drop-input", "XX",
                     "--out", str(tmp_path / "r")])
        assert code == 1
        assert "XX" in capsys.readouterr().err

    def test_repeated_drop_label_is_fatal(self, data_dir, tmp_path, capsys):
        code = main([str(data_dir), "--drop-input", "PR", "--drop-input", "PR",
                     "--out", str(tmp_path / "r")])
        assert code == 1
        assert "must not repeat" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()


class TestFlags:
    def test_years_flag_reaches_config(self, data_dir, tmp_path, capsys):
        out = tmp_path / "r"
        assert main([str(data_dir), "--years", "2001,2002",
                     "--out", str(out)]) == 0
        snapshot = json.loads((out / "run_config.json").read_text())
        assert snapshot["years"] == [2001, 2002]

    def test_json_format_writes_single_document(self, data_dir, tmp_path,
                                                capsys):
        out = tmp_path / "r"
        assert main([str(data_dir), "--format", "json",
                     "--out", str(out)]) == 0
        assert [p.name for p in out.iterdir()] == ["report.json"]
        doc = json.loads((out / "report.json").read_text())
        assert doc["config"]["report_format"] == "json"

    def test_regime_crs_leaves_pte_blank(self, data_dir, tmp_path, capsys):
        out = tmp_path / "r"
        assert main([str(data_dir), "--regime", "crs",
                     "--out", str(out)]) == 0
        rows = read_table(out / "scores.csv")
        assert rows and all(r["pte"] is None for r in rows)
        assert all(r["te"] is not None for r in rows)

    def test_drop_input_emits_sensitivity(self, data_dir, tmp_path, capsys):
        out = tmp_path / "r"
        assert main([str(data_dir), "--drop-input", "PR",
                     "--out", str(out)]) == 0
        rows = read_table(out / "sensitivity.csv")
        assert {r["area_id"] for r in rows} == {"A01", "A02"}
        assert all(r["dropped_input"] == "PR" for r in rows)

    def test_compare_partial_emits_table(self, data_dir, tmp_path, capsys):
        out = tmp_path / "r"
        assert main([str(data_dir), "--compare-partial",
                     "--out", str(out)]) == 0
        assert len(read_table(out / "partial_comparison.csv")) == 2

    def test_manual_overrides_resolve_queue(self, data_dir, tmp_path, capsys):
        out = tmp_path / "r"
        overrides = write_override_file(tmp_path / "fixes.csv")
        assert main([str(data_dir), "--manual-overrides", str(overrides),
                     "--out", str(out)]) == 0
        stats = read_table(out / "disambiguation_stats.csv")[0]
        assert stats["manual"] == 0
        assert stats["resolved"] == 29
        assert read_table(out / "manual_review.csv") == []

    def test_min_staff_flag_changes_exclusions(self, data_dir, tmp_path,
                                               capsys):
        out = tmp_path / "r"
        assert main([str(data_dir), "--min-staff", "0",
                     "--out", str(out)]) == 0
        rows = read_table(out / "scores.csv")
        # U3/A02 now joins the frontier model.
        assert ("A02", "U3") in {(r["area_id"], r["university_id"])
                                 for r in rows}

    def test_bad_override_file_is_fatal(self, data_dir, tmp_path, capsys):
        bad = tmp_path / "fixes.csv"
        bad.write_text("pub_id,author_position,staff_id\nP029,zero,S027\n",
                       encoding="utf-8")
        code = main([str(data_dir), "--manual-overrides", str(bad),
                     "--out", str(tmp_path / "r")])
        assert code == 1
        assert "author_position" in capsys.readouterr().err


    def test_unknown_override_staff_is_reported_with_line(
            self, data_dir, tmp_path, capsys):
        bad = tmp_path / "fixes.csv"
        bad.write_text("pub_id,author_position,staff_id\nP029,1,S99999\n",
                       encoding="utf-8")
        code = main([str(data_dir), "--manual-overrides", str(bad),
                     "--out", str(tmp_path / "r")])
        assert code == 1
        assert "fixes.csv:2: unknown staff id 'S99999'" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("regime", ["vrs", "all"])
    def test_zero_staff_unit_is_excluded(self, data_dir, tmp_path, capsys,
                                         regime):
        # U4's only researcher joins in 2003, after the last snapshot year
        # (2002), yet publishes in 2003: mean staff 0 with a positive output.
        for name, row in (
            ("staff.csv", "S900,Nuovo,Ada,FP,U4,A01,2003,2006"),
            ("affiliations.csv", "Univ. of Delta,U4"),
            ("publications.csv",
             'P900,2003,article,J1,"NUOVO,A.","Univ. of Delta"'),
        ):
            path = data_dir / name
            path.write_text(path.read_text() + row + "\n", encoding="utf-8")
        out = tmp_path / "r"
        code = main([str(data_dir), "--min-staff", "0", "--regime", regime,
                     "--compare-partial", "--out", str(out)])
        assert code in (0, 2)
        assert {
            "area_id": "A01",
            "university_id": "U4",
            "reason": "below_staff_threshold",
            "detail": "no staff in the snapshot years",
        } in read_table(out / "exclusions.csv")
        scored = {r["university_id"] for r in read_table(out / "scores.csv")
                  if r["area_id"] == "A01"}
        assert scored == {"U1", "U2", "U3"}


class TestParserHelp:
    def test_defaults_are_the_run_config_defaults(self):
        args = build_parser().parse_args(["data"])
        defaults = RunConfig()
        assert args.years == defaults.years
        assert args.lag == defaults.lag
        assert args.min_staff == defaults.min_staff
        assert args.regime == defaults.regime
        assert args.report_format == defaults.report_format
        assert tuple(args.drop_inputs) == defaults.drop_inputs
        assert args.compare_partial == defaults.compare_partial

    def test_help_mentions_all_flags(self, capsys):
        parser = build_parser()
        text = parser.format_help()
        for flag in ("--years", "--lag", "--min-staff", "--regime",
                     "--drop-input", "--compare-partial", "--format",
                     "--out", "--manual-overrides"):
            assert flag in text
