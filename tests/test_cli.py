"""CLI behavior: flags, exit codes, emitted files."""

import gc
import json
import os
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import uniprod
from uniprod import cli
from uniprod.cli import build_parser, main, parse_years
from uniprod.config import RunConfig
from uniprod.dea import DeaProblem
from uniprod.disambiguation import MatchOutcome
from uniprod.errors import DegenerateDmuError, InvariantViolationError
from uniprod.synthetic import write_synthetic_dataset

from .fixtures import write_demo_dataset, write_override_file
from .tables import read_table


@pytest.fixture()
def data_dir(tmp_path):
    return write_demo_dataset(tmp_path / "data")


def subprocess_env(**extra):
    """The environment for ``python -m uniprod.cli`` run as a fresh
    process that imports this package."""
    package_root = str(Path(uniprod.__file__).resolve().parent.parent)
    path = os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path, **extra)


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

    @pytest.mark.parametrize("error,reason", [
        (InvariantViolationError, "internal_invariant"),
        (DegenerateDmuError, "degenerate_data"),
    ])
    def test_failed_sensitivity_resolve_fails_only_its_area(
            self, tmp_path, capsys, monkeypatch, error, reason):
        """An error from one area's ``--drop-input`` re-solve becomes
        that area's failure row, as one from its frontier models does,
        and the other areas are reported."""
        root = write_synthetic_dataset(tmp_path / "data", seed=3, n_areas=3,
                                       n_universities=12)
        drop_input = DeaProblem.drop_input
        calls = []

        def failing_second_area(problem, label):
            calls.append(label)
            if len(calls) == 2:
                raise error("planted fault")
            return drop_input(problem, label)

        monkeypatch.setattr(DeaProblem, "drop_input", failing_second_area)
        out = tmp_path / "r"
        assert main([str(root), "--drop-input", "PR", "--out", str(out)]) == 2
        failures = read_table(out / "area_failures.csv")
        assert [(r["reason"], r["detail"]) for r in failures] == [
            (reason, "planted fault")]
        analyzed = {r["area_id"] for r in read_table(out / "scores.csv")}
        assert len(analyzed) == 2 and failures[0]["area_id"] not in analyzed
        for table in ("efficiency_by_area", "tertiles", "sensitivity"):
            assert {r["area_id"] for r in read_table(out / f"{table}.csv")} \
                == analyzed

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

    def test_crs_with_vrs_analytics_is_fatal(self, data_dir, tmp_path,
                                             capsys):
        code = main([str(data_dir), "--regime", "crs", "--compare-partial",
                     "--out", str(tmp_path / "r")])
        assert code == 1
        captured = capsys.readouterr()
        assert "--regime vrs or all" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not (tmp_path / "r").exists()

    def test_closed_stdout_keeps_the_exit_code(self, tmp_path):
        """A reader that leaves early, as ``uniprod DATA | head`` does,
        costs the summary but not the report or the exit code."""
        root = write_synthetic_dataset(tmp_path / "data", seed=3, n_areas=2,
                                       n_universities=8)
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to stdout fails with EPIPE
        try:
            run = subprocess.run(
                [sys.executable, "-m", "uniprod.cli", str(root), "--out",
                 str(tmp_path / "r"), "--drop-input", "PR"],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
                env=subprocess_env(), timeout=120)
        finally:
            os.close(write_end)
        assert run.returncode == 0, run.stderr
        assert "Traceback" not in run.stderr
        assert "BrokenPipeError" not in run.stderr
        assert (tmp_path / "r" / "global_ranking.csv").is_file()


class TestSummaryOverview:
    """After its "wrote" lines the summary gives each analyzed area's
    overview, then the top five of the global ranking, which needs the
    VRS scores that ``--regime crs`` skips."""

    @staticmethod
    def _run(tmp_path, capsys, *flags, n_universities=8):
        root = write_synthetic_dataset(tmp_path / "data", seed=3, n_areas=2,
                                       n_universities=n_universities)
        assert main([str(root), "--out", str(tmp_path / "r"), *flags]) == 0
        lines = capsys.readouterr().out.splitlines()
        last_wrote = max(i for i, line in enumerate(lines)
                         if line.startswith("wrote "))
        areas = [line for line in lines
                 if "universities, mean TE" in line]
        assert len(areas) == 2
        assert lines.index("area overview:") > last_wrote
        return lines, areas

    def test_default_regime_prints_overview_and_ranking(self, tmp_path,
                                                        capsys):
        lines, areas = self._run(tmp_path, capsys)
        for line in areas:
            assert " -" not in line  # every model ran
        top = lines.index("top of the global ranking:")
        assert top > lines.index("area overview:")
        assert len(lines[top + 1:]) == 5
        assert all(line.startswith("  #") for line in lines[top + 1:])

    def test_vrs_has_no_te_columns(self, tmp_path, capsys):
        lines, areas = self._run(tmp_path, capsys, "--regime", "vrs")
        for line in areas:
            assert line.endswith("mean TE -, mean PTE 1.000, - TE-efficient")
        assert lines[lines.index("top of the global ranking:") + 1] \
            .startswith("  #1 ")

    def test_crs_says_the_ranking_needs_vrs(self, tmp_path, capsys):
        lines, areas = self._run(tmp_path, capsys, "--regime", "crs")
        assert "top of the global ranking:" not in lines
        assert lines[-1] == "no global ranking: it needs --regime vrs or all"
        assert any(line.endswith("mean PTE -, 5 TE-efficient")
                   for line in areas)

    def test_overview_matches_efficiency_by_area(self, tmp_path, capsys):
        _, areas = self._run(tmp_path, capsys)
        rows = read_table(tmp_path / "r" / "efficiency_by_area.csv")
        assert len(rows) == len(areas)
        for row, line in zip(rows, areas, strict=True):
            area_id, rest = line.strip().split(": ", 1)
            n, te, pte, efficient = re.fullmatch(
                r"\s*(\d+) universities, mean TE ([\d.]+), "
                r"mean PTE ([\d.]+), (\d+) TE-efficient", rest).groups()
            assert area_id == row["area_id"]
            assert int(n) == row["n_universities"]
            assert float(te) == pytest.approx(row["te_mean"], abs=5e-4)
            assert float(pte) == pytest.approx(row["pte_mean"], abs=5e-4)
            assert int(efficient) == row["te_efficient"]

    def test_ranking_is_the_head_of_global_ranking(self, tmp_path, capsys):
        lines, _ = self._run(tmp_path, capsys)
        top = lines[lines.index("top of the global ranking:") + 1:]
        rows = read_table(tmp_path / "r" / "global_ranking.csv")
        assert len(rows) > 5
        assert top == [
            f"  #{r['rank']} {r['university_id']} (score "
            f"{r['theta_tot']:.3f}, {r['areas_active']} areas)"
            for r in rows[:5]
        ]

    def test_short_ranking_is_listed_whole(self, tmp_path, capsys):
        lines, _ = self._run(tmp_path, capsys, n_universities=3)
        top = lines[lines.index("top of the global ranking:") + 1:]
        rows = read_table(tmp_path / "r" / "global_ranking.csv")
        assert len(top) == len(rows) == 3
        assert [line.split()[1] for line in top] \
            == [r["university_id"] for r in rows]

    def test_fatal_config_prints_no_overview(self, tmp_path, capsys):
        # Sensitivity needs the VRS scores that --regime crs skips.
        root = write_synthetic_dataset(tmp_path / "data", seed=3, n_areas=2,
                                       n_universities=8)
        assert main([str(root), "--regime", "crs", "--drop-input", "PR",
                     "--out", str(tmp_path / "r")]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_failed_area_has_no_overview_line(self, tmp_path, capsys,
                                              monkeypatch):
        root = write_synthetic_dataset(tmp_path / "data", seed=3, n_areas=3,
                                       n_universities=12)
        drop_input = DeaProblem.drop_input
        calls = []

        def failing_second_area(problem, label):
            calls.append(label)
            if len(calls) == 2:
                raise DegenerateDmuError("planted fault")
            return drop_input(problem, label)

        monkeypatch.setattr(DeaProblem, "drop_input", failing_second_area)
        out = tmp_path / "r"
        assert main([str(root), "--drop-input", "PR", "--out", str(out)]) == 2
        lines = capsys.readouterr().out.splitlines()
        [failed] = [r["area_id"]
                    for r in read_table(out / "area_failures.csv")]
        overview = lines[lines.index("area overview:") + 1:
                         lines.index("top of the global ranking:")]
        shown = [line.split(":")[0].strip() for line in overview if line]
        assert len(shown) == 2 and failed not in shown
        assert "top of the global ranking:" in lines


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


class TestCollector:
    """main runs the study with the cyclic collector off and leaves it
    as its caller had it."""

    @pytest.mark.parametrize("flags, expected", [
        ([], 0),
        (["--min-staff", "50"], 2),
    ])
    def test_off_only_while_running(self, data_dir, tmp_path, capsys,
                                    monkeypatch, flags, expected):
        during = []

        def recording(fn):
            def wrapper(*args, **kwargs):
                during.append((fn.__name__, gc.isenabled()))
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cli, "ingest", recording(cli.ingest))
        monkeypatch.setattr(cli, "run_pipeline", recording(cli.run_pipeline))
        assert gc.isenabled()
        code = main([str(data_dir), *flags, "--out", str(tmp_path / "r")])
        assert code == expected
        assert during == [("ingest", False), ("run_pipeline", False)]
        assert gc.isenabled()

    def test_on_after_missing_data_directory(self, tmp_path, capsys):
        assert main([str(tmp_path / "void"), "--out",
                     str(tmp_path / "r")]) == 1
        assert gc.isenabled()

    def test_on_after_failure_past_ingest(self, data_dir, tmp_path, capsys):
        bad = tmp_path / "fixes.csv"
        bad.write_text("pub_id,author_position,staff_id\nP029,1,S99999\n",
                       encoding="utf-8")
        assert main([str(data_dir), "--manual-overrides", str(bad),
                     "--out", str(tmp_path / "r")]) == 1
        assert gc.isenabled()

    def test_stays_off_when_the_caller_had_it_off(self, data_dir, tmp_path,
                                                  capsys):
        gc.disable()
        try:
            assert main([str(data_dir), "--out", str(tmp_path / "r")]) == 0
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_callers_frozen_objects_stay_frozen(self, data_dir, tmp_path,
                                                capsys):
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            assert main([str(data_dir), "--out", str(tmp_path / "r")]) == 0
            assert gc.get_freeze_count() == frozen
        finally:
            gc.unfreeze()

    def test_cyclic_garbage_does_not_grow_with_the_corpus(self, data_dir,
                                                          tmp_path, capsys):
        # Pausing the collector for a run costs no memory only while the
        # run leaves no reference cycles per record.
        larger = write_synthetic_dataset(tmp_path / "larger", seed=5,
                                         n_areas=3, n_universities=20)
        garbage = []
        for root in (data_dir, larger):
            gc.collect()
            gc.disable()
            try:
                main([str(root), "--min-staff", "0",
                      "--out", str(tmp_path / root.name / "r")])
                garbage.append(gc.collect())
            finally:
                gc.enable()
        assert garbage[0] == garbage[1] < 500

    def test_no_match_outcome_outlives_a_run(self, tmp_path, capsys):
        # Counted both among the collector's objects and among their
        # referents: the collector may untrack a tuple of strings, but
        # not a container that holds one.
        def live_outcomes():
            gc.collect()
            tracked = gc.get_objects()
            referents = {id(r) for r in gc.get_referents(*tracked)
                         if type(r) is MatchOutcome}
            return (sum(type(o) is MatchOutcome for o in tracked),
                    len(referents))

        before = live_outcomes()
        for seed in (3, 4):
            root = write_synthetic_dataset(tmp_path / f"corpus-{seed}",
                                           seed=seed, n_areas=2,
                                           n_universities=6)
            assert main([str(root), "--out", str(tmp_path / f"r{seed}")]) == 0
            assert live_outcomes() == before, seed


class TestHashSeed:
    def test_report_does_not_depend_on_the_hash_seed(self, tmp_path):
        """No table's rows may follow a set's or dict's hash order: the
        CLI, run as a fresh process under three string-hash seeds, writes
        byte-identical reports."""
        root = write_synthetic_dataset(tmp_path / "data", seed=3, n_areas=3,
                                       n_universities=12)
        reports = {}
        for hashseed in ("0", "1", "12345"):
            out = tmp_path / f"report-{hashseed}"
            subprocess.run(
                [sys.executable, "-m", "uniprod.cli", str(root), "--out",
                 str(out), "--drop-input", "PR", "--compare-partial"],
                env=subprocess_env(PYTHONHASHSEED=hashseed),
                check=True, capture_output=True)
            reports[hashseed] = {
                p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert len(reports["0"]) > 5
        assert reports["1"] == reports["0"]
        assert reports["12345"] == reports["0"]


class TestRowOrder:
    def test_report_does_not_depend_on_the_input_row_order(self, tmp_path):
        """Shuffling the data rows of all five CSVs changes no report
        byte, except the order of ``manual_review.csv``'s rows, which
        follows ``publications.csv``.  This pins the one sort of the DEA
        units (``assemble_problem``): the registry lists each area's
        universities in row order."""
        root = write_synthetic_dataset(tmp_path / "data", seed=11,
                                       n_areas=3, n_universities=12)
        shuffled = tmp_path / "shuffled"
        shuffled.mkdir()
        rng = random.Random(11)
        csv_names = sorted(p.name for p in root.glob("*.csv"))
        assert len(csv_names) == 5
        for name in csv_names:
            header, *rows = (root / name).read_text("utf-8").splitlines(True)
            rng.shuffle(rows)
            (shuffled / name).write_text(header + "".join(rows), "utf-8")
        reports = []
        for data, out in ((root, "report"), (shuffled, "report-shuffled")):
            assert main([str(data), "--out", str(tmp_path / out),
                         "--drop-input", "PR", "--compare-partial"]) == 0
            reports.append({p.name: p.read_bytes()
                            for p in sorted((tmp_path / out).iterdir())})
        original, reordered = reports
        assert len(original) > 5 and original.keys() == reordered.keys()
        review = "manual_review.csv"
        assert original[review] != reordered[review]
        assert (Counter(original.pop(review).splitlines())
                == Counter(reordered.pop(review).splitlines()))
        assert reordered == original


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

    def test_help_shows_the_default_years(self):
        text = " ".join(build_parser().format_help().split())
        shown = re.search(r"output window, .*? \(default (\S+)\)", text)
        assert parse_years(shown.group(1)) == RunConfig().years

    def test_help_mentions_all_flags(self, capsys):
        parser = build_parser()
        text = parser.format_help()
        for flag in ("--years", "--lag", "--min-staff", "--regime",
                     "--drop-input", "--compare-partial", "--format",
                     "--out", "--manual-overrides"):
            assert flag in text
