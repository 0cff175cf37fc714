"""The scripts under scripts/, run in-process on a small corpus."""

import importlib.util
from pathlib import Path

import pytest

from uniprod import cli

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _script_main(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


SMALL = ["--seed", "3", "--areas", "2", "--universities", "8"]


class TestMakeSyntheticDataset:
    def test_writes_five_files(self, tmp_path, capsys):
        main = _script_main("make_synthetic_dataset")
        assert main([str(tmp_path / "data"), *SMALL]) == 0
        assert len(sorted((tmp_path / "data").glob("*.csv"))) == 5
        assert "staff.csv" in capsys.readouterr().out

    def test_year_list(self, tmp_path):
        main = _script_main("make_synthetic_dataset")
        assert main([str(tmp_path / "data"), *SMALL,
                     "--years", "2001,2003"]) == 0

    def test_reversed_range_is_usage_error(self, tmp_path, capsys):
        main = _script_main("make_synthetic_dataset")
        with pytest.raises(SystemExit) as exc:
            main([str(tmp_path / "data"), *SMALL, "--years", "2003-2001"])
        assert exc.value.code != 0
        err = capsys.readouterr().err
        assert "reversed" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("script", ["make_synthetic_dataset",
                                    "run_synthetic_study"])
@pytest.mark.parametrize("flags", [
    ["--universities", "80"],
    ["--universities", "0"],
    ["--universities", "-3"],
    ["--areas", "0"],
    ["--areas", "-1"],
], ids="=".join)
def test_out_of_range_size_is_usage_error(tmp_path, capsys, script, flags):
    main = _script_main(script)
    with pytest.raises(SystemExit) as exc:
        main([str(tmp_path / "work"), *SMALL, *flags])
    assert exc.value.code != 0
    err = capsys.readouterr().err
    assert flags[0] in err
    assert "Traceback" not in err
    assert not (tmp_path / "work").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_bad_intensity_is_usage_error(tmp_path, capsys, value):
    # A NaN intensity used to make the Poisson sampler loop forever.
    main = _script_main("make_synthetic_dataset")
    with pytest.raises(SystemExit) as exc:
        main([str(tmp_path / "data"), *SMALL,
              "--pubs-per-staff-year", value])
    assert exc.value.code != 0
    err = capsys.readouterr().err
    assert "--pubs-per-staff-year" in err
    assert "Traceback" not in err
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("years", ["1985", "1000-1002"])
def test_early_output_window(tmp_path, capsys, years):
    # Hiring years used to start at a fixed 1985, which left no range to
    # draw from for a window that starts in 1985 or earlier.
    main = _script_main("make_synthetic_dataset")
    data = tmp_path / "data"
    assert main([str(data), *SMALL, "--years", years]) == 0
    assert cli.main([str(data), "--years", years,
                     "--out", str(tmp_path / "report")]) == 0


class TestRunSyntheticStudy:
    def test_full_study(self, tmp_path, capsys):
        main = _script_main("run_synthetic_study")
        assert main([str(tmp_path), *SMALL]) == 0
        assert (tmp_path / "report" / "global_ranking.csv").is_file()
        assert "top of the global ranking" in capsys.readouterr().out

    def test_vrs_only_reports_no_te_efficient_count(self, tmp_path, capsys):
        main = _script_main("run_synthetic_study")
        assert main([str(tmp_path), *SMALL, "--regime", "vrs"]) == 0
        out = capsys.readouterr().out
        areas = [line for line in out.splitlines()
                 if "universities, mean TE" in line]
        assert len(areas) == 2
        for line in areas:
            assert line.endswith("mean TE -, mean PTE 1.000, - TE-efficient")
        assert "top of the global ranking:\n  #1 " in out

    def test_crs_only_says_the_ranking_needs_vrs(self, tmp_path, capsys):
        main = _script_main("run_synthetic_study")
        assert main([str(tmp_path), *SMALL, "--regime", "crs"]) == 0
        out = capsys.readouterr().out
        assert "top of the global ranking" not in out
        assert out.rstrip().endswith(
            "no global ranking: it needs --regime vrs or all")
        assert "mean PTE -, 5 TE-efficient" in out

    def test_fatal_config_is_exit_one(self, tmp_path, capsys):
        # Sensitivity needs the VRS scores that --regime crs skips.
        main = _script_main("run_synthetic_study")
        assert main([str(tmp_path), *SMALL, "--regime", "crs",
                     "--drop-input", "PR"]) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "Traceback" not in captured.err
        assert "area overview" not in captured.out
        assert "global ranking" not in captured.out
