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

    def test_unwritable_output_is_an_error(self, tmp_path, capsys):
        # An output directory under a regular file cannot be created.
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        main = _script_main("make_synthetic_dataset")
        assert main([str(blocker / "data"), *SMALL]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_output_path_is_a_file_is_an_error(self, tmp_path, capsys):
        taken = tmp_path / "data"
        taken.write_text("kept", encoding="utf-8")
        main = _script_main("make_synthetic_dataset")
        assert main([str(taken), *SMALL]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert taken.read_text(encoding="utf-8") == "kept"


@pytest.mark.parametrize("script", ["make_synthetic_dataset"])
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
