"""The scripts under scripts/, run in-process on a small corpus."""

import importlib.util
from pathlib import Path

import pytest

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


class TestRunSyntheticStudy:
    def test_full_study(self, tmp_path, capsys):
        main = _script_main("run_synthetic_study")
        assert main([str(tmp_path), *SMALL]) == 0
        assert (tmp_path / "report" / "global_ranking.csv").is_file()
        assert "top of the global ranking" in capsys.readouterr().out
