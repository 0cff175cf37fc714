"""RunConfig validation and derivation rules."""

import json
from pathlib import Path

import pytest

from uniprod.config import DATA_FILE_NAMES, RunConfig
from uniprod.errors import StructuralError


class TestDefaults:
    def test_default_window_and_labels(self):
        config = RunConfig()
        assert config.years == (2001, 2002, 2003)
        assert config.lag == 1
        assert config.min_staff == 4.0
        assert config.regime == "all"
        assert config.input_labels == ("FP", "AP", "RF", "PR")
        assert config.output_labels == ("PU", "PC", "SS")
        assert config.report_format == "csv"

    def test_years_sorted_and_deduplicated(self):
        assert RunConfig(years=(2003, 2001, 2003)).years == (2001, 2003)


class TestValidation:
    def test_empty_years(self):
        with pytest.raises(StructuralError):
            RunConfig(years=())

    def test_non_integer_year(self):
        with pytest.raises(StructuralError):
            RunConfig(years=(2001.5,))

    def test_negative_lag(self):
        with pytest.raises(StructuralError):
            RunConfig(lag=-1)

    def test_negative_min_staff(self):
        with pytest.raises(StructuralError):
            RunConfig(min_staff=-0.1)

    def test_bad_regime(self):
        with pytest.raises(StructuralError):
            RunConfig(regime="drs")

    def test_bad_format(self):
        with pytest.raises(StructuralError):
            RunConfig(report_format="xml")

    def test_unknown_input_label(self):
        with pytest.raises(StructuralError):
            RunConfig(input_labels=("FP", "XX"))

    def test_unknown_output_label(self):
        with pytest.raises(StructuralError):
            RunConfig(output_labels=("PU", "XX"))

    def test_duplicate_labels(self):
        with pytest.raises(StructuralError):
            RunConfig(input_labels=("FP", "FP"))

    def test_drop_outside_selection(self):
        with pytest.raises(StructuralError):
            RunConfig(input_labels=("FP", "AP"), drop_inputs=("PR",))

    def test_drop_needs_two_inputs(self):
        with pytest.raises(StructuralError):
            RunConfig(input_labels=("FP",), drop_inputs=("FP",))

    def test_repeated_drop_label(self):
        with pytest.raises(StructuralError, match="must not repeat"):
            RunConfig(drop_inputs=("PR", "AP", "PR"))


class TestDerivation:
    def test_for_data_dir_fills_conventional_names(self, tmp_path):
        config = RunConfig.for_data_dir(tmp_path, lag=2)
        assert config.staff_path == tmp_path / DATA_FILE_NAMES["staff"]
        assert config.publications_path == tmp_path / "publications.csv"
        assert config.journals_path == tmp_path / "journals.csv"
        assert config.funding_path == tmp_path / "funding.csv"
        assert config.affiliations_path == tmp_path / "affiliations.csv"
        assert config.lag == 2

    def test_snapshot_is_json_serializable(self):
        config = RunConfig(drop_inputs=("PR",), compare_partial=True)
        text = json.dumps(config.snapshot())
        back = json.loads(text)
        assert back["drop_inputs"] == ["PR"]
        assert back["compare_partial"] is True
        assert back["years"] == [2001, 2002, 2003]

    def test_frozen(self):
        config = RunConfig()
        with pytest.raises(Exception):
            config.lag = 3
