"""RunConfig validation and derivation rules."""

import json

import pytest

from uniprod.config import RunConfig
from uniprod.errors import StructuralError


class TestDefaults:
    def test_default_window_and_labels(self):
        config = RunConfig()
        assert config.years == (2001, 2002, 2003)
        assert config.lag == 1
        assert config.min_staff == 4.0
        assert config.regime == "all"
        assert config.snapshot()["input_labels"] == ["FP", "AP", "RF", "PR"]
        assert config.snapshot()["output_labels"] == ["PU", "PC", "SS"]
        assert config.report_format == "csv"

    def test_years_sorted_and_deduplicated(self):
        assert RunConfig(years=(2003, 2001, 2003)).years == (2001, 2003)


class TestValidation:
    def test_empty_years(self):
        with pytest.raises(StructuralError):
            RunConfig(years=())

    @pytest.mark.parametrize("value", [None, 2001])
    def test_years_not_iterable(self, value):
        with pytest.raises(StructuralError,
                           match=f"^years must be a sequence of years, got {value!r}$"):
            RunConfig(years=value)

    def test_non_integer_year(self):
        with pytest.raises(StructuralError):
            RunConfig(years=(2001.5,))
        with pytest.raises(StructuralError, match="'2002'"):
            RunConfig(years=(2001, "2002"))
        with pytest.raises(StructuralError, match="True"):
            RunConfig(years=(True,))

    def test_negative_lag(self):
        with pytest.raises(StructuralError):
            RunConfig(lag=-1)
        with pytest.raises(StructuralError, match="True"):
            RunConfig(lag=True)

    def test_zero_lag_accepted(self):
        config = RunConfig(lag=0)
        assert config.lag == 0
        assert config.snapshot()["lag"] == 0

    def test_negative_min_staff(self):
        with pytest.raises(StructuralError):
            RunConfig(min_staff=-0.1)

    @pytest.mark.parametrize("value", [float("inf"), float("nan"), 10**400],
                             ids=["inf", "nan", "int-beyond-float"])
    def test_non_finite_min_staff(self, value):
        with pytest.raises(StructuralError,
                           match="^min_staff must be finite and >= 0, got "):
            RunConfig(min_staff=value)

    @pytest.mark.parametrize("value", [True, "4", None])
    def test_non_numeric_min_staff(self, value):
        with pytest.raises(StructuralError,
                           match=f"^min_staff must be a number, got {value!r}$"):
            RunConfig(min_staff=value)

    def test_integer_min_staff_recorded_as_float(self):
        config = RunConfig(min_staff=4)
        assert config == RunConfig(min_staff=4.0)
        assert json.dumps(config.snapshot()) == json.dumps(
            RunConfig(min_staff=4.0).snapshot())

    def test_bad_regime(self):
        with pytest.raises(StructuralError):
            RunConfig(regime="drs")

    def test_bad_format(self):
        with pytest.raises(StructuralError):
            RunConfig(report_format="xml")

    def test_drop_outside_selection(self):
        with pytest.raises(StructuralError, match="cannot drop input 'XX'"):
            RunConfig(drop_inputs=("XX",))
        with pytest.raises(StructuralError, match=r"cannot drop input \['PR'\]"):
            RunConfig(drop_inputs=[["PR"]])

    def test_drop_inputs_string(self):
        with pytest.raises(StructuralError,
                           match="sequence of input labels, not the string 'PR'"):
            RunConfig(drop_inputs="PR")

    @pytest.mark.parametrize("value", [None, 3])
    def test_drop_inputs_not_iterable(self, value):
        with pytest.raises(StructuralError,
                           match=f"sequence of input labels, got {value!r}$"):
            RunConfig(drop_inputs=value)

    @pytest.mark.parametrize("value", ["no", 1, None])
    def test_compare_partial_must_be_bool(self, value):
        with pytest.raises(StructuralError,
                           match=f"^compare_partial must be True or False, got {value!r}$"):
            RunConfig(compare_partial=value)

    def test_repeated_drop_label(self):
        with pytest.raises(StructuralError, match="must not repeat"):
            RunConfig(drop_inputs=("PR", "AP", "PR"))

    @pytest.mark.parametrize("flags", [
        {"drop_inputs": ("PR",)},
        {"compare_partial": True},
    ])
    def test_crs_rejects_vrs_analytics(self, flags):
        with pytest.raises(StructuralError, match="--regime vrs or all"):
            RunConfig(regime="crs", **flags)


class TestDerivation:
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
