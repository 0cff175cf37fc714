"""The synthetic generator's argument checks."""

import pytest

from uniprod.synthetic import MAX_UNIVERSITIES, write_synthetic_dataset


@pytest.mark.parametrize("kwargs, message", [
    ({"n_areas": 0}, "n_areas must be at least 1, got 0"),
    ({"n_universities": 0}, "n_universities must be in 1-"),
    ({"n_universities": MAX_UNIVERSITIES + 1}, "n_universities must be in 1-"),
    ({"years": ()}, "years must hold at least one output year"),
], ids=["no-areas", "no-universities", "too-many-universities", "no-years"])
def test_empty_shape_rejected_before_writing(tmp_path, kwargs, message):
    out_dir = tmp_path / "data"
    with pytest.raises(ValueError, match=f"^{message}"):
        write_synthetic_dataset(out_dir, **kwargs)
    assert not out_dir.exists()
