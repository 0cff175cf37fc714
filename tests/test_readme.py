"""The README's code examples run as written."""

import re
from pathlib import Path

from uniprod.synthetic import write_synthetic_dataset

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_block(section: str) -> str:
    """The first ```python block under the ``## section`` heading."""
    text = README.read_text(encoding="utf-8")
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", body, re.S).group(1)


def test_library_use_runs(tmp_path, monkeypatch, capsys):
    write_synthetic_dataset(tmp_path / "studydata", seed=7, n_areas=2,
                            n_universities=8)
    monkeypatch.chdir(tmp_path)
    exec(compile(_python_block("Library use"), "<README: Library use>",
                 "exec"), {})
    assert "U1" in capsys.readouterr().out
    assert (tmp_path / "report" / "scores.csv").is_file()
    assert (tmp_path / "report" / "sensitivity.csv").is_file()
