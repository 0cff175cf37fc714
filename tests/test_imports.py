"""Every import in the package modules, the scripts and the tests is
used, every name the package exports exists, and the package root
exports exactly its library API, which holds every name that the
README and the scripts import from it.

``__init__.py`` re-exports names it never reads, and ``from __future__``
imports switch compiler features, so both are left out of the first
check; ``uniprod.__all__`` is checked on its own.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

import uniprod

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "uniprod"
MODULES = [p for folder in (PACKAGE, ROOT / "scripts", ROOT / "tests")
           for p in sorted(folder.glob("*.py")) if p.name != "__init__.py"]


def _module_id(path: Path) -> str:
    """A package module by its file name, any other file by its path."""
    if path.parent == PACKAGE:
        return path.name
    return path.relative_to(ROOT).as_posix()


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` and never read."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}: {name}" for name, line in sorted(imported.items())
            if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=_module_id)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\nfrom x import a, b as c\nprint(a, os)\n")
    assert unused_imports(source) == ["3: c"]


def test_every_export_resolves_once():
    assert [n for n, c in Counter(uniprod.__all__).items() if c > 1] == []
    assert [n for n in uniprod.__all__ if not hasattr(uniprod, n)] == []


ROOT_API = {
    "AnalysisReport", "AreaNotAnalyzableError", "CRS", "Corpus",
    "DeaProblem", "DegenerateDmuError", "DmuRecord", "EfficiencyResult",
    "IngestError", "InvariantViolationError", "MissingDataError", "NIRS",
    "REGIMES", "RunConfig", "StructuralError", "UniprodError", "VRS",
    "decompose", "ingest", "load_overrides", "run_pipeline", "scores",
    "write_report",
}


def root_imports(source: str) -> set[str]:
    """Names that ``source`` imports with ``from uniprod import ...``."""
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "uniprod"
            for alias in node.names}


def readme_library_use() -> str:
    """The Python block under the README's "Library use" heading."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_root_exports_exactly_the_library_api():
    assert sorted(uniprod.__all__) == sorted(ROOT_API)


def test_documented_and_script_imports_are_root_api():
    sources = [readme_library_use()] + [
        p.read_text(encoding="utf-8")
        for p in sorted((ROOT / "scripts").glob("*.py"))]
    used = set().union(*map(root_imports, sources))
    assert "run_pipeline" in used
    assert sorted(used - ROOT_API) == []
