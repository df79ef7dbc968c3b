"""Package metadata: the version is declared once, as ``repro.__version__``
(which also salts the disk cache), and pyproject.toml reads it from there."""

from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_version_is_single_sourced():
    meta = tomllib.loads(PYPROJECT.read_text())
    assert "version" not in meta["project"]
    assert "version" in meta["project"]["dynamic"]
    assert meta["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "repro.__version__",
    }
