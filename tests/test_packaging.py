"""The documented install: ``pyproject.toml`` metadata and console scripts.

README and ARCHITECTURE document ``pip install -e .`` and the
``tfapprox-table1`` / ``tfapprox-fig2`` / ``tfapprox-dse`` /
``tfapprox-serve`` commands.  These tests read the metadata the install
uses and run every console-script target the way the generated wrapper
would, so a renamed entry point or a broken ``--help`` fails here.
"""

from __future__ import annotations

import importlib
import tomllib
from pathlib import Path

import pytest

import repro

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ("tfapprox-dse", "tfapprox-fig2", "tfapprox-serve", "tfapprox-table1")


def _pyproject() -> dict:
    return tomllib.loads((REPO_ROOT / "pyproject.toml").read_text())


def test_project_metadata_matches_the_package():
    config = _pyproject()
    project = config["project"]
    assert project["dependencies"] == ["numpy"]
    assert sorted(project["scripts"]) == list(SCRIPTS)
    # The version is read from the package, and the packages from src/.
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "repro.__version__"}
    assert repro.__version__
    where = config["tool"]["setuptools"]["packages"]["find"]["where"]
    assert (REPO_ROOT / where[0] / "repro" / "__init__.py").is_file()


@pytest.mark.parametrize("script", SCRIPTS)
def test_console_script_resolves_and_prints_help(script, capsys):
    target = _pyproject()["project"]["scripts"][script]
    module_name, _, attr = target.partition(":")
    main = getattr(importlib.import_module(module_name), attr)
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage:")
