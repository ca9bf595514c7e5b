"""Every script in demos/ runs to the end.

Each demo's main() runs in this process; the working directory is a fresh
temporary one, because mode_comparison writes its CSVs into it.
"""

import pathlib
import runpy

import pytest

_DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos")
                .glob("*.py"))


def test_demos_are_found():
    assert _DEMOS


@pytest.mark.parametrize("path", _DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(path))["main"]()
    assert capsys.readouterr().out
