import runpy
import sys
from pathlib import Path

import pytest

from meandre import frobenius_census
from meandre.io_render import census_table

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "census_report.py"


def test_census_report_table_and_tail(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--max-n", "9"])
    runpy.run_path(str(SCRIPT), run_name="__main__")
    out = capsys.readouterr().out
    table, rest = out.split("\n\ncomputed in ", 1)
    assert table == census_table([frobenius_census(n) for n in range(1, 10)])
    tail = rest.split("stable tail counts (constant for every larger rank):\n", 1)[1]
    assert "  k = n-4: 32\n" in tail
    assert "NOT yet settled" not in tail


@pytest.mark.parametrize("max_n", ["0", "-3"])
def test_census_report_rejects_max_n_below_1(capsys, monkeypatch, max_n):
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--max-n", max_n])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPT), run_name="__main__")
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--max-n must be at least 1, got {max_n}" in captured.err


@pytest.mark.parametrize("max_n", ["1_0", "+9"])
def test_census_report_takes_ascii_digits_only(capsys, monkeypatch, max_n):
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--max-n", max_n])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPT), run_name="__main__")
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument --max-n: {max_n!r} is not an integer" in captured.err
