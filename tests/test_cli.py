import json
from pathlib import Path

import pytest

from meandre.cli import main

CLI_GOLDEN_DIR = Path(__file__).parent / "goldens" / "cli"

C_10 = ("--series", "C", "--n", "10", "--top", "3,3", "--bottom", "4,5")
A_9 = ("--series", "A", "--top", "5,2,2", "--bottom", "2,4,3")
B_7 = ("--series", "B", "--n", "7", "--top", "2,3", "--bottom", "")
# Its chains have swapped steps and a split-equal step (+1 before the terminal).
C_9 = ("--series", "C", "--n", "9", "--top", "2,5", "--bottom", "4,1,3")

# Byte-exact stdout of each command.
CLI_GOLDENS = {
    "index_a.txt": ("index", *A_9),
    "index_a_sl.txt": ("index", *A_9, "--sl"),
    "index_a.json": ("index", *A_9, "--json"),
    "index_c.txt": ("index", *C_10),
    "index_c.json": ("index", *C_10, "--json"),
    "index_b.txt": ("index", *B_7),
    "reduce_c.txt": ("reduce", *C_9),
    "reduce_c.json": ("reduce", *C_9, "--json"),
    "reduce_c_closed.txt": ("reduce", *C_9, "--closed-form"),
    "reduce_c_closed.json": ("reduce", *C_9, "--closed-form", "--json"),
    "reduce_b_closed.json": ("reduce", *B_7, "--closed-form", "--json"),
    "graph_c.txt": ("graph", *C_10),
    "graph_b.json": ("graph", *B_7, "--format", "json"),
    "census_5.txt": ("census", "--n", "5"),
    "census_5.json": ("census", "--n", "5", "--json"),
    "census_5_ordered.txt": ("census", "--n", "5", "--ordered"),
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("name", sorted(CLI_GOLDENS))
def test_stdout_matches_golden(capsys, name):
    code, out, _ = run(capsys, *CLI_GOLDENS[name])
    assert code == 0
    assert out == (CLI_GOLDEN_DIR / name).read_bytes().decode("utf-8")


def test_index_series_c(capsys):
    code, out, _ = run(capsys, "index", "--series", "C", "--n", "10", "--top", "3,3", "--bottom", "4,5")
    assert code == 0
    assert "index: 1" in out
    assert "sp(20)" in out


def test_index_series_a_reports_gl_and_sl(capsys):
    code, out, _ = run(capsys, "index", "--series", "A", "--top", "5,2,2", "--bottom", "2,4,3")
    assert code == 0
    assert "index (gl): 3" in out
    assert "index (sl): 2" in out


def test_index_series_a_sl_flag(capsys):
    code, out, _ = run(
        capsys, "index", "--series", "A", "--top", "5,2,2", "--bottom", "2,4,3", "--sl"
    )
    assert code == 0
    assert "index (sl): 2" in out
    assert "index (gl)" not in out


def test_index_series_b_alias(capsys):
    code, out, _ = run(capsys, "index", "--series", "B", "--n", "7", "--top", "2,3", "--bottom", "")
    assert code == 0
    assert "index: 4" in out
    assert "so(15)" in out


def test_index_json(capsys):
    code, out, _ = run(
        capsys, "index", "--series", "C", "--n", "8", "--top", "3,4", "--bottom", "5,3", "--json"
    )
    data = json.loads(out)
    assert code == 0
    assert data["index"] == 1
    assert data["type"] == "C"


def test_index_validation_error_exits_2(capsys):
    code, _, err = run(capsys, "index", "--series", "C", "--n", "2", "--top", "3", "--bottom", "")
    assert code == 2
    assert "exceeds rank" in err


def test_index_empty_series_a_exits_2(capsys):
    code, out, err = run(capsys, "index", "--series", "A", "--top", "", "--bottom", "")
    assert code == 2 and out == ""
    assert "sl(0) is not an algebra" in err


def test_index_missing_n_exits_2(capsys):
    code, _, err = run(capsys, "index", "--series", "C", "--top", "1", "--bottom", "")
    assert code == 2
    assert "--n" in err


def test_graph_json_roundtrips(capsys):
    code, out, _ = run(
        capsys, "graph", "--series", "C", "--n", "7", "--top", "2,3", "--bottom", "", "--format", "json"
    )
    data = json.loads(out)
    assert code == 0
    assert data["vertices"] == 14 and data["index"] == 4


def test_graph_ascii_contains_mirror(capsys):
    code, out, _ = run(
        capsys, "graph", "--series", "C", "--n", "1", "--top", "", "--bottom", "1", "--format", "ascii"
    )
    assert code == 0
    assert "*|*" in out


def test_graph_dot(capsys):
    code, out, _ = run(
        capsys, "graph", "--series", "C", "--n", "2", "--top", "1", "--bottom", "2", "--format", "dot"
    )
    assert code == 0
    assert out.startswith("graph meander {")


def test_reduce_closed_form_chain(capsys):
    code, out, _ = run(
        capsys, "reduce", "--series", "C", "--n", "10", "--top", "3,3", "--bottom", "4,5",
        "--closed-form",
    )
    assert code == 0
    lines = out.splitlines()
    steps = [line for line in lines if "->" in line]
    assert len(steps) == 4
    assert "p=2" in steps[0]
    assert "terminal: n=4 (∅ | 1,1,1) parabolic, index 1" in out
    assert out.rstrip().endswith("index: 1")


def test_reduce_stepwise_variant_same_total(capsys):
    code, out, _ = run(
        capsys, "reduce", "--series", "C", "--n", "10", "--top", "3,3", "--bottom", "4,5"
    )
    assert code == 0
    steps = [line for line in out.splitlines() if "->" in line]
    assert len(steps) == 6  # two large, then four small steps
    assert out.rstrip().endswith("index: 1")


def test_reduce_parabolic_direct(capsys):
    code, out, _ = run(capsys, "reduce", "--series", "C", "--n", "7", "--top", "2,3", "--bottom", "")
    assert code == 0
    assert "->" not in out
    assert "index: 4" in out


def test_reduce_rejects_series_a(capsys):
    code, _, err = run(capsys, "reduce", "--series", "A", "--top", "2", "--bottom", "1,1")
    assert code == 2
    assert "series C/B" in err


def test_census_small_table(capsys):
    code, out, _ = run(capsys, "census", "--n", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[1].split("|")[0].split() == ["1", "1", "-"]
    assert lines[2].split("|")[0].split() == ["2", "1", "1"]


def test_census_json(capsys):
    code, out, _ = run(capsys, "census", "--n", "4", "--json")
    rows = json.loads(out)
    assert code == 0
    assert rows[-1] == {"n": 4, "by_k": [4, 4, 2, 1], "total": 11}


def test_census_out_of_range_exits_2(capsys):
    code, _, err = run(capsys, "census", "--n", "0")
    assert code == 2
    assert "must lie in" in err


def test_census_env_cap(capsys, monkeypatch):
    monkeypatch.setenv("MEANDRE_MAX_N", "3")
    code, _, err = run(capsys, "census", "--n", "7")
    assert code == 2
    assert "MEANDRE_MAX_N" in err


def test_default_caps_census_20_verify_12(capsys, monkeypatch):
    monkeypatch.delenv("MEANDRE_MAX_N", raising=False)
    code, out, _ = run(capsys, "census", "--n", "13")
    assert code == 0
    assert out.splitlines()[-1].split()[0] == "13"
    for argv, cap in ((("census", "--n", "21"), 20), (("verify", "--max-n", "13"), 12)):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert f"1..{cap}" in err


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_nonpositive_env_cap_exits_2(capsys, monkeypatch, cap):
    monkeypatch.setenv("MEANDRE_MAX_N", cap)
    for argv in (("census", "--n", "1"), ("verify", "--max-n", "1")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert f"MEANDRE_MAX_N must be a positive integer, got {cap}" in err


def test_verify_passes_at_small_bounds(capsys):
    code, out, _ = run(
        capsys, "verify", "--max-n", "3", "--oracle-max-n", "2", "--census-max-n", "4"
    )
    assert code == 0
    assert "verify: PASS" in out


def test_verify_inject_fault_exits_1(capsys):
    code, out, err = run(
        capsys, "verify", "--max-n", "2", "--oracle-max-n", "1", "--census-max-n", "2",
        "--inject-fault",
    )
    assert code == 1
    assert "FAIL" in err
    assert "n=1" in out  # the offending seaweed is named


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["census"])  # missing required --n
    assert exc.value.code == 2
