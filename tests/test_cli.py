import contextlib
import io
import json
import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import meandre.cli
import meandre.index
import meandre.io_render
import meandre.meander
from meandre import index_c, make_seaweed_c, reduction_chain
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
    "census_20.json": ("census", "--n", "20", "--json"),
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


def test_index_non_ascii_digit_part_exits_2(capsys):
    code, out, err = run(capsys, "index", "--series", "C", "--n", "12", "--top", "1_0", "--bottom", "+2, ٣")
    assert code == 2 and out == ""
    assert "not an integer" in err


def test_index_empty_series_a_exits_2(capsys):
    code, out, err = run(capsys, "index", "--series", "A", "--top", "", "--bottom", "")
    assert code == 2 and out == ""
    assert "sl(0) is not an algebra" in err


def test_index_missing_n_exits_2(capsys):
    code, _, err = run(capsys, "index", "--series", "C", "--top", "1", "--bottom", "")
    assert code == 2
    assert "--n" in err


HUGE = "99999999999999999999"


@pytest.mark.parametrize(
    "argv",
    [
        ("graph", "--series", "C", "--n", HUGE, "--top", "1", "--bottom", "1"),
        ("graph", "--series", "A", "--top", HUGE, "--bottom", HUGE),
    ],
)
def test_graph_over_vertex_cap_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "over the cap of 2000000" in err


def test_index_answers_over_the_graph_cap(capsys):
    code, out, _ = run(capsys, "index", "--series", "C", "--n", HUGE, "--top", "1", "--bottom", "1")
    assert code == 0
    # (1 | 1) splits off gl(1): one loose pair; the rest are central circles.
    assert out.splitlines()[1:] == [
        f"index: {HUGE}",
        f"cycles: {int(HUGE) - 1}",
        "segments: 2 (mirror-stable 0, other 2)",
    ]


def timed_index(capsys, *argv):
    started = time.perf_counter()
    code, out, _ = run(capsys, "index", *argv)
    elapsed = time.perf_counter() - started
    assert code == 0
    return out.splitlines()[1:], elapsed


def test_index_at_rank_10_18_answers_at_once(capsys):
    n = 10**18
    lines, elapsed = timed_index(capsys, "--n", str(n), "--top", str(n - 1), "--bottom", str(n))
    assert lines == ["index: 0", "cycles: 0", "segments: 1 (mirror-stable 1, other 0)"]
    assert elapsed < 1.0


def test_index_on_fibonacci_parts_near_10_18(capsys):
    """(F(k-1), F(k) | F(k+1)) in gl: consecutive Fibonacci numbers are
    coprime, and a (a, b | a+b) seaweed has gl index gcd(a, b); the walk
    takes about two Fibonacci indices per step."""
    fib = [1, 2]
    while fib[-1] < 10**18:
        fib.append(fib[-1] + fib[-2])
    a, b, total = fib[-3], fib[-2], fib[-1]
    for g in (1, 6):
        top, bottom = f"{g * a},{g * b}", str(g * total)
        lines, elapsed = timed_index(capsys, "--series", "A", "--top", top, "--bottom", bottom)
        assert lines[:2] == [f"index (gl): {g}", f"index (sl): {g - 1}"]
        assert elapsed < 1.0


def test_index_on_10_5_parts(capsys):
    m = 10**5
    top, bottom = ",".join(["1"] * m), ",".join(["2"] * m)
    lines, elapsed = timed_index(capsys, "--n", str(2 * m), "--top", top, "--bottom", bottom)
    assert elapsed < 2.0
    q = make_seaweed_c(2 * m, top, bottom)
    assert lines[0] == f"index: {index_c(q)}"


def test_index_builds_no_graph(capsys, monkeypatch):
    def no_graph(*args, **kwargs):
        raise AssertionError("a graph was built")

    for module in (meandre.meander, meandre.index, meandre.io_render, meandre.cli):
        for name in ("build_graph_a", "build_graph_c", "document"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, no_graph)
    for argv, golden in ((C_10, "index_c.txt"), (A_9, "index_a.txt"), (B_7, "index_b.txt")):
        code, out, _ = run(capsys, "index", *argv)
        assert code == 0
        assert out == (CLI_GOLDEN_DIR / golden).read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "argv",
    [
        ("census", "--n", "1_0"),
        ("census", "--n", "+5"),
        ("census", "--n", " 5"),
        ("index", "--series", "C", "--n", "+1_2", "--top", "10", "--bottom", "2,3"),
        ("index", "--series", "C", "--n", "١٢", "--top", "10", "--bottom", "2,3"),
        ("verify", "--max-n", "0x2"),
        ("verify", "--seed", "1_0"),
    ],
)
def test_integer_options_take_ascii_digits_only(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "is not an integer" in captured.err


def test_negative_integer_option_is_out_of_range(capsys):
    code, out, err = run(capsys, "census", "--n", "-1")
    assert code == 2 and out == ""
    assert "--n must lie in 1..20, got -1" in err


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


def test_graph_ascii_over_width_exits_2(capsys, monkeypatch):
    """Refused from the descriptor alone, before any graph is built."""

    def no_graph(q):
        raise AssertionError("a graph was built")

    monkeypatch.setattr("meandre.io_render.build_graph_a", no_graph)
    monkeypatch.setattr("meandre.io_render.build_graph_c", no_graph)
    for descriptor, width in [
        (("--series", "C", "--n", "101", "--top", "", "--bottom", ""), 403),
        (("--series", "C", "--n", "1000000", "--top", "", "--bottom", ""), 3999999),
        (("--series", "A", "--top", "101", "--bottom", "101"), 201),
    ]:
        code, out, err = run(capsys, "graph", *descriptor, "--format", "ascii")
        assert code == 2 and out == ""
        assert f"drawing needs {width} columns (limit 200)" in err


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


def test_stepwise_reduce_above_its_rank_cap_exits_2_before_reducing(capsys, monkeypatch):
    def no_chain(q, *, closed_form=False):
        raise AssertionError("the chain was built")

    monkeypatch.setattr("meandre.cli.reduction_chain", no_chain)
    code, out, err = run(
        capsys, "reduce", "--series", "C", "--n", "100001", "--top", "100000", "--bottom", "100001"
    )
    assert code == 2 and out == ""
    assert "--n without --closed-form must lie in 1..100000, got 100001" in err


def test_reduce_rank_cap_is_for_the_stepwise_flavour_only(capsys):
    big = ("--series", "C", "--n", "1000000000", "--top", "999999999", "--bottom", "1000000000")
    code, out, _ = run(capsys, "reduce", *big, "--closed-form")
    assert code == 0 and out.endswith("index: 0\n")
    code, out, _ = run(capsys, "reduce", "--series", "C", "--n", "0", "--top", "", "--bottom", "")
    assert code == 0 and out.endswith("index: 0\n")


@pytest.mark.parametrize(
    "flavour, golden", [((), "reduce_c.txt"), (("--closed-form",), "reduce_c_closed.txt")]
)
def test_reduce_limit_boundary(capsys, monkeypatch, flavour, golden):
    chain = reduction_chain(make_seaweed_c(9, "2,5", "4,1,3"), closed_form=bool(flavour))
    limit = sum(len(s.after.top.parts) + len(s.after.bottom.parts) + 1 for s in chain.steps)
    monkeypatch.setattr(meandre.cli, "REDUCE_MAX_PARTS", limit)
    code, out, _ = run(capsys, "reduce", *C_9, *flavour)
    assert code == 0
    assert out == (CLI_GOLDEN_DIR / golden).read_text(encoding="utf-8")
    monkeypatch.setattr(meandre.cli, "REDUCE_MAX_PARTS", limit - 1)
    code, out, err = run(capsys, "reduce", *C_9, *flavour)
    assert code == 2 and out == ""
    assert f"the chain would print over {limit - 1:,} parts" in err


@pytest.mark.parametrize("flavour", [(), ("--closed-form",)])
def test_reduce_refuses_a_chain_too_long_to_print(capsys, monkeypatch, flavour):
    """(1^50000 | 2^50000): a rank the stepwise cap admits, and a chain of
    about 7.5 * 10^9 parts in either flavour."""
    def no_chain(q, *, closed_form=False):
        raise AssertionError("the chain was built")

    monkeypatch.setattr("meandre.cli.reduction_chain", no_chain)
    m = 50_000
    top, bottom = ",".join(["1"] * m), ",".join(["2"] * m)
    started = time.perf_counter()
    argv = ("--n", str(2 * m), "--top", top, "--bottom", bottom, *flavour)
    code, out, err = run(capsys, "reduce", *argv)
    assert time.perf_counter() - started < 1.0
    assert code == 2 and out == ""
    assert "the chain would print over 10,000,000 parts" in err


def random_parts(rng, total, parts):
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return ",".join(str(b - a) for a, b in zip([0, *cuts], [*cuts, total]))


@pytest.mark.parametrize("flavour", [(), ("--closed-form",)])
def test_reduce_limit_admits_many_parts_chains(monkeypatch, flavour):
    """The benchmark's largest reduce shape, rank 15,450 with 1,000 parts a
    side, prints 6.2-6.8 M parts stepwise and 4.7-5.1 M in closed form;
    (99999 | 100000) takes 99,999 steps."""

    class ChainReached(Exception):
        """reduce let the descriptor through to the chain."""

    def reach_chain(q, *, closed_form=False):
        raise ChainReached

    monkeypatch.setattr("meandre.cli.reduction_chain", reach_chain)
    rng = random.Random(0)
    rank = 15_450
    argvs = [("--n", "100000", "--top", "99999", "--bottom", "100000")]
    for _ in range(4):
        top = random_parts(rng, rank, 1000)
        bottom = random_parts(rng, rank - rng.randint(0, rank // 10), 1000)
        argvs.append(("--n", str(rank), "--top", top, "--bottom", bottom))
    for argv in argvs:
        with pytest.raises(ChainReached):
            main(["reduce", *argv, *flavour])


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


def test_default_caps_census_20_verify_8(capsys):
    code, out, _ = run(capsys, "census", "--n", "13")
    assert code == 0
    assert out.splitlines()[-1].split()[0] == "13"
    for argv, cap in (
        (("census", "--n", "21"), 20),
        (("verify", "--max-n", "9"), 8),
        (("verify", "--census-max-n", "9"), 8),
        (("verify", "--oracle-max-n", "7"), 6),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert f"1..{cap}" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("graph", *C_10, "--format", "ascii", "--max-width", "500"),
        ("index", *A_9, "--sl"),
    ],
    ids=["graph-max-width", "index-sl"],
)
def test_removed_option_exits_2(capsys, argv):
    """The ascii width is a constant; series A always prints both indices."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("samples", ["0", "-2"])
def test_verify_rejects_samples_below_1_before_any_check(capsys, monkeypatch, samples):
    """The oracle sample count is a constant: any --samples is a usage error,
    raised before a check runs."""

    def no_checks(*args, **kwargs):
        raise AssertionError("verify ran its checks")

    monkeypatch.setattr("meandre.cli.run_all", no_checks)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--samples", samples])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "unrecognized arguments: --samples" in captured.err


def test_verify_passes_at_small_bounds(capsys):
    code, out, _ = run(
        capsys, "verify", "--max-n", "3", "--oracle-max-n", "2", "--census-max-n", "4"
    )
    assert code == 0
    assert "verify: PASS" in out


def test_verify_inject_fault_exits_1(capsys, closed_form_fault):
    code, out, err = run(
        capsys, "verify", "--max-n", "2", "--oracle-max-n", "1", "--census-max-n", "2"
    )
    assert code == 1
    assert "FAIL (1 of 11 checks)" in err
    assert "n=1" in out  # the offending seaweed is named


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["census"])  # missing required --n
    assert exc.value.code == 2


# Ranks up to 8, two past the graph cap, two that are not ASCII digits, and
# composition tokens, malformed ones included.
RANKS = st.integers(min_value=-1, max_value=8).map(str) | st.sampled_from(
    ["1000000000", "99999999999999999999", "1_0", "+3"]
)
TOKENS = st.sampled_from(["", "0", "-1", "1,,2", "x", "∅", "1.5"]) | st.lists(
    st.integers(min_value=1, max_value=9), max_size=4
).map(lambda parts: ",".join(map(str, parts)))
# verify's bounds stay at most 2, so a passing run takes milliseconds.
TINY = st.integers(min_value=-1, max_value=2).map(str)
OPTIONS = {
    "--json": st.just(None),
    "--closed-form": st.just(None),
    "--ordered": st.just(None),
    "--format": st.sampled_from(["text", "json", "ascii", "dot"]),
}


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(["index", "graph", "reduce", "census", "verify"]))
    argv = [command]
    if command == "census":
        argv += ["--n", draw(RANKS)]
    elif command == "verify":
        for flag in ("--max-n", "--oracle-max-n", "--census-max-n"):
            argv += [flag, draw(TINY)]
    else:
        argv += ["--series", draw(st.sampled_from("CBA"))]
        if draw(st.booleans()):
            argv += ["--n", draw(RANKS)]
        argv += ["--top", draw(TOKENS), "--bottom", draw(TOKENS)]
    for flag in draw(st.lists(st.sampled_from(sorted(OPTIONS)), max_size=2, unique=True)):
        value = draw(OPTIONS[flag])
        argv += [flag] if value is None else [flag, value]
    return argv


@given(cli_argv())
@settings(max_examples=300, deadline=None)
def test_exit_code_contract(argv):
    """Any argv exits 0 or 2 (argparse's usage errors included), never a traceback."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
        else:
            assert code in (0, 2), argv
