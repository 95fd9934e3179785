"""End-to-end acceptance checks.

One test per criterion; each prints a PASS line so the module doubles as a
checklist (`pytest tests/test_acceptance.py -v -s`).  All comparisons are
exact; runtime bounds are asserted where stated.
"""

import json
import time
from pathlib import Path

from meandre import (
    document,
    from_json,
    index_a_gl,
    index_c,
    index_oracle,
    make_seaweed_a,
    make_seaweed_c,
    reduction_chain,
    to_ascii,
    to_dot,
    to_json,
)
from meandre.cli import main
from meandre.composition import Series
from meandre.enumeration import (
    clear_census_cache,
    frobenius_census,
    seaweed_pairs,
)
from meandre.meander import analyze, build_graph_c
from meandre.verify import check_structure

import pytest

GOLDEN_DIR = Path(__file__).parent / "goldens"

EXPECTED_TABLE = """\
n\\k    1    2    3    4    5    6    7 |  F_n
1      1    -    -    -    -    -    - |    1
2      1    1    -    -    -    -    - |    2
3      2    2    1    -    -    -    - |    5
4      4    4    2    1    -    -    - |   11
5      8   10    5    2    1    -    - |   26
6     15   20   13    5    2    1    - |   56
7     28   44   28   14    5    2    1 |  122"""


def _ok(label: str, started: float | None = None) -> None:
    suffix = f" ({time.time() - started:.1f}s)" if started is not None else ""
    print(f"PASS {label}{suffix}")


def test_criterion_1_census_table(capsys):
    started = time.time()
    assert main(["census", "--n", "7"]) == 0
    out = capsys.readouterr().out
    elapsed = time.time() - started
    assert out.rstrip("\n") == EXPECTED_TABLE
    assert elapsed < 5.0
    with capsys.disabled():
        _ok("criterion 1: rank <= 7 census table reproduced exactly", started)


def test_criterion_2_stable_value_at_rank_9(capsys):
    clear_census_cache()  # time the full computation, not a warm cache
    started = time.time()
    rows = [frobenius_census(n) for n in range(1, 10)]
    elapsed = time.time() - started
    assert rows[8].by_k[4] == 32  # k = 5 entry of the rank-9 row
    assert elapsed < 30.0
    with capsys.disabled():
        _ok("criterion 2: rank-9 census gives 32 classes at k=5", started)


def test_criterion_3_worked_examples(capsys):
    q_a = make_seaweed_a("5,2,2", "2,4,3")
    assert index_a_gl(q_a) == 3 and index_a_gl(q_a) - 1 == 2  # gl, then sl

    parabolic = make_seaweed_c(7, "2,3", "")
    report = analyze(build_graph_c(parabolic))
    assert index_c(parabolic) == 4
    assert report.counts == (4, 1, 0, True)  # 4 cycles, one mirror-stable segment

    chain = reduction_chain(make_seaweed_c(10, "3,3", "4,5"), closed_form=True)
    assert chain.total_index == 1
    unordered = [
        (s.after.rank, frozenset({s.after.top.parts, s.after.bottom.parts}))
        for s in chain.steps
    ]
    assert unordered == [
        (7, frozenset({(3,), (1, 5)})),
        (6, frozenset({(1, 1), (5,)})),
        (5, frozenset({(1,), (3, 1)})),
        (4, frozenset({(), (1, 1, 1)})),
    ]

    assert index_c(make_seaweed_c(8, "3,4", "5,3")) == 1
    with capsys.disabled():
        _ok("criterion 3: worked examples (gl/sl pair, parabolic, chain, index-1 graph)")


def test_criterion_4_three_index_routes_agree(capsys):
    started = time.time()
    checked = 0
    for n in range(1, 7):
        for q in seaweed_pairs(n):
            graph = index_c(q)
            assert reduction_chain(q).total_index == graph, q
            assert reduction_chain(q, closed_form=True).total_index == graph, q
            checked += 1
    elapsed = time.time() - started
    assert checked == sum(4**n for n in range(1, 7))
    assert elapsed < 60.0
    with capsys.disabled():
        _ok(f"criterion 4: graph = stepwise = closed form on {checked} seaweeds", started)


def test_criterion_5_kirillov_oracle(capsys):
    import random

    started = time.time()
    rng = random.Random(0)
    pool = []
    for n in range(1, 4):
        pool.extend(seaweed_pairs(n))
    pool.extend(rng.sample(list(seaweed_pairs(4)), 50))
    for q in pool:
        assert index_oracle(q, 5, seed=rng.randrange(2**30)) == index_c(q), q
    elapsed = time.time() - started
    assert elapsed < 60.0
    with capsys.disabled():
        _ok(f"criterion 5: Kirillov oracle agrees on {len(pool)} seaweeds", started)


def test_criterion_6_census_structure_suite(capsys):
    started = time.time()
    results = check_structure(census_max_n=7)
    for result in results:
        assert result.passed, str(result)
    with capsys.disabled():
        for result in results:
            _ok(f"criterion 6: {result.name}")
        _ok("criterion 6: structural suite complete", started)


def test_criterion_7_small_defect_closed_forms(capsys):
    rows = {n: frobenius_census(n) for n in range(1, 10)}
    for n in range(1, 10):
        assert rows[n].by_k[n - 1] == 1
    for n in range(2, 10):
        assert rows[n].by_k[n - 2] == (1 if n == 2 else 2)
    for n in range(3, 10):
        assert rows[n].by_k[n - 3] == {3: 2, 4: 4}.get(n, 5)
    with capsys.disabled():
        _ok("criterion 7: closed-form tail counts to rank 9")


def test_criterion_8_so_odd_equals_sp(capsys):
    started = time.time()
    for n in range(1, 7):
        frob = {Series.SP: set(), Series.SO_ODD: set()}
        for q in seaweed_pairs(n):
            so = make_seaweed_c(n, q.top, q.bottom, Series.SO_ODD)
            rep_sp = analyze(build_graph_c(q))
            rep_so = analyze(build_graph_c(so))
            assert rep_sp == rep_so
            idx = index_c(q)
            assert index_c(so) == idx
            if idx == 0:
                frob[Series.SP].add((q.top.parts, q.bottom.parts))
                frob[Series.SO_ODD].add((so.top.parts, so.bottom.parts))
        # identical descriptor sets: the equal-rank census bijection
        assert frob[Series.SP] == frob[Series.SO_ODD]
    out = json.loads(_cli_json(capsys, "index", "--series", "B", "--n", "7", "--top", "2,3", "--bottom", "", "--json"))
    assert out["index"] == 4 and out["type"] == "B"
    with capsys.disabled():
        _ok("criterion 8: so(2n+1) output equals sp(2n) output to rank 6", started)


def _cli_json(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def test_criterion_9_serialization(capsys):
    started = time.time()
    for n in range(0, 6):
        for q in seaweed_pairs(n):
            doc = document(q)
            assert from_json(to_json(doc)) == doc
    goldens = {
        "parabolic_sp14": make_seaweed_c(7, "2,3", ""),
        "reduction_start_sp20": make_seaweed_c(10, "3,3", "4,5"),
        "index1_sp16": make_seaweed_c(8, "3,4", "5,3"),
        "frobenius_sp14_k1": make_seaweed_c(7, "2,4", "4,3"),
        "frobenius_sp14_k2": make_seaweed_c(7, "3,2", "2,5"),
    }
    for name, q in goldens.items():
        doc = document(q)
        for suffix, render in (("txt", to_ascii), ("dot", to_dot)):
            golden = (GOLDEN_DIR / f"{name}.{suffix}").read_text(encoding="utf-8")
            assert render(doc) == golden, f"{name}.{suffix}"
    with capsys.disabled():
        _ok("criterion 9: JSON round-trips to rank 5; ascii/dot goldens byte-stable", started)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
