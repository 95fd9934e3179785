"""Tests of the benchmark itself (not of meandre).

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import compare  # noqa: E402
import meandre  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import GENERATORS, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    "interactive_ops": 60,
    "interactive_max_rank": 8,
    "large_grid": ((200, 20, 2), (300, 10, 1)),
    "large_few_parts": 3,
    "census_n": 5,
    "verify_argv": ["--max-n", "3", "--oracle-max-n", "2", "--census-max-n", "3"],
}


@pytest.fixture
def run_bench(tmp_path, monkeypatch, capsys):
    """Run the benchmark in process at tiny sizes; returns its last line."""
    monkeypatch.setattr(workloads, "SIZES", TINY)

    def go(workload: str, trace: int) -> dict:
        argv = ["--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", str(trace)]
        assert run.main([*argv, "--out", str(tmp_path)]) == 0
        return json.loads(capsys.readouterr().out.splitlines()[-1])

    return go


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic_for_a_seed(workload):
    generate = GENERATORS[workload]
    assert generate(7, 2) == generate(7, 2)
    if workload in ("interactive", "large", "verify"):
        assert generate(7, 0) != generate(8, 0)


def test_checker_flags_wrong_answers():
    checker = checks.Checker(meandre)
    op = {"op": "index", "series": "C", "n": 10, "top": "3,3", "bottom": "4,5", "repeat": False}
    assert checker.interactive(op, 1) is None
    assert checker.interactive(op, 2) is not None
    assert checker.interactive({**op, "op": "reduce"}, 0) is not None
    assert checker.interactive({**op, "op": "load"}, {"exception": "ValueError: bad"}) is not None
    doc = meandre.to_json(meandre.document(meandre.make_seaweed_c(10, "3,3", "4,5")))
    assert checker.interactive({**op, "op": "json"}, doc) is None
    assert checker.interactive({**op, "op": "json"}, doc.replace('"index":1', '"index":2')) is not None

    gl = {"op": "index", "series": "A", "n": 9, "top": "5,2,2", "bottom": "2,4,3", "repeat": False}
    assert checker.interactive(gl, 3) is None
    assert checker.interactive(gl, 2) is not None

    cli_op = {"argv": ["reduce", "--series", "C", "--n", "10", "--top", "3,3", "--bottom", "4,5"], **op}
    assert checker.large(cli_op, {"rc": 0, "out": "index: 1\n", "err": ""}) is None
    assert checker.large(cli_op, {"rc": 0, "out": "index: 0\n", "err": ""}) is not None

    table = "n\\k  1  2 |  F_n\n1    1  - |    1\n2    1  2 |    3\n"
    assert checks.census({"argv": ["census", "--n", "2"]}, {"rc": 0, "out": table, "err": ""}) is not None
    good = "a-check: ok (fine)\nverify: PASS (1 checks)\n"
    bad = "a-check: FAIL (broken)\nverify: PASS (1 checks)\n"
    assert checks.verify({}, {"rc": 0, "out": good, "err": ""}) is None
    assert checks.verify({}, {"rc": 0, "out": bad, "err": ""}) is not None


def test_traced_metric_names_match_benchmark_json(tmp_path, run_bench):
    declared = [m["name"] for m in SPEC["per_layer"]]
    result = run_bench("interactive", trace=1)
    assert list(result["metrics"]) == declared
    derived = spans.derive(json.loads(next(tmp_path.glob("trace-*.json")).read_text()))
    assert sorted([*derived, "trace.overhead_ratio"]) == sorted(declared)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_smoke_run_passes(run_bench, workload):
    result = run_bench(workload, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_compare_verdicts():
    metric = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}
    parent = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
    assert compare.verdict(metric, parent, [v * 0.8 for v in parent])[0] == "improved"
    assert compare.verdict(metric, parent, [v * 1.3 for v in parent])[0] == "worse"
    assert compare.verdict(metric, parent, list(reversed(parent)))[0] == "unchanged"
    noisy = [0.5, 1.5, 0.6, 1.4, 0.7, 1.3, 1.0, 1.0, 0.8, 1.2]
    assert compare.verdict(metric, noisy, list(reversed(noisy)))[0] == "unresolved"
    faster_but_failing = [v * 0.8 for v in parent]
    assert compare.verdict(metric, parent, faster_but_failing, more_failed=True)[0] == "worse"


def test_failed_ops_give_no_latency_sample():
    fake = type("FakeRun", (), {})()
    fake.workload = "interactive"
    fake.busy_ms = 12.0
    fake.reps = [{"wall_s": 1.0, "failed": 1, "peak_rss_kb": 1024}]
    fake.ops = [
        {"op": "index", "series": "C", "top": "1", "bottom": "1", "latency_ms": 5.0},
        {"op": "index", "series": "C", "top": "1", "bottom": "1", "latency_ms": 6.0},
        {"op": "load", "series": "C", "top": "1", "bottom": "1", "latency_ms": 1.0, "failed": True},
    ]
    fake.reps.append({"wall_s": 2.0, "failed": 0, "peak_rss_kb": 1024})
    values, samples = run.end_to_end(fake, [0.1])
    assert values["query_p50_ms"] == 5.5 and samples["query"] == 2
    assert values["queries_per_s"] == 2 / 0.012
    assert values["wall_s"] == 2.0
