from meandre.verify import (
    check_index_methods,
    check_kirillov_oracle,
    check_structure,
    run_all,
)

STRUCTURE_CHECK_NAMES = {
    "frobenius-one-full-side",
    "frobenius-component-structure",
    "rank-raising-embedding",
    "single-central-arc-gl-index",
    "single-central-arc-growth",
    "type-a-transfer-counts",
    "tail-stabilization",
    "tail-recurrences",
    "small-defect-closed-forms",
}


def test_index_methods_check_passes():
    result = check_index_methods(4)
    assert result.passed
    assert "340" in result.detail  # 4 + 16 + 64 + 256 seaweeds


def test_kirillov_check_passes():
    result = check_kirillov_oracle(2, samples=5, seed=0)
    assert result.passed
    assert "50 sampled at rank 3" in result.detail


def test_structure_suite_passes_at_small_bounds():
    results = check_structure(census_max_n=5)
    assert {r.name for r in results} == STRUCTURE_CHECK_NAMES
    assert all(r.passed for r in results)


def test_fault_injection_is_caught_and_named(closed_form_fault):
    result = check_index_methods(2)
    assert not result.passed
    assert result.counterexample is not None
    assert "n=1" in result.counterexample
    results = run_all(max_n=2, oracle_max_n=1, census_max_n=2)
    assert [r.name for r in results if not r.passed] == ["index-methods-agree"]


def test_run_all_shape():
    results = run_all(max_n=3, oracle_max_n=2, census_max_n=4)
    assert len(results) == 11
    assert all(r.passed for r in results)
