import random

import pytest

import meandre.verify
from meandre import index_c, meander
from meandre.composition import Composition, SeaweedC
from meandre.enumeration import frobenius_seaweeds, seaweed_pairs
from meandre.verify import (
    _check_embedding,
    _check_one_full_side,
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
    result = check_kirillov_oracle(2, seed=0)
    assert result.passed
    assert "50 sampled at rank 3), 5 samples each" in result.detail


@pytest.mark.parametrize("max_n", [1, 3, 5])
@pytest.mark.parametrize("seed", [0, 1, 5])
def test_oracle_draws_as_sampling_the_listed_pairs(monkeypatch, max_n, seed):
    # drawing pair indices picks the seaweeds that sampling the list of all
    # pairs would, and leaves the generator in the same state for the forms
    calls = []

    def recording_oracle(q, *, seed):
        calls.append((q, seed))
        return index_c(q)

    monkeypatch.setattr(meandre.verify, "index_oracle", recording_oracle)
    assert check_kirillov_oracle(max_n, seed).passed
    rng = random.Random(seed)
    pool = [q for n in range(1, max_n + 1) for q in seaweed_pairs(n)]
    above = list(seaweed_pairs(max_n + 1))
    pool.extend(rng.sample(above, min(50, len(above))))
    assert calls == [(q, rng.randrange(2**30)) for q in pool]


def test_structure_suite_passes_at_small_bounds():
    results = check_structure(census_max_n=5)
    assert {r.name for r in results} == STRUCTURE_CHECK_NAMES
    assert all(r.passed for r in results)


def test_fault_injection_is_caught_and_named(closed_form_fault):
    result = check_index_methods(2)
    assert not result.passed
    assert result.counterexample is not None
    assert "n=1" in result.counterexample
    results = run_all(max_n=2, oracle_max_n=1, census_max_n=2, seed=0)
    assert [r.name for r in results if not r.passed] == ["index-methods-agree"]


def test_a_wrong_index_route_is_caught_and_named(component_counts_fault):
    result = check_index_methods(2)
    assert not result.passed
    assert result.counterexample == "n=1 (∅ | ∅)"
    assert result.detail == (
        "graph ComponentCounts(cycles=1, stable=0, loose=0, symmetric=True), "
        "walk ComponentCounts(cycles=2, stable=0, loose=0, symmetric=True)"
    )


def test_run_all_shape():
    results = run_all(max_n=3, oracle_max_n=2, census_max_n=4, seed=0)
    assert len(results) == 11
    assert all(r.passed for r in results)


def _without_central_arcs(real):
    """A doubled side whose middle part is all 1s: no central arcs."""
    def half(side, defect):
        return meander._partner(side.parts + (1,) * (2 * defect) + side.parts[::-1])

    return half


def _one_cycle_more(real):
    def counts(g):
        found = real(g)
        return found._replace(cycles=found.cycles + 1)

    return counts


@pytest.mark.parametrize(
    "target, fault",
    [("_doubled_partner", _without_central_arcs), ("graph_counts", _one_cycle_more)],
)
def test_the_scans_count_on_the_graph(monkeypatch, target, fault):
    # the exhaustive scans take their index from the graph: a wrong graph
    # half or a wrong count fails both and names a rank-1 descriptor
    monkeypatch.setattr(meander, target, fault(getattr(meander, target)))
    for result in (check_index_methods(3), _check_one_full_side(3)):
        assert not result.passed, result
        assert result.counterexample is not None and "n=1" in result.counterexample, result


def test_a_class_missing_from_the_listing_is_named(monkeypatch):
    dropped = frobenius_seaweeds(3, 2)[1]

    def listing(n, k):
        return tuple(q for q in frobenius_seaweeds(n, k) if q != dropped)

    monkeypatch.setattr(meandre.verify, "frobenius_seaweeds", listing)
    result = _check_one_full_side(4)
    assert not result.passed
    assert result.detail == "at n=3, k=2: full scan 2, listing 1, census 2"
    assert result.counterexample == str(dropped)


def test_a_wrong_ordered_census_row_is_caught(monkeypatch):
    real = meandre.verify.frobenius_census

    def census(n, *, ordered=False):
        row = real(n, ordered=ordered)
        if ordered and n == 3:  # one class counted once instead of twice
            return row._replace(by_k=(row.by_k[0] - 1, *row.by_k[1:]), total=row.total - 1)
        return row

    monkeypatch.setattr(meandre.verify, "frobenius_census", census)
    result = _check_one_full_side(4)
    assert not result.passed
    assert result.detail == "at n=3: ordered scan [4, 4, 2], census --ordered [3, 4, 2]"


def test_an_embedding_that_breaks_on_a_full_bottom_side_is_caught(monkeypatch):
    real = meandre.verify.embed_up

    def embed(q):
        if q.top.total == q.rank:
            return real(q)
        # the full bottom side grows at its front instead of its end
        return SeaweedC(q.rank + 1, q.top, Composition((1, *q.bottom.parts)), q.series)

    monkeypatch.setattr(meandre.verify, "embed_up", embed)
    result = _check_embedding(3)
    assert not result.passed
    assert result.detail == "image depends on the side order"
    assert result.counterexample is not None
