from functools import lru_cache

import pytest

from meandre import (
    frobenius_census,
    index_a_gl,
    index_c,
    make_seaweed_a,
    make_seaweed_c,
)
from meandre import index as index_module
from meandre import meander as meander_module
from meandre.composition import SeaweedC, canonical_pair
from meandre.enumeration import (
    clear_census_cache,
    compositions_of,
    embed_up,
    frobenius_seaweeds,
    hat_map,
    to_type_a,
)
from meandre.meander import analyze, build_graph_a, build_graph_c, pair_counts

TABLE = {
    1: (1,),
    2: (1, 1),
    3: (2, 2, 1),
    4: (4, 4, 2, 1),
    5: (8, 10, 5, 2, 1),
    6: (15, 20, 13, 5, 2, 1),
    7: (28, 44, 28, 14, 5, 2, 1),
}


def test_census_rows_match_reference_table():
    for n, expected in TABLE.items():
        row = frobenius_census(n)
        assert row.by_k == expected
        assert row.total == sum(expected)


def test_census_ordered_counts_are_doubled():
    row = frobenius_census(5, ordered=True)
    assert row.by_k == tuple(2 * v for v in TABLE[5])


@lru_cache(maxsize=None)
def brute_force_by_k(n):
    """The index-0 (full | deficient) classes at rank n, by k, from the
    graph count of every pair: the listing's reference, in its order."""
    fulls = list(compositions_of(n))
    return tuple(
        tuple(
            SeaweedC(n, full, deficient)
            for full, deficient, counts in pair_counts(fulls, list(compositions_of(n - k)), n)
            if counts.index == 0
        )
        for k in range(1, n + 1)
    )


def test_census_dp_matches_brute_force():
    for n in range(1, 10):
        brute = tuple(len(g) for g in brute_force_by_k(n))
        assert frobenius_census(n).by_k == brute
        assert frobenius_census(n, ordered=True).by_k == tuple(2 * v for v in brute)


def test_census_builds_no_graph(monkeypatch):
    def no_graph(*args):
        raise AssertionError("the census built a meander graph")

    monkeypatch.setattr(index_module, "build_graph_c", no_graph)
    clear_census_cache()
    assert frobenius_census(7).by_k == TABLE[7]


def test_listing_equals_brute_force_tuple_for_tuple():
    for n in range(1, 10):
        assert tuple(frobenius_seaweeds(n, k) for k in range(1, n + 1)) == brute_force_by_k(n)


def test_listing_and_rank_maps_build_no_graph(monkeypatch):
    def no_graph(*args, **kwargs):
        raise AssertionError("enumeration built or counted a meander graph")

    for module in (meander_module, index_module):
        for name in ("build_graph_a", "build_graph_c", "graph_counts", "pair_counts"):
            # index imports no pair_counts; meander defines all four
            monkeypatch.setattr(module, name, no_graph, raising=module is meander_module)
    clear_census_cache()
    for n in range(1, 8):
        listed = [frobenius_seaweeds(n, k) for k in range(1, n + 1)]
        assert tuple(map(len, listed)) == TABLE[n]
    q = make_seaweed_c(4, "2,2", "1,2")
    assert embed_up(q) == make_seaweed_c(5, "2,2,1", "1,2")
    assert hat_map(q) == make_seaweed_c(5, "1,2,2", "2,2")
    assert to_type_a(q) == make_seaweed_a("1,2,1", "2,2")


def test_census_tail_and_growth_to_rank_16():
    rows = [frobenius_census(n) for n in range(1, 17)]
    totals = [r.total for r in rows]
    assert all(a < b for a, b in zip(totals, totals[1:]))
    stable = []
    for m in range(8):
        tail = {rows[n - 1].by_k[n - m - 1] for n in range(2 * m + 1, 17)}
        assert len(tail) == 1, (m, tail)
        stable.append(tail.pop())
    assert stable == [1, 2, 5, 14, 32, 78, 174, 390]


def test_census_rejects_nonpositive_rank():
    with pytest.raises(ValueError):
        frobenius_census(0)


def test_frobenius_seaweeds_are_canonical_index_zero():
    for n in range(1, 6):
        for k in range(1, n + 1):
            for q in frobenius_seaweeds(n, k):
                assert index_c(q) == 0
                assert canonical_pair(q) == q
                assert n - min(q.top.total, q.bottom.total) == k
    assert sum(len(frobenius_seaweeds(5, k)) for k in range(1, 6)) == frobenius_census(5).total
    with pytest.raises(ValueError, match="k must lie"):
        frobenius_seaweeds(3, 4)


def single_arc_element(n):
    """(2^k | 1,2^(k-1)) for n = 2k and (2^k | 1,2^k) for n = 2k+1."""
    k = n // 2
    bottom = (1,) + (2,) * (k - 1 if n % 2 == 0 else k)
    return make_seaweed_c(n, ",".join(["2"] * k), ",".join(map(str, bottom)))


def test_explicit_single_arc_family():
    # An index-0 seaweed with a single central arc at every rank, from runs of 2s.
    assert single_arc_element(4) == make_seaweed_c(4, "2,2", "1,2")
    assert single_arc_element(2) == make_seaweed_c(2, "2", "1")
    assert single_arc_element(1) == make_seaweed_c(1, "", "1")
    for n in range(1, 10):
        q = single_arc_element(n)
        assert index_c(q) == 0
        assert q.top_defect + q.bottom_defect == 1


def test_embed_up_examples():
    assert embed_up(make_seaweed_c(1, "", "1")) == make_seaweed_c(2, "", "1,1")
    assert embed_up(make_seaweed_c(4, "2,2", "1,2")) == make_seaweed_c(5, "2,2,1", "1,2")


def test_embed_up_rejects_nonzero_index():
    with pytest.raises(ValueError, match="index-0"):
        embed_up(make_seaweed_c(1, "1", "1"))


def test_embed_up_lands_one_k_higher():
    for n in range(1, 6):
        for k in range(1, n + 1):
            targets = set(frobenius_seaweeds(n + 1, k + 1))
            for q in frobenius_seaweeds(n, k):
                image = embed_up(q)
                assert index_c(image) == 0
                assert canonical_pair(image) in targets


def test_hat_map_examples():
    assert hat_map(make_seaweed_c(1, "", "1")) == make_seaweed_c(2, "2", "1")
    # the deficient side is found after the swap normalisation
    assert hat_map(make_seaweed_c(2, "2", "1")) == make_seaweed_c(3, "1,2", "2")
    assert index_c(make_seaweed_c(3, "1,2", "2")) == 0


def test_hat_map_image_shape():
    image = hat_map(make_seaweed_c(4, "2,2", "1,2"))
    assert image == make_seaweed_c(5, "1,2,2", "2,2")
    assert index_c(image) == 0
    # the grown side is full, ends in 2, and the single central arc remains
    assert image.top.total == image.rank and image.top.parts[-1] == 2
    assert image.top_defect + image.bottom_defect == 1


def test_hat_map_rejects_bad_inputs():
    with pytest.raises(ValueError, match="index-0"):
        hat_map(make_seaweed_c(2, "", ""))
    with pytest.raises(ValueError, match="one central arc"):
        hat_map(make_seaweed_c(2, "", "1,1"))  # two central arcs


def test_to_type_a_examples():
    image = to_type_a(make_seaweed_c(4, "2,2", "1,2"))
    assert image == make_seaweed_a("1,2,1", "2,2")
    report = analyze(build_graph_a(image))
    assert report.counts == (0, 0, 1, False)  # one segment
    assert index_a_gl(image) == 1

    image = to_type_a(make_seaweed_c(1, "", "1"))
    assert image == make_seaweed_a("1", "1")
    assert index_a_gl(image) == 1


def test_to_type_a_unsupported_beyond_two_arcs():
    for q in frobenius_seaweeds(5, 3):
        with pytest.raises(ValueError, match="unsupported"):
            to_type_a(q)


def test_to_type_a_rejects_nonzero_index():
    with pytest.raises(ValueError, match="index-0"):
        to_type_a(make_seaweed_c(3, "", ""))


def test_component_structure_of_census_elements():
    # k mirror-stable segments, no cycles, 2n-k arcs in total
    for n in range(1, 6):
        for k in range(1, n + 1):
            for q in frobenius_seaweeds(n, k):
                report = analyze(build_graph_c(q))
                assert report.counts == (0, k, 0, True)
                assert report.total_arcs == 2 * n - k
