import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meandre import make_seaweed_a, make_seaweed_c
from meandre.composition import Composition, SeaweedA, SeaweedC, Series, doubled
from meandre.enumeration import composition_from_mask, compositions_of, rank_sides, seaweed_pairs
from meandre.meander import (
    Component,
    ComponentReport,
    MeanderGraph,
    _partner,
    analyze,
    build_graph_a,
    build_graph_c,
    graph_counts,
    pair_counts,
)


def central_arcs(g: MeanderGraph) -> tuple[int, int]:
    """Arcs crossing the centre line, on top and below."""
    n = g.vertex_count
    return tuple(
        sum(1 for i, j in arcs if 2 * i <= n < 2 * j) for arcs in (g.top_arcs, g.bottom_arcs)
    )


def degrees(g: MeanderGraph) -> Counter:
    """Arcs at each vertex over both sides; vertices on no arc read 0."""
    return Counter(v for arc in g.top_arcs + g.bottom_arcs for v in arc)


def assert_valid_meander_graph(g: MeanderGraph) -> None:
    """What the builders guarantee by construction, read from the partner
    arrays and the arcs they give: every arc in range, the partner arrays
    consistent, at most one arc per vertex and side, no two arcs of a side
    crossing, and both sides mirror-symmetric if the graph is flagged so."""
    n = g.vertex_count
    for partner, arcs in ((g.top_partner, g.top_arcs), (g.bottom_partner, g.bottom_arcs)):
        assert len(partner) == n + 1 and partner[0] == 0, "partner array of the wrong shape"
        for i, j in arcs:
            assert 1 <= i < j <= n, f"arc {(i, j)} out of range"
        ends = Counter(v for arc in arcs for v in arc)
        assert all(c == 1 for c in ends.values()), "a vertex lies on two arcs of a side"
        for v in range(1, n + 1):
            w = partner[v]
            assert 0 <= w <= n and w != v, f"partner of {v} out of range"
            assert not w or partner[w] == v, f"partner of {v} inconsistent"
        for i, j in arcs:
            for k, l in arcs:
                assert not i < k < j < l, f"arcs {(i, j)} and {(k, l)} cross"
        if g.symmetric:
            m = n + 1
            assert all(
                partner[m - v] == (m - partner[v] if partner[v] else 0) for v in range(1, m)
            ), "side not symmetric under the mirror"


def _ray(start: int, first: dict[int, int], second: dict[int, int]) -> tuple[list[int], bool]:
    """Walk from `start` alternating the two arc maps, `first` map first; the
    vertices after `start` and whether the walk closed back onto `start`."""
    path: list[int] = []
    maps = (first, second)
    cur = start
    step = 0
    while True:
        nxt = maps[step % 2].get(cur)
        if nxt is None:
            return path, False
        if nxt == start:
            return path, True
        path.append(nxt)
        cur = nxt
        step += 1


def reference_analyze(g: MeanderGraph) -> ComponentReport:
    """`analyze` by arc dicts and vertex sets: the walk the partner arrays
    replace, kept as the reference they are checked against."""
    n = g.vertex_count
    top: dict[int, int] = {}
    bottom: dict[int, int] = {}
    for i, j in g.top_arcs:
        top[i] = j
        top[j] = i
    for i, j in g.bottom_arcs:
        bottom[i] = j
        bottom[j] = i
    mirror = n + 1
    seen: set[int] = set()
    comps: list[Component] = []
    for start in range(1, n + 1):
        if start in seen:
            continue
        forward, closed = _ray(start, top, bottom)
        if closed:
            vertices = (start, *forward)
        else:
            backward, _ = _ray(start, bottom, top)
            vertices = (*reversed(backward), start, *forward)
        seen.update(vertices)
        stable = g.symmetric and set(vertices) == {mirror - v for v in vertices}
        comps.append(Component(vertices, closed, stable))
    return ComponentReport(tuple(comps), g.symmetric)


def random_composition(rng: random.Random, total: int) -> Composition:
    parts = []
    while total:
        parts.append(rng.randint(1, total))
        total -= parts[-1]
    return Composition(tuple(parts))


def test_build_graph_a_nine_vertex_example():
    g = build_graph_a(make_seaweed_a("5,2,2", "2,4,3"))
    assert g.vertex_count == 9
    assert set(g.top_arcs) == {(1, 5), (2, 4), (6, 7), (8, 9)}
    assert set(g.bottom_arcs) == {(1, 2), (3, 6), (4, 5), (7, 9)}
    assert not g.symmetric


def test_build_graph_a_trivial_parts():
    g = build_graph_a(make_seaweed_a("1", "1"))
    assert g.vertex_count == 1
    assert g.top_arcs == () and g.bottom_arcs == ()
    g = build_graph_a(make_seaweed_a("4", "4"))
    assert set(g.top_arcs) == {(1, 4), (2, 3)}
    assert set(g.bottom_arcs) == {(1, 4), (2, 3)}


def test_build_graph_c_parabolic_sp14():
    g = build_graph_c(make_seaweed_c(7, "2,3", ""))
    assert g.vertex_count == 14 and g.symmetric
    assert set(g.top_arcs) == {(1, 2), (3, 5), (6, 9), (7, 8), (10, 12), (13, 14)}
    # The empty bottom side contributes 7 nested central arcs.
    assert set(g.bottom_arcs) == {(i, 15 - i) for i in range(1, 8)}


def test_build_graph_c_small_cases():
    g = build_graph_c(make_seaweed_c(1, "", "1"))
    assert g.vertex_count == 2
    assert g.top_arcs == ((1, 2),) and g.bottom_arcs == ()
    g = build_graph_c(make_seaweed_c(4, "2,2", "1,2"))
    assert set(g.top_arcs) == {(1, 2), (3, 4), (5, 6), (7, 8)}
    assert set(g.bottom_arcs) == {(2, 3), (4, 5), (6, 7)}


def test_analyze_parabolic_sp14():
    g = build_graph_c(make_seaweed_c(7, "2,3", ""))
    assert analyze(g).counts == (4, 1, 0, True)  # cycles, stable, loose, symmetric
    assert central_arcs(g) == (2, 7)


def test_analyze_nine_vertex_example():
    report = analyze(build_graph_a(make_seaweed_a("5,2,2", "2,4,3")))
    assert report.counts == (1, 0, 1, False)


def test_analyze_isolated_vertices_are_segments():
    report = analyze(build_graph_a(make_seaweed_a("1,1,1", "1,1,1")))
    assert report.counts == (0, 0, 3, False)
    assert not any(c.is_cycle for c in report.components)


def test_analyze_orders_components_by_smallest_vertex():
    report = analyze(build_graph_c(make_seaweed_c(7, "2,3", "")))
    firsts = [min(c.vertices) for c in report.components]
    assert firsts == sorted(firsts)


def test_analyze_matches_reference_on_every_sp_descriptor_to_rank_6():
    for n in range(0, 7):
        for q in seaweed_pairs(n):
            g = build_graph_c(q)
            assert analyze(g) == reference_analyze(g), q


def test_analyze_matches_reference_on_every_gl_pair_to_size_8():
    for size in range(1, 9):
        comps = list(compositions_of(size))
        for top in comps:
            for bottom in comps:
                g = build_graph_a(SeaweedA(top, bottom))
                assert analyze(g) == reference_analyze(g), (top, bottom)


def test_analyze_matches_reference_on_random_descriptors_to_rank_200():
    rng = random.Random(2016)
    for _ in range(1000):  # one sp and one gl descriptor each
        n = rng.randint(1, 200)
        top = random_composition(rng, rng.randint(0, n))
        bottom = random_composition(rng, rng.randint(0, n))
        g = build_graph_c(SeaweedC(n, top, bottom))
        assert analyze(g) == reference_analyze(g), (n, top, bottom)
        size = rng.randint(1, 200)
        top, bottom = random_composition(rng, size), random_composition(rng, size)
        g = build_graph_a(SeaweedA(top, bottom))
        assert analyze(g) == reference_analyze(g), (top, bottom)


def assert_mirrored_partners(q: SeaweedC) -> None:
    """build_graph_c builds each side's parts once and mirrors them; the
    arrays equal the partner arrays of the doubled parts, built whole."""
    g = build_graph_c(q)
    assert g.top_partner == _partner(doubled(q.top, q.top_defect)), q
    assert g.bottom_partner == _partner(doubled(q.bottom, q.bottom_defect)), q


def test_mirrored_partner_arrays_on_every_c_b_descriptor_to_rank_7():
    for series in Series:
        for n in range(0, 8):
            for q in seaweed_pairs(n):
                assert_mirrored_partners(SeaweedC(n, q.top, q.bottom, series))


@st.composite
def random_c_b_descriptors(draw, max_n=60):
    n = draw(st.integers(min_value=1, max_value=max_n))

    def comp():
        m = draw(st.integers(min_value=0, max_value=n))
        mask = draw(st.integers(min_value=0, max_value=(1 << (m - 1)) - 1)) if m else 0
        return composition_from_mask(m, mask)

    return SeaweedC(n, comp(), comp(), draw(st.sampled_from(Series)))


@given(random_c_b_descriptors())
@settings(max_examples=200)
def test_mirrored_partner_arrays_at_random_ranks(q):
    assert_mirrored_partners(q)


def test_builders_make_valid_meander_graphs():
    for n in range(0, 7):
        for q in seaweed_pairs(n):
            assert_valid_meander_graph(build_graph_c(q))
    for size in range(1, 8):
        comps = list(compositions_of(size))
        for top in comps:
            for bottom in comps:
                assert_valid_meander_graph(build_graph_a(SeaweedA(top, bottom)))


# The checker above must catch each defect a builder could introduce.

NO_ARCS = (0,) * 5


def test_crossing_arcs_rejected():
    with pytest.raises(AssertionError, match="cross"):
        assert_valid_meander_graph(MeanderGraph(4, (0, 3, 4, 1, 2), NO_ARCS))  # (1,3), (2,4)


def test_double_arc_on_a_vertex_rejected():
    with pytest.raises(AssertionError, match="two arcs"):
        assert_valid_meander_graph(MeanderGraph(4, NO_ARCS, (0, 3, 0, 4, 3)))  # (1,3), (3,4)


def test_one_sided_partner_rejected():
    with pytest.raises(AssertionError, match="partner of 1 inconsistent"):
        assert_valid_meander_graph(MeanderGraph(4, (0, 2, 0, 0, 0), NO_ARCS))  # 1 -> 2 only


def test_out_of_range_arc_rejected():
    with pytest.raises(AssertionError, match="out of range"):
        assert_valid_meander_graph(MeanderGraph(3, (0, 4, 0, 0), (0,) * 4))


def test_asymmetric_graph_rejected_when_flagged():
    top = (0, 2, 1, 0, 0)  # (1,2) without its mirror (3,4)
    assert_valid_meander_graph(MeanderGraph(4, top, NO_ARCS))
    with pytest.raises(AssertionError, match="not symmetric"):
        assert_valid_meander_graph(MeanderGraph(4, top, NO_ARCS, symmetric=True))


def test_symmetric_report_index_needs_paired_loose_segments():
    left = Component((1,), is_cycle=False, sigma_stable=False)
    right = Component((2,), is_cycle=False, sigma_stable=False)
    assert ComponentReport((left,)).counts.index == 1  # plain graph: 2*cycles + segments
    assert ComponentReport((left, right), symmetric=True).counts.index == 1
    with pytest.raises(AssertionError, match="must come in pairs; got 1"):
        ComponentReport((left,), symmetric=True).counts.index


def test_graph_index_matches_analyze_on_every_c_b_descriptor_to_rank_7():
    # The graph walk behind index_c: its counts, and so its index, equal analyze's.
    for series in Series:
        for n in range(0, 8):
            for q in seaweed_pairs(n):
                g = build_graph_c(SeaweedC(n, q.top, q.bottom, series))
                counts = graph_counts(g)
                assert counts == analyze(g).counts, (series, q)
                assert counts.index == analyze(g).counts.index, (series, q)


def test_graph_index_matches_analyze_on_every_gl_pair_to_size_8():
    # The graph walk behind index_a_gl: its counts, and so its index, equal analyze's.
    for size in range(1, 9):
        comps = list(compositions_of(size))
        for top in comps:
            for bottom in comps:
                g = build_graph_a(SeaweedA(top, bottom))
                counts = graph_counts(g)
                assert counts == analyze(g).counts, (top, bottom)
                assert counts.index == analyze(g).counts.index, (top, bottom)


def test_odd_loose_segments_fail_on_both_graph_routes():
    # Segments {1,2}, {3} and {4}: none has ends summing to 5, so three are loose.
    g = MeanderGraph(4, (0, 2, 1, 0, 0), NO_ARCS, symmetric=True)
    assert analyze(g).counts == graph_counts(g) == (0, 0, 3, True)
    with pytest.raises(AssertionError, match="must come in pairs; got 3"):
        analyze(g).counts.index
    with pytest.raises(AssertionError, match="must come in pairs; got 3"):
        graph_counts(g).index


def test_symmetric_invariants_exhaustive():
    # Doubled graphs are mirror symmetric with central-arc counts equal to
    # the two defects, and components partition the vertex set.
    for n in range(0, 7):
        for q in seaweed_pairs(n):
            g = build_graph_c(q)
            report = analyze(g)
            assert central_arcs(g) == (q.top_defect, q.bottom_defect)
            covered = sorted(v for c in report.components for v in c.vertices)
            assert covered == list(range(1, 2 * n + 1))
            degree = degrees(g)
            for comp in report.components:
                if comp.is_cycle:
                    assert all(degree[v] == 2 for v in comp.vertices)
                elif len(comp.vertices) == 1:
                    assert degree[comp.vertices[0]] == 0
                else:
                    ends = [v for v in comp.vertices if degree[v] < 2]
                    assert len(ends) == 2


def test_cycle_iff_all_degree_two_exhaustive():
    for n in range(1, 6):
        for q in seaweed_pairs(n):
            g = build_graph_c(q)
            degree = degrees(g)
            for comp in analyze(g).components:
                all_two = all(degree[v] == 2 for v in comp.vertices)
                assert comp.is_cycle == all_two


def test_pair_counts_count_each_pair_as_its_own_graph():
    # the shared halves give every pair the counts of the graph built alone,
    # in top-major order, for type C at each rank and for gl at each size
    for n in range(0, 5):
        sides = rank_sides(n)
        got = [(t, b, c) for t, b, c in pair_counts(sides, sides, n)]
        assert got == [(q.top, q.bottom, graph_counts(build_graph_c(q))) for q in seaweed_pairs(n)]
        comps = list(compositions_of(n))
        got = list(pair_counts(comps[::-1], comps))
        assert got == [
            (t, b, graph_counts(build_graph_a(SeaweedA(t, b)))) for t in comps[::-1] for b in comps
        ]


def test_pair_counts_refuses_sides_that_do_not_fit():
    with pytest.raises(ValueError, match="exceeds rank"):
        list(pair_counts([Composition((2,))], [Composition()], 1))
    with pytest.raises(ValueError, match="one total"):
        list(pair_counts([Composition((2,))], [Composition((1,))]))
