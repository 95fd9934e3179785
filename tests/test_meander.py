from collections import Counter

import pytest

from meandre import make_seaweed_a, make_seaweed_c
from meandre.enumeration import seaweed_pairs
from meandre.meander import (
    Component,
    ComponentKind,
    ComponentReport,
    MeanderGraph,
    analyze,
    build_graph_a,
    build_graph_c,
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
    report = analyze(g)
    assert report.cycles == 4
    assert report.segments == 1
    assert report.sigma_stable_segments == 1
    assert central_arcs(g) == (2, 7)


def test_analyze_nine_vertex_example():
    report = analyze(build_graph_a(make_seaweed_a("5,2,2", "2,4,3")))
    assert report.cycles == 1 and report.segments == 1


def test_analyze_isolated_vertices_are_segments():
    report = analyze(MeanderGraph(3, (), ()))
    assert report.cycles == 0 and report.segments == 3
    assert all(c.kind is ComponentKind.SEGMENT for c in report.components)


def test_analyze_orders_components_by_smallest_vertex():
    report = analyze(build_graph_c(make_seaweed_c(7, "2,3", "")))
    firsts = [min(c.vertices) for c in report.components]
    assert firsts == sorted(firsts)


def test_crossing_arcs_rejected():
    with pytest.raises(ValueError, match="crosses"):
        MeanderGraph(4, ((1, 3), (2, 4)), ())


def test_double_arc_on_a_vertex_rejected():
    with pytest.raises(ValueError, match="two top"):
        MeanderGraph(4, ((1, 3), (3, 4)), ())


def test_out_of_range_arc_rejected():
    with pytest.raises(ValueError, match="out of range"):
        MeanderGraph(3, ((1, 4),), ())


def test_symmetric_report_index_needs_paired_loose_segments():
    left = Component((1,), ComponentKind.SEGMENT, sigma_stable=False)
    right = Component((2,), ComponentKind.SEGMENT, sigma_stable=False)
    assert ComponentReport((left,)).index == 1  # plain graph: 2*cycles + segments
    assert ComponentReport((left, right), symmetric=True).index == 1
    with pytest.raises(AssertionError, match="must come in pairs; got 1"):
        ComponentReport((left,), symmetric=True).index


def test_asymmetric_graph_rejected_when_flagged():
    with pytest.raises(ValueError, match="not symmetric"):
        MeanderGraph(4, ((1, 2),), (), symmetric=True)


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
