import json
import tracemalloc
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meandre import index_a_gl, index_c, make_seaweed_a, make_seaweed_c, reduction_chain
from meandre.composition import Composition, SeaweedA, SeaweedC, Series
from meandre.enumeration import composition_from_mask, compositions_of, seaweed_pairs
from meandre.cli import main
from meandre.index import (
    ReductionStep,
    Rule,
    closed_form_step,
    component_counts,
    terminal_index_c,
    walk,
)
from meandre.meander import analyze, build_graph_a, build_graph_c, graph_counts


def random_seaweeds(max_n):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=0, max_value=max_n))

        def comp():
            m = draw(st.integers(min_value=0, max_value=n))
            mask = draw(st.integers(min_value=0, max_value=max(0, (1 << max(m - 1, 0)) - 1)))
            return composition_from_mask(m, mask)

        return make_seaweed_c(n, comp(), comp())

    return build()


# --- topological formulas ---------------------------------------------------


def test_index_a_gl_examples():
    assert index_a_gl(make_seaweed_a("5,2,2", "2,4,3")) == 3
    assert index_a_gl(make_seaweed_a("1", "1")) == 1
    assert index_a_gl(make_seaweed_a("4", "4")) == 4


def test_index_a_sl_examples():
    # The sl index is the gl index minus one.
    assert index_a_gl(make_seaweed_a("5,2,2", "2,4,3")) - 1 == 2
    assert index_a_gl(make_seaweed_a("1,1", "2")) - 1 == 0  # Borel of sl(2)
    assert index_a_gl(make_seaweed_a("3", "3")) - 1 == 2


def test_index_c_examples():
    assert index_c(make_seaweed_c(7, "2,3", "")) == 4
    assert index_c(make_seaweed_c(10, "3,3", "4,5")) == 1
    assert index_c(make_seaweed_c(8, "3,4", "5,3")) == 1
    for n in range(1, 6):
        assert index_c(make_seaweed_c(n, "", "")) == n
    assert index_c(make_seaweed_c(4, "1,1,1,1", "")) == 0


def test_index_c_so_odd_matches_sp():
    for n in range(1, 6):
        for q in seaweed_pairs(n):
            so = make_seaweed_c(n, q.top, q.bottom, Series.SO_ODD)
            assert index_c(so) == index_c(q)


def test_parabolic_index_examples():
    assert terminal_index_c(make_seaweed_c(7, "2,3", "")) == 4
    assert terminal_index_c(make_seaweed_c(7, "", "2,3")) == 4
    assert terminal_index_c(make_seaweed_c(5, "", "")) == 5
    assert terminal_index_c(make_seaweed_c(3, "1,1,1", "")) == 0


def test_parabolic_formula_matches_graph_to_rank_8():
    for n in range(0, 9):
        for m in range(0, n + 1):
            for a in compositions_of(m):
                q = make_seaweed_c(n, a, "")
                assert terminal_index_c(q) == index_c(q)


def test_index_a_gl_at_least_one_iff_single_segment():
    for n in range(1, 6):
        for top in compositions_of(n):
            for bottom in compositions_of(n):
                q = make_seaweed_a(top, bottom)
                report = analyze(build_graph_a(q))
                value = index_a_gl(q)
                assert value >= 1
                sole_segment = report.counts == (0, 0, 1, False)
                assert (value == 1) == sole_segment


def test_swap_symmetry_and_levi_case():
    for n in range(0, 6):
        for q in seaweed_pairs(n):
            assert index_c(q) == index_c(q.swap())
    for n in range(0, 6):
        for m in range(0, n + 1):
            for a in compositions_of(m):
                assert index_c(make_seaweed_c(n, a, a)) == n


def test_loose_segments_always_even():
    for n in range(0, 6):
        for q in seaweed_pairs(n):
            report = analyze(build_graph_c(q))
            assert report.counts.loose % 2 == 0


# --- reduction steps --------------------------------------------------------


class Snapshot(NamedTuple):
    """A step with both of its descriptors, as `meandre reduce` prints it."""

    rule: Rule
    before: SeaweedC
    after: SeaweedC
    index_delta: int
    swapped: bool
    witness_p: int | None


def eager_chain(q, closed_form):
    """The reference for every per-step descriptor: both descriptors of
    every step built and validated during the walk.  Returns the snapshots
    and the terminal."""
    steps, cur = [], q
    stacks = list(q.top.parts[::-1]), list(q.bottom.parts[::-1])
    for rule, p, swapped, delta, rank, (a, b) in walk(q.rank, *stacks, closed_form=closed_form):
        after = SeaweedC(rank, Composition(a[::-1]), Composition(b[::-1]), q.series)
        steps.append(Snapshot(rule, cur, after, delta, swapped, p))
        cur = after
    return steps, cur


def first_step(q, closed_form=False):
    return eager_chain(q, closed_form)[0][0]


def test_reduce_step_case_small():
    step = first_step(make_seaweed_c(6, "1,1", "5"))
    assert step.rule is Rule.CASE_SMALL
    assert step.after == make_seaweed_c(5, "1", "3,1")
    assert step.index_delta == 0


def test_reduce_step_split_equal():
    step = first_step(make_seaweed_c(5, "2,1", "2,2"))
    assert step.rule is Rule.SPLIT_EQUAL
    assert step.index_delta == 2
    assert step.after == make_seaweed_c(3, "1", "2")
    # Equal leading parts split in the closed-form flavour too.
    step = first_step(make_seaweed_c(4, "2", "2,1"), closed_form=True)
    assert step.rule is Rule.SPLIT_EQUAL
    assert step.witness_p is None
    assert step.after == make_seaweed_c(2, "", "1")


def test_reduce_step_case_large():
    step = first_step(make_seaweed_c(10, "3,3", "4,5"))
    assert step.rule is Rule.CASE_LARGE
    assert step.after == make_seaweed_c(9, "2,3", "3,5")


def test_reduce_step_drops_zero_part():
    step = first_step(make_seaweed_c(8, "1,3", "2,5"))
    assert step.rule is Rule.CASE_SMALL
    assert step.after == make_seaweed_c(7, "3", "1,5")


def test_parabolic_takes_no_reduce_step():
    for q in (make_seaweed_c(7, "2,3", ""), make_seaweed_c(7, "", "1,5")):
        for closed in (False, True):
            chain = reduction_chain(q, closed_form=closed)
            assert chain.steps == () and chain.terminal == q


def test_reduce_step_swaps_sides_itself():
    q = make_seaweed_c(7, "3", "1,5")
    for closed in (False, True):
        step = first_step(q, closed_form=closed)
        assert step.swapped
        assert step.before == q
        assert step.after == first_step(q.swap(), closed_form=closed).after


def test_reduce_step_closed_examples():
    step = first_step(make_seaweed_c(10, "3,3", "4,5"), closed_form=True)
    assert step.witness_p == 2
    assert step.after == make_seaweed_c(7, "3", "1,5")  # zero head part omitted
    step = first_step(make_seaweed_c(6, "1,1", "5"), closed_form=True)
    assert step.witness_p == 0
    assert step.after == make_seaweed_c(5, "1", "3,1")
    step = first_step(make_seaweed_c(2, "1", "2"), closed_form=True)
    assert step.witness_p == 0
    assert step.after == make_seaweed_c(1, "", "1")


def test_closed_form_step_is_large_steps_then_one_small_step():
    """For a1 < b1 the collapsed step lands where witness_p case-large steps
    and one case-small step of the three-case flavour land, none swapped."""
    checked = 0
    for n in range(1, 8):
        for q in seaweed_pairs(n):
            a, b = q.top.parts, q.bottom.parts
            if not (a and b and a[0] < b[0]):
                continue
            closed = first_step(q, closed_form=True)
            rules = [Rule.CASE_LARGE] * closed.witness_p + [Rule.CASE_SMALL]
            steps = eager_chain(q, False)[0][: len(rules)]
            assert [(step.rule, step.swapped) for step in steps] == [(r, False) for r in rules], q
            assert steps[-1].after == closed.after, q
            checked += 1
    assert checked == 7032  # every such descriptor of rank <= 7


@given(st.integers(min_value=1, max_value=300), st.integers(min_value=1, max_value=300))
def test_closed_form_step_bounds(a1, spread):
    b1 = a1 + spread
    a, b = [2, a1], [3, b1]  # part stacks: the leading part last
    p, rank = closed_form_step(b1 + 1, a, b)
    assert p >= 0
    assert p * b1 < (p + 1) * a1 <= (p + 1) * b1 - a1
    # uniqueness: neighbours violate one of the bounds
    for bad in (p - 1, p + 1):
        if bad >= 0:
            assert not (bad * b1 < (bad + 1) * a1 and (bad + 2) * a1 <= (bad + 1) * b1)
    # a1 goes, the rank falls by a1 and the head keeps the bottom total
    assert (rank, a, b[0]) == (b1 + 1 - a1, [2], 3)
    assert sum(b[1:]) == b1 - a1 and all(part > 0 for part in b[1:])


@pytest.mark.parametrize(
    "a, b", [((3,), (3,)), ((4, 1), (3,)), ((0,), (2,)), ((-1,), (2,)), ((), (2,)), ((1,), ())]
)
def test_closed_form_step_needs_a1_below_b1(a, b):
    stacks = list(a[::-1]), list(b[::-1])
    with pytest.raises(ValueError, match="0 < a1 < b1"):
        closed_form_step(5, *stacks)
    assert stacks == (list(a[::-1]), list(b[::-1]))  # nothing popped


def test_strip_central_circles():
    # Central circles: each adds 1 to the index of the seaweed without them.
    cases = ((3, "1", "1", 2, 3), (10, "3,3", "4,5", 1, 1), (5, "", "", 5, 5))
    for n, top, bottom, count, index in cases:
        inner = make_seaweed_c(n - count, top, bottom)
        assert index_c(make_seaweed_c(n, top, bottom)) == count + index_c(inner) == index


@given(random_seaweeds(6))
@settings(max_examples=60)
def test_strip_central_circles_additivity(q):
    """Both sides deficient: the graph carries n - max(sum(top), sum(bottom))
    concentric central circles, and removing them lowers the index by that."""
    if q.top_defect and q.bottom_defect:
        count = q.rank - max(q.top.total, q.bottom.total)
    else:
        count = 0
    inner = make_seaweed_c(q.rank - count, q.top, q.bottom)
    assert index_c(q) == count + index_c(inner)


# --- reduction chains -------------------------------------------------------


def test_chain_reproduces_worked_reduction():
    q = make_seaweed_c(10, "3,3", "4,5")
    chain = reduction_chain(q, closed_form=True)
    steps, _ = eager_chain(q, True)
    intermediate = [
        (s.after.rank, frozenset({s.after.top.parts, s.after.bottom.parts})) for s in steps
    ]
    assert intermediate == [
        (7, frozenset({(3,), (1, 5)})),
        (6, frozenset({(1, 1), (5,)})),
        (5, frozenset({(1,), (3, 1)})),
        (4, frozenset({(), (1, 1, 1)})),
    ]
    assert len(chain.steps) == 4
    assert chain.terminal == make_seaweed_c(4, "", "1,1,1")
    assert chain.total_index == 1
    assert chain.steps[0].witness_p == 2


def test_chain_on_parabolic_has_no_steps():
    chain = reduction_chain(make_seaweed_c(7, "2,3", ""))
    assert chain.steps == ()
    assert chain.total_index == 4


def test_chain_cartan_of_sp2():
    chain = reduction_chain(make_seaweed_c(1, "1", "1"))
    assert len(chain.steps) == 1
    assert chain.steps[0].rule is Rule.SPLIT_EQUAL
    assert chain.steps[0].index_delta == 1
    assert chain.terminal.rank == 0
    assert chain.total_index == 1


def test_chain_records_swaps_for_replay():
    q = make_seaweed_c(7, "3", "1,5")
    chain = reduction_chain(q)
    assert chain.steps[0].swapped
    replayed = eager_chain(q, False)[0][0]
    assert replayed.before == q and replayed.swapped
    assert replayed.after == make_seaweed_c(6, "5", "1,1")  # the sides stay exchanged


@given(random_seaweeds(6))
@settings(max_examples=80)
def test_every_step_preserves_index_against_graph(q):
    for closed in (False, True):
        steps, _ = eager_chain(q, closed)
        for step in steps:
            assert index_c(step.before) == step.index_delta + index_c(step.after)
        assert reduction_chain(q, closed_form=closed).total_index == index_c(q)


def test_three_routes_agree_exhaustively_to_rank_4():
    for n in range(0, 5):
        for q in seaweed_pairs(n):
            graph = index_c(q)
            assert reduction_chain(q).total_index == graph
            assert reduction_chain(q, closed_form=True).total_index == graph


def assert_valid_descriptor(d):
    assert isinstance(d, SeaweedC)
    assert d == SeaweedC(d.rank, Composition(d.top.parts), Composition(d.bottom.parts), d.series)


def test_chain_matches_the_eager_snapshot_loop_on_every_c_b_descriptor_to_rank_5():
    for series in Series:
        for n in range(0, 6):
            for q in seaweed_pairs(n):
                q = SeaweedC(n, q.top, q.bottom, series)
                for closed in (False, True):
                    chain = reduction_chain(q, closed_form=closed)
                    steps, terminal = eager_chain(q, closed)
                    records = [(s.rule, s.index_delta, s.swapped, s.witness_p) for s in steps]
                    assert chain.steps == tuple(records), q
                    assert all(type(step) is ReductionStep for step in chain.steps)
                    assert chain.terminal == terminal
                    assert_valid_descriptor(chain.terminal)


@pytest.mark.parametrize("series", Series)
def test_json_reduce_prints_the_eager_descriptors_to_rank_4(capsys, series):
    """`reduce --json` builds its descriptors from its own walk: each step's
    before/after strings, delta and the terminal are the reference's."""
    for n in range(0, 5):
        for q in seaweed_pairs(n):
            q = SeaweedC(n, q.top, q.bottom, series)
            descriptor = ["--series", series.value, "--n", str(n)]
            descriptor += ["--top", q.top.to_text(), "--bottom", q.bottom.to_text()]
            for closed in (False, True):
                flavour = ["--closed-form"] if closed else []
                assert main(["reduce", *descriptor, *flavour, "--json"]) == 0
                printed = json.loads(capsys.readouterr().out)
                steps, terminal = eager_chain(q, closed)
                expected = [(str(s.before), str(s.after), s.index_delta) for s in steps]
                got = [(row["before"], row["after"], row["delta"]) for row in printed["steps"]]
                assert got == expected, q
                assert printed["terminal"] == str(terminal), q


def ones_and_twos(m):
    return make_seaweed_c(2 * m, ",".join(["1"] * m), ",".join(["2"] * m))


@pytest.mark.parametrize("closed", [False, True])
def test_chain_memory_is_linear(closed):
    """(1^3000 | 2^3000): 3,000 steps, each recorded without its
    descriptors; snapshots of both descriptors per step peaked at 92 MB."""
    q = ones_and_twos(3000)
    tracemalloc.start()
    try:
        chain = reduction_chain(q, closed_form=closed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert chain.total_index == component_counts(q).index == 3000


@pytest.mark.parametrize("closed", [False, True])
def test_long_chain_length_total_and_terminal(closed):
    """(1^50000 | 2^50000): a case-small step then a split-equal one per two
    parts, ending at the parabolic (∅ | 2^25000)."""
    chain = reduction_chain(ones_and_twos(50_000), closed_form=closed)
    assert len(chain.steps) == 50_000 and chain.total_index == 50_000
    assert chain.terminal == make_seaweed_c(50_000, "", ",".join(["2"] * 25_000))
    assert chain.terminal_index == 25_000


# --- component counts from the walk ------------------------------------------


def assert_count_routes_agree(q, graph):
    """The walk, the count-only graph walk and analyze give one record."""
    counts = component_counts(q)
    assert counts == graph_counts(graph) == analyze(graph).counts, q


def test_component_counts_match_analyze_exhaustively():
    """Every C and B descriptor of rank <= 7 and every gl pair of size <= 9."""
    for series in Series:
        for n in range(0, 8):
            for q in seaweed_pairs(n):
                q = SeaweedC(n, q.top, q.bottom, series)
                assert_count_routes_agree(q, build_graph_c(q))
    for size in range(1, 10):
        comps = list(compositions_of(size))
        for top in comps:
            for bottom in comps:
                q = SeaweedA(top, bottom)
                assert_count_routes_agree(q, build_graph_a(q))


@st.composite
def random_descriptors(draw, max_n=60):
    """A C/B descriptor of rank <= max_n or a gl pair of size <= max_n."""
    n = draw(st.integers(min_value=1, max_value=max_n))

    def comp(m):
        mask = draw(st.integers(min_value=0, max_value=(1 << (m - 1)) - 1)) if m else 0
        return composition_from_mask(m, mask)

    if draw(st.booleans()):
        return SeaweedA(comp(n), comp(n))
    series = draw(st.sampled_from(Series))
    totals = [draw(st.integers(min_value=0, max_value=n)) for _ in range(2)]
    return SeaweedC(n, comp(totals[0]), comp(totals[1]), series)


@given(random_descriptors())
@settings(max_examples=200)
def test_component_counts_match_analyze_at_random_ranks(q):
    graph = build_graph_a(q) if isinstance(q, SeaweedA) else build_graph_c(q)
    assert_count_routes_agree(q, graph)
