import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meandre import index_a_gl, index_c, make_seaweed_a, make_seaweed_c, reduction_chain
from meandre.composition import Series, parse_composition
from meandre.enumeration import composition_from_mask, compositions_of, seaweed_pairs
from meandre.index import Rule, closed_form_step, parabolic_index_c, reduce_step
from meandre.meander import analyze, build_graph_a, build_graph_c


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
    assert parabolic_index_c(7, parse_composition("2,3")) == 4
    assert parabolic_index_c(5, parse_composition("")) == 5
    assert parabolic_index_c(3, parse_composition("1,1,1")) == 0


def test_parabolic_formula_matches_graph_to_rank_8():
    for n in range(0, 9):
        for m in range(0, n + 1):
            for a in compositions_of(m):
                assert parabolic_index_c(n, a) == index_c(make_seaweed_c(n, a, ""))


def test_index_a_gl_at_least_one_iff_single_segment():
    for n in range(1, 6):
        for top in compositions_of(n):
            for bottom in compositions_of(n):
                q = make_seaweed_a(top, bottom)
                report = analyze(build_graph_a(q))
                value = index_a_gl(q)
                assert value >= 1
                sole_segment = len(report.components) == 1 and report.cycles == 0
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
            assert (report.segments - report.sigma_stable_segments) % 2 == 0


# --- reduction steps --------------------------------------------------------


def test_reduce_step_case_small():
    step = reduce_step(make_seaweed_c(6, "1,1", "5"))
    assert step.rule is Rule.CASE_SMALL
    assert step.after == make_seaweed_c(5, "1", "3,1")
    assert step.index_delta == 0


def test_reduce_step_split_equal():
    step = reduce_step(make_seaweed_c(5, "2,1", "2,2"))
    assert step.rule is Rule.SPLIT_EQUAL
    assert step.index_delta == 2
    assert step.after == make_seaweed_c(3, "1", "2")
    # Equal leading parts split in the closed-form flavour too.
    step = reduce_step(make_seaweed_c(4, "2", "2,1"), closed_form=True)
    assert step.rule is Rule.SPLIT_EQUAL
    assert step.witness_p is None
    assert step.after == make_seaweed_c(2, "", "1")


def test_reduce_step_case_large():
    step = reduce_step(make_seaweed_c(10, "3,3", "4,5"))
    assert step.rule is Rule.CASE_LARGE
    assert step.after == make_seaweed_c(9, "2,3", "3,5")


def test_reduce_step_drops_zero_part():
    step = reduce_step(make_seaweed_c(8, "1,3", "2,5"))
    assert step.rule is Rule.CASE_SMALL
    assert step.after == make_seaweed_c(7, "3", "1,5")


def test_reduce_step_errors():
    with pytest.raises(ValueError, match="terminal"):
        reduce_step(make_seaweed_c(7, "2,3", ""))
    with pytest.raises(ValueError, match="terminal"):
        reduce_step(make_seaweed_c(7, "", "1,5"), closed_form=True)


def test_reduce_step_swaps_sides_itself():
    q = make_seaweed_c(7, "3", "1,5")
    for closed in (False, True):
        step = reduce_step(q, closed_form=closed)
        assert step.swapped
        assert step.before == q
        assert step.after == reduce_step(q.swap(), closed_form=closed).after


def test_reduce_step_closed_examples():
    step = reduce_step(make_seaweed_c(10, "3,3", "4,5"), closed_form=True)
    assert step.witness_p == 2
    assert step.after == make_seaweed_c(7, "3", "1,5")  # zero head part omitted
    step = reduce_step(make_seaweed_c(6, "1,1", "5"), closed_form=True)
    assert step.witness_p == 0
    assert step.after == make_seaweed_c(5, "1", "3,1")
    step = reduce_step(make_seaweed_c(2, "1", "2"), closed_form=True)
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
            closed = reduce_step(q, closed_form=True)
            rules = [Rule.CASE_LARGE] * closed.witness_p + [Rule.CASE_SMALL]
            cur = q
            for rule in rules:
                step = reduce_step(cur)
                assert (step.rule, step.swapped) == (rule, False), q
                cur = step.after
            assert cur == closed.after, q
            checked += 1
    assert checked == 7032  # every such descriptor of rank <= 7


@given(st.integers(min_value=1, max_value=300), st.integers(min_value=1, max_value=300))
def test_closed_form_step_bounds(a1, spread):
    b1 = a1 + spread
    p, rank, a, b = closed_form_step(b1 + 1, (a1, 2), (b1, 3))
    assert p >= 0
    assert p * b1 < (p + 1) * a1 <= (p + 1) * b1 - a1
    # uniqueness: neighbours violate one of the bounds
    for bad in (p - 1, p + 1):
        if bad >= 0:
            assert not (bad * b1 < (bad + 1) * a1 and (bad + 2) * a1 <= (bad + 1) * b1)
    # a1 goes, the rank falls by a1 and the head keeps the bottom total
    assert (rank, a, b[-1]) == (b1 + 1 - a1, (2,), 3)
    assert sum(b[:-1]) == b1 - a1 and all(part > 0 for part in b[:-1])


@pytest.mark.parametrize(
    "a, b", [((3,), (3,)), ((4, 1), (3,)), ((0,), (2,)), ((-1,), (2,)), ((), (2,)), ((1,), ())]
)
def test_closed_form_step_needs_a1_below_b1(a, b):
    with pytest.raises(ValueError, match="0 < a1 < b1"):
        closed_form_step(5, a, b)


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
    chain = reduction_chain(make_seaweed_c(10, "3,3", "4,5"), closed_form=True)
    intermediate = [
        (s.after.rank, frozenset({s.after.top.parts, s.after.bottom.parts}))
        for s in chain.steps
    ]
    assert intermediate == [
        (7, frozenset({(3,), (1, 5)})),
        (6, frozenset({(1, 1), (5,)})),
        (5, frozenset({(1,), (3, 1)})),
        (4, frozenset({(), (1, 1, 1)})),
    ]
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
    chain = reduction_chain(make_seaweed_c(7, "3", "1,5"))
    assert chain.steps[0].swapped
    assert chain.steps[0].before == make_seaweed_c(7, "3", "1,5")


@given(random_seaweeds(6))
@settings(max_examples=80)
def test_every_step_preserves_index_against_graph(q):
    for closed in (False, True):
        chain = reduction_chain(q, closed_form=closed)
        for step in chain.steps:
            assert index_c(step.before) == step.index_delta + index_c(step.after)
        assert chain.total_index == index_c(q)


def test_three_routes_agree_exhaustively_to_rank_4():
    for n in range(0, 5):
        for q in seaweed_pairs(n):
            graph = index_c(q)
            assert reduction_chain(q).total_index == graph
            assert reduction_chain(q, closed_form=True).total_index == graph
