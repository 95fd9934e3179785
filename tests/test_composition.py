import pytest
from hypothesis import given
from hypothesis import strategies as st

from meandre import make_seaweed_a, make_seaweed_c
from meandre.composition import (
    Composition,
    Series,
    canonical_pair,
    parse_composition,
    parse_int,
    symmetrize,
)
from meandre.enumeration import compositions_of, seaweed_pairs

parts_lists = st.lists(st.integers(min_value=1, max_value=50), max_size=8)


def test_parse_basic():
    c = parse_composition("3,3")
    assert c.parts == (3, 3)
    assert c.total == 6


def test_parse_empty_forms():
    assert parse_composition("").parts == ()
    assert parse_composition("").total == 0
    assert parse_composition("∅").parts == ()
    assert parse_composition(" 2 , 3 ").parts == (2, 3)


def test_parse_rejects_nonpositive():
    with pytest.raises(ValueError, match="must be >= 1.*'0'"):
        parse_composition("2,0,1")
    with pytest.raises(ValueError, match="'-3'"):
        parse_composition("-3")


def test_parse_rejects_noninteger():
    with pytest.raises(ValueError, match="not an integer"):
        parse_composition("2,x")


@pytest.mark.parametrize("token, parts", [("1_0", None), ("+2", None), ("٣", None), (" 3 ", (3,))])
def test_parse_takes_ascii_digits_only(token, parts):
    if parts is None:
        with pytest.raises(ValueError, match="not an integer"):
            parse_composition(f"2,{token}")
    else:
        assert parse_composition(token).parts == parts


@pytest.mark.parametrize("text, value", [("12", 12), ("-3", -3), ("0", 0), ("007", 7)])
def test_parse_int_takes_ascii_digits_with_optional_minus(text, value):
    assert parse_int(text) == value


@pytest.mark.parametrize("text", ["1_0", "+2", " 2", "2 ", "٣", "", "-", "--1", "1.0", "0x2"])
def test_parse_int_refuses_what_int_would_take_or_not(text):
    with pytest.raises(ValueError, match="is not an integer"):
        parse_int(text)


def test_composition_rejects_bad_parts():
    with pytest.raises(ValueError):
        Composition((1, 0))
    with pytest.raises(ValueError):
        Composition((1.5,))  # type: ignore[arg-type]


@given(parts_lists)
def test_parse_serialize_roundtrip(parts):
    c = Composition(tuple(parts))
    assert parse_composition(c.to_text()) == c


def test_display_uses_empty_symbol():
    assert str(Composition()) == "∅"
    assert Composition().to_text() == ""
    assert str(Composition((1, 2))) == "1,2"


def test_make_seaweed_c_worked_descriptors():
    q = make_seaweed_c(10, "3,3", "4,5")
    assert (q.top_defect, q.bottom_defect) == (4, 1)
    q = make_seaweed_c(7, "2,3", "")
    assert (q.top_defect, q.bottom_defect) == (2, 7)


def test_make_seaweed_c_rejects_overflow():
    with pytest.raises(ValueError, match="top composition exceeds rank"):
        make_seaweed_c(2, "3", "")
    with pytest.raises(ValueError, match="bottom composition exceeds rank"):
        make_seaweed_c(2, "", "2,1")


def test_series_given_as_its_letter():
    assert make_seaweed_c(3, "1", "1", "B") == make_seaweed_c(3, "1", "1", Series.SO_ODD)
    q = make_seaweed_c(3, "1", "1", "C")
    assert q.series is Series.SP
    assert (q.series_label, q.algebra_name) == ("C", "sp(6)")
    with pytest.raises(ValueError):
        make_seaweed_c(3, "1", "1", "X")


def test_seaweed_a_requires_equal_totals():
    with pytest.raises(ValueError, match="equal totals"):
        make_seaweed_a("2", "1,2")


def test_symmetrize_examples():
    s = symmetrize(make_seaweed_c(7, "2,3", ""))
    assert s.top.parts == (2, 3, 4, 3, 2)
    assert s.bottom.parts == (14,)
    s = symmetrize(make_seaweed_c(4, "2,2", "1,2"))
    assert s.top.parts == (2, 2, 2, 2)
    assert s.bottom.parts == (1, 2, 2, 2, 1)
    s = symmetrize(make_seaweed_c(1, "", "1"))
    assert s.top.parts == (2,)
    assert s.bottom.parts == (1, 1)


def test_symmetrize_palindromic_exhaustive():
    # Both doubled sides read the same backwards; an even middle part marks
    # a positive defect.
    for n in range(0, 7):
        for q in seaweed_pairs(n):
            s = symmetrize(q)
            assert s.size == 2 * n
            for side, defect in ((s.top, q.top_defect), (s.bottom, q.bottom_defect)):
                assert side.parts == side.parts[::-1]
                if defect:
                    assert side.parts[len(side.parts) // 2] == 2 * defect


def test_canonical_pair_swap_class():
    left = make_seaweed_c(7, "2,4", "4,3")
    right = make_seaweed_c(7, "4,3", "2,4")
    assert canonical_pair(left) == canonical_pair(right)


def test_canonical_pair_orders_larger_total_first():
    q = make_seaweed_c(5, "1,1", "5")
    assert canonical_pair(q) == make_seaweed_c(5, "5", "1,1")


def test_canonical_pair_fixed_point():
    q = make_seaweed_c(3, "1", "1")
    assert canonical_pair(q) == q


@given(st.integers(min_value=0, max_value=6), st.data())
def test_canonical_pair_idempotent_and_class_constant(n, data):
    def comp(label):
        m = data.draw(st.integers(min_value=0, max_value=n), label=label)
        mask = data.draw(
            st.integers(min_value=0, max_value=max(0, (1 << max(m - 1, 0)) - 1)),
            label=label + "-mask",
        )
        from meandre.enumeration import composition_from_mask

        return composition_from_mask(m, mask)

    q = make_seaweed_c(n, comp("top"), comp("bottom"))
    canonical = canonical_pair(q)
    assert canonical_pair(canonical) == canonical
    assert canonical_pair(q.swap()) == canonical


def test_compositions_of_order_and_count():
    assert [c.parts for c in compositions_of(3)] == [(3,), (2, 1), (1, 2), (1, 1, 1)]
    assert [c.parts for c in compositions_of(0)] == [()]
    assert sum(1 for _ in compositions_of(5)) == 16
