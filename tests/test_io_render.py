import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meandre import (
    document,
    from_json,
    make_seaweed_a,
    make_seaweed_c,
    to_ascii,
    to_dot,
    to_json,
)
from meandre.composition import SeaweedA
from meandre.enumeration import composition_from_mask, compositions_of, seaweed_pairs


def test_json_payload_small_borel():
    data = json.loads(to_json(document(make_seaweed_c(1, "", "1"))))
    assert list(data) == [
        "type",
        "n",
        "top",
        "bottom",
        "vertices",
        "top_arcs",
        "bottom_arcs",
        "components",
        "index",
    ]
    assert data["type"] == "C" and data["n"] == 1
    assert data["vertices"] == 2
    assert data["top_arcs"] == [[1, 2]] and data["bottom_arcs"] == []
    assert data["components"] == [
        {"kind": "segment", "vertices": [1, 2], "sigma_stable": True}
    ]
    assert data["index"] == 0


def test_json_payload_parabolic_sp14():
    data = json.loads(to_json(document(make_seaweed_c(7, "2,3", ""))))
    assert data["vertices"] == 14
    assert data["bottom_arcs"] == [[i, 15 - i] for i in range(1, 8)]
    assert data["index"] == 4


def test_json_is_byte_stable():
    doc = document(make_seaweed_c(4, "2,2", "1,2"))
    assert to_json(doc) == to_json(document(make_seaweed_c(4, "2,2", "1,2")))


def test_roundtrip_exhaustive_small():
    for n in range(0, 4):
        for q in seaweed_pairs(n):
            doc = document(q)
            assert from_json(to_json(doc)) == doc


def test_roundtrip_type_a():
    doc = document(make_seaweed_a("5,2,2", "2,4,3"))
    loaded = from_json(to_json(doc))
    assert loaded == doc
    assert json.loads(to_json(doc))["type"] == "A"


@given(st.integers(min_value=0, max_value=6), st.data())
@settings(max_examples=60)
def test_roundtrip_random(n, data):
    def comp():
        m = data.draw(st.integers(min_value=0, max_value=n))
        mask = data.draw(st.integers(min_value=0, max_value=max(0, (1 << max(m - 1, 0)) - 1)))
        return composition_from_mask(m, mask)

    doc = document(make_seaweed_c(n, comp(), comp()))
    assert from_json(to_json(doc)) == doc


def test_tampered_index_rejected():
    data = json.loads(to_json(document(make_seaweed_c(4, "2,2", "1,2"))))
    data["index"] += 1
    with pytest.raises(ValueError, match="tampered|match"):
        from_json(json.dumps(data))


def _borel_payload() -> dict:
    return json.loads(to_json(document(make_seaweed_c(1, "", "1"))))


def test_boolean_rank_rejected():
    data = _borel_payload()
    data["n"] = True  # equal to 1 in Python, not in JSON
    with pytest.raises(ValueError, match="tampered|match"):
        from_json(json.dumps(data))


def test_float_counts_rejected():
    for key, value in (("vertices", 2.0), ("index", 0.0)):
        data = _borel_payload()
        data[key] = value
        with pytest.raises(ValueError, match="tampered|match"):
            from_json(json.dumps(data))


def test_integer_sigma_stable_rejected():
    data = _borel_payload()
    assert data["components"][0]["sigma_stable"] is True
    data["components"][0]["sigma_stable"] = 1
    with pytest.raises(ValueError, match="tampered|match"):
        from_json(json.dumps(data))


def test_key_order_is_free():
    data = _borel_payload()
    reordered = dict(reversed(list(data.items())))
    assert from_json(json.dumps(reordered)).index == 0


def test_tampered_arcs_rejected():
    data = json.loads(to_json(document(make_seaweed_c(4, "2,2", "1,2"))))
    data["top_arcs"][0] = [1, 4]
    with pytest.raises(ValueError, match="tampered|match"):
        from_json(json.dumps(data))


def test_missing_field_rejected():
    with pytest.raises(ValueError, match="missing"):
        from_json('{"type": "C", "n": 2}')


def test_malformed_field_types_rejected():
    data = json.loads(to_json(document(make_seaweed_c(2, "1", "2"))))
    data["top"] = 7
    with pytest.raises(ValueError, match="malformed"):
        from_json(json.dumps(data))
    data = json.loads(to_json(document(make_seaweed_c(2, "1", "2"))))
    data["n"] = None
    with pytest.raises(ValueError, match="malformed"):
        from_json(json.dumps(data))
    with pytest.raises(ValueError, match="JSON object"):
        from_json("[1, 2]")
    with pytest.raises(ValueError, match="unknown document type"):
        from_json('{"type": "D", "n": 2, "top": "", "bottom": ""}')


HUGE = 10**20


@pytest.mark.parametrize(
    "payload",
    [
        {"type": "C", "n": 10**9, "top": "", "bottom": ""},
        {"type": "C", "n": HUGE, "top": "", "bottom": ""},
        {"type": "C", "n": float("inf"), "top": "", "bottom": ""},
        {"type": "A", "n": HUGE, "top": str(HUGE), "bottom": str(HUGE)},
    ],
)
def test_oversized_document_rejected(payload):
    with pytest.raises(ValueError):
        from_json(json.dumps(payload))


def test_overflowing_rank_literal_rejected():
    with pytest.raises(ValueError, match="malformed"):
        from_json('{"type":"C","n":1e400,"top":"","bottom":""}')


def test_deeply_nested_document_rejected():
    with pytest.raises(ValueError, match="nested too deeply"):
        from_json("[" * 100_000)


def test_document_refuses_graphs_over_the_cap():
    with pytest.raises(ValueError, match="over the cap of 2000000"):
        document(make_seaweed_c(1_000_001, "", ""))


JSON_VALUES = (
    st.integers(min_value=-(10**30), max_value=10**30)
    | st.sampled_from([float("inf"), float("-inf"), float("nan")])
    | st.floats()
    | st.booleans()
    | st.text(alphabet="0123456789,∅ -x", max_size=8)
    | st.text(max_size=4)
    | st.none()
    | st.lists(st.integers(min_value=-2, max_value=3) | st.none(), max_size=3)
)
VALID_DOCUMENTS = [
    document(make_seaweed_c(1, "", "1")),
    document(make_seaweed_c(4, "2,2", "1,2")),
    document(make_seaweed_a("5,2,2", "2,4,3")),
]


@given(
    st.sampled_from(VALID_DOCUMENTS),
    st.sampled_from(["type", "n", "top", "bottom", "vertices", "index"]),
    JSON_VALUES,
)
@settings(max_examples=300, deadline=None)
def test_from_json_only_raises_value_error(doc, field, value):
    """One field replaced by any JSON value loads as the original or is a ValueError."""
    data = json.loads(to_json(doc))
    data[field] = value
    try:
        loaded = from_json(json.dumps(data))
    except ValueError:
        return
    assert loaded == doc


def test_ascii_two_vertex_borel():
    art = to_ascii(document(make_seaweed_c(1, "", "1")))
    assert art == " |\n╭─╮\n*|*\n |"


def test_ascii_single_arc_family_picture():
    art = to_ascii(document(make_seaweed_c(4, "2,2", "1,2")))
    lines = art.split("\n")
    assert lines[1] == "╭─╮ ╭─╮|╭─╮ ╭─╮"
    assert lines[2] == "* * * *|* * * *"
    assert lines[3] == "  ╰─╯ ╰─╯ ╰─╯"
    # the centre line shows in the padding rows
    assert lines[0].strip() == "|" and lines[4].strip() == "|"


def test_ascii_empty_graph():
    assert to_ascii(document(make_seaweed_c(0, "", ""))) == ""


def test_ascii_width_overflow():
    art = to_ascii(document(make_seaweed_c(50, "", "")))
    assert max(map(len, art.split("\n"))) == 199
    with pytest.raises(ValueError, match=r"403 columns \(limit 200\); use the dot renderer"):
        to_ascii(document(make_seaweed_c(101, "", "")))


def test_dot_edge_statements_match_arc_count():
    doc = document(make_seaweed_c(7, "2,3", ""))
    dot = to_dot(doc)
    edges = [line for line in dot.splitlines() if " -- " in line]
    assert len(edges) == len(doc.graph.top_arcs) + len(doc.graph.bottom_arcs)


def test_dot_colours_follow_components():
    # index-1 example: two mirror-swapped segments carry four red arcs
    dot = to_dot(document(make_seaweed_c(8, "3,4", "5,3")))
    assert dot.count("color=red") == 4
    # parabolic example: every cycle arc is blue, the stable segment black
    dot = to_dot(document(make_seaweed_c(7, "2,3", "")))
    assert dot.count("color=blue") == 12
    assert dot.count("color=red") == 0
    assert dot.count("color=black") == 1


def test_dot_type_a_segments_stay_black():
    dot = to_dot(document(make_seaweed_a("5,2,2", "2,4,3")))
    assert dot.count("color=red") == 0


def test_dot_deterministic():
    q = make_seaweed_c(5, "2,1", "3")
    assert to_dot(document(q)) == to_dot(document(q))


def test_ascii_draws_every_vertex():
    for q in (make_seaweed_c(7, "2,3", ""), make_seaweed_c(4, "2,2", "1,2")):
        doc = document(q)
        assert to_ascii(doc).count("*") == doc.graph.vertex_count


def nesting_heights(arcs):
    """Each arc's height by nesting: 1 + the largest height of the arcs strictly inside."""
    heights = {}
    for i, j in sorted(arcs, key=lambda arc: arc[1] - arc[0]):
        inside = [h for (x, y), h in heights.items() if i < x and y < j]
        heights[(i, j)] = 1 + max(inside, default=0)
    return heights


def drawn_heights(art, arcs, corner, step):
    """Rows from the vertex row to each arc's left corner, walking `step` rows at a time."""
    rows = art.split("\n")
    vrow = next(r for r, line in enumerate(rows) if line.startswith("*"))
    heights = {}
    for i, j in arcs:
        col = 2 * (i - 1)
        heights[(i, j)] = next(
            h for h in range(1, len(rows)) if rows[vrow + step * h][col : col + 1] == corner
        )
    return heights


def test_ascii_arc_heights_are_nesting_heights_exhaustive():
    descriptors = [q for n in range(1, 7) for q in seaweed_pairs(n)]
    for size in range(1, 9):
        comps = list(compositions_of(size))
        descriptors += [SeaweedA(top, bottom) for top in comps for bottom in comps]
    for q in descriptors:
        doc = document(q)
        art = to_ascii(doc)
        g = doc.graph
        assert drawn_heights(art, g.top_arcs, "╭", -1) == nesting_heights(g.top_arcs)
        assert drawn_heights(art, g.bottom_arcs, "╰", 1) == nesting_heights(g.bottom_arcs)
