from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meandre import index_c, index_oracle, make_seaweed_c, oracle
from meandre.enumeration import seaweed_pairs
from meandre.oracle import build_seaweed_matrices, integer_rank


def fraction_rank(rows):
    """Independent reference: plain Gaussian elimination over Fraction."""
    m = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col] / m[rank][col]
                for c in range(col, cols):
                    m[r][c] -= f * m[rank][c]
        rank += 1
    return rank


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.data(),
)
@settings(max_examples=120)
def test_integer_rank_matches_fraction_elimination(nrows, ncols, data):
    rows = [
        [data.draw(st.integers(min_value=-9, max_value=9)) for _ in range(ncols)]
        for _ in range(nrows)
    ]
    assert integer_rank(rows) == fraction_rank(rows)


def test_integer_rank_degenerate_cases():
    assert integer_rank([]) == 0
    assert integer_rank([[0, 0], [0, 0]]) == 0
    assert integer_rank([[2, 4], [1, 2]]) == 1


def test_dimensions():
    assert build_seaweed_matrices(make_seaweed_c(1, "", "1")).dimension == 2
    assert build_seaweed_matrices(make_seaweed_c(1, "1", "1")).dimension == 1
    assert build_seaweed_matrices(make_seaweed_c(2, "", "")).dimension == 10
    # full algebras: dim sp(2n) = 2n^2 + n
    for n in range(1, 5):
        dim = build_seaweed_matrices(make_seaweed_c(n, "", "")).dimension
        assert dim == 2 * n * n + n


def test_elements_satisfy_sp_condition():
    q = make_seaweed_c(2, "1", "2")
    size = 2 * q.rank
    for entries in build_seaweed_matrices(q).elements:
        mat = {(i, j): v for i, j, v in entries}
        assert all(v for v in mat.values())
        for i in range(size):
            for j in range(size):
                eps_i = 1 if i < size // 2 else -1
                eps_j = 1 if j < size // 2 else -1
                partner = mat.get((size - 1 - j, size - 1 - i), 0)
                assert mat.get((i, j), 0) == -eps_i * eps_j * partner


def test_elements_are_independent():
    # each element owns a matrix position no other element touches
    basis = build_seaweed_matrices(make_seaweed_c(3, "2,1", "3"))
    supports = [{(i, j) for i, j, v in entries if v} for entries in basis.elements]
    for k, support in enumerate(supports):
        others = set().union(*(s for i, s in enumerate(supports) if i != k))
        assert support - others


def test_build_refuses_large_rank_by_default():
    with pytest.raises(ValueError, match="exceeds the configured bound"):
        build_seaweed_matrices(make_seaweed_c(5, "", ""))
    # explicit override works
    assert build_seaweed_matrices(make_seaweed_c(5, "", ""), max_rank=5).dimension == 55


def test_index_oracle_known_values():
    assert index_oracle(make_seaweed_c(1, "1", "1")) == 1  # abelian
    assert index_oracle(make_seaweed_c(1, "", "1")) == 0  # Frobenius Borel
    assert index_oracle(make_seaweed_c(2, "", "")) == 2  # rank of sp(4)
    q = make_seaweed_c(3, "2,1", "3")
    assert index_oracle(q) == index_c(q)


def test_index_oracle_stops_at_the_largest_even_rank(monkeypatch):
    # dim 1: an alternating form has even rank, so rank 0 after one sample is final
    calls = []

    def counting_rank(rows):
        calls.append(rows)
        return integer_rank(rows)

    monkeypatch.setattr(oracle, "integer_rank", counting_rank)
    assert index_oracle(make_seaweed_c(1, "1", "1"), 5) == 1
    assert len(calls) == 1


def test_index_oracle_rejects_zero_samples():
    with pytest.raises(ValueError, match="samples"):
        index_oracle(make_seaweed_c(1, "1", "1"), 0)


def test_index_oracle_is_seed_reproducible():
    q = make_seaweed_c(3, "1,2", "2")
    assert index_oracle(q, 3, seed=7) == index_oracle(q, 3, seed=7)


def test_oracle_matches_graph_exhaustively_to_rank_2():
    for n in range(0, 3):
        for q in seaweed_pairs(n):
            assert index_oracle(q, 5) == index_c(q)


def test_oracle_matches_graph_on_rank_3_slice():
    for q in list(seaweed_pairs(3))[::7]:
        assert index_oracle(q, 5) == index_c(q)
