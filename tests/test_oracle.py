import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meandre import index_c, index_oracle, make_seaweed_c, oracle
from meandre.composition import SeaweedC, symmetrize
from meandre.enumeration import rank_sides, seaweed_pairs
from meandre.oracle import build_seaweed_matrices


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


def _mirrored(upper):
    """The alternating matrix whose strict upper triangle is `upper`
    (upper[i] holds row i right of the diagonal)."""
    d = len(upper)
    return [
        [upper[i][j - i - 1] if i < j else -upper[j][i - j - 1] if j < i else 0 for j in range(d)]
        for i in range(d)
    ]


def _as_dicts(upper):
    """The strict upper triangle as dicts: row k maps l > k to A[k][l],
    explicit zeros kept."""
    return [{k + 1 + t: x for t, x in enumerate(row)} for k, row in enumerate(upper)]


def pfaffian_rank(upper):
    """Rank by oracle._rank_of_rows of the alternating matrix whose strict
    upper triangle is the dicts `upper`, mirrored here into the full rows of
    nonzero residues mod PRIME that the routine takes."""
    rows = [{} for _ in upper]
    for k, row in enumerate(upper):
        for l, value in row.items():
            if value := value % oracle.PRIME:
                rows[k][l], rows[l][k] = value, oracle.PRIME - value
    return oracle._rank_of_rows(rows)


@st.composite
def upper_triangles(draw):
    """Strict upper triangles of alternating integer matrices, with entries
    up to the size of a real Kirillov form's (|entry| <= 4000)."""
    d = draw(st.integers(min_value=0, max_value=8))
    kind = draw(st.sampled_from(["triangle", "wedges", "zero"]))
    if kind == "triangle":
        upper = [[draw(st.integers(-4000, 4000)) for _ in range(d - 1 - i)] for i in range(d)]
    elif kind == "wedges":
        # a sum of r terms u ^ v has rank at most 2r
        upper = [[0] * (d - 1 - i) for i in range(d)]
        for _ in range(draw(st.integers(min_value=0, max_value=max(d // 2 - 1, 0)))):
            u = draw(st.lists(st.integers(-25, 25), min_size=d, max_size=d))
            v = draw(st.lists(st.integers(-25, 25), min_size=d, max_size=d))
            for i in range(d):
                for j in range(i + 1, d):
                    upper[i][j - i - 1] += u[i] * v[j] - u[j] * v[i]
    else:
        upper = [[0] * (d - 1 - i) for i in range(d)]
    if draw(st.booleans()):  # sparsify
        keep = draw(st.lists(st.booleans(), min_size=d * d, max_size=d * d))
        upper = [[x if keep[i * d + j] else 0 for j, x in enumerate(row)] for i, row in enumerate(upper)]
    return upper


@given(upper_triangles())
@settings(max_examples=300)
def test_pfaffian_rank_matches_fraction_elimination(upper):
    assert pfaffian_rank(_as_dicts(upper)) == fraction_rank(_mirrored(upper))


def test_pfaffian_rank_degenerate_cases():
    assert pfaffian_rank([]) == 0
    assert pfaffian_rank([{}]) == 0
    assert pfaffian_rank([{1: 0}, {}]) == 0
    assert pfaffian_rank([{1: 3}, {}]) == 2
    assert pfaffian_rank([{}, {}, {}]) == 0
    # (1, 2, 0, 1) ^ (0, 1, 1, 3)
    upper = [[1, 1, 3], [2, 5], [-1], []]
    assert pfaffian_rank(_as_dicts(upper)) == fraction_rank(_mirrored(upper)) == 2


def test_pfaffian_rank_mod_p_can_only_fall_short():
    # p is invertible over Q but zero mod p: the rank mod p reads low, never high
    assert fraction_rank([[0, oracle.PRIME], [-oracle.PRIME, 0]]) == 2
    assert pfaffian_rank([{1: oracle.PRIME}, {}]) == 0
    assert pfaffian_rank([{1: oracle.PRIME + 1}, {}]) == 2


def _lift(residue):
    """The integer of least absolute value congruent to `residue` mod p."""
    value = residue - oracle.PRIME if residue > oracle.PRIME // 2 else residue
    assert abs(value) <= 10_000
    return value


def _recording(forms):
    """A stand-in for oracle._rank_of_rows that records a copy of each form
    it is given, with the rank the real routine returns for it."""
    real = oracle._rank_of_rows

    def record(rows):
        copy = [dict(row) for row in rows]
        rank = real(rows)
        forms.append((copy, rank))
        return rank

    return record


def test_pfaffian_rank_equals_exact_rank_on_sample_forms_to_rank_3(monkeypatch):
    # every form the oracle ranks, lifted back to its integer entries
    # (|entry| <= 4 * 1000, far below p / 2), is alternating and has the
    # rank over Q that the oracle's elimination returned for it
    forms = []
    checked = 0
    monkeypatch.setattr(oracle, "_rank_of_rows", _recording(forms))
    for n in range(0, 4):
        for q in seaweed_pairs(n):
            for seed in range(5):
                forms.clear()
                index_oracle(q, seed=seed)
                ranked = forms[:]  # pfaffian_rank below records its own forms
                for rows, rank in ranked:
                    dense = [[_lift(row.get(l, 0)) for l in range(len(rows))] for row in rows]
                    assert dense == [[-x for x in col] for col in zip(*dense)], (q, seed)
                    upper = [row[k + 1:] for k, row in enumerate(dense)]
                    exact = fraction_rank(dense)
                    assert rank == pfaffian_rank(_as_dicts(upper)) == exact, (q, seed)
                checked += len(ranked)
    assert checked >= 85 * 5  # at least one form per descriptor and seed


def _reference_oracle(q, seed):
    """index_oracle through pfaffian_rank above: the same draws, each form
    written as its strict upper triangle, the same stop at the largest even
    rank.  Returns (index, number of forms ranked)."""
    basis = build_seaweed_matrices(q)
    rng = random.Random(seed)
    dim = basis.dimension
    full = dim - dim % 2
    best = ranked = 0
    for _ in range(oracle.SAMPLES):
        coords = [rng.randint(-oracle.COEFF_RANGE, oracle.COEFF_RANGE) for _ in range(dim)]
        upper = [{} for _ in range(dim)]
        for (u, v), terms in basis.structure.items():
            upper[u][v] = sum(c * coords[w] for w, c in terms)
        best = max(best, pfaffian_rank(upper))
        ranked += 1
        if best == full:
            break
    return dim - best, ranked


def test_oracle_full_rows_rank_as_pfaffian_rank_to_rank_4(monkeypatch):
    # the full rows index_oracle writes are mirrored residues; their upper
    # triangle has the same rank under pfaffian_rank as the rows under the
    # elimination core, and each call ranks as many forms as the upper-
    # triangle reference does
    forms = []
    monkeypatch.setattr(oracle, "_rank_of_rows", _recording(forms))
    for n in range(0, 5):
        for q in seaweed_pairs(n):
            for seed in range(3):
                forms.clear()
                got = index_oracle(q, seed=seed)
                ranked = forms[:]  # pfaffian_rank below records its own forms
                assert (got, len(ranked)) == _reference_oracle(q, seed), (q, seed)
                for rows, rank in ranked:
                    for k, row in enumerate(rows):
                        for l, x in row.items():
                            assert 0 < x < oracle.PRIME and rows[l][k] == oracle.PRIME - x
                    upper = [{l: x for l, x in row.items() if l > k} for k, row in enumerate(rows)]
                    assert pfaffian_rank(upper) == rank, (q, seed)


def _dense(entries, size):
    mat = [[0] * size for _ in range(size)]
    for i, j, v in entries:
        mat[i][j] = v
    return mat


def _commutator(x, y):
    size = len(x)
    return [
        [sum(x[i][k] * y[k][j] - y[i][k] * x[k][j] for k in range(size)) for j in range(size)]
        for i in range(size)
    ]


def test_structure_table_matches_dense_commutators_to_rank_3():
    for n in range(0, 4):
        for q in seaweed_pairs(n):
            basis = build_seaweed_matrices(q)
            size = 2 * n
            dense = [_dense(entries, size) for entries in basis.elements]
            # each element is 1 at the first position it lists, which no other element touches
            reps = [entries[0][:2] for entries in basis.elements]
            for u in range(basis.dimension):
                for v in range(u + 1, basis.dimension):
                    bracket = _commutator(dense[u], dense[v])
                    expected = {w: bracket[i][j] for w, (i, j) in enumerate(reps) if bracket[i][j]}
                    assert dict(basis.structure.get((u, v), ())) == expected, (q, u, v)
                    rebuilt = [[0] * size for _ in range(size)]
                    for w, c in expected.items():
                        for i, j, val in basis.elements[w]:
                            rebuilt[i][j] += c * val
                    assert rebuilt == bracket, (q, u, v)


def test_dimensions():
    assert build_seaweed_matrices(make_seaweed_c(1, "", "1")).dimension == 2
    assert build_seaweed_matrices(make_seaweed_c(1, "1", "1")).dimension == 1
    assert build_seaweed_matrices(make_seaweed_c(2, "", "")).dimension == 10
    # full algebras: dim sp(2n) = 2n^2 + n
    for n in range(1, 5):
        dim = build_seaweed_matrices(make_seaweed_c(n, "", "")).dimension
        assert dim == 2 * n * n + n


def test_elements_satisfy_sp_condition():
    for n in range(0, 5):
        size = 2 * n
        for q in seaweed_pairs(n):
            for entries in build_seaweed_matrices(q).elements:
                mat = {(i, j): v for i, j, v in entries}
                assert all(v for v in mat.values())
                for i in range(size):
                    for j in range(size):
                        eps_i = 1 if i < n else -1
                        eps_j = 1 if j < n else -1
                        partner = mat.get((size - 1 - j, size - 1 - i), 0)
                        assert mat.get((i, j), 0) == -eps_i * eps_j * partner, q


def test_elements_are_independent():
    # each element owns a matrix position no other element touches
    basis = build_seaweed_matrices(make_seaweed_c(3, "2,1", "3"))
    supports = [{(i, j) for i, j, v in entries if v} for entries in basis.elements]
    for k, support in enumerate(supports):
        others = set().union(*(s for i, s in enumerate(supports) if i != k))
        assert support - others


def test_index_oracle_known_values():
    assert index_oracle(make_seaweed_c(1, "1", "1")) == 1  # abelian
    assert index_oracle(make_seaweed_c(1, "", "1")) == 0  # Frobenius Borel
    assert index_oracle(make_seaweed_c(2, "", "")) == 2  # rank of sp(4)
    q = make_seaweed_c(3, "2,1", "3")
    assert index_oracle(q) == index_c(q)


def test_index_oracle_stops_at_the_largest_even_rank(monkeypatch):
    # dim 1: an alternating form has even rank, so rank 0 after one sample is final
    calls = []
    monkeypatch.setattr(oracle, "_rank_of_rows", _recording(calls))
    assert index_oracle(make_seaweed_c(1, "1", "1")) == 1
    assert len(calls) == 1


def test_index_oracle_is_seed_reproducible():
    q = make_seaweed_c(3, "1,2", "2")
    assert index_oracle(q, seed=7) == index_oracle(q, seed=7)


def test_one_sample_never_understates_the_index(monkeypatch):
    # each form's rank mod p is at most the generic rank over Q, dim - index
    forms = []
    monkeypatch.setattr(oracle, "_rank_of_rows", _recording(forms))
    for n in range(0, 4):
        for pair in seaweed_pairs(n):
            for series in ("C", "B"):
                q = make_seaweed_c(n, pair.top, pair.bottom, series)
                expected = index_c(q)
                for seed in range(5):
                    forms.clear()
                    index_oracle(q, seed=seed)
                    assert forms, (q, seed)
                    for rows, rank in forms:
                        assert rank <= len(rows) - expected, (q, seed)


def test_oracle_matches_graph_exhaustively_to_rank_2():
    for n in range(0, 3):
        for q in seaweed_pairs(n):
            assert index_oracle(q) == index_c(q)


def test_oracle_matches_graph_on_rank_3_slice():
    for q in list(seaweed_pairs(3))[::7]:
        assert index_oracle(q) == index_c(q)


def _sparse_bracket(x, y):
    """[x, y] of two matrices given by their (row, col, value) entries, as
    a dict of its nonzero entries."""
    out = {}
    for i, j, v in x:
        for k, l, w in y:
            if j == k:
                out[(i, l)] = out.get((i, l), 0) + v * w
            if l == i:
                out[(k, j)] = out.get((k, j), 0) - w * v
    return {pos: v for pos, v in out.items() if v}


def _expand(bracket, rep_of, elements):
    """The coefficients of `bracket` read at the representative positions,
    after checking that those coefficients rebuild all of it."""
    coeffs = []
    rebuilt = {}
    for pos, value in bracket.items():
        k = rep_of.get(pos)
        if k is None:
            continue  # non-representative entry; covered by its partner
        coeffs.append((k, value))
        for i, j, v in elements[k]:
            rebuilt[(i, j)] = rebuilt.get((i, j), 0) + value * v
    assert {p: v for p, v in rebuilt.items() if v} == bracket, "bracket left the span"
    return tuple(coeffs)


def direct_seaweed_matrices(q):
    """(elements, structure) from the seaweed's own admissible positions,
    with whole brackets of the pairs whose matrix product can be nonzero,
    each checked to lie in the span: a reference with no code of the
    oracle's own."""
    n = q.rank
    size = 2 * n
    doubled = symmetrize(q)
    blk_top = [b for b, part in enumerate(doubled.top.parts) for _ in range(part)]
    blk_bottom = [b for b, part in enumerate(doubled.bottom.parts) for _ in range(part)]
    eps = [1 if i < n else -1 for i in range(size)]
    elements = []
    for i in range(size):
        for j in range(size):
            pi, pj = size - 1 - j, size - 1 - i
            admissible = blk_top[i] <= blk_top[j] and blk_bottom[i] >= blk_bottom[j]
            if not admissible or (pi, pj) < (i, j):
                continue
            if (pi, pj) == (i, j):
                elements.append(((i, j, 1),))
            else:
                elements.append(((i, j, 1), (pi, pj, -eps[i] * eps[j])))
    in_row = [set() for _ in range(size)]
    for k, entries in enumerate(elements):
        for i, _, _ in entries:
            in_row[i].add(k)
    rep_of = {x[0][:2]: k for k, x in enumerate(elements)}
    structure = {}
    for u, x in enumerate(elements):
        for v in sorted(set().union(*(in_row[j] for _, j, _ in x))):
            if v <= u:
                continue
            bracket = _sparse_bracket(x, elements[v])
            if not bracket:
                continue
            coeffs = _expand(bracket, rep_of, elements)
            if coeffs:
                structure[(u, v)] = coeffs
    return tuple(elements), structure


def test_local_build_equals_the_direct_build_to_rank_5():
    for n in range(0, 6):
        for q in seaweed_pairs(n):
            basis = build_seaweed_matrices(q)
            elements, structure = direct_seaweed_matrices(q)
            assert basis.elements == elements, q
            assert list(basis.structure) == list(structure), q
            assert {k: dict(c) for k, c in basis.structure.items()} == {
                k: dict(c) for k, c in structure.items()
            }, q


def test_a_bracket_leaving_the_span_is_refused(monkeypatch):
    # a top block shape (3, 1) is no palindrome: its admissible set is not
    # closed under the anti-transpose, so it spans no subalgebra of sp(4)
    q = make_seaweed_c(2, "2", "")
    monkeypatch.setattr(oracle, "doubled", lambda side, defect: (3, 1) if side.parts else (4,))
    with pytest.raises(AssertionError):
        build_seaweed_matrices(q)


NOT_CLOSED = """
import sys
sys.path.insert(0, sys.argv[1])
from meandre import make_seaweed_c, oracle
oracle.doubled = lambda side, defect: (3, 1) if side.parts else (4,)
try:
    oracle.build_seaweed_matrices(make_seaweed_c(2, "2", ""))
except AssertionError as e:
    print(e)
"""


def test_the_closure_check_holds_without_asserts():
    # python -O strips the partner assert; the bracket check still refuses
    root = str(Path(oracle.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-O", "-c", NOT_CLOSED, root],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout == "bracket left the span: basis is not closed\n"


def test_a_wrong_partner_sign_is_refused(monkeypatch):
    real = oracle._partner

    def flipped(i, j, n):
        pi, pj, sign = real(i, j, n)
        return pi, pj, -sign

    monkeypatch.setattr(oracle, "_partner", flipped)
    with pytest.raises(AssertionError, match="violates the sp condition"):
        build_seaweed_matrices(make_seaweed_c(2, "1", "2"))


def test_the_oracle_reaches_past_small_ranks_with_no_memo():
    borel = make_seaweed_c(24, ",".join(["1"] * 24), "")
    assert index_oracle(borel) == 0
    sides = rank_sides(10)
    for seed in range(5):
        rng = random.Random(seed)
        q = SeaweedC(10, rng.choice(sides), rng.choice(sides))
        assert index_oracle(q, seed=seed) == index_c(q), q
    assert not [name for name, f in vars(oracle).items() if hasattr(f, "cache_info")]
