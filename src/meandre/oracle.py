"""Kirillov-form index oracle: exact linear algebra on an explicit basis.

This is the non-combinatorial cross-check.  A type-C seaweed is realised as
an algebra of integer 2n x 2n matrices and its index is computed as

    dim q  -  max over random functionals xi of rank B_xi,

where B_xi(x, y) = xi([x, y]) is the alternating Kirillov form.  The rank
of an alternating form can only be underestimated by sampling, so the
maximum over several samples is a lower bound on the generic rank and the
returned value an upper bound on the index; agreement with the graph count
is the actual test.

Matrix conventions.  sp(2n) sits inside gl(2n) as the block matrices
[[A, B], [C, -A^]] with B = B^ and C = C^, where X -> X^ is the transpose
across the antidiagonal.  Entrywise (1-based indices) that condition reads

    X[i][j] = -eps(i)*eps(j) * X[2n+1-j][2n+1-i],   eps(i) = +1 for i <= n,
                                                     -1 otherwise.

The seaweed is cut out by the two block-triangularity conditions of the
doubled descriptor; the admissible position set is invariant under the
anti-transpose, and each orbit {(i,j), (2n+1-j, 2n+1-i)} contributes one
basis element (a lone E_ij on the antidiagonal, E_ij - eps(i)eps(j) E_j*i*
otherwise).  Brackets of basis elements are expanded by reading entries at
the representative positions, with a reconstruction check that the span is
closed.  That is done once per rank for all of sp(2n) (`_sp_table`: 0.1 s,
0.6 MB for ranks 1-7); a seaweed keeps its admissible elements in that order
and the table restricted to them.  Every Kirillov form is alternating, so
only its strict upper triangle is written, and its rank is computed by a
fraction-free Pfaffian elimination over the integers (`integer_rank`): two
indices leave per pivot, only the upper triangle is updated, and the entries
stay Pfaffians, which keeps every division exact.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Mapping, Sequence

from .composition import SeaweedC, doubled

Entry = tuple[int, int, int]  # (row, col, value), 0-based

COEFF_RANGE = 1000


@dataclass(frozen=True, eq=False)
class MatrixAlgebraBasis:
    """Integer matrix basis of a seaweed with its bracket structure table.

    elements[k] lists the nonzero entries of the 2n x 2n matrix x_k.
    structure[(u, v)] for u < v lists the nonzero coefficients (w, c) of
    [x_u, x_v] = sum c * x_w; pairs with vanishing bracket are absent.
    """

    elements: tuple[tuple[Entry, ...], ...]
    structure: Mapping[tuple[int, int], tuple[tuple[int, int], ...]]

    @property
    def dimension(self) -> int:
        return len(self.elements)


@functools.lru_cache(maxsize=None)
def _sp_table(n: int) -> tuple[tuple[tuple[Entry, ...], ...], tuple[tuple, ...]]:
    """The orbit basis of sp(2n), in row-major order of each element's first
    entry, and its bracket table: rows[u] lists (v, coeffs of [x_u, x_v]), v > u."""
    size = 2 * n
    eps = [1 if i < n else -1 for i in range(size)]
    elements: list[tuple[Entry, ...]] = []
    for i in range(size):
        for j in range(size):
            pi, pj = size - 1 - j, size - 1 - i
            if (pi, pj) < (i, j):
                continue  # handled from its partner
            partner = () if (pi, pj) == (i, j) else ((pi, pj, -eps[i] * eps[j]),)
            elements.append(((i, j, 1), *partner))
            _check_sp_membership(elements[-1], size, eps)

    rep_of = {x[0][:2]: k for k, x in enumerate(elements)}
    rows = []
    for u, x in enumerate(elements):
        brackets = ((v, _sparse_bracket(x, elements[v])) for v in range(u + 1, len(elements)))
        rows.append(tuple((v, _expand(b, rep_of, elements)) for v, b in brackets if b))
    return tuple(elements), tuple(rows)


def build_seaweed_matrices(q: SeaweedC) -> MatrixAlgebraBasis:
    """Explicit integer-matrix basis of the seaweed inside sp(2n)."""
    n = q.rank
    top = doubled(q.top, q.top_defect)
    bottom = doubled(q.bottom, q.bottom_defect)
    blk_top = [b for b, part in enumerate(top) for _ in range(part)]
    blk_bottom = [b for b, part in enumerate(bottom) for _ in range(part)]

    def admissible(i: int, j: int) -> bool:
        return blk_top[i] <= blk_top[j] and blk_bottom[i] >= blk_bottom[j]

    elements, rows = _sp_table(n)
    renumber: dict[int, int] = {}  # kept element of sp(2n) -> its seaweed number
    for k, ((i, j, _), *_) in enumerate(elements):
        if admissible(i, j):
            # Block structure of a doubled descriptor is palindromic, so the
            # admissible set is closed under the anti-transpose.
            assert admissible(2 * n - 1 - j, 2 * n - 1 - i)
            renumber[k] = len(renumber)

    structure: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}
    for u, k in enumerate(renumber):
        for v, coeffs in rows[k]:
            if v in renumber:
                if any(w not in renumber for w, _ in coeffs):
                    raise AssertionError("bracket left the span: basis is not closed")
                structure[(u, renumber[v])] = tuple((renumber[w], c) for w, c in coeffs)
    return MatrixAlgebraBasis(tuple(elements[k] for k in renumber), structure)


def _check_sp_membership(entries: Sequence[Entry], size: int, eps: Sequence[int]) -> None:
    values = {(i, j): v for i, j, v in entries}
    for (i, j), v in values.items():
        partner = values.get((size - 1 - j, size - 1 - i), 0)
        if v != -eps[i] * eps[j] * partner:
            raise AssertionError(f"entry {(i, j)} violates the sp condition")


def _sparse_bracket(x: Sequence[Entry], y: Sequence[Entry]) -> dict[tuple[int, int], int]:
    out: dict[tuple[int, int], int] = {}
    for i, j, v in x:
        for k, l, w in y:
            if j == k:
                out[(i, l)] = out.get((i, l), 0) + v * w
            if l == i:
                out[(k, j)] = out.get((k, j), 0) - w * v
    return {pos: v for pos, v in out.items() if v}


def _expand(
    bracket: dict[tuple[int, int], int],
    rep_of: dict[tuple[int, int], int],
    elements: Sequence[tuple[Entry, ...]],
) -> tuple[tuple[int, int], ...]:
    coeffs: list[tuple[int, int]] = []
    rebuilt: dict[tuple[int, int], int] = {}
    for pos, value in bracket.items():
        k = rep_of.get(pos)
        if k is None:
            continue  # non-representative entry; covered by its partner
        coeffs.append((k, value))
        for i, j, v in elements[k]:
            rebuilt[(i, j)] = rebuilt.get((i, j), 0) + value * v
    if {p: v for p, v in rebuilt.items() if v} != bracket:
        raise AssertionError("bracket left the span: basis is not closed")
    return tuple(coeffs)


def integer_rank(upper: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals of an alternating integer matrix A, given by
    its strict upper triangle: upper[k] is A[k][k+1:].

    Pfaffian elimination: pivot on the first live index i and the first
    live j with a = A[i][j] != 0 (an index whose row is zero is dropped,
    since its column is zero too), remove both and update the upper
    triangle of the rest by

        A[k][l] <- (a*A[k][l] - A[i][k]*A[j][l] + A[j][k]*A[i][l]) // prev,

    then set prev = a and add 2 to the rank.  After t pivots each entry is
    the Pfaffian of the principal submatrix on the 2t pivot indices and k, l;
    the Pfaffian form of Sylvester's identity says the numerator above is
    that Pfaffian times prev, so every division is exact.  Raises ValueError
    unless every upper[k] has length len(upper) - 1 - k.
    """
    dim = len(upper)
    if any(len(row) != dim - 1 - k for k, row in enumerate(upper)):
        raise ValueError("integer_rank needs upper[k] to hold len(upper) - 1 - k entries")
    # Work list: the rows from the last one up, each listed from the last
    # column down; the head (first live index) is upper[-1], and zip()
    # aligns any row with the pivot rows without slicing.
    upper = [list(reversed(row)) for row in reversed(upper)]
    rank = 0
    prev = 1
    while len(upper) > 1:
        head = upper.pop()
        t = len(head) - 1  # position of the first live column j
        while t >= 0 and not head[t]:
            t -= 1
        if t < 0:
            continue
        a = head[t]
        at_i = head[:t] + head[t + 1 :]
        at_j = upper[t] + [-row[t] for row in upper[t + 1 :]]
        left = upper[:t] + [row[:t] + row[t + 1 :] for row in upper[t + 1 :]]
        upper = [
            [(a * x - ik * jl + jk * il) // prev for x, il, jl in zip(row, at_i, at_j)]
            if ik or jk
            else [a * x // prev for x in row]
            for row, ik, jk in zip(left, at_i, at_j)
        ]
        prev = a
        rank += 2
    return rank


def index_oracle(q: SeaweedC, samples: int = 5, *, seed: int | None = 0) -> int:
    """dim q minus the best Kirillov-form rank over `samples` random functionals.

    Functional coordinates are drawn uniformly from [-1000, 1000] against
    the dual basis, with a seedable generator so runs are reproducible.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    basis = build_seaweed_matrices(q)
    rng = random.Random(seed)
    dim = basis.dimension
    # An alternating form has even rank, so no sample can beat this.
    full = dim - dim % 2
    best = 0
    for _ in range(samples):
        coords = [rng.randint(-COEFF_RANGE, COEFF_RANGE) for _ in range(dim)]
        form = [[0] * (dim - 1 - u) for u in range(dim)]  # strict upper triangle
        for (u, v), terms in basis.structure.items():
            form[u][v - u - 1] = sum(c * coords[w] for w, c in terms)
        best = max(best, integer_rank(form))
        if best == full:
            break
    return dim - best
