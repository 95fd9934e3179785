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
closed.  Ranks use fraction-free (Bareiss) elimination over the integers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping, Sequence

from .composition import Composition, SeaweedC, symmetrize

Entry = tuple[int, int, int]  # (row, col, value), 0-based

DEFAULT_MAX_RANK = 4
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


def _block_index(comp: Composition) -> list[int]:
    blocks: list[int] = []
    for b, part in enumerate(comp.parts):
        blocks.extend([b] * part)
    return blocks


def build_seaweed_matrices(q: SeaweedC, max_rank: int = DEFAULT_MAX_RANK) -> MatrixAlgebraBasis:
    """Explicit integer-matrix basis of the seaweed inside sp(2n).

    Refuses ranks above `max_rank` (pass a larger bound explicitly for big
    builds; the default keeps every matrix at most 8 x 8).
    """
    n = q.rank
    if n > max_rank:
        raise ValueError(
            f"rank {n} exceeds the configured bound {max_rank}; "
            "pass a larger max_rank to build anyway"
        )
    size = 2 * n
    doubled = symmetrize(q)
    blk_top = _block_index(doubled.top)
    blk_bottom = _block_index(doubled.bottom)
    eps = [1 if i < n else -1 for i in range(size)]

    def admissible(i: int, j: int) -> bool:
        return blk_top[i] <= blk_top[j] and blk_bottom[i] >= blk_bottom[j]

    elements: list[tuple[Entry, ...]] = []
    rep_positions: list[tuple[int, int]] = []
    for i in range(size):
        for j in range(size):
            if not admissible(i, j):
                continue
            pi, pj = size - 1 - j, size - 1 - i
            if (pi, pj) < (i, j):
                continue  # handled from its partner
            # Block structure of a doubled descriptor is palindromic, so the
            # admissible set is closed under the anti-transpose.
            assert admissible(pi, pj)
            if (pi, pj) == (i, j):
                entries: tuple[Entry, ...] = ((i, j, 1),)
            else:
                entries = ((i, j, 1), (pi, pj, -eps[i] * eps[j]))
            elements.append(entries)
            rep_positions.append((i, j))

    for entries in elements:
        _check_sp_membership(entries, size, eps)

    rep_of = {pos: k for k, pos in enumerate(rep_positions)}
    structure: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}
    dim = len(elements)
    for u in range(dim):
        for v in range(u + 1, dim):
            bracket = _sparse_bracket(elements[u], elements[v])
            if not bracket:
                continue
            coeffs = _expand(bracket, rep_of, elements)
            if coeffs:
                structure[(u, v)] = coeffs

    return MatrixAlgebraBasis(tuple(elements), structure)


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


def integer_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals via fraction-free (Bareiss) elimination."""
    m = [list(r) for r in rows]
    if not m or not m[0]:
        return 0
    ncols = len(m[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        piv = None
        for r in range(rank, len(m)):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pivot_row = m[rank]
        pivot = pivot_row[col]
        for r in range(rank + 1, len(m)):
            row = m[r]
            factor = row[col]
            for c in range(col + 1, ncols):
                row[c] = (pivot * row[c] - factor * pivot_row[c]) // prev
            row[col] = 0
        prev = pivot
        rank += 1
        if rank == len(m):
            break
    return rank


def index_oracle(
    q: SeaweedC,
    samples: int = 5,
    *,
    seed: int | None = 0,
    max_rank: int = DEFAULT_MAX_RANK,
) -> int:
    """dim q minus the best Kirillov-form rank over `samples` random functionals.

    Functional coordinates are drawn uniformly from [-1000, 1000] against
    the dual basis, with a seedable generator so runs are reproducible.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    basis = build_seaweed_matrices(q, max_rank)
    rng = random.Random(seed)
    dim = basis.dimension
    # An alternating form has even rank, so no sample can beat this.
    full = dim - dim % 2
    best = 0
    for _ in range(samples):
        coords = [rng.randint(-COEFF_RANGE, COEFF_RANGE) for _ in range(dim)]
        form = [[0] * dim for _ in range(dim)]
        for (u, v), terms in basis.structure.items():
            value = sum(c * coords[w] for w, c in terms)
            form[u][v] = value
            form[v][u] = -value
        best = max(best, integer_rank(form))
        if best == full:
            break
    return dim - best
