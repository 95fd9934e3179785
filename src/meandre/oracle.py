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
doubled descriptor: row i admits the columns from the start of i's top block
to the end of its bottom block.  Both block shapes are palindromes, so the
admissible set is invariant under the anti-transpose, and each orbit
{(i,j), (2n+1-j, 2n+1-i)} contributes one basis element (a lone E_ij on the
antidiagonal, E_ij - eps(i)eps(j) E_j*i* otherwise), listed row by row from
its representative, the entry with i + j <= 2n+1.  Only those elements are
bracketed, with no table of sp(2n): a bracket is read at the representative
positions, which hold its coefficients, and a nonzero entry at a
representative outside the seaweed raises.  A series-B descriptor is
realised in sp(2n) too: the index is the same, and no so(2n+1) matrix is
built.

Rank over GF(p).  Each sampled Kirillov form (at most SAMPLES = 5 per
seaweed) is written, as it is assembled, into full rows: the dicts of its
nonzero entries on both sides of the diagonal, reduced mod PRIME = 2^30 - 35.
`_rank_of_rows`, the one rank routine, ranks the rows in place, with no
copy, by sparse Pfaffian elimination over GF(PRIME): the pivot is the first
live index i with its neighbour j of least degree, so only the rows and
columns in supp(i) | supp(j) are updated (in `verify --oracle-max-n 5` the
forms at ranks 2-6 are 60-24 % nonzero).
The check keeps its strength: a minor nonzero mod p is a nonzero integer,
so the rank mod p never exceeds the rank over Q, and dim - best is still a
proven upper bound on the index.  A wrong graph count could pass only if
every sample of that seaweed also missed the generic rank; reducing mod p
adds one way to miss, p dividing every maximal Pfaffian of the sampled form.
"""

from __future__ import annotations

import random
from itertools import accumulate
from typing import Mapping, NamedTuple, Sequence

from .composition import SeaweedC, doubled

Entry = tuple[int, int, int]  # (row, col, value), 0-based

COEFF_RANGE = 1000
SAMPLES = 5  # random Kirillov forms per seaweed
PRIME = 2**30 - 35  # the largest prime below 2^30: a residue is one Python digit


class MatrixAlgebraBasis(NamedTuple):
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


def build_seaweed_matrices(q: SeaweedC) -> MatrixAlgebraBasis:
    """Explicit integer-matrix basis of the seaweed inside sp(2n), built from
    its own admissible positions and brackets only."""
    n = q.rank
    size = 2 * n
    last = size - 1
    top, bottom = doubled(q.top, q.top_defect), doubled(q.bottom, q.bottom_defect)
    first = [start for start, part in zip(accumulate(top, initial=0), top) for _ in range(part)]
    final = [end - 1 for end, part in zip(accumulate(bottom), bottom) for _ in range(part)]

    elements: list[tuple[Entry, ...]] = []
    rep_of: dict[int, int] = {}  # i * size + j -> the element with representative (i, j)
    by_row: list[list[Entry]] = [[] for _ in range(size)]  # (element, col, value)
    by_col: list[list[Entry]] = [[] for _ in range(size)]  # (element, row, value)
    for i in range(size):
        for j in range(first[i], min(final[i], last - i) + 1):  # i + j <= 2n - 1
            partner = _partner(i, j, n)
            # The doubled block shapes are palindromes: the partner is admissible too.
            assert first[partner[0]] <= partner[1] <= final[partner[0]]
            x = ((i, j, 1),) if i + j == last else ((i, j, 1), partner)
            _check_sp_membership(x, n)
            rep_of[i * size + j] = k = len(elements)
            elements.append(x)
            for r, c, value in x:
                by_row[r].append((k, c, value))
                by_col[c].append((k, r, value))

    # [x_u, x_v] is in sp, so its coefficients are its entries at the
    # representative positions; only those are summed: E_ab E_bc = E_ac, E_ra E_ab = E_rb.
    structure: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}
    for u, x in enumerate(elements):
        products: dict[int, dict[int, int]] = {}  # v -> position -> entry of [x_u, x_v]
        for a, b, s in x:
            for v, c, t in by_row[b]:
                if v > u and a + c <= last:
                    at = products.setdefault(v, {})
                    at[a * size + c] = at.get(a * size + c, 0) + s * t
            for v, r, t in by_col[a]:
                if v > u and r + b <= last:
                    at = products.setdefault(v, {})
                    at[r * size + b] = at.get(r * size + b, 0) - t * s
        for v in sorted(products):
            coeffs = []
            for pos, c in products[v].items():
                if c:
                    if (w := rep_of.get(pos)) is None:
                        raise AssertionError("bracket left the span: basis is not closed")
                    coeffs.append((w, c))
            if coeffs:
                structure[u, v] = tuple(coeffs)
    return MatrixAlgebraBasis(tuple(elements), structure)


def _partner(i: int, j: int, n: int) -> Entry:
    """The entry at (2n-1-j, 2n-1-i) of the element of sp(2n) with 1 at
    (i, j): -eps(i)*eps(j), with eps = +1 on the first n indices, else -1."""
    return 2 * n - 1 - j, 2 * n - 1 - i, -1 if (i < n) == (j < n) else 1


def _check_sp_membership(entries: Sequence[Entry], n: int) -> None:
    """Refuse a matrix x outside sp(2n): J x must be symmetric, where J is
    antidiagonal with J[a][2n-1-a] = +1 for a < n and -1 after."""
    last = 2 * n - 1
    for i, j, v in entries:
        mirrored = 0
        for k, l, w in entries:
            if k + j == last and l + i == last:
                mirrored = w
        if (-1 if i < n else 1) * v != (1 if j < n else -1) * mirrored:
            raise AssertionError(f"entry {(i, j)} violates the sp condition")


def _rank_of_rows(rows: list[dict[int, int]]) -> int:
    """Rank over GF(PRIME) of the alternating matrix A given by its full
    rows: rows[k] maps each l with A[k][l] != 0 mod PRIME to that residue,
    so rows[l][k] = PRIME - rows[k][l].  Nothing is checked, and the rows
    are used up.

    Sparse Pfaffian elimination: pivot on the first live index i and its
    neighbour j of least degree, a = A[i][j]; remove both and update, for k
    and l in supp(i) | supp(j),

        A[k][l] <- A[k][l] + (A[j][k]*A[i][l] - A[i][k]*A[j][l]) / a,

    the Schur complement of the 2x2 block on {i, j}, which is alternating
    again; add 2 to the rank.  No other row or column changes, and an index
    whose row is empty is dropped (its column is empty too).  The rank mod
    a prime never exceeds the rank over Q: a minor nonzero mod p is nonzero.
    """
    rank = 0
    for i, at_i in enumerate(rows):
        if not at_i:
            continue
        j = min(zip(map(len, map(rows.__getitem__, at_i)), at_i))[1]  # least degree
        at_j = rows[j]
        rows[j] = {}  # j is spent; the loop reaches it later and skips it
        inverse = pow(at_i.pop(j), -1, PRIME)
        del at_j[i]
        for k in at_i:
            del rows[k][i]
        for k in at_j:
            del rows[k][j]
        # With x = A[i][.]/a and y = A[j][.], row k gains y_k*x - x_k*y.  Split
        # the supports into only i's (X), both (B) and only j's (Y), keeping
        # each index's row: the gain vanishes on X x X and Y x Y, and every
        # other pair is computed once and stored on both sides.  A one-term
        # gain is nonzero, so a sum that vanishes had an entry to delete.
        only_i, both = [], []
        for l, value in at_i.items():
            x_l = value * inverse % PRIME
            if (y_l := at_j.get(l)) is None:
                only_i.append((l, x_l, rows[l]))
            else:
                both.append((l, x_l, y_l, rows[l]))
        only_j = [(l, y_l, rows[l]) for l, y_l in at_j.items() if l not in at_i]
        at_j_rows = [(l, y_l, row_l) for l, _, y_l, row_l in both] + only_j
        for k, x_k, row in only_i:
            get = row.get
            for l, y_l, row_l in at_j_rows:
                if value := (get(l, 0) - x_k * y_l) % PRIME:
                    row[l], row_l[k] = value, PRIME - value
                else:
                    del row[l], row_l[k]
        for k, y_k, row in only_j:
            get = row.get
            for l, x_l, _, row_l in both:
                if value := (get(l, 0) + y_k * x_l) % PRIME:
                    row[l], row_l[k] = value, PRIME - value
                else:
                    del row[l], row_l[k]
        for t, (k, x_k, y_k, row) in enumerate(both):
            get = row.get
            for l, x_l, y_l, row_l in both[t + 1:]:
                if value := (get(l, 0) + y_k * x_l - x_k * y_l) % PRIME:
                    row[l], row_l[k] = value, PRIME - value
                elif l in row:  # a two-term gain can vanish by itself
                    del row[l], row_l[k]
        rank += 2
    return rank


def index_oracle(q: SeaweedC, *, seed: int = 0) -> int:
    """dim q minus the best Kirillov-form rank mod PRIME over SAMPLES
    random functionals: an upper bound on ind q, equal to it once a sample
    reaches the generic rank.  It stops early at the largest even rank.

    Functional coordinates are drawn uniformly from [-1000, 1000] against
    the dual basis by `random.Random(seed)`, so runs are reproducible.
    """
    basis = build_seaweed_matrices(q)
    rng = random.Random(seed)
    dim = basis.dimension
    # An alternating form has even rank, so no sample can beat this.
    full = dim - dim % 2
    best = 0
    for _ in range(SAMPLES):
        coords = [rng.randint(-COEFF_RANGE, COEFF_RANGE) for _ in range(dim)]
        form: list[dict[int, int]] = [{} for _ in range(dim)]  # full rows, both triangles
        for (u, v), terms in basis.structure.items():
            value = 0
            for w, c in terms:
                value += c * coords[w]
            if value := value % PRIME:
                form[u][v], form[v][u] = value, PRIME - value
        best = max(best, _rank_of_rows(form))
        if best == full:
            break
    return dim - best
