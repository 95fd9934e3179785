"""Enumeration of compositions and of Frobenius (index-0) seaweeds.

The census counts unordered pairs: (a|b) and (b|a) describe isomorphic
seaweeds and are counted once, via their canonical representative.  An
index-0 seaweed always has exactly one full side (sum = n) and one
deficient side, so the (deficient of n-k | full of n) pairs list every
class exactly once; k = n - sum(deficient side) is the number of central
arcs in the graph.

One engine gives the census; it counts, and the listing is pruned by it:

* `frobenius_census` counts the pairs without building a graph.  The
  index is a sum of non-negative reduction-step deltas plus a non-negative
  parabolic terminal, so a pair has index 0 exactly when no split-equal
  step fires and the terminal's side is full and all 1s.  The closed-form
  step only rewrites the leading parts, so the count walks the steps on
  (rank, forced parts and free total of each side) and chooses a part only
  when a side's forced parts run out; the count is memoized at those
  choices.  The forced parts are part stacks (leading part last) and each
  step is one call of `index.closed_form_step`, O(1); a walk takes about
  parts x log(part size) steps.  Rows 1-20 take about 1.8 s
  (`census --n 20`, 2-core x86).
* `frobenius_seaweeds` lists the classes by descent, growing the sides a
  part at a time and dropping a prefix as soon as the count of its index-0
  completions is 0: no graph, about 35 us per class.  The listing is
  recomputed on each call; `verify` lists each rank once.  `verify`'s 4^n
  scan is the reference that both are checked against.

`clear_census_cache` drops the one memo, the count's.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, NamedTuple

from .composition import Composition, SeaweedA, SeaweedC
from .index import closed_form_step, component_counts

def composition_from_mask(m: int, mask: int) -> Composition:
    """Composition of m cut at the gaps set in mask (MSB = leftmost gap)."""
    if m == 0:
        if mask:
            raise ValueError("no gaps exist for m = 0")
        return Composition()
    parts: list[int] = []
    run = 1
    for gap in range(m - 1):
        if (mask >> (m - 2 - gap)) & 1:
            parts.append(run)
            run = 1
        else:
            run += 1
    parts.append(run)
    return Composition(tuple(parts))


def compositions_of(m: int) -> Iterator[Composition]:
    """All 2^(m-1) compositions of m in binary-separator order.

    (m) comes first (mask 0) and (1,...,1) last; m = 0 yields exactly the
    empty composition.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    if m == 0:
        yield Composition()
        return
    for mask in range(1 << (m - 1)):
        yield composition_from_mask(m, mask)


def rank_sides(n: int) -> list[Composition]:
    """The 2^n sides of a rank-n descriptor: every composition of 0..n."""
    return [c for m in range(n + 1) for c in compositions_of(m)]


def seaweed_pairs(n: int) -> Iterator[SeaweedC]:
    """All 4^n ordered descriptor pairs at rank n (totals independently <= n)."""
    sides = rank_sides(n)
    for top in sides:
        for bottom in sides:
            yield SeaweedC(n, top, bottom)


class CensusRow(NamedTuple):
    """Row n of the Frobenius count table: by_k[k-1] classes with k central arcs."""

    n: int
    by_k: tuple[int, ...]
    total: int


def _descend(n: int, full: tuple, full_free: int, deficient: tuple, deficient_free: int):
    """Yield the (full | deficient) classes that complete the given prefixes,
    full side grown first and each next part tried largest first:
    `compositions_of` order, full side outermost."""
    # The count rewrites its stacks, so it gets fresh reversed copies.
    if not _index_zero_count(n, [*full[::-1]], full_free, [*deficient[::-1]], deficient_free):
        return
    if full_free:
        for p in range(full_free, 0, -1):
            yield from _descend(n, (*full, p), full_free - p, deficient, deficient_free)
    elif deficient_free:
        for p in range(deficient_free, 0, -1):
            yield from _descend(n, full, 0, (*deficient, p), deficient_free - p)
    else:
        yield SeaweedC(n, Composition(full), Composition(deficient))


def _index_zero_count(
    rank: int, top: list[int], top_free: int, bottom: list[int], bottom_free: int
) -> int:
    """Number of tails that complete the sides to an index-0 seaweed.

    Each side is its forced parts, the stack `top` / `bottom` (leading part
    last), followed by any composition of `*_free`.  Closed-form steps
    rewrite the forced heads until a side's forced parts run out; there
    `_choose_first_part` branches, or the parabolic terminal decides.
    """
    while top and bottom:
        if (a1 := top[-1]) == (b1 := bottom[-1]):
            return 0  # a split-equal step adds a1 > 0 to the index
        if a1 > b1:
            top, top_free, bottom, bottom_free = bottom, bottom_free, top, top_free
        rank = closed_form_step(rank, top, bottom)[1]
    # A side with no forced part left but a positive free total goes first.
    if top or not top_free:
        top, top_free, bottom, bottom_free = bottom, bottom_free, top, top_free
    if not top and top_free:
        return _choose_first_part(rank, top_free, tuple(bottom), bottom_free)
    # Parabolic terminal sum(part//2) + defect: zero only for a full side
    # of 1s.  A side never exceeds the rank and len(side) <= sum(side), so
    # len(side) + free == rank says exactly that, with the tail all 1s:
    # one composition.
    side, free = (top, top_free) if top else (bottom, bottom_free)
    return int(len(side) + free == rank)


@lru_cache(maxsize=None)
def _choose_first_part(rank: int, free: int, other: tuple[int, ...], other_free: int) -> int:
    """`_index_zero_count` where one side has no forced part left but a
    positive free total: sum over that side's next part p.  The memo of the
    count lives here only, as the steps between two choices are a cheap walk."""
    count = 0
    for p in range(1, free + 1):  # a sum over a generator made rows 1-9 about 20 % slower
        count += _index_zero_count(rank, [p], free - p, [*other], other_free)
    return count


def clear_census_cache() -> None:
    _choose_first_part.cache_clear()


def frobenius_seaweeds(n: int, k: int) -> tuple[SeaweedC, ...]:
    """Canonical index-0 representatives at rank n with k central arcs."""
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in 1..{n}, got {k}")
    return tuple(_descend(n, (), n, (), n - k))


def frobenius_census(n: int, *, ordered: bool = False) -> CensusRow:
    """Count Frobenius classes at rank n, split by central-arc count.

    The counts are the same for sp(2n) and so(2n+1), whose descriptors,
    graphs and indices coincide.  With ordered=True the raw ordered-pair
    counts are reported instead; every class has exactly two ordered
    representatives (the sides always have different totals), so these are
    twice the class counts.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    factor = 2 if ordered else 1
    by_k = tuple(factor * _index_zero_count(n, [], n - k, [], n) for k in range(1, n + 1))
    return CensusRow(n, by_k, sum(by_k))


def _deficient_first(q: SeaweedC) -> SeaweedC:
    """Orient an index-0 descriptor with the deficient side on top."""
    if q.top.total == q.rank and q.bottom.total < q.rank:
        return q.swap()
    if q.bottom.total == q.rank and q.top.total < q.rank:
        return q
    raise ValueError(f"{q} does not have exactly one full side")


def embed_up(q: SeaweedC) -> SeaweedC:
    """Raise an index-0 seaweed one rank: grow the full side by a part 1.

    Graphically this inserts two fresh middle vertices joined by a new
    innermost central arc, turning k central arcs into k+1 while keeping
    the index at 0.  Injective; the side order of the input is kept.
    """
    if component_counts(q).index != 0:
        raise ValueError(f"embed_up needs an index-0 seaweed, got {q}")
    if q.top.total == q.rank:
        return SeaweedC(q.rank + 1, Composition(q.top.parts + (1,)), q.bottom, q.series)
    return SeaweedC(q.rank + 1, q.top, Composition(q.bottom.parts + (1,)), q.series)


def hat_map(q: SeaweedC) -> SeaweedC:
    """Rank-up map on single-central-arc index-0 seaweeds: append 2 to the
    deficient side.

    The central arc moves to the other side of the line.  Injective, and
    onto exactly those rank-(n+1) elements whose full side ends in a 2.
    Returned with the grown (now full) side on top.
    """
    if component_counts(q).index != 0:
        raise ValueError(f"hat_map needs an index-0 seaweed, got {q}")
    oriented = _deficient_first(q)
    if oriented.rank - oriented.top.total != 1:
        raise ValueError(f"hat_map needs exactly one central arc, got {q}")
    top = Composition(oriented.top.parts + (2,))
    return SeaweedC(q.rank + 1, top, oriented.bottom, q.series)


def to_type_a(q: SeaweedC) -> SeaweedA:
    """Transfer an index-0 seaweed with k in {1, 2} central arcs to gl(n).

    The deficient side gains a final part k; the resulting size-n type-A
    graph is a single segment, i.e. the gl index is 1 and the sl index 0.
    """
    if component_counts(q).index != 0:
        raise ValueError(f"type-A transfer needs an index-0 seaweed, got {q}")
    oriented = _deficient_first(q)
    k = oriented.rank - oriented.top.total
    if k not in (1, 2):
        raise ValueError(
            f"unsupported: the gl(n) transfer exists for 1 or 2 central arcs, got {k}"
        )
    return SeaweedA(Composition(oriented.top.parts + (k,)), oriented.bottom)
