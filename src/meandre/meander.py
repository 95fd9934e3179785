"""Meander graphs and their component decomposition.

For a pair of compositions of N the graph has N vertices on a line.  A part
p occupying positions o+1..o+p contributes the nested arcs (o+i, o+p+1-i)
for i = 1..p//2 -- above the line for the top composition, below it for the
bottom one.  Every vertex meets at most one arc per side, so each connected
component is a path ("segment", isolated vertices included) or a cycle.

Graphs built from type-C descriptors have 2n vertices and are symmetric
under the reflection v -> 2n+1-v; the arcs crossing the centre line are the
"central" arcs and there are exactly d of them on top and d' below.

A graph is made only from compositions (`build_graph_a`, `build_graph_c`),
so its arcs are in range, non-crossing and, for type C, mirror-symmetric by
construction; nothing re-checks them.  Each side is stored as a partner
array, filled in one pass over the parts (a doubled type-C side over its
own parts and middle part, then mirrored): partner[v] is the other end of
v's arc on that side, 0 if v has none.  `graph_counts` walks them to count
(the index routes), `analyze` (its reference) to list components.  The
exhaustive scans count with `pair_counts`, which builds each side's array
once and pairs it with every other side's.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

from .composition import Composition, SeaweedA, SeaweedC

Arc = tuple[int, int]
Partner = tuple[int, ...]


class MeanderGraph(NamedTuple):
    """Vertices 1..vertex_count with one partner array per side (index 0
    unused); `symmetric` marks a doubled type-C graph."""

    vertex_count: int
    top_partner: Partner
    bottom_partner: Partner
    symmetric: bool = False

    @property
    def top_arcs(self) -> tuple[Arc, ...]:
        return _arcs(self.top_partner)

    @property
    def bottom_arcs(self) -> tuple[Arc, ...]:
        return _arcs(self.bottom_partner)


def _arcs(partner: Partner) -> tuple[Arc, ...]:
    """The side's arcs (i, j), i < j, in ascending left endpoint."""
    return tuple((i, j) for i, j in enumerate(partner) if i < j)


def _partner(parts: tuple[int, ...]) -> Partner:
    """The partner array of one side: within each part, v's arc ends at v's
    mirror image in the part, and the middle vertex of an odd part has none."""
    partner = [0]
    for p in parts:
        offset = len(partner) - 1
        partner += range(offset + p, offset, -1)
        if p % 2:
            partner[offset + (p + 1) // 2] = 0
    return tuple(partner)


def _doubled_partner(side: Composition, defect: int) -> Partner:
    """`_partner(doubled(side, defect))`, the side's parts built once and
    mirrored.  The middle part 2*defect, its own mirror image, has the arcs
    v -> 2n+1-v; past it, partner[2n+1-v] = 2n+1-partner[v], and 0 stays 0."""
    total = side.total
    mirror = 2 * (total + defect) + 1
    partner = [*_partner(side.parts)]
    partner += range(mirror - total - 1, total, -1)
    partner += [mirror - u if u else 0 for u in partner[total:0:-1]]
    return tuple(partner)


class Component(NamedTuple):
    """One connected component; vertices are listed along the walk."""

    vertices: tuple[int, ...]
    is_cycle: bool
    sigma_stable: bool

    @property
    def kind(self) -> str:
        return "cycle" if self.is_cycle else "segment"


class ComponentCounts(NamedTuple):
    """Component counts of a meander graph: cycles, mirror-stable segments
    and every other segment (all of a plain graph's); `symmetric` is the graph's."""

    cycles: int
    stable: int
    loose: int
    symmetric: bool

    @property
    def index(self) -> int:
        """The graph-route index: 2*cycles + segments for a plain (gl) graph,
        cycles + (segments not fixed by the mirror)/2 for a symmetric one."""
        if not self.symmetric:
            return 2 * self.cycles + self.stable + self.loose
        if self.loose % 2:
            raise AssertionError(
                "segments not fixed by the mirror must come in pairs; "
                f"got {self.loose} of them"
            )
        return self.cycles + self.loose // 2


class ComponentReport(NamedTuple):
    """Component decomposition of a meander graph; `symmetric` is the graph's."""

    components: tuple[Component, ...]
    symmetric: bool = False

    @property
    def counts(self) -> ComponentCounts:
        cycles = sum(c.is_cycle for c in self.components)
        stable = sum(c.sigma_stable and not c.is_cycle for c in self.components)
        loose = len(self.components) - cycles - stable
        return ComponentCounts(cycles, stable, loose, self.symmetric)

    @property
    def total_arcs(self) -> int:
        return sum(len(c.vertices) - (0 if c.is_cycle else 1) for c in self.components)


def _side_partner(side: Composition, rank: int | None) -> Partner:
    """One side's partner array: its own parts in a gl graph (rank None), its
    parts doubled with the defect rank - total in a type-C graph of `rank`."""
    if rank is None:
        return _partner(side.parts)
    return _doubled_partner(side, rank - side.total)


def _graph(top: Partner, bottom: Partner, rank: int | None) -> MeanderGraph:
    """The graph of two sides' partner arrays, symmetric in type C."""
    return MeanderGraph(len(top) - 1, top, bottom, rank is not None)


def build_graph_a(q: SeaweedA) -> MeanderGraph:
    """Meander graph of a gl(N) seaweed: N vertices, arcs per composition part."""
    return _graph(_side_partner(q.top, None), _side_partner(q.bottom, None), None)


def build_graph_c(q: SeaweedC) -> MeanderGraph:
    """Meander graph of a type-C seaweed: the graph of its doubled descriptor,
    each side's parts built once and mirrored (`_doubled_partner`)."""
    n = q.rank
    return _graph(_side_partner(q.top, n), _side_partner(q.bottom, n), n)


def analyze(g: MeanderGraph) -> ComponentReport:
    """Decompose the graph into components and classify them.

    Components are discovered from the smallest unvisited vertex, walking
    the top arc first; segments are reported end to end.  A component is
    mirror-stable when v -> N+1-v maps it onto itself, which (the mirror
    permuting the components) happens exactly when it holds the mirror of
    its first vertex; only symmetric graphs have stable components.
    """
    n = g.vertex_count
    top, bottom = g.top_partner, g.bottom_partner
    mirror = n + 1
    symmetric = g.symmetric
    seen = bytearray(n + 1)
    comps: list[Component] = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        # Forward from start, top arc first, until a free end or start again.
        forward: list[int] = []
        here, there = top, bottom
        v = top[start]
        while v and v != start:
            forward.append(v)
            here, there = there, here
            v = here[v]
        closed = v == start
        if closed:
            vertices = (start, *forward)
        else:
            # A segment: walk back from start, bottom arc first, to its other end.
            backward: list[int] = []
            here, there = bottom, top
            v = bottom[start]
            while v:
                backward.append(v)
                here, there = there, here
                v = here[v]
            backward.reverse()
            vertices = (*backward, start, *forward)
        for v in vertices:
            seen[v] = 1
        stable = symmetric and mirror - start in vertices
        comps.append(Component(vertices, closed, stable))
    return ComponentReport(tuple(comps), symmetric)


def graph_counts(g: MeanderGraph) -> ComponentCounts:
    """`analyze(g).counts`, counted on analyze's walk.  The mirror fixes no vertex,
    so a segment is mirror-stable exactly when it swaps its ends (sum 2n+1)."""
    n = g.vertex_count
    top, bottom = g.top_partner, g.bottom_partner
    mirror = n + 1 if g.symmetric else 0  # no two ends sum to 0
    seen = bytearray(n + 1)
    cycles = stable = loose = 0
    for start in range(1, n + 1):
        if seen[start]:
            continue  # start itself is never met again: the loop moves on
        end, here, there = start, top, bottom
        v = top[start]
        while v and v != start:
            seen[v] = 1
            end, here, there = v, there, here
            v = here[v]
        if v:
            cycles += 1
            continue
        other, here, there = start, bottom, top  # a segment: walk back
        v = bottom[start]
        while v:
            seen[v] = 1
            other, here, there = v, there, here
            v = here[v]
        stable += end + other == mirror
        loose += end + other != mirror
    return ComponentCounts(cycles, stable, loose, g.symmetric)


def pair_counts(
    tops: Sequence[Composition], bottoms: Sequence[Composition], rank: int | None = None
) -> Iterator[tuple[Composition, Composition, ComponentCounts]]:
    """(top, bottom, `graph_counts` of their graph) for every top and bottom,
    top outermost, each graph as `build_graph_c` makes it at `rank`
    (`build_graph_a` when rank is None).  Each side's partner array is
    built once per call, not once per pair; a pair is yielded as it is
    counted and nothing is kept.  ValueError for a side over the rank or,
    in gl, sides of different totals."""
    sides = {*tops, *bottoms}
    if rank is None and len({side.total for side in sides}) > 1:
        raise ValueError("gl sides must have one total")
    if rank is not None and any(side.total > rank for side in sides):
        raise ValueError(f"a side exceeds rank {rank}")
    halves = {side: _side_partner(side, rank) for side in sides}
    bottom_halves = [(bottom, halves[bottom]) for bottom in bottoms]
    for top in tops:
        top_half = halves[top]
        for bottom, bottom_half in bottom_halves:
            yield top, bottom, graph_counts(_graph(top_half, bottom_half, rank))
