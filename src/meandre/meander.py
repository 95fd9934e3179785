"""Meander graphs and their component decomposition.

For a pair of compositions of N the graph has N vertices on a line.  A part
p occupying positions o+1..o+p contributes the nested arcs (o+i, o+p+1-i)
for i = 1..p//2 -- above the line for the top composition, below it for the
bottom one.  Every vertex meets at most one arc per side, so each connected
component is a path ("segment", isolated vertices included) or a cycle.

Graphs built from type-C descriptors have 2n vertices and are symmetric
under the reflection v -> 2n+1-v; the arcs crossing the centre line are the
"central" arcs and there are exactly d of them on top and d' below.

Each side is checked once, into a partner array: partner[v] is the other
end of v's arc on that side, 0 if v has none.  `analyze` walks the two
arrays.  The builders check each side of a live `Composition` once (for
type C, once per defect) and reuse it until the composition is freed, so a
scan over all pairs checks each of its sides once, not once per pair.
"""

from __future__ import annotations

import enum
import weakref
from dataclasses import dataclass, field

from .composition import Composition, SeaweedA, SeaweedC, doubled

Arc = tuple[int, int]
Partner = tuple[int, ...]


class ComponentKind(enum.Enum):
    CYCLE = "cycle"
    SEGMENT = "segment"


@dataclass(frozen=True)
class MeanderGraph:
    """Vertices 1..vertex_count with non-crossing arc systems on both sides.

    `top_partner` and `bottom_partner` are the sides' partner arrays, derived
    from the arcs.
    """

    vertex_count: int
    top_arcs: tuple[Arc, ...]
    bottom_arcs: tuple[Arc, ...]
    symmetric: bool = False
    top_partner: Partner = field(init=False, repr=False, compare=False)
    bottom_partner: Partner = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.vertex_count
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise ValueError(f"vertex count must be >= 0, got {n!r}")
        top = _check_side("top_arcs", self.top_arcs, n)
        bottom = _check_side("bottom_arcs", self.bottom_arcs, n)
        if self.symmetric:
            _check_mirror("top_arcs", top[1])
            _check_mirror("bottom_arcs", bottom[1])
        self._set_sides(top, bottom)

    @classmethod
    def _from_checked(
        cls, n: int, top: _Side, bottom: _Side, symmetric: bool
    ) -> MeanderGraph:
        """The graph on sides that already passed `_check_side` (and
        `_check_mirror` if symmetric)."""
        g = object.__new__(cls)
        object.__setattr__(g, "vertex_count", n)
        object.__setattr__(g, "symmetric", symmetric)
        g._set_sides(top, bottom)
        return g

    def _set_sides(self, top: _Side, bottom: _Side) -> None:
        object.__setattr__(self, "top_arcs", top[0])
        object.__setattr__(self, "top_partner", top[1])
        object.__setattr__(self, "bottom_arcs", bottom[0])
        object.__setattr__(self, "bottom_partner", bottom[1])


_Side = tuple[tuple[Arc, ...], Partner]


def _int_arc(name: str, arc: tuple) -> Arc:
    for v in arc:
        if not isinstance(v, int) or isinstance(v, bool):
            raise ValueError(f"{name} arc {arc!r} has a non-integer endpoint {v!r}")
    return int(arc[0]), int(arc[1])


def _check_side(name: str, arcs, n: int) -> _Side:
    """Sort one side's arcs, check them against n vertices and return them
    with their partner array."""
    pairs = [(i, j) for i, j in arcs]
    if not all(type(i) is int and type(j) is int for i, j in pairs):
        pairs = [_int_arc(name, arc) for arc in pairs]
    arcs = tuple(sorted(pairs))
    partner = [0] * (n + 1)
    for i, j in arcs:
        if not (1 <= i < j <= n):
            raise ValueError(f"{name} arc {(i, j)} out of range for {n} vertices")
        if partner[i] or partner[j]:
            v = i if partner[i] else j
            raise ValueError(f"vertex {v} lies on two {name}")
        partner[i] = j
        partner[j] = i
    # Non-crossing: sweep by left endpoint, keep the stack of open arcs.
    stack: list[int] = []
    for i, j in arcs:
        while stack and stack[-1] < i:
            stack.pop()
        if stack and j > stack[-1]:
            raise ValueError(f"{name} arc {(i, j)} crosses an enclosing arc")
        stack.append(j)
    return arcs, tuple(partner)


def _check_mirror(name: str, partner: Partner) -> None:
    """Reject a side that v -> m-v does not map onto itself (m = n + 1):
    partner[m-v] must be m - partner[v], or 0 where partner[v] is."""
    m = len(partner)
    reflected = tuple(m - p if p else 0 for p in reversed(partner[1:]))
    if reflected != partner[1:]:
        raise ValueError(f"{name} are not symmetric under v -> {m}-v")


@dataclass(frozen=True)
class Component:
    """One connected component; vertices are listed along the walk."""

    vertices: tuple[int, ...]
    kind: ComponentKind
    sigma_stable: bool

    @property
    def is_cycle(self) -> bool:
        return self.kind is ComponentKind.CYCLE


@dataclass(frozen=True)
class ComponentReport:
    """Component decomposition of a meander graph; `symmetric` is the graph's."""

    components: tuple[Component, ...]
    symmetric: bool = False

    @property
    def cycles(self) -> int:
        return sum(1 for c in self.components if c.is_cycle)

    @property
    def segments(self) -> int:
        return sum(1 for c in self.components if not c.is_cycle)

    @property
    def sigma_stable_segments(self) -> int:
        return sum(1 for c in self.components if not c.is_cycle and c.sigma_stable)

    @property
    def loose_segments(self) -> int:
        """Segments that are not fixed by the mirror reflection."""
        return self.segments - self.sigma_stable_segments

    @property
    def total_arcs(self) -> int:
        return sum(len(c.vertices) - (0 if c.is_cycle else 1) for c in self.components)

    @property
    def index(self) -> int:
        """The graph-route index: 2*cycles + segments for a plain (gl) graph,
        cycles + (segments not fixed by the mirror)/2 for a symmetric one."""
        cycles = loose = 0  # a plain graph has no mirror: every segment is loose
        for c in self.components:
            if c.is_cycle:
                cycles += 1
            elif not (self.symmetric and c.sigma_stable):
                loose += 1
        if not self.symmetric:
            return 2 * cycles + loose
        if loose % 2:
            raise AssertionError(
                "segments not fixed by the mirror must come in pairs; "
                f"got {loose} of them"
            )
        return cycles + loose // 2


def _arcs_for(comp: Composition) -> tuple[Arc, ...]:
    arcs: list[Arc] = []
    offset = 0
    for p in comp.parts:
        for i in range(1, p // 2 + 1):
            arcs.append((offset + i, offset + p + 1 - i))
        offset += p
    return tuple(arcs)


# Checked sides by composition, then by defect (None: the side as it
# stands, for type A).  An entry lives as long as its composition.
_SIDES: weakref.WeakKeyDictionary[Composition, dict[int | None, _Side]] = (
    weakref.WeakKeyDictionary()
)


def _side(comp: Composition, defect: int | None, name: str) -> _Side:
    """The checked side of `comp` (doubled with `defect` unless None)."""
    by_defect = _SIDES.get(comp)
    if by_defect is None:
        by_defect = _SIDES[comp] = {}
    side = by_defect.get(defect)
    if side is None:
        if defect is None:
            side = _check_side(name, _arcs_for(comp), comp.total)
        else:
            full = doubled(comp, defect)
            side = _check_side(name, _arcs_for(full), full.total)
            _check_mirror(name, side[1])
        by_defect[defect] = side
    return side


def build_graph_a(q: SeaweedA) -> MeanderGraph:
    """Meander graph of a gl(N) seaweed: N vertices, arcs per composition part."""
    return MeanderGraph._from_checked(
        q.size,
        _side(q.top, None, "top_arcs"),
        _side(q.bottom, None, "bottom_arcs"),
        symmetric=False,
    )


def build_graph_c(q: SeaweedC) -> MeanderGraph:
    """Meander graph of a type-C seaweed: the graph of its doubled descriptor."""
    return MeanderGraph._from_checked(
        2 * q.rank,
        _side(q.top, q.top_defect, "top_arcs"),
        _side(q.bottom, q.bottom_defect, "bottom_arcs"),
        symmetric=True,
    )


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
    cycle, segment = ComponentKind.CYCLE, ComponentKind.SEGMENT
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
        comps.append(Component(vertices, cycle if closed else segment, stable))
    return ComponentReport(tuple(comps), symmetric)
