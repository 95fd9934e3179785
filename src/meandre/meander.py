"""Meander graphs and their component decomposition.

For a pair of compositions of N the graph has N vertices on a line.  A part
p occupying positions o+1..o+p contributes the nested arcs (o+i, o+p+1-i)
for i = 1..p//2 -- above the line for the top composition, below it for the
bottom one.  Every vertex meets at most one arc per side, so each connected
component is a path ("segment", isolated vertices included) or a cycle.

Graphs built from type-C descriptors have 2n vertices and are symmetric
under the reflection v -> 2n+1-v; the arcs crossing the centre line are the
"central" arcs and there are exactly d of them on top and d' below.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .composition import Composition, SeaweedA, SeaweedC, symmetrize

Arc = tuple[int, int]


class ComponentKind(enum.Enum):
    CYCLE = "cycle"
    SEGMENT = "segment"


@dataclass(frozen=True)
class MeanderGraph:
    """Vertices 1..vertex_count with non-crossing arc systems on both sides."""

    vertex_count: int
    top_arcs: tuple[Arc, ...]
    bottom_arcs: tuple[Arc, ...]
    symmetric: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.vertex_count, int) or self.vertex_count < 0:
            raise ValueError(f"vertex count must be >= 0, got {self.vertex_count!r}")
        for name in ("top_arcs", "bottom_arcs"):
            arcs = tuple(sorted((int(i), int(j)) for i, j in getattr(self, name)))
            object.__setattr__(self, name, arcs)
            _validate_side(name, arcs, self.vertex_count)
        if self.symmetric:
            m = self.vertex_count + 1
            for name in ("top_arcs", "bottom_arcs"):
                arcs = getattr(self, name)
                mirrored = tuple(sorted((m - j, m - i) for i, j in arcs))
                if mirrored != arcs:
                    raise ValueError(f"{name} are not symmetric under v -> {m}-v")


def _validate_side(name: str, arcs: tuple[Arc, ...], n: int) -> None:
    seen: set[int] = set()
    for i, j in arcs:
        if not (1 <= i < j <= n):
            raise ValueError(f"{name} arc {(i, j)} out of range for {n} vertices")
        if i in seen or j in seen:
            v = i if i in seen else j
            raise ValueError(f"vertex {v} lies on two {name}")
        seen.update((i, j))
    # Non-crossing: sweep by left endpoint, keep the stack of open arcs.
    stack: list[int] = []
    for i, j in arcs:
        while stack and stack[-1] < i:
            stack.pop()
        if stack and j > stack[-1]:
            raise ValueError(f"{name} arc {(i, j)} crosses an enclosing arc")
        stack.append(j)


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


def build_graph_a(q: SeaweedA) -> MeanderGraph:
    """Meander graph of a gl(N) seaweed: N vertices, arcs per composition part."""
    return MeanderGraph(q.size, _arcs_for(q.top), _arcs_for(q.bottom), symmetric=False)


def build_graph_c(q: SeaweedC) -> MeanderGraph:
    """Meander graph of a type-C seaweed: the graph of its doubled descriptor."""
    doubled = symmetrize(q)
    return MeanderGraph(
        doubled.size, _arcs_for(doubled.top), _arcs_for(doubled.bottom), symmetric=True
    )


def _ray(start: int, first: dict[int, int], second: dict[int, int]) -> tuple[list[int], bool]:
    """Walk from `start` alternating the two arc maps, `first` map first.

    Returns the vertices after `start` in walk order and whether the walk
    closed back onto `start` (i.e. the component is a cycle).
    """
    path: list[int] = []
    maps = (first, second)
    cur = start
    step = 0
    while True:
        nxt = maps[step % 2].get(cur)
        if nxt is None:
            return path, False
        if nxt == start:
            return path, True
        path.append(nxt)
        cur = nxt
        step += 1


def analyze(g: MeanderGraph) -> ComponentReport:
    """Decompose the graph into components and classify them.

    Components are discovered from the smallest unvisited vertex, walking
    the top arc first; segments are reported end to end.  A component is
    mirror-stable when its vertex set is invariant under v -> N+1-v (only
    meaningful for symmetric graphs; False otherwise).
    """
    n = g.vertex_count
    top: dict[int, int] = {}
    bottom: dict[int, int] = {}
    for i, j in g.top_arcs:
        top[i] = j
        top[j] = i
    for i, j in g.bottom_arcs:
        bottom[i] = j
        bottom[j] = i

    mirror = n + 1
    seen: set[int] = set()
    comps: list[Component] = []
    for start in range(1, n + 1):
        if start in seen:
            continue
        forward, closed = _ray(start, top, bottom)
        if closed:
            vertices = (start, *forward)
        else:
            backward, _ = _ray(start, bottom, top)
            vertices = (*reversed(backward), start, *forward)
        seen.update(vertices)
        stable = g.symmetric and set(vertices) == {mirror - v for v in vertices}
        kind = ComponentKind.CYCLE if closed else ComponentKind.SEGMENT
        comps.append(Component(vertices, kind, stable))
    return ComponentReport(tuple(comps), g.symmetric)
