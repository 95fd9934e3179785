"""Serialization and rendering of meander graphs.

The JSON form is the interchange format: fixed key order {type, n, top,
bottom, vertices, top_arcs, bottom_arcs, components, index}, 1-based
vertices, arcs as two-element arrays.  Loading recomputes everything from
the descriptor and rejects files whose embedded graph, components or index
disagree, in value or in JSON type.  `document` refuses a graph of more
than GRAPH_MAX_VERTICES vertices, so the CLI and `from_json` share one size
cap.  The ASCII and DOT renderers draw arcs above/below a vertex row; for
symmetric graphs the centre line is marked.  `check_ascii_width` refuses
a drawing wider than ASCII_MAX_WIDTH columns before any graph is built.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain

from .composition import SeaweedA, SeaweedC, Series, parse_composition
from .enumeration import CensusRow
from .meander import (
    Arc,
    ComponentReport,
    MeanderGraph,
    analyze,
    build_graph_a,
    build_graph_c,
)

Descriptor = SeaweedA | SeaweedC

GRAPH_MAX_VERTICES = 2_000_000  # rank 10^6 for C/B: about 3.5 s and 360 MB
ASCII_MAX_WIDTH = 200  # columns of a to_ascii drawing: rank 50 for C/B


@dataclass(frozen=True)
class GraphDocument:
    """A descriptor with its graph, component report and index."""

    descriptor: Descriptor
    graph: MeanderGraph
    report: ComponentReport

    @property
    def index(self) -> int:
        return self.report.counts.index


def document(q: Descriptor) -> GraphDocument:
    """Build the full document for a descriptor, refused above
    GRAPH_MAX_VERTICES vertices."""
    vertices = q.size if isinstance(q, SeaweedA) else 2 * q.rank
    if vertices > GRAPH_MAX_VERTICES:
        raise ValueError(
            f"the graph would have {vertices} vertices, over the cap of {GRAPH_MAX_VERTICES}"
        )
    graph = build_graph_a(q) if isinstance(q, SeaweedA) else build_graph_c(q)
    return GraphDocument(q, graph, analyze(graph))


def payload_head(q: Descriptor) -> dict:
    """The keys every JSON payload starts with: {type, n, top, bottom}.

    n is the size for type A and the rank for type C/B.
    """
    return {
        "type": q.series_label,
        "n": q.size if isinstance(q, SeaweedA) else q.rank,
        "top": q.top.to_text(),
        "bottom": q.bottom.to_text(),
    }


def _payload(doc: GraphDocument) -> dict:
    return {
        **payload_head(doc.descriptor),
        "vertices": doc.graph.vertex_count,
        "top_arcs": [list(a) for a in doc.graph.top_arcs],
        "bottom_arcs": [list(a) for a in doc.graph.bottom_arcs],
        "components": [
            {
                "kind": c.kind,
                "vertices": list(c.vertices),
                "sigma_stable": c.sigma_stable,
            }
            for c in doc.report.components
        ],
        "index": doc.index,
    }


def _json_types_match(data: dict) -> bool:
    """Whether a document equal to its payload also has the payload's JSON
    types: `==` takes true and 1.0 for 1, JSON does not.  Every number of a
    payload is an int and every `sigma_stable` a bool."""
    comps = data["components"]
    numbers = [
        data["n"],
        data["vertices"],
        data["index"],
        *chain.from_iterable(data["top_arcs"]),
        *chain.from_iterable(data["bottom_arcs"]),
        *chain.from_iterable(c["vertices"] for c in comps),
    ]
    return set(map(type, numbers)) == {int} and all(
        type(c["sigma_stable"]) is bool for c in comps
    )


def to_json(doc: GraphDocument) -> str:
    """Canonical single-line JSON; byte-stable across runs."""
    return json.dumps(_payload(doc), ensure_ascii=False, separators=(",", ":"))


def from_json(text: str) -> GraphDocument:
    """Parse and re-validate; tampered or stale documents are rejected."""
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("document is nested too deeply") from None
    if not isinstance(data, dict):
        raise ValueError("document must be a JSON object")
    try:
        kind = data["type"]
        top = parse_composition(data["top"])
        bottom = parse_composition(data["bottom"])
        if kind == "A":
            descriptor: Descriptor = SeaweedA(top, bottom)
        else:
            try:
                series = Series(kind)
            except ValueError:
                raise ValueError(f"unknown document type {kind!r}") from None
            descriptor = SeaweedC(int(data["n"]), top, bottom, series)
    except KeyError as missing:
        raise ValueError(f"document is missing the {missing} field") from None
    except (TypeError, AttributeError, OverflowError) as bad:
        raise ValueError(f"malformed document field: {bad}") from None
    doc = document(descriptor)
    if _payload(doc) != data or not _json_types_match(data):
        raise ValueError(
            "document content does not match its descriptor (tampered or stale file)"
        )
    return doc


def census_table(rows: list[CensusRow]) -> str:
    """The census as a text table: one line per rank with the class counts
    by central-arc number k ('-' where k > n), then the row total F_n."""
    nmax = rows[-1].n
    cell = max(len(str(v)) for row in rows for v in (*row.by_k, row.total, row.n))
    label_width = max(3, len(str(nmax)))
    header = "n\\k".ljust(label_width) + "".join(f"{k:>{cell + 2}}" for k in range(1, nmax + 1))
    header += " |" + f"{'F_n':>{cell + 2}}"
    lines = [header]
    for row in rows:
        cells = [str(v) for v in row.by_k] + ["-"] * (nmax - row.n)
        line = str(row.n).ljust(label_width) + "".join(f"{c:>{cell + 2}}" for c in cells)
        line += " |" + f"{row.total:>{cell + 2}}"
        lines.append(line)
    return "\n".join(lines)


# --- ASCII rendering -------------------------------------------------------

_MIRROR = "|"


def _height(arc: Arc) -> int:
    """Row of an arc above (or below) the vertex row: half its span, rounded up.

    Every arc comes from one composition part, whose arcs nest with no gaps,
    so this is their nesting height, innermost next to the vertex row; arcs
    of different parts lie over disjoint columns.
    """
    i, j = arc
    return (j - i + 1) // 2


def check_ascii_width(q: Descriptor) -> None:
    """Refuse, from the descriptor alone, a drawing over ASCII_MAX_WIDTH columns."""
    width = 2 * (q.size if isinstance(q, SeaweedA) else 2 * q.rank) - 1
    if width > ASCII_MAX_WIDTH:
        raise ValueError(
            f"drawing needs {width} columns (limit {ASCII_MAX_WIDTH}); "
            "use the dot renderer for graphs this wide"
        )


def to_ascii(doc: GraphDocument) -> str:
    """Monospace drawing: '*' vertices, box-drawing arcs, '|' centre line."""
    check_ascii_width(doc.descriptor)
    g = doc.graph
    n = g.vertex_count
    if n == 0:
        return ""
    width = 2 * n - 1
    top_arcs, bottom_arcs = g.top_arcs, g.bottom_arcs
    rows_top = max(map(_height, top_arcs), default=0)
    rows_bottom = max(map(_height, bottom_arcs), default=0)
    pad = 1 if g.symmetric else 0  # extra rows so the centre line shows
    vrow = pad + rows_top
    grid = [[" "] * width for _ in range(rows_top + rows_bottom + 1 + 2 * pad)]

    def col(v: int) -> int:
        return 2 * (v - 1)

    for v in range(1, n + 1):
        grid[vrow][col(v)] = "*"
    for arcs, step, (left, right) in ((top_arcs, -1, "╭╮"), (bottom_arcs, 1, "╰╯")):
        for i, j in arcs:
            row = vrow + step * _height((i, j))
            grid[row][col(i)] = left
            grid[row][col(j)] = right
            for c in range(col(i) + 1, col(j)):
                grid[row][c] = "─"
            for r in range(vrow + step, row, step):
                grid[r][col(i)] = "│"
                grid[r][col(j)] = "│"
    if g.symmetric:
        centre = n - 1  # column between vertices n/2 and n/2 + 1
        for row in grid:
            if row[centre] == " ":
                row[centre] = _MIRROR
    return "\n".join("".join(row).rstrip() for row in grid)


# --- DOT rendering ---------------------------------------------------------


def to_dot(doc: GraphDocument) -> str:
    """Graphviz source: vertices pinned to a line, arcs curving up/down.

    Edge colours: red = segment not fixed by the mirror reflection,
    blue = cycle, black = mirror-stable segment (all segments are black for
    plain type-A graphs, where the mirror plays no role).
    """
    g = doc.graph
    owner: dict[int, tuple[bool, bool]] = {}
    for comp in doc.report.components:
        for v in comp.vertices:
            owner[v] = (comp.is_cycle, comp.sigma_stable)

    def colour(i: int) -> str:
        is_cycle, stable = owner[i]
        if is_cycle:
            return "blue"
        if g.symmetric and not stable:
            return "red"
        return "black"

    lines = [
        "graph meander {",
        f"  // type {doc.descriptor.series_label} seaweed {doc.descriptor}; index {doc.index}",
        "  // edge colours: red = segment not fixed by the mirror reflection,",
        "  //               blue = cycle, black = mirror-stable segment",
        "  layout=neato;",
        "  splines=curved;",
        "  node [shape=point, width=0.08];",
    ]
    for v in range(1, g.vertex_count + 1):
        lines.append(f'  v{v} [pos="{(v - 1) * 0.6:.1f},0!"];')
    for i, j in g.top_arcs:
        lines.append(f"  v{i} -- v{j} [tailport=n, headport=n, color={colour(i)}];")
    for i, j in g.bottom_arcs:
        lines.append(f"  v{i} -- v{j} [tailport=s, headport=s, color={colour(i)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
