"""Index of seaweed subalgebras: topological count and inductive reduction.

Two independent routes to the same number:

* the component count of the meander graph (`meander.graph_counts`);
* rewriting of the leading parts, which strictly lowers the rank until one
  side is empty and the parabolic formula sum(part//2) + defect applies.

The rewriting is one walker, `walk`, on two part stacks (lists, leading
part last): O(1) per step, about parts x log(part size) steps in all.  It
serves both flavours, separate arithmetic that must agree: the three-case
step and the collapsed `closed_form_step` with its witness p, which the
census DP in `enumeration` calls too.  `reduction_steps` records each step
as it is taken, so the routes can be replayed, in time and memory linear in
the walk: the steps share their part storage and build their descriptors
when read.  `reduction_chain` keeps them all; `meandre reduce` prints each
and lets it go.
`component_counts` folds the walk into the graph's `ComponentCounts`
without building the graph.
"""

from __future__ import annotations

import enum
from typing import Iterator, NamedTuple

from .composition import Composition, SeaweedA, SeaweedC
from .meander import ComponentCounts, build_graph_a, build_graph_c, graph_counts


class Rule(enum.Enum):
    SPLIT_EQUAL = "split-equal"
    CASE_SMALL = "case-small"
    CASE_LARGE = "case-large"
    CLOSED_FORM = "closed-form"


def index_a_gl(q: SeaweedA) -> int:
    """Index of a gl(N) seaweed: 2*cycles + segments of its graph."""
    return graph_counts(build_graph_a(q)).index


def index_c(q: SeaweedC) -> int:
    """Index of an sp(2n) / so(2n+1) seaweed from its symmetric graph."""
    return graph_counts(build_graph_c(q)).index


def parabolic_index_c(rank: int, side: Composition) -> int:
    """Index of the parabolic with gl-blocks `side`: sum(part//2) + defect."""
    if side.total > rank:
        raise ValueError(f"composition exceeds rank: {side.total} > {rank}")
    return sum(p // 2 for p in side.parts) + (rank - side.total)


Cell = tuple  # (part, rest): a side as cons cells, leading part first; None is empty


def _cons(stack: list[int], cell: Cell | None = None) -> Cell | None:
    """`cell` with the parts of `stack` (leading part last) pushed in turn."""
    for part in stack:
        cell = (part, cell)
    return cell


def _parts(cell: Cell | None, base: Cell | None = None, rest: tuple[int, ...] = ()) -> tuple:
    """The parts of `cell`, leading part first; it ends in `base`, whose
    parts are `rest`."""
    fresh = []
    while cell is not base:
        part, cell = cell
        fresh.append(part)
    return (*fresh, *rest)


class _State:
    """One descriptor on a reduction walk: its rank and each side's cons
    cells, which share every part below the leading ones with the states
    before it.  The `SeaweedC` is built and validated on first read, once."""

    __slots__ = ("rank", "top", "bottom", "series", "_built")

    def __init__(self, rank: int, top: Cell | None, bottom: Cell | None, series, built=None):
        self.rank, self.top, self.bottom, self.series = rank, top, bottom, series
        self._built = built

    def seaweed(self, source: _State | None = None, swapped: bool = False) -> SeaweedC:
        """The descriptor.  If the walk stepped here from `source` (exchanging
        its sides if `swapped`) and that one is built, only the fresh leading
        parts are read off the cells and the rest is sliced from its parts."""
        if self._built is None:
            top = bottom = (None, ())
            if source is not None and (old := source._built) is not None:
                top = source.top[1], old.top.parts[1:]
                bottom = source.bottom[1], old.bottom.parts[1:]
                if swapped:
                    top, bottom = bottom, top
            top, bottom = _parts(self.top, *top), _parts(self.bottom, *bottom)
            self._built = SeaweedC(self.rank, Composition(top), Composition(bottom), self.series)
        return self._built


class ReductionStep:
    """One rewriting step; index(before) = index_delta + index(after).

    `swapped` records that the sides of `before` were exchanged prior to
    applying the rule (allowed because (a|b) and (b|a) are isomorphic), so
    chains can be replayed literally.  `witness_p` is set on closed-form
    steps only.  `before` and `after` are built when read, and a step's
    `after` is the next step's `before`, the same object; equality, hash
    and repr go by these built values, never through the shared cells.
    """

    __slots__ = ("rule", "index_delta", "swapped", "witness_p", "_before", "_after")

    def __init__(
        self,
        rule: Rule,
        index_delta: int,
        swapped: bool,
        witness_p: int | None,
        before: _State,
        after: _State,
    ):
        self.rule, self.index_delta, self.swapped = rule, index_delta, swapped
        self.witness_p, self._before, self._after = witness_p, before, after

    @property
    def before(self) -> SeaweedC:
        return self._before.seaweed()

    @property
    def after(self) -> SeaweedC:
        return self._after.seaweed(self._before, self.swapped)

    def _fields(self) -> tuple:
        return self.rule, self.before, self.after, self.index_delta, self.swapped, self.witness_p

    def __eq__(self, other) -> bool:
        if not isinstance(other, ReductionStep):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        rule, before, after, delta, swapped, p = self._fields()
        return (
            f"ReductionStep(rule={rule!r}, before={before!r}, after={after!r}, "
            f"index_delta={delta!r}, swapped={swapped!r}, witness_p={p!r})"
        )


class ReductionChain(NamedTuple):
    """A full reduction: rewriting steps down to a parabolic terminal.

    terminal_index is the parabolic index of the terminal;
    total_index = sum of step deltas + terminal_index.
    """

    steps: tuple[ReductionStep, ...]
    terminal: SeaweedC
    terminal_index: int
    total_index: int


def closed_form_step(rank: int, a: list[int], b: list[int]) -> tuple[int, int]:
    """The collapsed step on part stacks (leading part last): p "large"
    steps and one "small" step at once.  Returns (p, rank after the step).

    Defined for 0 < a1 < b1 (a1 = a[-1], b1 = b[-1]); the witness p >= 0 has
    p/(p+1) < a1/b1 <= (p+1)/(p+2), so p = ceil(a1/(b1-a1)) - 1.  Pops a1 and
    b1, then pushes b1'' = (p+1)*a1 - p*b1 and b1' = (p+1)*b1 - (p+2)*a1 (if
    non-zero), which sum to b1 - a1; the rank falls by a1.
    """
    if not (a and b and 0 < a[-1] < b[-1]):
        raise ValueError(f"closed-form step needs 0 < a1 < b1, got a={a}, b={b}")
    a1, b1 = a.pop(), b[-1]
    p = (a1 - 1) // (b1 - a1)
    assert p * b1 < (p + 1) * a1 and (p + 2) * a1 <= (p + 1) * b1
    b[-1] = (p + 1) * a1 - p * b1  # pop b1, push b1''
    if first := (p + 1) * b1 - (p + 2) * a1:
        b.append(first)
    return p, rank - a1


def walk(rank: int, a: list[int], b: list[int], *, closed_form: bool) -> Iterator[tuple]:
    """Rewrite the part stacks `a` and `b` in place until one is empty.

    Before each step the sides are exchanged when a1 > b1 ((a|b) and (b|a)
    are isomorphic).  Then, with a1 = a[-1] and b1 = b[-1]:

    * a1 = b1        -- a gl(a1) factor splits off; delta a1, pop both parts;
    * closed_form    -- `closed_form_step`;
    * a1 <= b1/2     -- bottom head becomes (b1-2*a1, a1), zero part dropped;
    * b1/2 < a1 < b1 -- rank drops by b1-a1, heads become 2*a1-b1 and a1.

    Yields (rule, p, swapped, delta, rank, (top, bottom)) after each step;
    the stacks are live, so a caller keeping them must copy.
    """
    while a and b:
        swapped = a[-1] > b[-1]
        if swapped:
            a, b = b, a
        a1, b1 = a[-1], b[-1]
        p, delta = None, 0
        if a1 == b1:
            del a[-1], b[-1]
            rule, rank, delta = Rule.SPLIT_EQUAL, rank - a1, a1
        elif closed_form:
            rule = Rule.CLOSED_FORM
            p, rank = closed_form_step(rank, a, b)
        elif 2 * a1 <= b1:
            del a[-1]
            b[-1] = a1
            if b1 > 2 * a1:
                b.append(b1 - 2 * a1)
            rule, rank = Rule.CASE_SMALL, rank - a1
        else:
            a[-1], b[-1] = 2 * a1 - b1, a1
            rule, rank = Rule.CASE_LARGE, rank - b1 + a1
        yield rule, p, swapped, delta, rank, (a, b)


def reduction_steps(q: SeaweedC, *, closed_form: bool = False) -> Iterator[ReductionStep]:
    """The steps of `reduction_chain`, each yielded as it is taken.

    Linear in the walk: a step rewrites only the leading part of each side
    and pushes at most one more, so each records O(1) new cons cells and
    shares the rest with the step before.  Descriptors are built when read;
    a caller that lets each step go keeps only the latest one alive.
    """
    stacks = list(q.top.parts[::-1]), list(q.bottom.parts[::-1])
    top, bottom = _cons(stacks[0]), _cons(stacks[1])
    depths = len(stacks[0]), len(stacks[1])  # the walk's stack sizes before the step
    series = q.series
    state = _State(q.rank, top, bottom, series, q)
    for rule, p, swapped, delta, rank, (a, b) in walk(q.rank, *stacks, closed_form=closed_form):
        if swapped:
            top, bottom, depths = bottom, top, depths[::-1]
        # Only each old leading part changed: pop it and push the stack above it.
        top, bottom = _cons(a[depths[0] - 1:], top[1]), _cons(b[depths[1] - 1:], bottom[1])
        depths = len(a), len(b)
        after = _State(rank, top, bottom, series)
        yield ReductionStep(rule, delta, swapped, p, state, after)
        state = after


def terminal_index_c(terminal: SeaweedC) -> int:
    """Index of a reduction's terminal, a parabolic with one side empty."""
    side = terminal.top if terminal.top.parts else terminal.bottom
    return parabolic_index_c(terminal.rank, side)


def reduction_chain(q: SeaweedC, *, closed_form: bool = False) -> ReductionChain:
    """Walk until one side is empty, then close with the parabolic formula."""
    steps = tuple(reduction_steps(q, closed_form=closed_form))
    terminal = steps[-1].after if steps else q
    terminal_index = terminal_index_c(terminal)
    total = sum([step.index_delta for step in steps]) + terminal_index
    return ReductionChain(steps, terminal, terminal_index, total)


def component_counts(q: SeaweedA | SeaweedC) -> ComponentCounts:
    """`analyze(graph).counts`, read off the closed-form walk.

    A split part a1 adds a1//2 cycles and a1 mod 2 segments, twice over in
    the doubled type-C graph.  A type-C walk ends at a parabolic (side | ∅)
    of rank r, which adds sum(p//2) + (r - total) cycles and one
    mirror-stable segment per odd part; a gl walk empties both sides.
    """
    symmetric = isinstance(q, SeaweedC)
    rank, twice = (q.rank, 2) if symmetric else (q.size, 1)
    a, b = list(q.top.parts[::-1]), list(q.bottom.parts[::-1])
    cycles = loose = 0
    for _, _, _, delta, rank, _ in walk(rank, a, b, closed_form=True):
        cycles += twice * (delta // 2)
        loose += twice * (delta % 2)
    side = a or b
    cycles += sum(p // 2 for p in side) + rank - sum(side)
    return ComponentCounts(cycles, sum(p % 2 for p in side), loose, symmetric)
