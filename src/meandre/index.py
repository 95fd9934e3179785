"""Index of seaweed subalgebras: topological count and inductive reduction.

Two independent routes to the same number:

* the component count of the meander graph (`meander.graph_counts`);
* rewriting of the leading parts, which strictly lowers the rank until one
  side is empty and the parabolic formula sum(part//2) + defect applies.

The rewriting is one walker, `walk`, on two part stacks (lists, leading
part last): O(1) per step, about parts x log(part size) steps in all.  It
serves both flavours, separate arithmetic that must agree: the three-case
step and the collapsed `closed_form_step` with its witness p, which the
census DP in `enumeration` calls too.  `reduction_chain` records what each
step did (rule, index delta, side exchange, witness), enough to replay the
chain from its start, and builds only its terminal descriptor;
`meandre reduce` builds each step's descriptor from the walk's stacks as it
prints it.
`component_counts` folds the walk into the graph's `ComponentCounts`
without building the graph.
"""

from __future__ import annotations

import enum
from typing import Iterator, NamedTuple, Sequence

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


class ReductionStep(NamedTuple):
    """One rewriting step; index(before) = index_delta + index(after).

    `swapped` records that the sides of `before` were exchanged prior to
    applying the rule (allowed because (a|b) and (b|a) are isomorphic), and
    `witness_p` is set on closed-form steps only.  The records carry no
    descriptors: `walk` from the chain's start takes these steps again.
    """

    rule: Rule
    index_delta: int
    swapped: bool
    witness_p: int | None


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


def _parabolic_index(rank: int, parts: Sequence[int]) -> int:
    """Index of the parabolic (parts | ∅) of rank n: sum(part//2) + defect,
    which is also the number of cycles of its graph."""
    return sum(p // 2 for p in parts) + rank - sum(parts)


def terminal_index_c(terminal: SeaweedC) -> int:
    """Index of a reduction's terminal, a parabolic with one side empty."""
    return _parabolic_index(terminal.rank, terminal.top.parts or terminal.bottom.parts)


def reduction_chain(q: SeaweedC, *, closed_form: bool = False) -> ReductionChain:
    """Walk until one side is empty, then close with the parabolic formula."""
    steps, terminal = [], q
    a, b = list(q.top.parts[::-1]), list(q.bottom.parts[::-1])
    for rule, p, swapped, delta, rank, (a, b) in walk(q.rank, a, b, closed_form=closed_form):
        steps.append(ReductionStep(rule, delta, swapped, p))
    if steps:  # a and b are now the last step's top and bottom stacks
        terminal = SeaweedC(rank, Composition(a[::-1]), Composition(b[::-1]), q.series)
    terminal_index = terminal_index_c(terminal)
    total = sum([step.index_delta for step in steps]) + terminal_index
    return ReductionChain(tuple(steps), terminal, terminal_index, total)


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
    cycles += _parabolic_index(rank, side)
    return ComponentCounts(cycles, sum(p % 2 for p in side), loose, symmetric)
