"""Index of seaweed subalgebras: topological count and inductive reduction.

Two independent routes to the same number:

* the component count of the meander graph (`meander.graph_index`);
* rewriting of the leading parts, which strictly lowers the rank until one
  side is empty and the parabolic formula sum(part//2) + defect applies.

One step function, `reduce_step`, serves both rewriting flavours, which
must agree: the three-case step and (closed_form=True) the collapsed step
that jumps over all "large" cases at once using an integer witness p.
The collapsed step is defined once, on part tuples, by `closed_form_step`;
the census DP in `enumeration` walks the same function.  The three-case
rules stay separate arithmetic, so the two flavours check each other.
`reduction_chain` records every step so the routes can be replayed and
cross-checked.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .composition import Composition, SeaweedA, SeaweedC
from .meander import build_graph_a, build_graph_c, graph_index


class Rule(enum.Enum):
    SPLIT_EQUAL = "split-equal"
    CASE_SMALL = "case-small"
    CASE_LARGE = "case-large"
    CLOSED_FORM = "closed-form"


def index_a_gl(q: SeaweedA) -> int:
    """Index of a gl(N) seaweed: 2*cycles + segments of its graph."""
    return graph_index(build_graph_a(q))


def index_c(q: SeaweedC) -> int:
    """Index of an sp(2n) / so(2n+1) seaweed from its symmetric graph."""
    return graph_index(build_graph_c(q))


def parabolic_index_c(rank: int, side: Composition) -> int:
    """Index of the parabolic with gl-blocks `side`: sum(part//2) + defect."""
    if side.total > rank:
        raise ValueError(f"composition exceeds rank: {side.total} > {rank}")
    return sum(p // 2 for p in side.parts) + (rank - side.total)


@dataclass(frozen=True)
class ReductionStep:
    """One rewriting step; index(before) = index_delta + index(after).

    `swapped` records that the sides of `before` were exchanged prior to
    applying the rule (allowed because (a|b) and (b|a) are isomorphic), so
    chains can be replayed literally.  `witness_p` is set on closed-form
    steps only.
    """

    rule: Rule
    before: SeaweedC
    after: SeaweedC
    index_delta: int
    swapped: bool = False
    witness_p: int | None = None


@dataclass(frozen=True)
class ReductionChain:
    """A full reduction: rewriting steps down to a parabolic terminal.

    terminal_index is the parabolic index of the terminal;
    total_index = sum of step deltas + terminal_index.
    """

    steps: tuple[ReductionStep, ...]
    terminal: SeaweedC
    terminal_index: int
    total_index: int


def closed_form_step(
    rank: int, a: tuple[int, ...], b: tuple[int, ...]
) -> tuple[int, int, tuple[int, ...], tuple[int, ...]]:
    """The collapsed step on part tuples: p "large" steps and one "small"
    step at once.  Returns (p, rank, a, b) after the step.

    Defined for 0 < a1 < b1 (a1 = a[0], b1 = b[0]).  The witness is the
    unique integer p >= 0 with p/(p+1) < a1/b1 <= (p+1)/(p+2), which equals
    ceil(a1/(b1-a1)) - 1.  a1 is dropped and the rank falls by a1; the head
    b1 becomes b1' = (p+1)*b1 - (p+2)*a1 and b1'' = (p+1)*a1 - p*b1, with b1'
    omitted when zero; together they sum to b1 - a1.
    """
    if not (a and b and 0 < a[0] < b[0]):
        raise ValueError(f"closed-form step needs 0 < a1 < b1, got a={a}, b={b}")
    a1, b1 = a[0], b[0]
    p = (a1 - 1) // (b1 - a1)
    assert p * b1 < (p + 1) * a1 and (p + 2) * a1 <= (p + 1) * b1
    b1_first = (p + 1) * b1 - (p + 2) * a1
    b1_second = (p + 1) * a1 - p * b1
    head = (b1_second,) if b1_first == 0 else (b1_first, b1_second)
    return p, rank - a1, a[1:], head + b[1:]


def reduce_step(q: SeaweedC, *, closed_form: bool = False) -> ReductionStep:
    """One rewriting step, three-case or (closed_form=True) collapsed.

    Requires both sides non-empty.  If the leading top part is the larger,
    the sides are exchanged first ((a|b) and (b|a) are isomorphic); the step
    records `swapped` and keeps the unswapped q as `before`.  Then, with
    a1 = top[0] and b1 = bottom[0]:

    * a1 = b1        -- a gl(a1) factor splits off; delta a1, drop both parts;
    * closed_form    -- `closed_form_step`: p "large" steps and one "small"
                        step at once;
    * a1 <= b1/2     -- bottom head becomes (b1-2*a1, a1), zero part dropped;
    * b1/2 < a1 < b1 -- rank drops by b1-a1, heads become 2*a1-b1 and a1.
    """
    if not q.top.parts or not q.bottom.parts:
        raise ValueError(f"terminal: {q} is parabolic and cannot be reduced")
    swapped = q.top.parts[0] > q.bottom.parts[0]
    a, b = (q.bottom.parts, q.top.parts) if swapped else (q.top.parts, q.bottom.parts)
    a1, b1 = a[0], b[0]
    delta, p = 0, None
    if a1 == b1:
        rule, rank, delta = Rule.SPLIT_EQUAL, q.rank - a1, a1
        top, bottom = a[1:], b[1:]
    elif closed_form:
        rule = Rule.CLOSED_FORM
        p, rank, top, bottom = closed_form_step(q.rank, a, b)
    elif 2 * a1 <= b1:
        head = (a1,) if b1 == 2 * a1 else (b1 - 2 * a1, a1)
        rule, rank = Rule.CASE_SMALL, q.rank - a1
        top, bottom = a[1:], head + b[1:]
    else:
        rule, rank = Rule.CASE_LARGE, q.rank - b1 + a1
        top, bottom = (2 * a1 - b1,) + a[1:], (a1,) + b[1:]
    after = SeaweedC(rank, Composition(top), Composition(bottom), q.series)
    return ReductionStep(rule, q, after, delta, swapped, p)


def reduction_chain(q: SeaweedC, *, closed_form: bool = False) -> ReductionChain:
    """Reduce with `reduce_step` until one side is empty, then close with the
    parabolic formula."""
    steps: list[ReductionStep] = []
    cur = q
    while cur.top.parts and cur.bottom.parts:
        step = reduce_step(cur, closed_form=closed_form)
        assert step.after.rank < cur.rank  # termination
        steps.append(step)
        cur = step.after
    side = cur.top if cur.top.parts else cur.bottom
    terminal_index = parabolic_index_c(cur.rank, side)
    total = sum(step.index_delta for step in steps) + terminal_index
    return ReductionChain(tuple(steps), cur, terminal_index, total)
