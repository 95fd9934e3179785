"""Index of seaweed subalgebras: topological count and inductive reduction.

Two independent routes to the same number:

* the component count of the meander graph (`ComponentReport.index`);
* rewriting of the leading parts, which strictly lowers the rank until one
  side is empty and the parabolic formula sum(part//2) + defect applies.

The rewriting comes in two flavours that must agree: the three-case step
(`reduce_step`) and the collapsed closed-form step (`reduce_step_closed`)
that jumps over all "large" cases at once using an integer witness p.
`reduction_chain` records every step so the routes can be replayed and
cross-checked.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from .composition import Composition, SeaweedA, SeaweedC
from .meander import analyze, build_graph_a, build_graph_c


class Rule(enum.Enum):
    SPLIT_EQUAL = "split-equal"
    CASE_SMALL = "case-small"
    CASE_LARGE = "case-large"
    CLOSED_FORM = "closed-form"


def index_a_gl(q: SeaweedA) -> int:
    """Index of a gl(N) seaweed: 2*cycles + segments of its graph."""
    return analyze(build_graph_a(q)).index


def index_c(q: SeaweedC) -> int:
    """Index of an sp(2n) / so(2n+1) seaweed from its symmetric graph."""
    return analyze(build_graph_c(q)).index


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


def reduce_step(q: SeaweedC) -> ReductionStep:
    """One three-case rewriting step.

    Requires both sides non-empty and the leading top part at most the
    leading bottom part (swap the sides first otherwise).  With a1 = top[0]
    and b1 = bottom[0]:

    * a1 = b1       -- a gl(a1) factor splits off; delta a1, drop both parts;
    * a1 <= b1/2    -- bottom head becomes (b1-2*a1, a1), zero part dropped;
    * b1/2 < a1 < b1 -- rank drops by b1-a1, heads become 2*a1-b1 and a1.
    """
    a, b = q.top.parts, q.bottom.parts
    if not a or not b:
        raise ValueError(f"terminal: {q} is parabolic and cannot be reduced")
    a1, b1 = a[0], b[0]
    if a1 > b1:
        raise ValueError(
            "sides must be pre-swapped so the leading top part is <= the bottom one"
        )
    if a1 == b1:
        after = SeaweedC(q.rank - a1, Composition(a[1:]), Composition(b[1:]), q.series)
        return ReductionStep(Rule.SPLIT_EQUAL, q, after, a1)
    if 2 * a1 <= b1:
        head = (a1,) if b1 == 2 * a1 else (b1 - 2 * a1, a1)
        after = SeaweedC(
            q.rank - a1, Composition(a[1:]), Composition(head + b[1:]), q.series
        )
        return ReductionStep(Rule.CASE_SMALL, q, after, 0)
    after = SeaweedC(
        q.rank - b1 + a1,
        Composition((2 * a1 - b1,) + a[1:]),
        Composition((a1,) + b[1:]),
        q.series,
    )
    return ReductionStep(Rule.CASE_LARGE, q, after, 0)


def closed_form_witness(a1: int, b1: int) -> int:
    """The unique integer p >= 0 with p/(p+1) < a1/b1 <= (p+1)/(p+2).

    Defined for 0 < a1 < b1; equals ceil(a1/(b1-a1)) - 1.
    """
    if not 0 < a1 < b1:
        raise ValueError(f"witness needs 0 < a1 < b1, got a1={a1}, b1={b1}")
    p = (a1 - 1) // (b1 - a1)
    assert p * b1 < (p + 1) * a1 and (p + 2) * a1 <= (p + 1) * b1
    return p


def closed_form_head(a1: int, b1: int) -> tuple[int, tuple[int, ...]]:
    """Witness p and the parts that replace the bottom head b1 when a1 < b1.

    The head becomes b1' = (p+1)*b1 - (p+2)*a1 and b1'' = (p+1)*a1 - p*b1,
    with b1' omitted when zero; together they sum to b1 - a1.
    """
    p = closed_form_witness(a1, b1)
    b1_first = (p + 1) * b1 - (p + 2) * a1
    b1_second = (p + 1) * a1 - p * b1
    return p, ((b1_second,) if b1_first == 0 else (b1_first, b1_second))


def reduce_step_closed(q: SeaweedC) -> ReductionStep:
    """The collapsed rewriting step for a1 < b1.

    With witness p, the bottom head b1 is replaced by `closed_form_head`
    while a1 is dropped and the rank decreases by a1.  Equivalent to p
    consecutive "large" steps followed by one "small" step.
    """
    a, b = q.top.parts, q.bottom.parts
    if not a or not b:
        raise ValueError(f"terminal: {q} is parabolic and cannot be reduced")
    a1, b1 = a[0], b[0]
    if a1 == b1:
        raise ValueError("equal leading parts: use the split step instead")
    if a1 > b1:
        raise ValueError(
            "sides must be pre-swapped so the leading top part is < the bottom one"
        )
    p, head = closed_form_head(a1, b1)
    after = SeaweedC(
        q.rank - a1, Composition(a[1:]), Composition(head + b[1:]), q.series
    )
    return ReductionStep(Rule.CLOSED_FORM, q, after, 0, witness_p=p)


def reduction_chain(q: SeaweedC, *, closed_form: bool = False) -> ReductionChain:
    """Reduce until one side is empty, then close with the parabolic formula.

    Sides are swapped whenever the leading bottom part is smaller (recorded
    on the step).  With closed_form=True the collapsed step replaces the
    small/large cases; equal leading parts always use the split step.
    """
    steps: list[ReductionStep] = []
    total = 0
    cur = q
    while cur.top.parts and cur.bottom.parts:
        swapped = cur.top.parts[0] > cur.bottom.parts[0]
        work = cur.swap() if swapped else cur
        if closed_form and work.top.parts[0] != work.bottom.parts[0]:
            step = reduce_step_closed(work)
        else:
            step = reduce_step(work)
        if swapped:
            step = replace(step, before=cur, swapped=True)
        assert step.after.rank < cur.rank  # termination
        steps.append(step)
        total += step.index_delta
        cur = step.after
    side = cur.top if cur.top.parts else cur.bottom
    terminal_index = parabolic_index_c(cur.rank, side)
    return ReductionChain(tuple(steps), cur, terminal_index, total + terminal_index)
