"""Compositions and seaweed descriptors.

A composition -- an ordered tuple of positive integers -- encodes a standard
parabolic subalgebra: in gl(N) the parts are the diagonal block sizes; in
sp(2n) and so(2n+1) the parts list the gl-blocks of the Levi factor and the
leftover d = n - sum(parts) is the rank of the symplectic (resp. odd
orthogonal) block.  A seaweed is the intersection of a standard parabolic
(top composition) with an opposite-standard one (bottom composition).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

EMPTY_DISPLAY = "∅"


@dataclass(frozen=True)
class Composition:
    """Ordered parts, every one >= 1; () is the empty composition (total 0)."""

    parts: tuple[int, ...] = ()
    total: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", tuple(self.parts))
        for p in self.parts:
            if not isinstance(p, int) or isinstance(p, bool) or p < 1:
                raise ValueError(
                    f"composition part must be a positive integer, got {p!r}"
                )
        object.__setattr__(self, "total", sum(self.parts))

    def to_text(self) -> str:
        """Machine form "a1,a2,...,as"; the empty composition is ""."""
        return ",".join(str(p) for p in self.parts)

    def __str__(self) -> str:
        return self.to_text() or EMPTY_DISPLAY


def parse_composition(text: str) -> Composition:
    """Parse "a1,a2,...,as"; "" (or "∅") denotes the empty composition."""
    text = text.strip()
    if text in ("", EMPTY_DISPLAY):
        return Composition()
    parts = []
    for token in text.split(","):
        token = token.strip()
        # ASCII digits only: int() would also take "+2", "1_0" and "٣".
        digits = token.removeprefix("-")
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"invalid composition part {token!r}: not an integer")
        value = int(token)
        if value < 1:
            raise ValueError(f"composition part must be >= 1, got {token!r}")
        parts.append(value)
    return Composition(tuple(parts))


class Series(enum.Enum):
    """Ambient family of a rank-n descriptor: sp(2n) or so(2n+1).

    The two families share descriptors, meander graphs and index values;
    the flag only matters for labelling output.  The value is the type
    letter that output shows and input parses back (`Series("B")`).
    """

    SP = "C"
    SO_ODD = "B"


@dataclass(frozen=True)
class SeaweedA:
    """Standard seaweed in gl(N): two compositions of the same total N."""

    top: Composition
    bottom: Composition

    def __post_init__(self) -> None:
        if self.top.total != self.bottom.total:
            raise ValueError(
                "top and bottom must have equal totals, got "
                f"{self.top.total} and {self.bottom.total}"
            )

    @property
    def size(self) -> int:
        return self.top.total

    @property
    def series_label(self) -> str:
        return "A"

    @property
    def algebra_name(self) -> str:
        return f"gl({self.size})"

    def __str__(self) -> str:
        return f"({self.top} | {self.bottom})"


@dataclass(frozen=True)
class SeaweedC:
    """Standard seaweed in sp(2n) / so(2n+1): rank n and two compositions
    whose totals are at most n.

    Rank 0 (with both sides empty) is admitted; it is the terminal object of
    the reduction machinery and has index 0.  The series may also be given as
    its letter, "C" or "B".
    """

    rank: int
    top: Composition
    bottom: Composition
    series: Series = Series.SP

    def __post_init__(self) -> None:
        if not isinstance(self.series, Series):
            object.__setattr__(self, "series", Series(self.series))
        if not isinstance(self.rank, int) or isinstance(self.rank, bool) or self.rank < 0:
            raise ValueError(f"rank must be a non-negative integer, got {self.rank!r}")
        if self.top.total > self.rank:
            raise ValueError(
                f"top composition exceeds rank: {self.top.total} > {self.rank}"
            )
        if self.bottom.total > self.rank:
            raise ValueError(
                f"bottom composition exceeds rank: {self.bottom.total} > {self.rank}"
            )

    @property
    def top_defect(self) -> int:
        """d = n - sum(top); the number of central arcs above the line."""
        return self.rank - self.top.total

    @property
    def bottom_defect(self) -> int:
        """d' = n - sum(bottom); the number of central arcs below the line."""
        return self.rank - self.bottom.total

    @property
    def series_label(self) -> str:
        return self.series.value

    @property
    def algebra_name(self) -> str:
        if self.series is Series.SP:
            return f"sp({2 * self.rank})"
        return f"so({2 * self.rank + 1})"

    def swap(self) -> "SeaweedC":
        return SeaweedC(self.rank, self.bottom, self.top, self.series)

    def __str__(self) -> str:
        return f"n={self.rank} ({self.top} | {self.bottom})"


def _as_composition(value) -> Composition:
    if isinstance(value, Composition):
        return value
    if isinstance(value, str):
        return parse_composition(value)
    return Composition(tuple(value))


def make_seaweed_a(top, bottom) -> SeaweedA:
    """Build a validated gl seaweed from compositions, strings or iterables."""
    return SeaweedA(_as_composition(top), _as_composition(bottom))


def make_seaweed_c(rank: int, top, bottom, series: Series = Series.SP) -> SeaweedC:
    """Build a validated type-C seaweed from compositions, strings or iterables."""
    return SeaweedC(rank, _as_composition(top), _as_composition(bottom), series)


def doubled(side: Composition, defect: int) -> tuple[int, ...]:
    """The parts of one side of a type-C descriptor, doubled: (c1,...,cs)
    with defect d becomes (c1,...,cs,2d,cs,...,c1); the middle part 2d is
    dropped when d = 0.
    """
    middle = (2 * defect,) if defect else ()
    return side.parts + middle + side.parts[::-1]


def symmetrize(q: SeaweedC) -> SeaweedA:
    """Double a type-C descriptor to its mirror-symmetric gl(2n) descriptor,
    each side by `doubled`."""
    return SeaweedA(
        Composition(doubled(q.top, q.top_defect)),
        Composition(doubled(q.bottom, q.bottom_defect)),
    )


def canonical_pair(q: SeaweedC) -> SeaweedC:
    """Canonical representative of the unordered pair {(a|b), (b|a)}.

    The side with the larger total goes on top; ties are broken by putting
    the lexicographically smaller parts tuple on top.  Idempotent, and equal
    on q and q.swap().
    """
    top, bottom = q.top, q.bottom
    if bottom.total > top.total or (
        bottom.total == top.total and bottom.parts < top.parts
    ):
        return q.swap()
    return q
