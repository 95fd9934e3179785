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
import operator

EMPTY_DISPLAY = "∅"


class _Frozen:
    """An immutable record: its fields are its slots, set once by `__init__`
    through object.__setattr__.  It compares and hashes by them, equal only
    to an instance of its own class, and shows them in its repr."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._values = property(operator.attrgetter(*cls.__slots__))  # the fields, in order

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        """Rebuild through `__init__`, which takes the fields in slot order."""
        return type(self), self._values


class Composition(_Frozen):
    """Ordered parts, every one >= 1; () is the empty composition (total 0)."""

    __slots__ = ("parts", "total")

    def __init__(self, parts: tuple[int, ...] = ()) -> None:
        parts = tuple(parts)
        for p in parts:
            if not isinstance(p, int) or isinstance(p, bool) or p < 1:
                raise ValueError(
                    f"composition part must be a positive integer, got {p!r}"
                )
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "total", sum(parts))

    def __reduce__(self):
        return Composition, (self.parts,)

    def to_text(self) -> str:
        """Machine form "a1,a2,...,as"; the empty composition is ""."""
        return ",".join(str(p) for p in self.parts)

    def __str__(self) -> str:
        return self.to_text() or EMPTY_DISPLAY


def parse_int(text: str) -> int:
    """Parse an integer: ASCII digits with an optional leading "-".  int()
    would also take "+2", "1_0", " 2" and "٣"."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{text!r} is not an integer")
    return int(text)


def parse_composition(text: str) -> Composition:
    """Parse "a1,a2,...,as"; "" (or "∅") denotes the empty composition."""
    text = text.strip()
    if text in ("", EMPTY_DISPLAY):
        return Composition()
    parts = []
    for token in text.split(","):
        token = token.strip()
        try:
            value = parse_int(token)
        except ValueError:
            raise ValueError(f"invalid composition part {token!r}: not an integer") from None
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


class SeaweedA(_Frozen):
    """Standard seaweed in gl(N): two compositions of the same total N."""

    __slots__ = ("top", "bottom")

    def __init__(self, top: Composition, bottom: Composition) -> None:
        if top.total != bottom.total:
            raise ValueError(
                f"top and bottom must have equal totals, got {top.total} and {bottom.total}"
            )
        object.__setattr__(self, "top", top)
        object.__setattr__(self, "bottom", bottom)

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


class SeaweedC(_Frozen):
    """Standard seaweed in sp(2n) / so(2n+1): rank n and two compositions
    whose totals are at most n.

    Rank 0 (with both sides empty) is admitted; it is the terminal object of
    the reduction machinery and has index 0.  The series may also be given as
    its letter, "C" or "B".
    """

    __slots__ = ("rank", "top", "bottom", "series")

    def __init__(
        self, rank: int, top: Composition, bottom: Composition, series: Series = Series.SP
    ) -> None:
        if not isinstance(series, Series):
            series = Series(series)
        if not isinstance(rank, int) or isinstance(rank, bool) or rank < 0:
            raise ValueError(f"rank must be a non-negative integer, got {rank!r}")
        if top.total > rank:
            raise ValueError(f"top composition exceeds rank: {top.total} > {rank}")
        if bottom.total > rank:
            raise ValueError(f"bottom composition exceeds rank: {bottom.total} > {rank}")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "top", top)
        object.__setattr__(self, "bottom", bottom)
        object.__setattr__(self, "series", series)

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
