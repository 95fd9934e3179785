"""Meander graphs, seaweed indices and the Frobenius census.

Seaweed subalgebras of gl(N), sp(2n) and so(2n+1) are described by pairs of
integer compositions.  This package builds their meander graphs, computes
the Lie-algebra index three independent ways (component counting, inductive
reduction, exact Kirillov-form rank) and enumerates the index-0 (Frobenius)
seaweeds together with the structural maps between ranks.
"""

from .composition import Series, make_seaweed_a, make_seaweed_c
from .enumeration import frobenius_census
from .index import index_a_gl, index_c, reduction_chain
from .io_render import document, from_json, to_ascii, to_dot, to_json

__version__ = "0.1.0"

__all__ = [
    "Series",
    "make_seaweed_a",
    "make_seaweed_c",
    "index_a_gl",
    "index_c",
    "reduction_chain",
    "index_oracle",
    "frobenius_census",
    "document",
    "from_json",
    "to_json",
    "to_ascii",
    "to_dot",
]


def __getattr__(name: str):
    """`index_oracle` loads the oracle module on first use: no other command
    or library call needs it."""
    if name == "index_oracle":
        from .oracle import index_oracle

        return index_oracle
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
