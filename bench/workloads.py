"""Seeded inputs for the four benchmark workloads.

Every function here is pure: the same (seed, rep) gives the same inputs, and
nothing imports meandre.  Each repetition of a workload runs in a fresh
interpreter (see worker.py), so a repetition's inputs are one self-contained
list of operations.

interactive  single-descriptor library calls at ranks 1-40 over series C, B, A
large        `meandre.cli.main` on ranks 10^4-10^5, few-parts and many-parts
census       `meandre census --n 9`
verify       `meandre verify --oracle-max-n 5 --seed <seed>`
"""

from __future__ import annotations

import random
from collections import Counter

WORKLOADS = ("interactive", "large", "census", "verify")
FEW_PARTS = 8  # at most this many parts per side makes a few-parts descriptor

SIZES = {
    "interactive_ops": 2000,
    "interactive_max_rank": 40,
    # (rank, parts per side of the many-parts class, index descriptors per
    # class): ranks at the 1/6, 1/2 and 5/6 quantiles of log-uniform
    # 10^4-10^5.  Most index questions sit at the middle rank, where each
    # class median falls, so that median rests on nine samples.
    "large_grid": ((15_000, 1000, 2), (32_000, 700, 9), (68_000, 500, 2)),
    "large_few_parts": FEW_PARTS,
    "census_n": 9,
    "verify_argv": ["--oracle-max-n", "5"],
}

# Interactive questions are drawn evenly: the repo holds no record of how
# meandre is used, so no kind of question is weighted above another.  Series
# A has no reduction, so it draws from fewer kinds.
INTERACTIVE_SERIES = ("C", "B", "A")
INTERACTIVE_OPS = {
    "C": ("index", "reduce", "reduce_cf", "json", "ascii", "dot", "load"),
    "A": ("index", "json", "ascii", "dot", "load"),
}

# Each large repetition asks, at every point of the grid, `index` about a few
# descriptors per class and the other commands about the first of them.  The
# grid is the same for every seed (the seed draws shapes and a few percent of
# rank jitter), and every repetition holds the whole grid, so the mix does not
# depend on how many repetitions fit.
LARGE_OTHER_OPS = (("reduce", "--closed-form"), ("reduce",), ("graph", "--format", "json"))


def _text(bounds: list[int]) -> str:
    return ",".join(str(b - a) for a, b in zip(bounds, bounds[1:]))


def random_composition(rng: random.Random, total: int, parts: int | None = None) -> str:
    """A composition of `total` as text, uniform over all of them, or over
    those with `parts` parts."""
    if total == 0:
        return ""
    if parts is None:
        cuts = [g for g in range(1, total) if rng.random() < 0.5]
    else:
        cuts = sorted(rng.sample(range(1, total), min(parts, total) - 1))
    return _text([0, *cuts, total])


def random_side(rng: random.Random, rank: int) -> str:
    """One side of an sp/so descriptor of `rank`, uniform over all 2^rank of
    them: a uniform subset of 1..rank read as the side's partial sums."""
    return _text([0, *(s for s in range(1, rank + 1) if rng.random() < 0.5)])


def interactive_rep(seed: int, rep: int) -> list[dict]:
    """One repetition of the interactive stream: a list of questions.

    Each question is {"op", "series", "n", "top", "bottom", "repeat"}; n is
    the rank for C/B and the size for A, uniform over 1..max rank, and the
    descriptor is uniform over all those of that rank.  "repeat" marks a
    descriptor asked before in the same repetition.
    """
    rng = random.Random(f"interactive:{seed}:{rep}")
    asked: set[tuple] = set()
    ops = []
    for _ in range(SIZES["interactive_ops"]):
        series = rng.choice(INTERACTIVE_SERIES)
        n = rng.randint(1, SIZES["interactive_max_rank"])
        if series == "A":
            top, bottom = random_composition(rng, n), random_composition(rng, n)
        else:
            top, bottom = random_side(rng, n), random_side(rng, n)
        key = (series, n, top, bottom)
        op = rng.choice(INTERACTIVE_OPS["A" if series == "A" else "C"])
        ops.append({"op": op, "series": series, "n": n, "top": top, "bottom": bottom, "repeat": key in asked})
        asked.add(key)
    return ops


def large_rep(seed: int, rep: int) -> list[dict]:
    """One repetition of the large workload, shuffled.

    Each item is {"class", "argv", "series", "n", "top", "bottom", "repeat"}.
    """
    rng = random.Random(f"large:{seed}:{rep}")
    items = []
    for grid_rank, many, descriptors in SIZES["large_grid"]:
        rank = round(grid_rank * rng.uniform(0.97, 1.03))
        series = rng.choice(("C", "B"))
        top_total = rank - rng.randint(0, rank // 10)
        bottom_total = rank - rng.randint(0, rank // 10)
        few = SIZES["large_few_parts"]
        for cls, parts in (("few", (1, few)), ("many", (many * 4 // 5, many))):
            for d in range(descriptors):
                top = random_composition(rng, top_total, rng.randint(*parts))
                bottom = random_composition(rng, bottom_total, rng.randint(*parts))
                heads = [("index",)] + (list(LARGE_OTHER_OPS) if d == 0 else [])
                for head in heads:
                    argv = [*head, "--series", series, "--n", str(rank), "--top", top, "--bottom", bottom]
                    items.append(
                        {
                            "class": cls,
                            "argv": argv,
                            "series": series,
                            "n": rank,
                            "top": top,
                            "bottom": bottom,
                            "repeat": head != ("index",),
                        }
                    )
    rng.shuffle(items)
    return items


def census_rep(seed: int, rep: int) -> list[dict]:
    """The census job; the table does not depend on the seed."""
    return [{"argv": ["census", "--n", str(SIZES["census_n"])]}]


def verify_rep(seed: int, rep: int) -> list[dict]:
    """The verify job; the seed drives the oracle's sampling."""
    return [{"argv": ["verify", *SIZES["verify_argv"], "--seed", str(seed)]}]


GENERATORS = {
    "interactive": interactive_rep,
    "large": large_rep,
    "census": census_rep,
    "verify": verify_rep,
}


def parts_count(text: str) -> int:
    return len(text.split(",")) if text else 0


def _histogram(values, edges) -> dict[str, int]:
    """Counts per bucket [edges[i], edges[i+1]); the last bucket is open."""
    hist = {}
    for lo, hi in zip(edges, [*edges[1:], None]):
        label = f"{lo}-{hi - 1}" if hi is not None else f"{lo}+"
        hist[label] = sum(1 for v in values if v >= lo and (hi is None or v < hi))
    return hist


def input_properties(workload: str, ops: list[dict], index_zero: int | None) -> dict:
    """Properties of the inputs actually run, for citing shares later.

    `index_zero` is the number of descriptor questions whose answer was 0
    (None where the workload asks no descriptor questions).
    """
    if workload in ("census", "verify"):
        props = {
            "argv": ops[0]["argv"] if ops else [],
            "op_mix": dict(Counter(op["argv"][0] for op in ops)),
            "repeated_share": 0.0,
        }
        if workload == "census" and ops:
            n = int(ops[0]["argv"][2])
            # Row m scans 4^(m-1) (deficient | full) pairs; checks.PINNED_ROWS holds the hits.
            props["rank_histogram"] = {str(m): 4 ** (m - 1) for m in range(1, n + 1)}
        return props

    def kind(op: dict) -> str:
        if workload == "interactive":
            return op["op"]
        argv = op["argv"]
        flavour = ("-cf" if "--closed-form" in argv else "-stepwise") if argv[0] == "reduce" else ""
        return f'{op["class"]}:{argv[0]}{flavour}'

    ranks = [op["n"] for op in ops]
    sides = [parts_count(op["top"]) for op in ops] + [parts_count(op["bottom"]) for op in ops]
    rank_edges = [1, 11, 21, 31] if workload == "interactive" else [1, 20_000, 40_000, 70_000]
    part_edges = [0, 1, 5, 9, 17] if workload == "interactive" else [0, 1, 9, 200, 500, 800]
    total = len(ops) or 1
    return {
        "ops": len(ops),
        "rank_histogram": _histogram(ranks, rank_edges),
        "parts_per_side_histogram": _histogram(sides, part_edges),
        "series_mix": dict(Counter(op["series"] for op in ops)),
        "op_mix": dict(Counter(kind(op) for op in ops)),
        "repeated_share": sum(op["repeat"] for op in ops) / total,
        "index_zero_share": None if index_zero is None else index_zero / total,
    }
