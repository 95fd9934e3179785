"""Cross-verification suites.

Three families of checks, all exact:

* the three index routes (graph count, case-by-case reduction, closed-form
  reduction) agree on every descriptor up to a rank bound;
* the Kirillov-form oracle agrees with the graph count (exhaustively at
  small rank, sampled one rank higher);
* the structural facts behind the Frobenius census: the one-full-side
  shape (whose full 4^n scans are the reference for the census count and
  its listing, class for class), component structure, the rank-raising
  embeddings, tail stabilization and the gl(n) transfer counts.

The exhaustive scans over all pairs of sides (index methods, the one
full side, the gl transfer) and the expected values of the oracle's
exhaustive pass take their graph counts from `meander.pair_counts`, which
builds each side's half of the graph once per rank instead of once per pair.

Each check returns a CheckResult with a minimal counterexample on failure.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .composition import SeaweedC, canonical_pair, symmetrize
from .enumeration import (
    CensusRow,
    compositions_of,
    frobenius_census,
    frobenius_seaweeds,
    hat_map,
    embed_up,
    rank_sides,
    to_type_a,
)
from .index import component_counts, index_a_gl, index_c, reduction_chain
from .meander import analyze, build_graph_c, pair_counts
from .oracle import SAMPLES, index_oracle


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str
    counterexample: str | None = None

    def __str__(self) -> str:
        status = "ok" if self.passed else "FAIL"
        tail = f" -- counterexample: {self.counterexample}" if self.counterexample else ""
        return f"{self.name}: {status} ({self.detail}){tail}"


def _fail(name: str, detail: str, q) -> CheckResult:
    return CheckResult(name, False, detail, counterexample=str(q))


def check_index_methods(max_n: int) -> CheckResult:
    """Graph count == case-by-case reduction == closed-form reduction, and
    the graph's counts == `component_counts`, the route `meandre index` prints."""
    name = "index-methods-agree"
    checked = 0
    for n in range(1, max_n + 1):
        sides = rank_sides(n)
        for top, bottom, counts in pair_counts(sides, sides, n):
            q = SeaweedC(n, top, bottom)
            graph = counts.index
            stepwise = reduction_chain(q).total_index
            closed = reduction_chain(q, closed_form=True).total_index
            if not graph == stepwise == closed:
                return _fail(
                    name,
                    f"graph {graph}, stepwise {stepwise}, closed form {closed}",
                    q,
                )
            if (walked := component_counts(q)) != counts:
                return _fail(name, f"graph {counts}, walk {walked}", q)
            checked += 1
    return CheckResult(name, True, f"{checked} seaweeds up to rank {max_n}")


def check_kirillov_oracle(max_n: int, seed: int) -> CheckResult:
    """Kirillov-form rank oracle == graph count.

    Exhaustive up to max_n, plus 50 descriptors sampled without replacement
    at rank max_n + 1 (all of them when that rank has fewer).  Each seaweed
    gets its own oracle seed, and with it `oracle.SAMPLES` random forms; all
    randomness derives from `seed`.
    """
    name = "kirillov-oracle-agrees"
    rng = random.Random(seed)
    pool: list[tuple[SeaweedC, int]] = []  # each seaweed with its graph-route index
    for n in range(1, max_n + 1):
        sides = rank_sides(n)
        pairs = pair_counts(sides, sides, n)
        pool.extend((SeaweedC(n, top, bottom), counts.index) for top, bottom, counts in pairs)
    sample_rank = max_n + 1
    sides = rank_sides(sample_rank)
    m = len(sides)
    sampled = min(50, m * m)
    # The draws of sampling `seaweed_pairs(sample_rank)`, without listing it.
    for top, bottom in (divmod(i, m) for i in rng.sample(range(m * m), sampled)):
        q = SeaweedC(sample_rank, sides[top], sides[bottom])
        pool.append((q, index_c(q)))
    for q, expected in pool:
        got = index_oracle(q, seed=rng.randrange(2**30))
        if got != expected:
            return _fail(name, f"oracle {got}, graph {expected}", q)
    return CheckResult(
        name,
        True,
        f"{len(pool)} seaweeds (exhaustive to rank {max_n}, "
        f"{sampled} sampled at rank {sample_rank}), {SAMPLES} samples each",
    )


def _check_one_full_side(census_max_n: int) -> CheckResult:
    name = "frobenius-one-full-side"
    for n in range(1, census_max_n + 1):
        by_k: dict[int, set[SeaweedC]] = {}
        ordered = [0] * n  # index-0 ordered pairs by k, for `census --ordered`
        sides = rank_sides(n)
        for top, bottom, counts in pair_counts(sides, sides, n):
            if counts.index != 0:
                continue
            q = SeaweedC(n, top, bottom)
            full_sides = (top.total == n) + (bottom.total == n)
            if full_sides != 1:
                return _fail(name, f"index 0 with {full_sides} full sides", q)
            k = n - min(top.total, bottom.total)
            by_k.setdefault(k, set()).add(canonical_pair(q))
            ordered[k - 1] += 1
        for k, count in enumerate(frobenius_census(n).by_k, 1):
            scanned, listed = by_k.get(k, set()), frobenius_seaweeds(n, k)
            if not (len(scanned) == len(listed) == count and scanned == set(listed)):
                odd = min(map(str, scanned.symmetric_difference(listed)), default=None)
                sizes = f"full scan {len(scanned)}, listing {len(listed)}, census {count}"
                return CheckResult(name, False, f"at n={n}, k={k}: {sizes}", odd)
        if (row := frobenius_census(n, ordered=True).by_k) != tuple(ordered):
            detail = f"at n={n}: ordered scan {ordered}, census --ordered {list(row)}"
            return CheckResult(name, False, detail)
    return CheckResult(
        name,
        True,
        f"full 4^n scans to rank {census_max_n} match the census DP",
    )


def _check_component_structure(census_max_n: int) -> CheckResult:
    name = "frobenius-component-structure"
    checked = 0
    for n in range(1, census_max_n + 1):
        for k in range(1, n + 1):
            for q in frobenius_seaweeds(n, k):
                report = analyze(build_graph_c(q))
                if report.counts != (0, k, 0, True) or report.total_arcs != 2 * n - k:
                    return _fail(
                        name,
                        f"{len(report.components)} components, "
                        f"{report.counts.stable} stable, "
                        f"{report.total_arcs} arcs (expected {k} stable segments, "
                        f"{2 * n - k} arcs)",
                        q,
                    )
                checked += 1
    return CheckResult(
        name,
        True,
        f"{checked} index-0 graphs: k mirror-stable segments and 2n-k arcs",
    )


def _check_embedding(census_max_n: int) -> CheckResult:
    name = "rank-raising-embedding"
    for n in range(1, census_max_n):
        images: set[SeaweedC] = set()
        for k in range(1, n + 1):
            targets = set(frobenius_seaweeds(n + 1, k + 1))
            for q in frobenius_seaweeds(n, k):
                up = embed_up(q)
                if embed_up(q.swap()) != up.swap():
                    return _fail(name, "image depends on the side order", q)
                image = canonical_pair(up)
                if image not in targets:
                    return _fail(name, f"image not among rank {n + 1} classes", q)
                images.add(image)
        row, next_row = frobenius_census(n), frobenius_census(n + 1)
        if len(images) != row.total:
            return CheckResult(
                name, False, f"not injective at n={n}: {len(images)} != {row.total}"
            )
        if not next_row.total > row.total:
            return CheckResult(
                name, False, f"census not strictly increasing at n={n}"
            )
    return CheckResult(
        name,
        True,
        f"injective into the next rank and census strictly increasing to {census_max_n}",
    )


def _check_single_arc_gl_index(census_max_n: int) -> CheckResult:
    name = "single-central-arc-gl-index"
    checked = 0
    for n in range(1, census_max_n + 1):
        for q in frobenius_seaweeds(n, 1):
            if index_a_gl(symmetrize(q)) != 1:
                return _fail(name, "doubled graph is not a single segment", q)
            checked += 1
    return CheckResult(
        name, True, f"{checked} doubled graphs are single segments of gl index 1"
    )


def _check_single_arc_growth(census_max_n: int) -> CheckResult:
    name = "single-central-arc-growth"
    for n in range(1, census_max_n):
        images = {canonical_pair(hat_map(q)) for q in frobenius_seaweeds(n, 1)}
        ends_in_two = {
            q for q in frobenius_seaweeds(n + 1, 1) if q.top.parts[-1] == 2
        }
        if images != ends_in_two:
            return CheckResult(
                name,
                False,
                f"image mismatch at n={n}: {len(images)} images, "
                f"{len(ends_in_two)} full sides ending in 2",
            )
        if len(images) != len(frobenius_seaweeds(n, 1)):
            return CheckResult(name, False, f"not injective at n={n}")
        if n >= 2 and not len(frobenius_seaweeds(n + 1, 1)) > len(
            frobenius_seaweeds(n, 1)
        ):
            return CheckResult(name, False, f"k=1 count not strictly growing at n={n}")
    return CheckResult(
        name,
        True,
        "image = full sides ending in 2; k=1 counts strictly grow from rank 2",
    )


def _check_type_a_transfer(census_max_n: int) -> CheckResult:
    name = "type-a-transfer-counts"
    for n in range(1, census_max_n + 1):
        found = {1: 0, 2: 0}
        comps = list(compositions_of(n))
        tops = [top for top in comps if top.parts[-1] in (1, 2)]
        for top, _, counts in pair_counts(tops, comps):
            found[top.parts[-1]] += counts.index == 1
        row = frobenius_census(n)
        for k in range(1, min(n, 2) + 1):
            if found[k] != row.by_k[k - 1]:
                return CheckResult(
                    name,
                    False,
                    f"n={n}, k={k}: {found[k]} single-segment gl graphs with "
                    f"last top part {k}, census says {row.by_k[k - 1]}",
                )
            # Sanity: the transfer really lands on those graphs.
            for q in frobenius_seaweeds(n, k):
                image = to_type_a(q)
                if image.top.parts[-1] != k or index_a_gl(image) != 1:
                    return _fail(name, "transfer image not a single segment", q)
    return CheckResult(
        name,
        True,
        f"ordered single-segment gl-graph counts match the census for k = 1, 2 "
        f"up to rank {census_max_n}",
    )


def _check_tail_stabilization(rows: dict[int, CensusRow]) -> CheckResult:
    name = "tail-stabilization"
    max_n = len(rows)
    max_m = (max_n - 1) // 2
    for m in range(0, max_m + 1):
        base = 2 * m + 1
        expected = rows[base].by_k[base - m - 1]
        for n in range(base, max_n + 1):
            got = rows[n].by_k[n - m - 1]
            if got != expected:
                return CheckResult(
                    name,
                    False,
                    f"count at (n={n}, k={n - m}) is {got}, expected {expected}",
                )
    return CheckResult(
        name,
        True,
        f"counts at k = n-m stabilise from rank 2m+1 on, for m <= {max_m}, "
        f"to rank {max_n}",
    )


def _check_tail_recurrences(rows: dict[int, CensusRow]) -> CheckResult:
    name = "tail-recurrences"
    max_n = len(rows)
    max_m = (max_n - 1) // 2
    for m in range(1, max_m + 1):
        odd = rows[2 * m + 1].by_k[m]
        even = rows[2 * m].by_k[m - 1]
        if odd != even + 1:
            return CheckResult(
                name, False, f"m={m}: count {odd} at rank {2 * m + 1} != {even} + 1"
            )
    if max_n >= 6 and rows[6].by_k[2] != rows[5].by_k[1] + 3:
        return CheckResult(
            name,
            False,
            f"(n=6, k=3) count {rows[6].by_k[2]} != (n=5, k=2) count + 3",
        )
    return CheckResult(name, True, f"odd/even tail recurrences hold for m <= {max_m}")


def _check_small_defect_closed_forms(rows: dict[int, CensusRow]) -> CheckResult:
    name = "small-defect-closed-forms"
    max_n = len(rows)
    for n, row in rows.items():
        if row.by_k[n - 1] != 1:
            return CheckResult(name, False, f"count at k=n is {row.by_k[n - 1]} at n={n}")
        if n >= 2:
            expected = 1 if n == 2 else 2
            if row.by_k[n - 2] != expected:
                return CheckResult(
                    name, False, f"count at k=n-1 is {row.by_k[n - 2]} at n={n}"
                )
        if n >= 3:
            expected = {3: 2, 4: 4}.get(n, 5)
            if row.by_k[n - 3] != expected:
                return CheckResult(
                    name, False, f"count at k=n-2 is {row.by_k[n - 3]} at n={n}"
                )
    return CheckResult(
        name, True, f"k = n, n-1, n-2 counts match their closed forms to rank {max_n}"
    )


def check_structure(census_max_n: int) -> list[CheckResult]:
    """The census-level checks; per-element ones range to census_max_n, the
    row-level tail identities share the census rows 1..max(census_max_n, 9)."""
    rows = {n: frobenius_census(n) for n in range(1, max(census_max_n, 9) + 1)}
    return [
        _check_one_full_side(census_max_n),
        _check_component_structure(census_max_n),
        _check_embedding(census_max_n),
        _check_single_arc_gl_index(census_max_n),
        _check_single_arc_growth(census_max_n),
        _check_type_a_transfer(census_max_n),
        _check_tail_stabilization(rows),
        _check_tail_recurrences(rows),
        _check_small_defect_closed_forms(rows),
    ]


def run_all(max_n: int, oracle_max_n: int, census_max_n: int, seed: int) -> list[CheckResult]:
    results = [check_index_methods(max_n), check_kirillov_oracle(oracle_max_n, seed)]
    results.extend(check_structure(census_max_n))
    return results
