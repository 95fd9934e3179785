"""Cross-verification suites.

Three families of checks, all exact:

* the three index routes (graph count, case-by-case reduction, closed-form
  reduction) agree on every descriptor up to a rank bound;
* the Kirillov-form oracle agrees with the graph count (exhaustively at
  small rank, sampled one rank higher);
* the structural facts behind the Frobenius census: the one-full-side
  shape (whose full 4^n scans are the reference for the census DP),
  component structure, the rank-raising embeddings, tail
  stabilization and the gl(n) transfer counts.

Each check returns a CheckResult with a minimal counterexample on failure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .composition import SeaweedA, SeaweedC, canonical_pair, symmetrize
from .enumeration import (
    compositions_of,
    frobenius_census,
    frobenius_seaweeds,
    hat_map,
    embed_up,
    seaweed_pairs,
    to_type_a,
)
from .index import index_a_gl, index_c, reduction_chain
from .meander import analyze, build_graph_c
from .oracle import index_oracle

ORACLE_SAMPLES = 5  # random Kirillov forms per seaweed in check_kirillov_oracle


@dataclass(frozen=True)
class CheckResult:
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
    """Graph count == case-by-case reduction == closed-form reduction."""
    name = "index-methods-agree"
    checked = 0
    for n in range(1, max_n + 1):
        for q in seaweed_pairs(n):
            graph = index_c(q)
            stepwise = reduction_chain(q).total_index
            closed = reduction_chain(q, closed_form=True).total_index
            if not graph == stepwise == closed:
                return _fail(
                    name,
                    f"graph {graph}, stepwise {stepwise}, closed form {closed}",
                    q,
                )
            checked += 1
    return CheckResult(name, True, f"{checked} seaweeds up to rank {max_n}")


def check_kirillov_oracle(max_n: int, seed: int) -> CheckResult:
    """Kirillov-form rank oracle == graph count.

    Exhaustive up to max_n, plus 50 descriptors sampled without replacement
    at rank max_n + 1 (all of them when that rank has fewer), each given
    ORACLE_SAMPLES random forms; all randomness derives from `seed`.
    """
    name = "kirillov-oracle-agrees"
    rng = random.Random(seed)
    pool: list[SeaweedC] = []
    for n in range(1, max_n + 1):
        pool.extend(seaweed_pairs(n))
    sample_rank = max_n + 1
    above = list(seaweed_pairs(sample_rank))
    sampled = min(50, len(above))
    pool.extend(rng.sample(above, sampled))
    for q in pool:
        expected = index_c(q)
        got = index_oracle(q, ORACLE_SAMPLES, seed=rng.randrange(2**30))
        if got != expected:
            return _fail(name, f"oracle {got}, graph {expected}", q)
    return CheckResult(
        name,
        True,
        f"{len(pool)} seaweeds (exhaustive to rank {max_n}, "
        f"{sampled} sampled at rank {sample_rank}), {ORACLE_SAMPLES} samples each",
    )


def _check_one_full_side(census_max_n: int) -> CheckResult:
    name = "frobenius-one-full-side"
    for n in range(1, census_max_n + 1):
        by_k: dict[int, set[SeaweedC]] = {}
        for q in seaweed_pairs(n):
            if index_c(q) != 0:
                continue
            full_sides = (q.top.total == n) + (q.bottom.total == n)
            if full_sides != 1:
                return _fail(name, f"index 0 with {full_sides} full sides", q)
            k = n - min(q.top.total, q.bottom.total)
            by_k.setdefault(k, set()).add(canonical_pair(q))
        row = frobenius_census(n)
        scanned = tuple(len(by_k.get(k, ())) for k in range(1, n + 1))
        if scanned != row.by_k:
            return CheckResult(
                name, False, f"full scan {scanned} != census {row.by_k} at n={n}"
            )
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
                image = canonical_pair(embed_up(q))
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
        for top in comps:
            last = top.parts[-1]
            if last not in (1, 2):
                continue
            for bottom in comps:
                if index_a_gl(SeaweedA(top, bottom)) == 1:
                    found[last] += 1
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


def _check_tail_stabilization(max_n: int) -> CheckResult:
    name = "tail-stabilization"
    rows = {n: frobenius_census(n) for n in range(1, max_n + 1)}
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


def _check_tail_recurrences(max_n: int) -> CheckResult:
    name = "tail-recurrences"
    rows = {n: frobenius_census(n) for n in range(1, max_n + 1)}
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


def _check_small_defect_closed_forms(max_n: int) -> CheckResult:
    name = "small-defect-closed-forms"
    for n in range(1, max_n + 1):
        row = frobenius_census(n)
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
    row-level tail identities to max(census_max_n, 9)."""
    rows_max_n = max(census_max_n, 9)
    return [
        _check_one_full_side(census_max_n),
        _check_component_structure(census_max_n),
        _check_embedding(census_max_n),
        _check_single_arc_gl_index(census_max_n),
        _check_single_arc_growth(census_max_n),
        _check_type_a_transfer(census_max_n),
        _check_tail_stabilization(rows_max_n),
        _check_tail_recurrences(rows_max_n),
        _check_small_defect_closed_forms(rows_max_n),
    ]


def run_all(max_n: int, oracle_max_n: int, census_max_n: int, seed: int) -> list[CheckResult]:
    results = [check_index_methods(max_n), check_kirillov_oracle(oracle_max_n, seed)]
    results.extend(check_structure(census_max_n))
    return results
