"""Answer checking, run in the parent process after each repetition.

Every answer is compared with a route other than the one that produced it:

* sp/so index answers against the closed-form reduction chain;
* reduction answers against the graph count;
* gl answers through a to_json -> from_json round trip;
* the census table against the pinned rows 1-9;
* verify must exit 0 with every check "ok".

References are cached per descriptor, so repeated descriptors cost one
computation.  A check returns None when the answer is right and a short
reason when it is not.
"""

from __future__ import annotations

import json
import re

# Frobenius class counts by rank n (row) and central-arc count k (column).
PINNED_ROWS = (
    (1,),
    (1, 1),
    (2, 2, 1),
    (4, 4, 2, 1),
    (8, 10, 5, 2, 1),
    (15, 20, 13, 5, 2, 1),
    (28, 44, 28, 14, 5, 2, 1),
    (52, 86, 65, 31, 14, 5, 2, 1),
    (93, 173, 136, 74, 32, 14, 5, 2, 1),
)

_INDEX_LINE = re.compile(r"^index: (-?\d+)$", re.MULTILINE)
_VERIFY_LINE = re.compile(r"^[a-z0-9-]+: ok \(")


def descriptor(meandre, op: dict):
    if op["series"] == "A":
        return meandre.make_seaweed_a(op["top"], op["bottom"])
    series = meandre.Series.SP if op["series"] == "C" else meandre.Series.SO_ODD
    return meandre.make_seaweed_c(op["n"], op["top"], op["bottom"], series)


def expected_arcs(op: dict) -> int:
    """Arc count of the meander graph, from the compositions alone."""

    def half_parts(text: str) -> int:
        return sum(int(p) // 2 for p in text.split(",")) if text else 0

    def total(text: str) -> int:
        return sum(int(p) for p in text.split(",")) if text else 0

    if op["series"] == "A":
        return half_parts(op["top"]) + half_parts(op["bottom"])
    # Doubled side (c, 2d, reversed c): twice the side's arcs plus d central ones.
    return sum(2 * half_parts(side) + op["n"] - total(side) for side in (op["top"], op["bottom"]))


class Checker:
    def __init__(self, meandre) -> None:
        self.meandre = meandre
        self._refs: dict[tuple, int] = {}

    def _ref(self, route: str, op: dict) -> int:
        key = (route, op["series"], op["n"], op["top"], op["bottom"])
        if key not in self._refs:
            m = self.meandre
            q = descriptor(m, op)
            if route == "closed":
                value = m.reduction_chain(q, closed_form=True).total_index
            elif route == "graph":
                value = m.index_c(q)
            else:  # gl round trip
                value = m.from_json(m.to_json(m.document(q))).index
            self._refs[key] = value
        return self._refs[key]

    def reference_index(self, op: dict) -> int:
        """The index by a route no workload op uses for its own answer."""
        return self._ref("roundtrip" if op["series"] == "A" else "closed", op)

    def interactive(self, op: dict, answer) -> str | None:
        if isinstance(answer, dict):
            return answer.get("exception", "unexpected answer")
        kind = op["op"]
        if kind in ("reduce", "reduce_cf"):
            expected = self._ref("graph", op)
            return None if answer == expected else f"reduction {answer}, graph {expected}"
        expected = self.reference_index(op)
        if kind in ("index", "load"):
            return None if answer == expected else f"{kind} {answer}, reference {expected}"
        if kind == "json":
            try:
                got = self.meandre.from_json(answer).index
            except ValueError as exc:
                return f"json does not load: {exc}"
            return None if got == expected else f"json index {got}, reference {expected}"
        vertices = op["n"] if op["series"] == "A" else 2 * op["n"]
        if kind == "ascii":
            stars = answer.count("*")
            return None if stars == vertices else f"ascii has {stars} vertices, expected {vertices}"
        edges = answer.count(" -- ")
        header = f"; index {expected}\n"
        if header not in answer:
            return f"dot header lacks '{header.strip()}'"
        arcs = expected_arcs(op)
        return None if edges == arcs else f"dot has {edges} arcs, expected {arcs}"

    def large(self, op: dict, answer: dict) -> str | None:
        if "exception" in answer:
            return answer["exception"]
        if answer["rc"] != 0:
            return f"exit {answer['rc']}: {answer['err'].strip()[-200:]}"
        command = op["argv"][0]
        if command == "graph":
            data = json.loads(answer["out"])
            expected = self._ref("closed", op)
            if data["vertices"] != 2 * op["n"]:
                return f"graph has {data['vertices']} vertices, expected {2 * op['n']}"
            return None if data["index"] == expected else f"graph index {data['index']}, closed form {expected}"
        found = _INDEX_LINE.findall(answer["out"])
        if not found:
            return "no 'index:' line in the output"
        got = int(found[-1])
        expected = self._ref("graph" if command == "reduce" else "closed", op)
        return None if got == expected else f"{command} {got}, reference {expected}"


def census_rows(text: str) -> list[tuple[int, ...]]:
    """Rows of the census text table, by_k values only."""
    rows = []
    for line in text.splitlines()[1:]:
        left = line.split("|")[0].split()
        rows.append(tuple(int(v) for v in left[1:] if v != "-"))
    return rows


def census(op: dict, answer: dict) -> str | None:
    if "exception" in answer:
        return answer["exception"]
    if answer["rc"] != 0:
        return f"exit {answer['rc']}"
    n = int(op["argv"][op["argv"].index("--n") + 1])
    rows = census_rows(answer["out"])
    if rows != list(PINNED_ROWS[:n]):
        return f"census rows {rows} differ from the pinned rows 1-{n}"
    return None


def verify(op: dict, answer: dict) -> str | None:
    if "exception" in answer:
        return answer["exception"]
    lines = answer["out"].splitlines()
    if answer["rc"] != 0 or not lines or not lines[-1].startswith("verify: PASS"):
        return f"exit {answer['rc']}: {(answer['err'] or answer['out']).strip()[-200:]}"
    bad = [line for line in lines[:-1] if not _VERIFY_LINE.match(line)]
    return f"checks not ok: {bad}" if bad else None
