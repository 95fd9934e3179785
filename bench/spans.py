"""Tracing from outside the program: spans around meandre's public functions.

`Tracer.install()` replaces each function named in TARGETS, in every loaded
meandre module that holds it, with a wrapper that records one span: a name,
start, end, parent span and request id.  Spans live in flat arrays while the
workload runs and are written as one JSON file at the end.  Counts (graph
vertices, reduction steps by rule, oracle samples, ...) are taken at the same
boundaries from the wrapped calls' arguments and results.

`derive(data)` turns that file into the per-layer metrics named in
BENCHMARK.json.  A target that a later version of meandre no longer has is
skipped, so its metrics read 0 instead of breaking the run.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter

CENSUS_ROW = "enumeration.census_row.n"
CENSUS_ROWS = range(1, 10)

# (module, attribute, span name)
TARGETS = (
    ("meandre.cli", "main", "cli.main"),
    ("meandre.composition", "parse_composition", "composition.parse"),
    ("meandre.composition", "make_seaweed_a", "composition.seaweed"),
    ("meandre.composition", "make_seaweed_c", "composition.seaweed"),
    ("meandre.composition", "symmetrize", "composition.symmetrize"),
    ("meandre.meander", "build_graph_a", "meander.build"),
    ("meandre.meander", "build_graph_c", "meander.build"),
    ("meandre.meander", "analyze", "meander.analyze"),
    ("meandre.index", "index_c", "index.graph_route"),
    ("meandre.index", "index_a_gl", "index.graph_route"),
    ("meandre.index", "index_c_from_report", "index.graph_route"),
    ("meandre.index", "index_a_from_report", "index.graph_route"),
    ("meandre.index", "reduction_chain", "index.chain"),
    ("meandre.oracle", "index_oracle", "oracle.index"),
    ("meandre.oracle", "build_seaweed_matrices", "oracle.build"),
    ("meandre.oracle", "integer_rank", "oracle.rank"),
    ("meandre.enumeration", "frobenius_census", CENSUS_ROW),
    ("meandre.enumeration", "frobenius_seaweeds", CENSUS_ROW),
    ("meandre.io_render", "document", "io_render.document"),
    ("meandre.io_render", "to_json", "io_render.to_json"),
    ("meandre.io_render", "to_ascii", "io_render.to_ascii"),
    ("meandre.io_render", "to_dot", "io_render.to_dot"),
    ("meandre.io_render", "from_json", "io_render.from_json"),
    ("meandre.verify", "check_index_methods", "verify.index_methods"),
    ("meandre.verify", "check_kirillov_oracle", "verify.oracle"),
    ("meandre.verify", "check_structure", "verify.structure"),
    ("meandre.verify", "run_all", "verify.run_all"),
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.req = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.request = 0
        self.counts: Counter[str] = Counter()
        self._oracle_ranks: list[list[int]] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, after=None):
        """Return `fn` recording a span per call; `after(sid, args, result)`
        takes counts once the call has returned."""
        fixed = None if name == CENSUS_ROW else self._intern(name)
        names, parents, reqs = self.name, self.parent, self.req
        starts, ends, stack = self.start, self.end, self.stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            nid = fixed
            if nid is None:
                n = args[0] if args else kwargs["n"]
                nid = tracer._intern(f"{CENSUS_ROW}{n}")
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            reqs.append(tracer.request)
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if after is not None:
                after(sid, args, result)
            return result

        return traced

    # --- counts taken at span boundaries ---------------------------------

    def _after_analyze(self, sid, args, report) -> None:
        self.counts["meander.vertices"] += args[0].vertex_count
        self.counts["meander.components"] += len(report.components)

    def _after_chain(self, sid, args, chain) -> None:
        for step in chain.steps:
            self.counts[f"index.steps.{step.rule.name.lower()}"] += 1

    def _after_graph_route(self, sid, args, index) -> None:
        parent = self.parent[sid]
        if parent >= 0 and self.names[self.name[parent]].startswith(CENSUS_ROW):
            self.counts["enumeration.pairs_examined"] += 1
            self.counts["enumeration.frobenius_found"] += index == 0

    def _count_oracle_samples(self, fn):
        def oracle(*args, **kwargs):
            self._oracle_ranks.append([])
            try:
                return fn(*args, **kwargs)
            finally:
                ranks = self._oracle_ranks.pop()
                self.counts["oracle.calls"] += 1
                self.counts["oracle.samples"] += len(ranks)
                self.counts["oracle.first_sample_full"] += bool(ranks) and ranks[0] == max(ranks)

        return oracle

    def _after_rank(self, sid, args, rank) -> None:
        if self._oracle_ranks:
            self._oracle_ranks[-1].append(rank)

    def _after_render(self, sid, args, text) -> None:
        self.counts["io_render.bytes_out"] += len(text.encode("utf-8"))

    def _after_run_all(self, sid, args, results) -> None:
        self.counts["verify.checks_failed"] += sum(not r.passed for r in results)

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "meandre"]
        after = {
            "meander.analyze": self._after_analyze,
            "index.chain": self._after_chain,
            "oracle.rank": self._after_rank,
            "io_render.to_json": self._after_render,
            "io_render.to_ascii": self._after_render,
            "io_render.to_dot": self._after_render,
            "verify.run_all": self._after_run_all,
        }
        for module_name, attr, span in TARGETS:
            module = sys.modules.get(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            hook = after.get(span)
            if span == "index.graph_route" and attr in ("index_c", "index_a_gl"):
                hook = self._after_graph_route
            traced = self.wrap(span, original, hook)
            if span == "oracle.index":
                traced = self._count_oracle_samples(traced)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, traced)
        graph = getattr(sys.modules.get("meandre.meander"), "MeanderGraph", None)
        if graph is not None and "__post_init__" in vars(graph):
            graph.__post_init__ = self.wrap("meander.graph_validate", graph.__post_init__)

    def dump(self, path, **extra) -> None:
        enumeration = sys.modules.get("meandre.enumeration")
        cached = getattr(enumeration, "_frobenius_by_k", None)
        if hasattr(cached, "cache_info"):
            info = cached.cache_info()
            self.counts["enumeration.cache_hits"] += info.hits
            self.counts["enumeration.cache_misses"] += info.misses
        data = {
            "names": self.names,
            "spans": {
                "name": self.name.tolist(),
                "parent": self.parent.tolist(),
                "request": self.req.tolist(),
                "start_ns": self.start.tolist(),
                "end_ns": self.end.tolist(),
            },
            "counts": dict(self.counts),
            **extra,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, separators=(",", ":"))


def span_totals(data: dict) -> dict[str, dict[str, float]]:
    """Per span name: calls and busy seconds of the outermost spans of that
    name (a span inside one of the same name is not counted twice), and self
    seconds (each span minus the child spans it covers)."""
    spans = data["spans"]
    name, parent = spans["name"], spans["parent"]
    dur = [e - s for s, e in zip(spans["start_ns"], spans["end_ns"])]
    child = [0] * len(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += dur[i]
    totals = {n: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for n in data["names"]}
    for i, nid in enumerate(name):
        entry = totals[data["names"][nid]]
        entry["self_s"] += (dur[i] - child[i]) / 1e9
        p = parent[i]
        while p >= 0 and name[p] != nid:
            p = parent[p]
        if p < 0:
            entry["calls"] += 1
            entry["busy_s"] += dur[i] / 1e9
    return totals


def derive(data: dict) -> dict[str, float]:
    """Every per-layer metric of BENCHMARK.json except trace.overhead_ratio,
    which needs an untraced run to compare with."""
    totals = span_totals(data)
    counts = data["counts"]

    def span(name: str, field: str) -> float:
        return totals.get(name, {}).get(field, 0)

    oracle_calls = counts.get("oracle.calls", 0)
    examined = counts.get("enumeration.pairs_examined", 0)
    found = counts.get("enumeration.frobenius_found", 0)
    metrics = {
        "cli.main.calls": span("cli.main", "calls"),
        "cli.main.self_s": span("cli.main", "self_s"),
        "cli.import_s": data["import_s"],
        "composition.parse.calls": span("composition.parse", "calls"),
        "composition.parse.busy_s": span("composition.parse", "busy_s"),
        "composition.seaweed.calls": span("composition.seaweed", "calls"),
        "composition.symmetrize.busy_s": span("composition.symmetrize", "busy_s"),
        "meander.build.calls": span("meander.build", "calls"),
        "meander.build.busy_s": span("meander.build", "busy_s"),
        "meander.graph_validate.busy_s": span("meander.graph_validate", "busy_s"),
        "meander.analyze.calls": span("meander.analyze", "calls"),
        "meander.analyze.busy_s": span("meander.analyze", "busy_s"),
        "meander.vertices": counts.get("meander.vertices", 0),
        "meander.components": counts.get("meander.components", 0),
        "index.graph_route.calls": span("index.graph_route", "calls"),
        "index.graph_route.self_s": span("index.graph_route", "self_s"),
        "index.chain.calls": span("index.chain", "calls"),
        "index.chain.busy_s": span("index.chain", "busy_s"),
        "index.steps.split_equal": counts.get("index.steps.split_equal", 0),
        "index.steps.case_small": counts.get("index.steps.case_small", 0),
        "index.steps.case_large": counts.get("index.steps.case_large", 0),
        "index.steps.closed_form": counts.get("index.steps.closed_form", 0),
        "oracle.build.calls": span("oracle.build", "calls"),
        "oracle.build.busy_s": span("oracle.build", "busy_s"),
        "oracle.rank.calls": span("oracle.rank", "calls"),
        "oracle.rank.busy_s": span("oracle.rank", "busy_s"),
        "oracle.samples": counts.get("oracle.samples", 0),
        "oracle.first_sample_full_ratio": (
            counts.get("oracle.first_sample_full", 0) / oracle_calls if oracle_calls else 0.0
        ),
    }
    for n in CENSUS_ROWS:
        metrics[f"enumeration.census_row.n{n}.busy_s"] = span(f"{CENSUS_ROW}{n}", "busy_s")
    metrics.update(
        {
            "enumeration.pairs_examined": examined,
            "enumeration.frobenius_found": found,
            "enumeration.useful_ratio": found / examined if examined else 0.0,
            "enumeration.cache_hits": counts.get("enumeration.cache_hits", 0),
            "enumeration.cache_misses": counts.get("enumeration.cache_misses", 0),
            "io_render.document.calls": span("io_render.document", "calls"),
            "io_render.document.busy_s": span("io_render.document", "busy_s"),
            "io_render.to_json.busy_s": span("io_render.to_json", "busy_s"),
            "io_render.to_ascii.busy_s": span("io_render.to_ascii", "busy_s"),
            "io_render.to_dot.busy_s": span("io_render.to_dot", "busy_s"),
            "io_render.from_json.busy_s": span("io_render.from_json", "busy_s"),
            "io_render.bytes_out": counts.get("io_render.bytes_out", 0),
            "verify.index_methods.busy_s": span("verify.index_methods", "busy_s"),
            "verify.oracle.busy_s": span("verify.oracle", "busy_s"),
            "verify.structure.busy_s": span("verify.structure", "busy_s"),
            "verify.checks_failed": counts.get("verify.checks_failed", 0),
            "trace.spans": len(data["spans"]["name"]),
        }
    )
    return metrics
