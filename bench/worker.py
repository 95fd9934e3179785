"""One timed repetition of a workload, in a fresh interpreter.

    python3 bench/worker.py INPUT.json OUTPUT.json [TRACE.json]

INPUT.json holds {"workload", "ops"} as made by workloads.py (load questions
carry their serialized document in "text").  The worker times each op with
one caller and no concurrency, writes every answer as one JSON line to
OUTPUT.json + ".answers" right after the op's timer stops, and writes its
timings to OUTPUT.json.  Answers are checked by the parent process, so no
reference computation runs in this interpreter.  With TRACE.json the public
functions of meandre are wrapped first (see spans.py) and the spans are
written there at the end.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

from checks import descriptor

ROOT = Path(__file__).resolve().parent.parent
TAIL_CHARS = 4096


class TailCapture(io.TextIOBase):
    """Stdout sink keeping the last TAIL_CHARS characters.

    Reduction chains of many-parts descriptors print tens of megabytes;
    only their closing lines carry the answer.
    """

    def __init__(self) -> None:
        self._chunks: list[str] = []
        self._held = 0

    def write(self, s: str) -> int:
        self._chunks.append(s)
        self._held += len(s)
        if self._held > 16 * TAIL_CHARS:
            tail = "".join(self._chunks)[-TAIL_CHARS:]
            self._chunks, self._held = [tail], len(tail)
        return len(s)

    def getvalue(self) -> str:
        return "".join(self._chunks)[-TAIL_CHARS:]


def run_interactive(meandre, op: dict):
    kind = op["op"]
    if kind == "load":
        return meandre.from_json(op["text"]).index
    q = descriptor(meandre, op)
    if kind == "index":
        return meandre.index_a_gl(q) if op["series"] == "A" else meandre.index_c(q)
    if kind in ("reduce", "reduce_cf"):
        return meandre.reduction_chain(q, closed_form=kind == "reduce_cf").total_index
    doc = meandre.document(q)
    if kind == "json":
        return meandre.to_json(doc)
    if kind == "ascii":
        return meandre.to_ascii(doc)
    return meandre.to_dot(doc)


def run_cli(cli, op: dict, full: bool) -> dict:
    out = io.StringIO() if full else TailCapture()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(op["argv"])
    return {"rc": rc, "out": out.getvalue(), "err": err.getvalue()}


def main(argv: list[str]) -> int:
    in_path, out_path = Path(argv[0]), Path(argv[1])
    trace_path = Path(argv[2]) if len(argv) > 2 else None
    spec = json.loads(in_path.read_text())
    workload, ops = spec["workload"], spec["ops"]

    sys.path.insert(0, str(ROOT / "src"))
    started = time.perf_counter()
    import meandre
    import meandre.cli

    import_s = time.perf_counter() - started
    tracer = None
    if trace_path is not None:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    clock = time.perf_counter_ns
    latency_ns: list[int] = []
    with open(str(out_path) + ".answers", "w", encoding="utf-8") as answers:
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.request = i
            t0 = clock()
            try:
                if workload == "interactive":
                    answer = run_interactive(meandre, op)
                else:
                    full = workload != "large" or op["argv"][0] != "reduce"
                    answer = run_cli(meandre.cli, op, full)
            except Exception as exc:  # a failed op is counted, the run goes on
                answer = {"exception": f"{type(exc).__name__}: {exc}"}
            latency_ns.append(clock() - t0)
            answers.write(json.dumps(answer, ensure_ascii=False) + "\n")
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if tracer is not None:
        tracer.dump(trace_path, import_s=import_s)
    out_path.write_text(
        json.dumps(
            {
                "import_s": import_s,
                "latency_ns": latency_ns,
                "peak_rss_kb": peak_rss_kb,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
