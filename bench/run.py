"""The meandre benchmark: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload interactive --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Run from the root of a source checkout.  The load is one closed loop with
one caller: each repetition of the workload runs in a fresh interpreter
(bench/worker.py) and the next starts only after the previous one ended and
its answers were checked.  A new repetition starts only while it is expected
to end within --seconds.

--trace 0 prints every end-to-end metric of BENCHMARK.json; --trace 1 runs
pairs of untraced and traced repetitions on the same inputs and prints every
per-layer metric, derived from the span file of the first traced repetition,
plus the tracing overhead.  The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}; the full result, input
properties included, is saved under bench/results/ for compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402
from workloads import FEW_PARTS, GENERATORS, WORKLOADS, input_properties, parts_count  # noqa: E402

SETUP_PROBES = 4  # before the repetitions and again after them, so drift during a run shows in both halves
SETUP_ARGV = ["index", "--series", "C", "--n", "10", "--top", "3,3", "--bottom", "4,5"]
WORKER_TIMEOUT_S = 150


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (q in 0..100)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def measure_setup(probes: int, warm_up: bool) -> list[float]:
    """Wall times of fresh interpreters importing meandre.cli and answering
    one index query.  A warm-up start first compiles the bytecode, which
    users pay once, not per run."""
    code = (
        "import sys; from meandre.cli import main; "
        f"sys.exit(main({SETUP_ARGV!r}))"
    )
    times = []
    for probe in range(probes + warm_up):
        started = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=_child_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        elapsed = time.perf_counter() - started
        if done.returncode != 0 or "index: 1" not in done.stdout:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-300:]}")
        if probe or not warm_up:
            times.append(elapsed)
    return times


def prepare(meandre, workload: str, ops: list[dict]) -> None:
    """Serialize the documents that interactive load questions read, so the
    timed loads parse input made before the repetition starts."""
    if workload != "interactive":
        return
    for op in ops:
        if op["op"] == "load":
            op["text"] = meandre.to_json(meandre.document(checks.descriptor(meandre, op)))


def run_worker(work: Path, workload: str, ops: list[dict], tag: str, trace: Path | None) -> dict:
    in_path, out_path = work / f"{tag}.in.json", work / f"{tag}.out.json"
    in_path.write_text(json.dumps({"workload": workload, "ops": ops}))
    cmd = [sys.executable, str(HERE / "worker.py"), str(in_path), str(out_path)]
    if trace is not None:
        cmd.append(str(trace))
    started = time.perf_counter()
    done = subprocess.run(cmd, env=_child_env(), capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    wall = time.perf_counter() - started
    if done.returncode != 0:
        raise RuntimeError(f"worker failed: {done.stderr.strip()[-500:]}")
    result = json.loads(out_path.read_text())
    result["wall_s"] = wall
    answers_path = Path(str(out_path) + ".answers")
    with open(answers_path, encoding="utf-8") as fh:
        result["answers"] = [json.loads(line) for line in fh]
    for path in (in_path, out_path, answers_path):
        path.unlink()
    return result


def check_answers(checker: checks.Checker, workload: str, ops: list[dict], answers: list) -> tuple[int, int, list[str]]:
    """(failed, index-0 answers, first reasons) for one repetition; marks
    each failed op with "failed"."""
    failed, zero, reasons = 0, 0, []
    for op, answer in zip(ops, answers):
        if workload == "interactive":
            reason = checker.interactive(op, answer)
        elif workload == "large":
            reason = checker.large(op, answer)
        else:
            reason = getattr(checks, workload)(op, answer)
        if reason is None and workload in ("interactive", "large") and checker.reference_index(op) == 0:
            zero += 1
        if reason is not None:
            op["failed"] = True
            failed += 1
            if len(reasons) < 5:
                reasons.append(f"{op.get('argv') or op['op']}: {reason}")
    return failed, zero, reasons


def index_class(workload: str, op: dict) -> str | None:
    """The class, "few" or "many", of an index question; None for other ops.

    The class metrics time index questions only: those are what a change of
    index route moves, and one op kind keeps each class median in one
    cluster of costs.
    """
    if workload == "large" and op["argv"][0] == "index":
        return op["class"]
    if workload == "interactive" and op["op"] == "index":
        most = max(parts_count(op["top"]), parts_count(op["bottom"]))
        return "few" if most <= FEW_PARTS else "many"
    return None


class Run:
    """Repetitions of one workload on one seed, with checked answers."""

    def __init__(self, args, meandre) -> None:
        self.args = args
        self.workload = args.workload
        self.generate = GENERATORS[args.workload]
        self.checker = checks.Checker(meandre)
        self.meandre = meandre
        self.work = Path(args.out) / f"work-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.ops: list[dict] = []
        self.reps: list[dict] = []
        self.failed = 0
        self.busy_ms = 0.0  # time spent in recorded ops, failed ones too
        self.index_zero = 0
        self.reasons: list[str] = []

    def rep(self, number: int, trace: Path | None = None, record: bool = True) -> dict:
        ops = self.generate(self.args.seed, number)
        prepare(self.meandre, self.workload, ops)
        result = run_worker(self.work, self.workload, ops, f"rep{number}-{trace is not None}", trace)
        failed, zero, reasons = check_answers(self.checker, self.workload, ops, result.pop("answers"))
        self.failed += failed
        self.reasons.extend(reasons[: 5 - len(self.reasons)])
        if record:
            self.ops.extend(ops)
            self.index_zero += zero
            for op, ns in zip(ops, result["latency_ns"]):
                op["latency_ms"] = ns / 1e6
                self.busy_ms += ns / 1e6
        result["attempted"] = len(ops)
        result["failed"] = failed
        return result

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


# The percentile and class metrics each workload's samples resolve.
# BENCHMARK.json lists every metric for every workload, so elsewhere a metric
# stands for the workload's median: a percentile needs at least ten samples
# beyond it in a run (census and verify run two to five jobs, large 44 ops),
# a class needs ops of that class.
RESOLVED = {
    "interactive": {"query_p90_ms", "query_p99_ms", "load_p50_ms", "few_parts_p50_ms", "many_parts_p50_ms"},
    "large": {"few_parts_p50_ms", "many_parts_p50_ms"},
    "census": set(),
    "verify": set(),
}


def end_to_end(run: Run, setup: list[float]) -> tuple[dict, dict]:
    """End-to-end metric values and the sample count behind each.

    A failed op gives no latency sample: an op that fails early is not a
    fast answer.  Throughput counts answered ops over the time spent in all
    ops, and `wall_s` counts repetitions without a failed op.
    """
    answered = [op for op in run.ops if not op.get("failed")]
    clean = [r["wall_s"] for r in run.reps if not r["failed"]]
    if not answered or not clean:
        raise RuntimeError("every op or every repetition failed: no latency to report")
    lat = [op["latency_ms"] for op in answered]
    loads = [op["latency_ms"] for op in answered if op.get("op") == "load"]
    classes = {"few": [], "many": []}
    for op in answered:
        cls = index_class(run.workload, op)
        if cls is not None:
            classes[cls].append(op["latency_ms"])
    p50 = statistics.median(lat)
    candidates = {
        "query_p90_ms": percentile(lat, 90),
        "query_p99_ms": percentile(lat, 99),
        "load_p50_ms": statistics.median(loads or [p50]),
        "few_parts_p50_ms": statistics.median(classes["few"] or [p50]),
        "many_parts_p50_ms": statistics.median(classes["many"] or [p50]),
    }
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(clean),
        "query_p50_ms": p50,
        "queries_per_s": len(lat) / (run.busy_ms / 1e3),
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in run.reps) / 1024,
    }
    for name, value in candidates.items():
        values[name] = value if name in RESOLVED[run.workload] else p50
    samples = {
        "setup_s": len(setup),
        "wall_s": len(clean),
        "query": len(lat),
        "beyond_p90": sum(v > values["query_p90_ms"] for v in lat),
        "beyond_p99": sum(v > values["query_p99_ms"] for v in lat),
        "load": len(loads),
        "few_parts": len(classes["few"]),
        "many_parts": len(classes["many"]),
        "stand_for_median": sorted(set(candidates) - RESOLVED[run.workload]),
    }
    return values, samples


def measure(run: Run, seconds: float, trace: bool) -> dict:
    """Repetitions until the next one would end after `seconds`."""
    started = time.perf_counter()
    costs: list[float] = []
    traced: list[dict] = []
    number = 0
    while True:
        t0 = time.perf_counter()
        if trace:
            # Same inputs untraced, then traced; only the first traced
            # repetition's spans are kept, so its counts repeat exactly.
            run.reps.append(run.rep(number))
            span_file = run.work / "trace.json" if not traced else run.work / "extra.json"
            traced.append(run.rep(number, span_file, record=False))
            if len(traced) == 1:
                final = Path(run.args.out) / f"trace-{run.workload}-seed{run.args.seed}.json"
                shutil.move(str(span_file), final)
                traced[0]["span_file"] = str(final)
        else:
            run.reps.append(run.rep(number))
        costs.append(time.perf_counter() - t0)
        number += 1
        if time.perf_counter() - started + statistics.median(costs) > seconds:
            return {"traced": traced, "measured_s": time.perf_counter() - started}


def per_layer(run: Run, traced: list[dict]) -> dict:
    with open(traced[0]["span_file"], encoding="utf-8") as fh:
        data = json.load(fh)
    values = spans.derive(data)
    busy = [sum(r["latency_ns"]) for r in run.reps]
    busy_traced = [sum(r["latency_ns"]) for r in traced]
    values["trace.overhead_ratio"] = statistics.median(busy_traced) / statistics.median(busy) - 1
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True, help="all: each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(HERE / "results"), help="directory for result and span files")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "meandre" / "__init__.py").is_file():
        print(f"error: no meandre sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    import meandre

    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        args.workload = workload
        run_workload(args, spec, meandre)
    return 0


def run_workload(args, spec: dict, meandre) -> None:
    """Run, check and report one workload; the report ends with the JSON line."""
    run = Run(args, meandre)
    try:
        setup = [] if args.trace else measure_setup(SETUP_PROBES, warm_up=True)
        outcome = measure(run, args.seconds, bool(args.trace))
        if not args.trace:
            setup += measure_setup(SETUP_PROBES, warm_up=False)
    finally:
        run.close()

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        values, samples = per_layer(run, outcome["traced"]), {"traced_reps": len(outcome["traced"])}
    else:
        values, samples = end_to_end(run, setup)
    attempted = sum(r["attempted"] for r in run.reps + outcome["traced"])
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started_at": time.time() - outcome["measured_s"],
        "correct": run.failed == 0,
        "attempted": attempted,
        "failed": run.failed,
        "failed_ratio": run.failed / attempted,
        "failure_examples": run.reasons,
        "samples": samples,
        "repetitions": len(run.reps),
        "rep_wall_s": [r["wall_s"] for r in run.reps],
        "input_properties": input_properties(
            args.workload, run.ops, run.index_zero if args.workload in ("interactive", "large") else None
        ),
        "metrics": metrics,
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(result, indent=1))

    print(f"workload {args.workload}, seed {args.seed}, {len(run.reps)} repetitions, {attempted} ops")
    for name, entry in metrics.items():
        print(f"  {name:<40} {entry['value']:>14.6g} {entry['unit']}")
    print(f"  {'failed_ratio':<40} {result['failed_ratio']:>14.6g} ratio")
    print(f"  samples: {json.dumps(samples)}")
    print(f"  input properties: {json.dumps(result['input_properties'])}")
    for reason in run.reasons:
        print(f"  FAILED {reason}")
    print(
        json.dumps(
            {"correct": result["correct"], "attempted": attempted, "failed": run.failed, "metrics": metrics}
        )
    )


if __name__ == "__main__":
    sys.exit(main())
