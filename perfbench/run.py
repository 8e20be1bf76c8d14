"""Benchmark of the zfcubes command line, one workload per process.

    python3 perfbench/run.py --workload cube-pipeline --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The package is imported from the
checkout's ``src/`` only. Set-up runs ``gen.py`` in a child process, which
writes the workload's seeded input files under ``perfbench/_work/``. Then
one client calls ``zfcubes.cli.main(argv)`` in process, in a closed loop:
the next operation starts when the previous one has returned and its output
has passed the oracle, which runs outside the timed region. An operation
still running after ``STALL_SECS`` is interrupted by a timer signal and
counts as failed.

Every time metric is scaled to a reference speed, because the speed of a
shared host drifts by tens of percent over minutes and changes within
seconds. After each operation's untimed oracle check the client times
``reference()``, fixed pure-Python work that does not use the package, and
multiplies the operation's time by ``REFERENCE_MS`` over that reference
time; ``setup_s`` is scaled by the run's median reference time. The report
keeps the raw figures.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` the loop runs for half the time and every operation runs
twice, once untraced and once with spans around the package's public
functions; the last line carries the per-layer metrics and the tracing
overhead.
"""

from __future__ import annotations

import argparse
import gc
import io
import itertools
import json
import math
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from spans import Stall, Tracer, layer_metrics
from workloads import WORKLOADS, load

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"

SETUP_REPEATS = 5
# A safety net far above the slowest operation of any workload (about 1 s);
# no operation is expected to reach it.
STALL_SECS = 10.0
# op_tail_ms is p90: at 25-second runs every workload has between 100 and
# 1000 operations, so p90 is the highest of p50, p90 and p99 with at least
# TAIL_BEYOND operations slower than it. It stays p90 when a faster program
# runs more operations, so that runs compare; a run too short for p90 falls
# back to p50.
TAIL_PERCENTILES = (90.0, 50.0)
TAIL_BEYOND = 10
# Times are reported at the host speed where reference() takes this long,
# about its median on the 2-vCPU VM the benchmark was written on.
REFERENCE_MS = 3.0
# Safety net on the loop's wall time, oracles included, so that a run ends
# within three minutes: WALL_FACTOR per second of timed work, plus WALL_SLACK.
WALL_FACTOR = 3
WALL_SLACK = 30


@dataclass
class Result:
    key: tuple      # (round, position in the round): the same key is the same operation
    instance: str
    command: str
    secs: float
    outcome: str    # ok, wrong, error or stalled
    detail: str = ""
    reference_secs: float = 0.0     # reference() timed right after an untraced run


def import_cli():
    """Import zfcubes.cli from the checkout's src/; return it and the seconds taken."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    os.environ["ZFCUBES_WORKERS"] = "1"   # solve keeps its default single worker
    start = time.perf_counter()
    import zfcubes.cli
    secs = time.perf_counter() - start
    if Path(zfcubes.cli.__file__).resolve().parent != src.resolve() / "zfcubes":
        raise ImportError(f"zfcubes was imported from {zfcubes.cli.__file__}, not {src}")
    return zfcubes.cli, secs


def set_up(workload, seed: int, inputs: Path):
    """Run the generator SETUP_REPEATS times, each time into a fresh
    directory; return the rounds of the last pass and the median time."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        shutil.rmtree(inputs, ignore_errors=True)
        inputs.mkdir(parents=True)
        subprocess.run([sys.executable, str(HERE / "gen.py"), workload.name, str(seed),
                        str(inputs)], check=True)
        times.append(time.perf_counter() - start)
    return load(inputs), statistics.median(times)


def raise_stall(signum, frame):
    raise Stall()


def run_op(main, key, op, tracer=None) -> Result:
    out = io.StringIO()
    code, outcome, detail = None, "ok", ""
    span = tracer.begin("cli.op") if tracer else None
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            signal.setitimer(signal.ITIMER_REAL, STALL_SECS)
            try:
                code = main(op.argv)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
    except Stall:
        outcome, detail = "stalled", f"still running after {STALL_SECS} s"
    except Exception as exc:  # the program raised instead of exiting
        outcome, detail = "error", f"{type(exc).__name__}: {exc}"
    end = time.perf_counter()
    if tracer:
        tracer.end(span, at=end)
    if outcome == "ok":
        try:
            problem = op.check(code, out.getvalue())
        except (ValueError, KeyError, TypeError) as exc:
            problem = f"unreadable output: {type(exc).__name__}: {exc}"
        if problem:
            outcome, detail = "wrong", problem
    result = Result(key, op.instance, " ".join(op.argv[:2]), end - start, outcome, detail)
    if outcome != "ok":
        print(f"{outcome}: {result.instance} ({result.command}): {detail}", file=sys.stderr)
    return result


def run_loop(main, rounds, seconds: float, tracer=None):
    """Run rounds in order, cycling, until ``seconds`` of untraced operation
    time have passed; the current round is finished, so that every run
    measures the same mix. After each untraced operation, time
    ``reference()``.

    With a tracer every operation also runs traced, before or after its
    untraced run as a fixed coin decides, so that order favours neither
    side. Returns the untraced and the traced results.
    """
    coin = random.Random(0)
    untraced, traced = [], []
    timed = 0.0
    wall_end = time.monotonic() + WALL_FACTOR * seconds + WALL_SLACK
    for r, round_ in itertools.cycle(enumerate(rounds)):
        if timed >= seconds or time.monotonic() > wall_end:
            break
        for i, op in enumerate(round_):
            traced_first = coin.random() < 0.5
            if tracer and traced_first:
                traced.append(run_traced(main, (r, i), op, tracer))
            untraced.append(run_op(main, (r, i), op))
            untraced[-1].reference_secs = time_reference()
            if tracer and not traced_first:
                traced.append(run_traced(main, (r, i), op, tracer))
            timed += untraced[-1].secs
    return untraced, traced


def time_reference() -> float:
    """Seconds of one reference() run, after an untimed one that pays for
    any memory the operation before it handed back."""
    reference()
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


def reference() -> None:
    """Fixed work in the package's style, without the package: Q9 as sets of
    string labels, a breadth-first search over it, and a JSON round trip."""
    labels = [format(x, "09b") for x in range(512)]
    adjacency = {labels[x]: {labels[x ^ (1 << b)] for b in range(9)} for x in range(512)}
    seen, frontier = {labels[0]}, [labels[0]]
    while frontier:
        found = []
        for u in frontier:
            for w in adjacency[u] - seen:
                seen.add(w)
                found.append(w)
        frontier = found
    json.loads(json.dumps({u: sorted(vs) for u, vs in adjacency.items()}))


def run_traced(main, key, op, tracer) -> Result:
    tracer.install()
    try:
        return run_op(main, key, op, tracer)
    finally:
        tracer.uninstall()


def tail(times: list) -> tuple:
    ordered = sorted(times)
    n = len(ordered)
    for q in TAIL_PERCENTILES:
        rank = math.ceil(q / 100 * n)
        if n - rank >= TAIL_BEYOND:
            return ordered[rank - 1], q, n - rank
    return ordered[-1], 100.0, 0


def op_medians(results: list) -> list:
    """Each result's time replaced by the median time of its operation over
    the run's rounds, so that one slow repetition moves no percentile."""
    by_key = {}
    for r in results:
        by_key.setdefault(r.key, []).append(r.secs)
    medians = {key: statistics.median(secs) for key, secs in by_key.items()}
    return [medians[r.key] for r in results]


def scaled(results: list) -> list:
    """The results with each time at the reference speed."""
    return [replace(r, secs=r.secs * REFERENCE_MS / (r.reference_secs * 1e3)) for r in results]


def end_to_end(results: list, setup_s: float) -> tuple:
    times = op_medians(results)
    ok = sum(r.outcome == "ok" for r in results)
    tail_s, q, beyond = tail(times)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ok / sum(times), "1/s"),
        "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "error_rate": ((len(results) - ok) / len(results), "ratio"),
    }
    return metrics, {"percentile": q, "samples_beyond": beyond, "samples": len(times)}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="'all' runs every workload, each in its own process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, __file__, "--workload", name,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for name in WORKLOADS]
        return max(codes)
    workload = WORKLOADS[args.workload]
    try:
        cli, import_s = import_cli()
    except ImportError as exc:
        print(f"error: cannot import the package: {exc}", file=sys.stderr)
        return 2
    out_dir = WORK / workload.name
    rounds, generate_s = set_up(workload, args.seed, out_dir / "inputs")
    # Keep the cyclic collector off the benchmark's own objects, so that
    # collections during an operation scan only the program's.
    gc.freeze()
    signal.signal(signal.SIGALRM, raise_stall)

    tracer = Tracer() if args.trace else None
    seconds = args.seconds / 2 if args.trace else args.seconds
    results, traced = run_loop(cli.main, rounds, seconds, tracer)
    reference_ms = statistics.median(r.reference_secs for r in results) * 1e3
    setup_scale = REFERENCE_MS / reference_ms
    e2e, tail_info = end_to_end(scaled(results), (import_s + generate_s) * setup_scale)
    raw, _ = end_to_end(results, import_s + generate_s)
    attempted = results + traced
    report = {
        "workload": workload.name, "loads": workload.loads,
        "bypasses": workload.bypasses, "loop": "closed, one client",
        "seed": args.seed, "stall_limit_s": STALL_SECS, "trace": args.trace,
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version()},
        "reference": {"median_ms": reference_ms, "nominal_ms": REFERENCE_MS,
                      "samples": len(results)},
        "setup": {"import_s": import_s, "generate_s": generate_s},
        "op_tail": tail_info,
        "end_to_end": as_json(e2e),
        "end_to_end_unscaled": as_json(raw),
        "stalled_instances": [r.instance for r in attempted if r.outcome == "stalled"],
        "failures": [asdict(r) for r in attempted if r.outcome not in ("ok", "stalled")],
        "ops": [[r.key, r.instance, r.command, r.secs, r.reference_secs] for r in results],
    }
    if args.trace:
        tracer.write(out_dir / f"spans-seed{args.seed}.jsonl")
        shown = layer_metrics(tracer.spans)
        shown["trace.overhead"] = (sum(r.secs for r in traced) / sum(r.secs for r in results),
                                   "ratio")
        report["per_layer"] = as_json(shown)
    else:
        shown = {k: vu for k, vu in e2e.items() if k != "error_rate"}
    with open(out_dir / f"report-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)

    print(f"workload {workload.name}, seed {args.seed}: loads {workload.loads}; "
          f"bypasses {workload.bypasses}; stall limit {STALL_SECS} s; "
          f"nproc {os.cpu_count()}, Python {platform.python_version()}")
    for name, (value, unit) in (e2e | shown).items():
        print(f"  {name:30} {value:14.6g} {unit}")
    print(f"  times scaled to reference() = {REFERENCE_MS} ms; its median was "
          f"{reference_ms:.4f} ms over {len(results)} samples")
    print(f"  op_tail_ms is p{tail_info['percentile']:g} of {tail_info['samples']} "
          f"operations, {tail_info['samples_beyond']} beyond it; "
          f"{len(report['stalled_instances'])} stalled")
    correct = not report["failures"]
    print(json.dumps({"correct": correct, "attempted": len(attempted),
                      "failed": sum(r.outcome != "ok" for r in attempted),
                      "metrics": as_json(shown)}))
    return 0 if correct else 1


def as_json(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}

if __name__ == "__main__":
    sys.exit(main())
