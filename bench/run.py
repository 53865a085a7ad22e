"""gsep benchmark: seeded workloads, checked results, end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

``--workload all`` (the default) runs each workload in a child process
of its own, one after the other, so that no workload's peak memory or
state leaks into the next.  With ``--trace 0`` a run measures the
end-to-end metrics untraced.  With ``--trace 1`` it runs the workload in
one-second chunks, each first untraced and then again with every layer
traced, and reports per-layer metrics and the tracing overhead.  Each
workload prints every metric by name and unit, then one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics`` as its last
line.

gsep is imported from ``src/`` next to this directory; without it the
run stops with exit code 2 and prints no result.
"""

import os

# BLAS threads are pinned before numpy loads, here and in every child.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
# The run_seconds of BENCHMARK.json, so the bare command repeats the gated runs.
DEFAULT_SECONDS = 20.0
WARMUP_S = 1.0
TRACE_CHUNK_S = 1.0
# Set-up processes per run, spread evenly over the timed phase.
SETUP_REPEATS = 10
CLI_REPEATS = 3
SETUP_CODE = "import sys, gsep.io\nfor path in sys.argv[1:]:\n    gsep.io.load_cm(path)"
END_TO_END = [
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]


def child_env() -> dict[str, str]:
    """This process's environment (BLAS threads pinned above) with gsep on the path."""
    return dict(os.environ, PYTHONPATH=str(SRC))


def wall(argv, env) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return time.perf_counter() - start, proc


def timed_run(workload, env, seconds):
    """The timed phase, with the set-up processes spread evenly through it.

    A set-up process imports gsep and loads every input file.  Machine
    speed drifts over seconds, so set-up is sampled across the whole run
    rather than in one burst before it, and ``setup_s`` is the fastest
    sample, as each op is its fastest repeat (see steady_stats).  Returns
    the tasks, the failures and ``setup_s``.
    """
    argv = [sys.executable, "-c", SETUP_CODE, *map(str, workload.files)]
    tasks, failures, setups = [], [], []
    for _ in range(SETUP_REPEATS):
        setups.append(wall(argv, env)[0])
        more, more_failures, _ = phase(workload, seconds=seconds / SETUP_REPEATS,
                                       first=len(tasks))
        tasks += more
        failures += more_failures
    return tasks, failures, min(setups)


def measure_imports(env) -> dict[str, float]:
    """``cli.*`` metrics: interpreter start-up and ``-X importtime`` of gsep."""
    start = [wall([sys.executable, "-c", "pass"], env)[0] for _ in range(CLI_REPEATS)]
    gsep_s, scipy_s = [], []
    for _ in range(CLI_REPEATS):
        rows = tracing.parse_importtime(
            wall([sys.executable, "-X", "importtime", "-c", "import gsep"], env)[1].stderr)
        gsep_s.append(tracing.import_seconds(rows, "gsep"))
        scipy_s.append(tracing.import_seconds(rows, "scipy"))
    return {
        "cli.python_start_s": statistics.median(start),
        "cli.import_gsep_s": statistics.median(gsep_s),
        "cli.import_scipy_s": statistics.median(scipy_s),
    }


def phase(workload, tracer=None, seconds=None, count=None, first=0):
    """Run loop tasks in order until ``seconds`` pass or ``count`` tasks are done.

    Tasks are numbered from ``first`` on and cycle through the workload.
    Each op is checked against the reference right after its task,
    outside the task's timer, and its result is then dropped so that
    memory does not grow with the number of ops.  Returns ``(task index,
    task wall time, ops)`` per task, the failures, and the summed task
    wall time.
    """
    tasks, failures = [], []
    start = time.perf_counter()
    while (len(tasks) < count) if count is not None else (time.perf_counter() - start < seconds):
        number = first + len(tasks)
        if tracer is not None:
            tracer.op = number
        began = time.perf_counter()
        ops = workload.run_task(number % workload.n_tasks)
        tasks.append((number % workload.n_tasks, time.perf_counter() - began, ops))
        for op in ops:
            reason = op.error or workload.check(op)
            if reason:
                failures.append(f"{op.kind} on {workload.states[op.state].name}: {reason}")
            op.result = None
    return tasks, failures, sum(wall for _, wall, _ in tasks)


def traced_run(workload, tracer, seconds):
    """Alternate untraced and traced runs of the same tasks, a chunk at a time.

    Each chunk runs untraced, then again under the tracer, so both see
    the same machine load and their ratio gives the tracing overhead.
    Returns the untraced and traced tasks, the failures and the overhead.
    """
    with workload.traced(tracer):
        workload.load()  # records io.load_cm in this process
    tasks, traced_tasks, failures = [], [], []
    walls = [0.0, 0.0]
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        chunk, chunk_failures, wall = phase(workload, seconds=TRACE_CHUNK_S, first=len(tasks))
        with workload.traced(tracer):
            again, again_failures, again_wall = phase(workload, tracer, count=len(chunk),
                                                      first=len(tasks))
        tasks += chunk
        traced_tasks += again
        failures += chunk_failures + again_failures
        walls[0] += wall
        walls[1] += again_wall
    return tasks, traced_tasks, failures, walls[1] / walls[0] - 1.0


def steady_stats(tasks, kind):
    """Latency percentiles and rate of ``kind`` ops, each op at its best repeat.

    The loop passes over the same tasks many times.  Each op position of
    each task keeps the fastest of its repeats, as ``timeit`` does: other
    load on the machine only ever adds time, and on a shared machine it
    comes and goes for seconds at a stretch.  The percentiles are taken
    over those per-op times, and the rate is the ops of one pass over the
    sum of each task's fastest wall time.  The same percentiles over each
    op's median repeat come along; they keep costs that hit only some
    calls, but load spreads them too widely between runs to carry a bound.
    """
    repeats, walls, per_task = defaultdict(list), defaultdict(list), {}
    for index, seconds, ops in tasks:
        walls[index].append(seconds)
        timed = [op.seconds for op in ops if op.kind == kind]
        per_task[index] = len(timed)
        for position, value in enumerate(timed):
            repeats[index, position].append(value)
    if not repeats:
        return None
    best = [min(values) for values in repeats.values()]
    median = [statistics.median(values) for values in repeats.values()]
    return {
        "p50": float(np.percentile(best, 50)),
        "p90": float(np.percentile(best, 90)),
        "rate": sum(per_task.values()) / sum(min(w) for w in walls.values()),
        "median_p50": float(np.percentile(median, 50)),
        "median_p90": float(np.percentile(median, 90)),
        "samples": f"n={len(best)} ops, best of"
                   f" {sum(map(len, repeats.values())) / len(best):.3g} repeats",
    }


def environment(seed: int) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        commit = proc.stdout.strip() or commit
    return {
        "seed": seed,
        "commit": commit,
        "nproc": os.cpu_count(),
        "blas_threads": int(BLAS_THREADS),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    """Generate, set up, warm up, time, check; return report lines and the result."""
    import workloads  # imports gsep, so only once main has found it

    env = child_env()
    workdir = BUILD / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        workload = workloads.WORKLOADS[name](seed, workdir, env)
        workload.load()
        phase(workload, seconds=WARMUP_S)
        layers = {}
        if trace:
            setup_s = None
            tracer = tracing.Tracer()
            tasks, traced_tasks, failures, overhead = traced_run(workload, tracer, seconds)
            attempted = sum(len(ops) for *_, ops in tasks + traced_tasks)
            summary = tracing.summarize(tracer.spans)
            layers = measure_imports(env)
            layers.update(tracing.layer_metrics(summary))
            layers["trace.overhead_frac"] = overhead
            write_spans(name, tracer.spans)
        else:
            tasks, failures, setup_s = timed_run(workload, env, seconds)
            attempted = sum(len(ops) for *_, ops in tasks)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = steady_stats(tasks, workload.primary)
    searches = steady_stats(tasks, "threshold")
    end_to_end = {
        "setup_s": setup_s,
        "op_ms_p50": ops["p50"] * 1e3,
        "op_ms_p90": ops["p90"] * 1e3,
        "ops_per_s": ops["rate"],
        "peak_rss_mb": workload.peak_rss_mb(),
    }
    lines = report_lines(name, workload, setup_s, ops, searches, len(failures), attempted)
    if trace:
        lines += layer_lines(name, layers, summary)
    lines += [f"{name} FAIL {reason}" for reason in failures[:10]]
    if trace:
        units = {key: unit for key, unit, *_ in tracing.UNTRACED_LAYER + tracing.TRACED_LAYER}
        values = layers
    else:
        units, values = dict(END_TO_END), end_to_end
    metrics = {key: {"value": values[key], "unit": unit} for key, unit in units.items()}
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    record = {"workload": name, "trace": trace, "seconds": seconds,
              "environment": environment(seed), "result": result, "report": lines}
    (BUILD / "results").mkdir(parents=True, exist_ok=True)
    (BUILD / "results" / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    return lines + [f"environment {json.dumps(record['environment'])}"], result


def report_lines(name, workload, setup_s, ops, searches, failed, attempted):
    """Each end-to-end metric that applies to this workload, by its reporting name."""
    rows = [("setup_s", setup_s, "s", "")] if setup_s is not None else []
    prefix, unit, scale = (("verdict", "ms", 1e3) if workload.primary == "verdict"
                           else ("cli", "s", 1.0))
    per_s = "verdicts_per_s" if prefix == "verdict" else "cli_calls_per_s"
    rows += [(f"{prefix}_{unit}_p50", ops["p50"] * scale, unit, ops["samples"]),
             (f"{prefix}_{unit}_p90", ops["p90"] * scale, unit, ops["samples"]),
             (per_s, ops["rate"], "1/s", ""),
             (f"{prefix}_{unit}_p50_median_repeat", ops["median_p50"] * scale, unit, "not gated"),
             (f"{prefix}_{unit}_p90_median_repeat", ops["median_p90"] * scale, unit, "not gated")]
    if searches is not None:
        rows.append(("threshold_s_p50", searches["p50"], "s", searches["samples"]))
    rows += [("error_rate", failed / attempted, "ratio", f"{failed}/{attempted}"),
             ("peak_rss_mb", workload.peak_rss_mb(), "MB", "")]
    if hasattr(workload, "skipped"):
        rows.append(("reference_skipped", workload.skipped, "count", "|PPT margin| <= 1e-8"))
    return [f"{name} {metric} {'-' if value is None else f'{value:.6g}'} {unit} {note}".rstrip()
            for metric, value, unit, note in rows]


def layer_lines(name, layers, summary):
    """Per-layer metrics, the decide breakdown and counts outside the JSON result."""
    lines = [f"{name} {key} {'unmeasured' if value is None else f'{value:.6g}'}"
             for key, value in layers.items()]
    decides = summary["calls"].get("engine.decide", 0)
    if decides:
        children = summary["children_of_decide"]
        parts = " + ".join(f"{child} {total / decides * 1e6:.4g}"
                           for child, total in sorted(children.items()))
        lines.append(f"{name} engine.decide_us {summary['total']['engine.decide'] / decides * 1e6:.4g}"
                     f" = self {summary['self']['engine.decide'] / decides * 1e6:.4g} + {parts}")
    searches = summary["calls"].get("engine.find_threshold", 0)
    value = (f"{summary['decides_in_threshold'] / searches:.6g}" if searches
             else "not applicable (no find_threshold calls on this workload)")
    lines.append(f"{name} engine.decides_per_threshold {value}")
    return lines


def write_spans(name, spans):
    """Write every span of the traced run, as JSON, once the run is over."""
    out = BUILD / "trace"
    out.mkdir(parents=True, exist_ok=True)
    with gzip.open(out / f"{name}.spans.json.gz", "wt", encoding="utf-8") as handle:
        json.dump({"columns": ["name", "start", "end", "parent", "op", "note"],
                   "spans": spans}, handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", "pop-small", "large-modes", "near-threshold", "cli-cold"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gsep" / "__init__.py").is_file():
        print(f"error: gsep sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gsep

    if Path(gsep.__file__).resolve().parent != SRC / "gsep":
        print(f"error: imported gsep from {gsep.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload != "all":
        lines, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print("\n".join(lines), flush=True)
        print(json.dumps(result), flush=True)
        return 0
    for name in workloads.WORKLOADS:
        child = subprocess.run([sys.executable, __file__, "--workload", name,
                                "--seed", str(args.seed), "--seconds", str(args.seconds),
                                "--trace", str(args.trace)], cwd=ROOT, check=False)
        if child.returncode != 0:
            return child.returncode
    return 0


if __name__ == "__main__":
    sys.exit(main())
