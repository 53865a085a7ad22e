"""Span tracing for the benchmark's traced run.

:class:`Tracer` replaces the public functions of gsep's layers (``cli``,
``io``, ``gaussian``, ``matlin``, ``engine``, ``certify``) with wrappers,
in every module namespace where callers look them up, so a call from
``engine.decide`` to ``engine.map_step`` is seen the same way as a call
from the benchmark.  Public classmethods such as
``BipartiteCM.from_blocks`` are wrapped on their class.  Each call
records a span ``[name, start, end, parent, op, note]`` in memory;
``parent`` is the index of the enclosing span (-1 at top level) and
``op`` the benchmark operation it belongs to.  Spans are written out
only when the run ends.

Run as a script, this module traces one CLI call in a child process:
``python tracing.py SPANS_OUT OP_ID -- <gsep cli args>``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import re
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

MODULES = ("cli", "io", "gaussian", "matlin", "engine", "certify")

# Return-value summaries kept on the span, for ratios the layers imply.
NOTES = {
    "engine.decide": lambda verdict: [verdict.kind.value, verdict.step],
    "certify.verify_certificate": lambda report: bool(report.valid),
}

class Tracer:
    """Records spans around gsep's public functions while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, clock, note = self.spans, self._stack, time.perf_counter, NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    span[5] = note(result)
                return result
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def _patch(self, target, attr, new) -> None:
        self._undo.append((target, attr, vars(target)[attr]))
        setattr(target, attr, new)

    def install(self) -> None:
        import gsep

        modules = [importlib.import_module(f"gsep.{name}") for name in MODULES]
        wrapped = {}
        for short, mod in zip(MODULES, modules):
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self._wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj):
                    for key, raw in list(vars(obj).items()):
                        if isinstance(raw, classmethod) and not key.startswith("_"):
                            self._patch(obj, key, classmethod(
                                self._wrap(f"{short}.{key}", raw.__func__)))
        for target in (gsep, *modules):
            for attr, obj in list(vars(target).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(target, attr, wrapped[obj])

    def uninstall(self) -> None:
        while self._undo:
            target, attr, old = self._undo.pop()
            setattr(target, attr, old)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children.

    Calls nest strictly in one thread, so the children of a span never
    overlap and their durations simply add up.
    """
    own = [end - start for _, start, end, *_ in spans]
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(spans) -> dict:
    """Per-name call counts and inclusive/self totals, plus decide aggregates.

    ``children_of_decide`` maps each direct child name of ``engine.decide``
    to its total time; with decide's self time it adds up to decide's
    total.  ``in_decide_calls`` counts calls made anywhere below a decide.
    """
    own = self_times(spans)
    calls = defaultdict(int)
    total = defaultdict(float)
    self_total = defaultdict(float)
    in_decide_calls = defaultdict(int)
    children_of_decide = defaultdict(float)
    below_decide = [False] * len(spans)
    steps = undecided = valid = decides_in_threshold = 0
    for i, (name, start, end, parent, _op, note) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        self_total[name] += own[i]
        if parent >= 0:
            parent_name = spans[parent][0]
            below_decide[i] = below_decide[parent] or parent_name == "engine.decide"
            if parent_name == "engine.decide":
                children_of_decide[name] += end - start
            decides_in_threshold += (name == "engine.decide"
                                     and parent_name == "engine.find_threshold")
        if below_decide[i]:
            in_decide_calls[name] += 1
        if name == "engine.decide":
            kind, n_steps = note
            steps += n_steps
            undecided += kind == "undecided"
        elif name == "certify.verify_certificate":
            valid += bool(note)
    return {
        "calls": dict(calls),
        "total": dict(total),
        "self": dict(self_total),
        "in_decide_calls": dict(in_decide_calls),
        "children_of_decide": dict(children_of_decide),
        "steps": steps,
        "undecided": undecided,
        "valid_certificates": valid,
        "decides_in_threshold": decides_in_threshold,
    }


# Metrics measured outside the span trace: (name, unit, better).
UNTRACED_LAYER = [
    ("cli.python_start_s", "s", "lower"),
    ("cli.import_gsep_s", "s", "lower"),
    ("cli.import_scipy_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]


def _mean(name, scale):
    return lambda s: s["total"][name] / s["calls"][name] * scale


def _per_decide(value):
    return lambda s: value(s) / s["calls"]["engine.decide"]


def _per_step(name):
    return lambda s: s["in_decide_calls"].get(name, 0) / s["steps"]


# (name, unit, better, span whose calls it needs, value from a summary)
TRACED_LAYER = [
    ("io.load_cm_ms", "ms", "lower", "io.load_cm", _mean("io.load_cm", 1e3)),
    ("gaussian.validate_cm_us", "us", "lower", "gaussian.validate_cm",
     _mean("gaussian.validate_cm", 1e6)),
    ("gaussian.validate_cm_per_verdict", "count", "lower", "gaussian.validate_cm",
     _per_decide(lambda s: s["calls"]["gaussian.validate_cm"])),
    ("gaussian.from_blocks_us", "us", "lower", "gaussian.from_blocks",
     _mean("gaussian.from_blocks", 1e6)),
    ("gaussian.from_blocks_per_step", "count", "lower", "gaussian.from_blocks",
     _per_step("gaussian.from_blocks")),
    ("gaussian.symplectic_form_per_step", "count", "lower", "gaussian.symplectic_form",
     _per_step("gaussian.symplectic_form")),
    ("matlin.pseudoinverse_us", "us", "lower", "matlin.pseudoinverse",
     _mean("matlin.pseudoinverse", 1e6)),
    ("matlin.operator_norm_us", "us", "lower", "matlin.operator_norm",
     _mean("matlin.operator_norm", 1e6)),
    ("matlin.trace_norm_us", "us", "lower", "matlin.trace_norm",
     _mean("matlin.trace_norm", 1e6)),
    ("matlin.psd_check_us", "us", "lower", "matlin.psd_check", _mean("matlin.psd_check", 1e6)),
    ("matlin.psd_check_per_verdict", "count", "lower", "matlin.psd_check",
     _per_decide(lambda s: s["calls"]["matlin.psd_check"])),
    ("engine.decide_us", "us", "lower", "engine.decide", _mean("engine.decide", 1e6)),
    ("engine.decide_self_us", "us", "lower", "engine.decide",
     _per_decide(lambda s: s["self"]["engine.decide"] * 1e6)),
    ("engine.decide_children_us", "us", "lower", "engine.decide",
     _per_decide(lambda s: (s["total"]["engine.decide"] - s["self"]["engine.decide"]) * 1e6)),
    ("engine.map_step_us", "us", "lower", "engine.map_step", _mean("engine.map_step", 1e6)),
    ("engine.steps_per_verdict", "count", "lower", "engine.decide",
     _per_decide(lambda s: s["steps"])),
    ("engine.undecided_frac", "ratio", "lower", "engine.decide",
     _per_decide(lambda s: s["undecided"])),
    ("certify.reconstruct_us", "us", "lower", "certify.reconstruct",
     _mean("certify.reconstruct", 1e6)),
    ("certify.verify_us", "us", "lower", "certify.verify_certificate",
     _mean("certify.verify_certificate", 1e6)),
    ("certify.valid_ratio", "ratio", "higher", "certify.reconstruct",
     lambda s: s["valid_certificates"] / s["calls"]["certify.reconstruct"]),
]


def layer_metrics(summary: dict) -> dict[str, float | None]:
    """Per-layer metrics from a span summary; ``None`` marks unmeasured.

    A metric is unmeasured when the span it needs recorded no call (or
    its denominator is empty), so a refactor that renames or bypasses a
    layer shows up instead of reading as zero.
    """
    out: dict[str, float | None] = {}
    for name, _unit, _better, needs, value in TRACED_LAYER:
        try:
            out[name] = value(summary) if summary["calls"].get(needs) else None
        except (KeyError, ZeroDivisionError):
            out[name] = None
    return out


_IMPORT_LINE = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( *)(\S+)\s*$")


def parse_importtime(text: str) -> list[tuple[str, int, int]]:
    """``(module, depth, cumulative_us)`` for each ``-X importtime`` line."""
    rows = []
    for line in text.splitlines():
        match = _IMPORT_LINE.match(line)
        if match:
            rows.append((match.group(4), (len(match.group(3)) - 1) // 2,
                         int(match.group(2))))
    return rows


def import_seconds(rows, package: str) -> float:
    """Total cumulative import time of ``package`` and its submodules.

    ``-X importtime`` lists a module after the modules it imported, one
    indent deeper.  Summing the outermost entries of the package counts
    each nested import once.
    """
    total = 0
    stack: list[tuple[int, bool]] = []  # (depth, inside package) of later lines
    for name, depth, cumulative in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        ours = name == package or name.startswith(package + ".")
        enclosed = bool(stack) and stack[-1][1]
        if ours and not enclosed:
            total += cumulative
        stack.append((depth, ours or enclosed))
    return total / 1e6


def _trace_cli_call() -> int:
    out_path, op = sys.argv[1], int(sys.argv[2])
    argv = sys.argv[sys.argv.index("--") + 1:]
    from gsep import cli

    tracer = Tracer()
    tracer.op = op
    try:
        with tracer.installed():
            return cli.main(argv)
    finally:
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.spans, handle)


if __name__ == "__main__":
    sys.exit(_trace_cli_call())
