"""The benchmark's four workloads.

Every workload is a closed loop with one caller: the next operation
starts when the previous one has returned, and CLI subprocesses run
strictly one at a time.  Inputs come from :mod:`gen` and are written as
gsep JSON files; each result is checked against :mod:`reference` right
after its task, outside the task's timer.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from gsep import certify, engine, gaussian, io
from gsep.engine import VerdictKind

import gen
import reference
import tracing
from reference import Outcome

ROOT = Path(__file__).resolve().parent.parent


@dataclass
class Op:
    """One timed operation and what it returned."""

    kind: str  # "verdict", "threshold" or "cli"
    state: int
    seconds: float
    result: object = None
    error: str | None = None
    eps: float = 0.0  # identity noise added for a near-threshold verdict
    threshold: float = 0.0  # the threshold that verdict sits next to


def _timed(kind: str, state: int, fn, *args, **fields) -> Op:
    start = time.perf_counter()
    try:
        result, error = fn(*args), None
    except Exception as exc:  # a failed op is counted and the loop goes on
        result, error = None, f"{type(exc).__name__}: {exc}"
    return Op(kind, state, time.perf_counter() - start, result, error, **fields)


def verdict(cm) -> Outcome:
    """``decide``, then ``reconstruct`` and ``verify_certificate`` if separable.

    This is what ``gsep certify`` does for one loaded state.
    """
    result = engine.decide(cm)
    if result.kind is VerdictKind.SEPARABLE:
        cert = certify.reconstruct(result.trace)
        report = certify.verify_certificate(cm, cert)
        return Outcome("separable", result.step, cert.gamma_A, cert.gamma_B, report.valid)
    return Outcome(result.kind.value, result.step)


class Workload:
    """Generated inputs, one loop task at a time, and the check for its ops."""

    name = ""
    primary = "verdict"  # the op kind whose latency and rate are reported

    def __init__(self, seed: int, workdir: Path, env: dict[str, str]):
        self.states = self.generate(seed)
        self.env = env
        self.workdir = workdir
        inputs = workdir / "inputs"
        inputs.mkdir(parents=True)
        self.files = []
        for i, state in enumerate(self.states):
            path = inputs / f"{i:04d}.json"
            path.write_text(state.to_json(), encoding="utf-8")
            self.files.append(path.relative_to(ROOT))
        self.cms = []

    def generate(self, seed: int) -> list[gen.State]:
        raise NotImplementedError

    @property
    def n_tasks(self) -> int:
        return len(self.states)

    def load(self) -> None:
        self.cms = [io.load_cm(str(ROOT / path)) for path in self.files]

    def run_task(self, i: int) -> list[Op]:
        return [_timed("verdict", i, verdict, self.cms[i])]

    def check(self, op: Op) -> str | None:
        state = self.states[op.state]
        return reference.check_verdict(state.gamma, state.n, state.expect, op.result)

    def traced(self, tracer: tracing.Tracer):
        """Context in which this workload's ops record spans into ``tracer``."""
        return tracer.installed()

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class PopSmall(Workload):
    name = "pop-small"

    def generate(self, seed):
        states, self.skipped = gen.pop_small(seed)
        return states


class LargeModes(Workload):
    name = "large-modes"

    def generate(self, seed):
        return gen.large_modes(seed)


class NearThreshold(Workload):
    name = "near-threshold"

    def generate(self, seed):
        return gen.near_threshold(seed)

    def run_task(self, i):
        cm = self.cms[i]
        search = _timed("threshold", i, engine.find_threshold, cm)
        ops = [search]
        if search.error is not None:
            return ops
        thr = search.result
        points = [thr + offset for offset in gen.SWEEP_ABOVE]
        points += [thr - offset for offset in gen.SWEEP_BELOW if thr - offset >= 0]
        for eps in points:
            shifted = gaussian.BipartiteCM.from_gamma(
                cm.gamma + eps * np.eye(cm.gamma.shape[0]), cm.n, cm.m)
            ops.append(_timed("verdict", i, verdict, shifted, eps=eps, threshold=thr))
        return ops

    def check(self, op):
        state = self.states[op.state]
        if op.kind == "threshold":
            return reference.check_threshold(state.gamma, state.n, op.result, state.threshold)
        expect = reference.sweep_expect(state.gamma, state.n, op.eps, op.threshold)
        gamma = state.gamma + op.eps * np.eye(state.gamma.shape[0])
        return reference.check_verdict(gamma, state.n, expect, op.result)


class CliCold(Workload):
    """Cold ``python -m gsep check`` and ``certify`` calls, alternating."""

    name = "cli-cold"
    primary = "cli"
    COMMANDS = ("check", "certify")
    tracer: tracing.Tracer | None = None  # set while the children trace themselves
    peak_kb = 0  # largest peak resident set of a CLI child so far

    def generate(self, seed):
        return gen.cli_cold(seed)

    @property
    def n_tasks(self):
        return len(self.COMMANDS) * len(self.states)

    def load(self):
        pass  # the CLI children load their own inputs

    def run_task(self, i):
        command = self.COMMANDS[i % len(self.COMMANDS)]
        state = i // len(self.COMMANDS)
        args = [command, "--input", str(self.files[state])]
        spans_path = None
        if self.tracer is None:
            argv = [sys.executable, "-m", "gsep", *args]
        else:
            spans_path = self.workdir / "child-spans.json"
            argv = [sys.executable, str(Path(tracing.__file__)), str(spans_path),
                    str(self.tracer.op), "--", *args]
        op = _timed("cli", state, self._call, argv)
        op.result = (command, op.result)
        if spans_path is not None and spans_path.exists():
            offset = len(self.tracer.spans)
            for span in json.loads(spans_path.read_text(encoding="utf-8")):
                span[3] = span[3] + offset if span[3] >= 0 else -1
                self.tracer.spans.append(span)
            spans_path.unlink()
        return [op]

    def _call(self, argv):
        """Run one CLI child; reap it with ``wait4`` to read its own peak memory."""
        out_path, err_path = self.workdir / "cli.out", self.workdir / "cli.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=out, stderr=err)
            killer = threading.Timer(120, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        if proc.returncode != 0:
            stderr = err_path.read_text(encoding="utf-8", errors="replace")
            raise RuntimeError(f"exit code {proc.returncode}: {stderr.strip()[-300:]}")
        return out_path.read_text(encoding="utf-8")

    def check(self, op):
        state = self.states[op.state]
        command, stdout = op.result
        try:
            doc = json.loads(stdout)
            if command == "certify" and "gamma_A" in doc:
                out = Outcome("separable", 0, np.array(doc["gamma_A"], dtype=float),
                              np.array(doc["gamma_B"], dtype=float))
            else:
                out = Outcome(doc["verdict"], doc["step"])
        except (TypeError, ValueError, KeyError) as exc:
            return f"malformed output from gsep {command}: {exc!r}"
        return reference.check_verdict(state.gamma, state.n, state.expect, out,
                                       certified=command == "certify")

    @contextmanager
    def traced(self, tracer):
        self.tracer = tracer
        try:
            yield
        finally:
            self.tracer = None

    def peak_rss_mb(self):
        return self.peak_kb / 1024.0


WORKLOADS = {cls.name: cls for cls in (PopSmall, LargeModes, NearThreshold, CliCold)}
