"""Fixtures shared across the test modules."""

import numpy as np
import pytest

import gsep.engine as engine

PROBE_BUDGET = 100


@pytest.fixture
def probe_budget(monkeypatch):
    """Count calls of ``engine.decide`` and fail past ``PROBE_BUDGET`` in one search loop.

    A search loop is one ``engine._bisect`` call, the loop that
    ``find_threshold`` probes ``decide`` in; a change that stops it from
    terminating then fails within milliseconds instead of stalling the
    run.  The budget starts afresh with every loop, so the examples of a
    ``hypothesis`` test do not add up.  The returned list gets one entry
    per ``decide`` call; clear it to count the next search alone.
    """
    calls = []
    start = [0]  # len(calls) when the current search loop began
    decide, bisect = engine.decide, engine._bisect

    def counted(*args, **kwargs):
        calls.append(None)
        if len(calls) - start[0] > PROBE_BUDGET:
            raise AssertionError(f"more than {PROBE_BUDGET} decide probes in one search")
        return decide(*args, **kwargs)

    def search(*args, **kwargs):
        start[0] = len(calls)
        return bisect(*args, **kwargs)

    monkeypatch.setattr(engine, "decide", counted)
    monkeypatch.setattr(engine, "_bisect", search)
    return calls


class LapackCalls(list):
    """``(name, shape)`` of every recorded ``np.linalg`` call, in call order."""

    def shapes(self, *names):
        return [shape for name, shape in self if name in names]


@pytest.fixture
def lapack_calls(monkeypatch):
    """Record the ``eigvalsh``, ``eigh``, ``cholesky`` and ``svd`` calls of a test.

    Recording starts when the test does; ``clear()`` the list to start a
    window and ``monkeypatch.undo()`` to end it.
    """
    calls = LapackCalls()
    for name in ("eigvalsh", "eigh", "cholesky", "svd"):
        solver = getattr(np.linalg, name)

        def recording(mat, *args, _name=name, _solver=solver, **kwargs):
            calls.append((_name, np.shape(mat)))
            return _solver(mat, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    return calls
