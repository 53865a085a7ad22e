"""Fixtures shared across the test modules."""

import numpy as np
import pytest

import gsep.engine as engine

PROBE_BUDGET = 200


@pytest.fixture
def probe_budget(monkeypatch):
    """Count calls of ``engine.decide`` and fail past ``PROBE_BUDGET`` of them.

    A search that probes ``decide`` in a loop, as ``find_threshold``
    does, then fails within milliseconds when a change stops it from
    terminating, instead of stalling the run.  The returned list gets one
    entry per call; clear it to give the next search a fresh budget.
    """
    calls = []
    decide = engine.decide

    def counted(*args, **kwargs):
        calls.append(None)
        if len(calls) > PROBE_BUDGET:
            raise AssertionError(f"more than {PROBE_BUDGET} decide probes in one search")
        return decide(*args, **kwargs)

    monkeypatch.setattr(engine, "decide", counted)
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
