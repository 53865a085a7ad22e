"""Fixtures shared across the test modules."""

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
