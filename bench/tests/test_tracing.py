"""Span arithmetic, unmeasured layers, import-time parsing and the live tracer."""

import pytest

import tracing
from gsep import engine, gaussian, matlin


def _span(name, start, end, parent, note=None):
    return [name, start, end, parent, 0, note]


SPANS = [
    _span("engine.decide", 0.0, 10.0, -1, ["separable", 2]),    # 0
    _span("gaussian.validate_cm", 0.5, 2.0, 0),                 # 1
    _span("matlin.psd_check", 1.0, 1.5, 1),                     # 2
    _span("engine.map_step", 2.0, 5.0, 0),                      # 3
    _span("matlin.pseudoinverse", 2.5, 4.0, 3),                 # 4
    _span("engine.map_step", 5.0, 7.0, 0),                      # 5
    _span("certify.reconstruct", 11.0, 12.0, -1),               # 6
    _span("certify.verify_certificate", 12.0, 13.0, -1, True),  # 7
]


def test_self_time_subtracts_direct_children_only():
    own = tracing.self_times(SPANS)
    assert own[0] == pytest.approx(10.0 - 1.5 - 3.0 - 2.0)
    assert own[1] == pytest.approx(1.5 - 0.5)
    assert own[3] == pytest.approx(3.0 - 1.5)
    assert own[4] == pytest.approx(1.5)


def test_summary_splits_decide_into_self_and_children():
    summary = tracing.summarize(SPANS)
    children = summary["children_of_decide"]
    assert children == {"gaussian.validate_cm": 1.5, "engine.map_step": 5.0}
    assert summary["self"]["engine.decide"] + sum(children.values()) == pytest.approx(10.0)
    assert summary["in_decide_calls"]["matlin.pseudoinverse"] == 1
    assert summary["steps"] == 2 and summary["valid_certificates"] == 1
    metrics = tracing.layer_metrics(summary)
    assert metrics["engine.decide_us"] == pytest.approx(
        metrics["engine.decide_self_us"] + metrics["engine.decide_children_us"])
    assert metrics["engine.map_step_us"] == pytest.approx(2.5e6)
    assert metrics["engine.steps_per_verdict"] == 2
    assert metrics["certify.valid_ratio"] == 1


def test_layers_without_calls_are_unmeasured_not_zero():
    metrics = tracing.layer_metrics(tracing.summarize(SPANS[:1]))
    assert metrics["engine.map_step_us"] is None
    assert metrics["matlin.trace_norm_us"] is None
    assert metrics["io.load_cm_ms"] is None
    assert metrics["engine.decide_us"] == pytest.approx(10e6)


def test_import_seconds_counts_outermost_package_entries():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:       200 |        300 |   scipy",
        "import time:        50 |         50 |     scipy.linalg._misc",
        "import time:       400 |        450 |   scipy.linalg",
        "import time:        30 |         30 |   numpy",
        "import time:        10 |        790 | gsep.gaussian",
        "import time:         5 |        795 | gsep",
    ])
    rows = tracing.parse_importtime(text)
    assert tracing.import_seconds(rows, "scipy") == pytest.approx(750e-6)
    assert tracing.import_seconds(rows, "gsep") == pytest.approx(1585e-6)
    assert tracing.import_seconds(rows, "torch") == 0.0


def test_tracer_wraps_where_callers_look_up_and_restores():
    original = engine.map_step
    state = gaussian.tmss(0.5)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert engine.map_step is not original
        engine.decide(state)
    assert engine.map_step is original and matlin.psd_check.__module__ == "gsep.matlin"
    assert not hasattr(gaussian.BipartiteCM.from_blocks, "__wrapped__")
    names = [span[0] for span in tracer.spans]
    assert names[0] == "engine.decide"
    assert {"engine.map_step", "matlin.pseudoinverse", "gaussian.from_blocks",
            "gaussian.symplectic_form"} <= set(names)
    assert all(span[3] < i for i, span in enumerate(tracer.spans))
    summary = tracing.summarize(tracer.spans)
    total = summary["total"]["engine.decide"]
    assert summary["self"]["engine.decide"] + sum(
        summary["children_of_decide"].values()) == pytest.approx(total)
