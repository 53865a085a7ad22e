"""The benchmark's per-layer trace keeps seeing every layer it reports on.

``bench/tracing.py`` wraps gsep's public functions and derives one metric
per layer from the recorded spans; a metric whose span never fired reads
``None``.  A refactor that bypasses a traced function (a lazy field, a
cached wrapper, a call that skips a layer) therefore blanks that metric.
This test runs each traced entry point once on small inputs and asserts
that every layer metric is measured.
"""

import sys
from pathlib import Path

import numpy as np

import gsep

BENCH = Path(__file__).resolve().parents[1] / "bench"
FIXTURE = Path(__file__).parent / "fixtures" / "ppt_entangled_2x2.json"

sys.path.insert(0, str(BENCH))
try:
    import tracing
finally:
    sys.path.remove(str(BENCH))


def test_every_layer_metric_is_measured():
    tracer = tracing.Tracer()
    # look functions up on the package at call time, where the tracer
    # has replaced them
    with tracer.installed():
        bound = gsep.load_cm(str(FIXTURE))
        separable = gsep.BipartiteCM.from_gamma(gsep.tmss(0.5).gamma + np.eye(4), 1, 1)
        for cm in (bound, gsep.tmss(0.5), separable):
            verdict = gsep.decide(cm)
        assert verdict.kind is gsep.VerdictKind.SEPARABLE
        cert = gsep.reconstruct(verdict.trace)
        assert gsep.verify_certificate(separable, cert).valid
        gsep.find_threshold(gsep.tmss(0.5))
    metrics = tracing.layer_metrics(tracing.summarize(tracer.spans))
    assert [name for name, value in metrics.items() if value is None] == []
