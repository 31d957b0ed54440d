"""Span bookkeeping and self-time arithmetic."""

import threading

import pytest

import tracing
from tracing import Span, Tracer, layer_metrics, self_seconds


def span(i, name, start, end, parent=None, **counts):
    return Span(i, name, start, end, parent, counts)


def test_self_time_subtracts_the_union_of_children():
    parent = span(0, "p", 0.0, 10.0)
    children = [span(1, "a", 1.0, 3.0), span(2, "b", 2.0, 5.0), span(3, "c", 7.0, 8.0)]
    assert self_seconds(parent, children) == pytest.approx(10.0 - 5.0)


def test_self_time_clips_children_to_the_parent():
    # Pool-thread children can outlive their parent's span or overlap it.
    parent = span(0, "p", 0.0, 10.0)
    children = [span(1, "a", 9.0, 12.0), span(2, "b", -1.0, 1.0)]
    assert self_seconds(parent, children) == pytest.approx(8.0)
    assert self_seconds(parent, []) == pytest.approx(10.0)


def test_spans_from_other_threads_take_the_callers_parent():
    tracer = Tracer()
    outer = tracer.open("quantum.bound", 0.0)
    seen = []

    def worker():
        inner = tracer.open("quantum.sweeps", 1.0)
        seen.append(inner.parent)
        tracer.close(inner, 2.0)

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    tracer.close(outer, 3.0)
    assert seen == [outer.id]


def test_layer_metrics_attribute_eigenvalue_time():
    spans = [
        span(0, "cli.run", 0.0, 10.0),
        span(1, "quantum.bound", 1.0, 6.0, 0, converged=1),
        span(2, "quantum.sweeps", 1.0, 4.0, 1, sweeps=5),
        span(3, "quantum.sweeps", 1.5, 4.5, 1, sweeps=7),
        span(4, "quantum.eig", 4.5, 5.5, 1),
        span(5, "quantum.check_dual", 7.0, 9.0),
        span(6, "quantum.eig", 7.0, 8.5, 5),
    ]
    values = layer_metrics(spans, set(), accepted=3, bytes_out=100)
    assert values["quantum.sweep_s"] == pytest.approx(6.0)  # busy time over threads
    assert values["quantum.sweeps"] == 12 and values["quantum.restarts"] == 2
    assert values["quantum.psd_s"] == pytest.approx(1.0)  # not the check_dual one
    assert values["quantum.check_dual_s"] == pytest.approx(2.0)
    assert values["quantum.self_s"] == pytest.approx(5.0 - 4.5)
    assert values["cli.self_s"] == pytest.approx(10.0 - 5.0)
    assert values["quantum.converged_ratio"] == 1.0
    assert values["search.accepted"] == 3 and values["cli.bytes_out"] == 100


def test_metrics_of_absent_targets_are_left_out():
    values = layer_metrics([], {"quantum.eig"}, accepted=0, bytes_out=0)
    assert "quantum.psd_s" not in values
    assert "quantum.sweep_s" in values


def test_install_and_uninstall_restore_the_library():
    import bellbound.cli
    import bellbound.operators

    before = (bellbound.cli.quantum_bound, bellbound.operators.OperatorExpression.to_json_dict)
    tracer = Tracer()
    tracer.install()
    try:
        assert bellbound.cli.quantum_bound is not before[0]
        assert tracer.absent == set()
    finally:
        tracer.uninstall()
    after = (bellbound.cli.quantum_bound, bellbound.operators.OperatorExpression.to_json_dict)
    assert after == before
    assert set(tracing.LAYER_UNITS) >= set(tracing.NEEDS)
