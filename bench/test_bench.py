"""Tests of the benchmark itself:  python3 -m pytest bench -q"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

workloads = run.load_program()
import ctrlchan  # noqa: E402
import spans  # noqa: E402


def _flatten(obj):
    """Every array and scalar inside an input or result, in order."""
    if isinstance(obj, (ctrlchan.Channel,)):
        return [k for k in obj.kraus]
    if isinstance(obj, ctrlchan.ChannelImplementation):
        return _flatten(obj.channel) + [obj.env]
    if isinstance(obj, ctrlchan.ControlState):
        return [obj.a, obj.b]
    if isinstance(obj, ctrlchan.Ensemble):
        return [x for item in obj.items for x in item]
    if isinstance(obj, (tuple, list)):
        return [x for item in obj for x in _flatten(item)]
    return [obj]


def _identical(a, b) -> bool:
    fa, fb = _flatten(a), _flatten(b)
    return len(fa) == len(fb) and all(
        np.array_equal(np.asarray(x), np.asarray(y)) for x, y in zip(fa, fb)
    )


def _first_inputs(name: str, seed: int, count: int = 2):
    return next(workloads.WORKLOADS[name].blocks(seed))[:count]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_bit_identical_inputs(name):
    first = _first_inputs(name, 7)
    assert _identical(first, _first_inputs(name, 7))
    assert not _identical(first, _first_inputs(name, 8))


def test_grids_never_repeat_and_cover_the_set():
    order = workloads.grid_order(3)
    assert len(order) == len(set(order)) == workloads.WORKLOADS["holevo-grid-qubit"].size
    assert set(order) == {(n, m) for n in workloads.GRID_N for m in workloads.GRID_M}


def test_grid_prefix_is_balanced_across_cost_strata():
    costs = sorted(workloads.grid_cost(g) for g in workloads.grid_order(0))
    order = workloads.grid_order(0)
    median = costs[len(costs) // 2]
    cheap = sum(workloads.grid_cost(g) < median for g in order[:100])
    assert 45 <= cheap <= 55


def test_kraus_counts_span_the_whole_range_in_every_block():
    block = next(workloads.WORKLOADS["switch-remix-d8"].blocks(0))
    k0 = sorted(len(ch0.kraus) for ch0, *_ in block)
    k1 = sorted(len(ch1.kraus) for _, ch1, *_ in block)
    for ks in (k0, k1):
        assert [(k - 1) // 8 for k in ks] == sorted(list(range(8)) * 8)


def test_tail_percentile_needs_ten_samples_beyond():
    values = list(range(1, 101))
    assert run.tail_percentile(values, 0.9) == 90
    assert run.tail_percentile(values, 0.5) == 50
    with pytest.raises(ValueError):
        run.tail_percentile(values[:99], 0.9)
    with pytest.raises(ValueError):
        run.tail_percentile(values[:19], 0.5)
    assert run.tail_percentile(values[:20], 0.5) == 10


def test_self_time_is_duration_minus_children():
    # op [0, 10] -> a [1, 6] -> b [2, 3], c [4, 5.5]; op -> d [7, 9]
    start = np.array([0.0, 1.0, 2.0, 4.0, 7.0])
    end = np.array([10.0, 6.0, 3.0, 5.5, 9.0])
    parent = np.array([-1, 0, 1, 1, 0])
    own = spans.self_times(start, end, parent)
    np.testing.assert_allclose(own, [10 - 5 - 2, 5 - 1 - 1.5, 1, 1.5, 2])


def test_layer_table_on_a_synthetic_trace():
    tracer = spans.Tracer()
    op = tracer._intern(spans.OP, spans.OP)
    ent = tracer._intern(spans.ENTROPY, "info")
    val = tracer._intern("linalg.validate_density_matrix", "linalg")
    eig = tracer._intern(spans.EIG_CALLS[1], "lapack")
    rows = [(0.0, 4.0, -1, op), (1.0, 3.0, 0, ent), (1.5, 2.0, 1, val)]
    for s, e, p, n in rows:
        tracer.start.append(s)
        tracer.end.append(e)
        tracer.parent.append(p)
        tracer.name.append(n)
        tracer.op.append(0)
    for parent in (2, 1, 0):  # one eigvalsh in validation, one in entropy, one outside
        tracer.event_name.append(eig)
        tracer.event_parent.append(parent)
    table = spans.layer_table(tracer)
    assert table["info.self_ms_per_op"] == pytest.approx(1.5e3)
    assert table["linalg.self_share"] == pytest.approx(0.5 / 4.0)
    assert table["info.eig_per_entropy"] == 2.0
    assert table["lapack.eig_calls_per_op"] == 3.0
    assert table["linalg.validations_per_op"] == 1.0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_ops_give_bit_identical_results(name):
    wl = workloads.WORKLOADS[name]
    inputs = _first_inputs(name, 0)
    if name == "holevo-grid-qubit":
        inputs = sorted(inputs, key=workloads.grid_cost)[:1]
    plain = [wl.op(x) for x in inputs]
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = []
        for op_id, x in enumerate(inputs):
            with tracer.op_span(op_id):
                traced.append(wl.op(x))
    finally:
        tracer.uninstall()
    assert _identical(plain, traced)
    assert all(wl.check(x, r) == [] for x, r in zip(inputs, traced))
    table = spans.layer_table(tracer)
    assert sum(table[f"{layer}.calls_per_op"] for layer in spans.LAYERS) > 0


def test_uninstall_restores_every_name():
    before = (ctrlchan.switch_output, ctrlchan.control.apply, ctrlchan.Channel.__post_init__,
              np.linalg.eigvalsh)
    tracer = spans.Tracer()
    tracer.install()
    assert ctrlchan.control.apply is not before[1]
    tracer.uninstall()
    after = (ctrlchan.switch_output, ctrlchan.control.apply, ctrlchan.Channel.__post_init__,
             np.linalg.eigvalsh)
    assert all(a is b for a, b in zip(before, after))


def test_tracer_skips_names_that_no_longer_exist(monkeypatch):
    monkeypatch.delattr(ctrlchan.linalg, "pseudoinverse")
    monkeypatch.delattr(ctrlchan.implementations, "pseudoinverse")
    monkeypatch.delattr(ctrlchan, "pseudoinverse")
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.op_span(0):
            ctrlchan.entropy(np.eye(2) / 2)
    finally:
        tracer.uninstall()
    assert "linalg.pseudoinverse" not in tracer.names
    assert spans.layer_table(tracer)["info.eig_per_entropy"] == 2.0


def test_failed_ops_are_counted_not_raised():
    def op(x):
        if x == 1:
            raise ValueError("boom")
        return x

    def check(x, result):
        return ["off"] if x == 2 else []

    fake = workloads.Workload("fake", lambda seed: iter([[0, 1, 2, 3]]), op, check, 4)
    loop = run.Loop(fake, 0)
    phase = loop.run(60.0)
    assert (loop.attempted, loop.failed, sum(phase.op_ok)) == (4, 2, 2)
    assert "boom" in loop.first_failure
