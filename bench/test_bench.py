"""Tests of the benchmark itself: span arithmetic, seeded inputs, checks."""

import dataclasses
import json

import numpy as np
import pytest

import spans
import workloads


def _clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_of_nested_spans():
    # outer [0, 10] holds a [1, 4] and b [5, 7]; b holds c [5.5, 6.5].
    rec = spans.Recorder(clock=_clock([0, 1, 4, 5, 5.5, 6.5, 7, 10]))
    with rec.span("outer"):
        with rec.span("a"):
            pass
        with rec.span("b"):
            with rec.span("c"):
                pass
    assert rec.self_times() == [5, 3, 1, 1]
    totals = rec.totals()
    assert sum(g["self_s"] for g in totals.values()) == 10


def test_wrapped_calls_count_repeats_and_errors():
    rec = spans.Recorder()

    def work(x):
        if x < 0:
            raise ValueError(x)
        return x

    wrapped = rec.wrap(work, "layer.op", before=lambda a: {
        "work": {"calls": 1}, "key": a["x"], "weight": 2.0})
    for x in (1, 1, 2):
        wrapped(x)
    with pytest.raises(ValueError):
        wrapped(-1)
    g = rec.totals()["layer.op"]
    assert g["work"]["calls"] == 4
    assert g["errors"] == 1
    assert g["repeat_frac"] == pytest.approx(0.25)   # one of four equal requests
    # Bookkeeping runs in its own spans and is charged to no layer.
    assert {sp.group for sp in rec.spans} == {"layer.op", "trace"}


def test_install_sees_cross_module_calls_and_restores():
    import coulombchain as cc
    from coulombchain import ramsey, spectral
    original = ramsey.weighted_trig_sum
    rec = spans.Recorder()
    spans.install(rec)
    try:
        assert ramsey.weighted_trig_sum is not original
        p = cc.ChainParams.from_delta(16, 0.1, 0.25)
        with rec.span("workload"):
            spectral.visibility_trace(p, T_F=100.0, n_s=1024)
    finally:
        rec.unpatch_all()
    assert ramsey.weighted_trig_sum is original
    m = spans.layer_metrics(rec)
    assert m["ramsey.amplitudes.calls"] == 1
    assert m["ramsey.trig_sum.mode_samples"] == 1024 * 16
    assert m["linear_modes.mode_matrix.bytes"] == 8 * 16 * 16
    total = sum(v for k, v in m.items() if k.endswith(".self_s"))
    root = rec.spans[0]
    assert total == pytest.approx(root.end - root.start)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs(name):
    a, b = workloads.make_inputs(name, 7), workloads.make_inputs(name, 7)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    if name != "figures":
        assert workloads.make_inputs(name, 8) != a


def test_checks_fail_on_perturbed_outputs():
    import coulombchain as cc
    amps = cc.linear_chain_amplitudes(cc.ChainParams.from_delta(64, 1e-3, 0.25),
                                      probe_site=5)
    assert workloads.sum_rule_residual(amps) <= 1e-10
    heavier = dataclasses.replace(amps, weight=amps.weight * 1.01)
    assert workloads.sum_rule_residual(heavier) > 1e-10

    trace = cc.evaluate_trace(amps, np.linspace(0.0, 50.0, 501))
    assert workloads.check_cold_trace(trace)[0]
    scaled = dataclasses.replace(trace, V=trace.V * 1.01)
    assert not workloads.check_cold_trace(scaled)[0]


def test_csv_summary_tolerates_last_bits_only(tmp_path):
    from coulombchain import emit_csv
    t = np.linspace(0.0, 1.0, 101)
    v = np.exp(-t)
    path = str(tmp_path / "a.csv")
    emit_csv(("t", "V", "phase"), zip(t, v, ["linear"] * 101), path)
    ref = workloads.summarize_csv(path)
    emit_csv(("t", "V", "phase"), zip(t, v * (1 + 1e-15), ["linear"] * 101),
             path)
    assert workloads.compare_summary(ref, workloads.summarize_csv(path)) == []
    emit_csv(("t", "V", "phase"), zip(t, v * 1.01, ["linear"] * 101), path)
    diffs = workloads.compare_summary(ref, workloads.summarize_csv(path))
    assert diffs and all(d.startswith("V.") for d in diffs)
