"""Self-tests of the benchmark code.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import dataclasses
import hashlib
import signal
import time

import pytest

import compare
import probe
import run
import workloads
from cells import FAMILIES, CellObserver, check_cell
from tracing import SITES, Tracer, layer_metrics, patched


@pytest.fixture(scope="module")
def sd():
    return workloads.import_snapdetect()


@pytest.fixture(scope="module")
def cell(sd):
    config = sd.simulate.SimConfig(
        nodes=3, instances_per_node=2, events_per_process=6, message_delay_us=(1_000, 5_000), seed=7
    )
    trace = sd.simulate.generate_trace(config)
    truth = sd.simulate.ground_truth(trace)
    results = {f.value: sd.simulate.run_trace(trace, f) for f in sd.simulate.DetectorFamily}
    assert trace.messages and truth.concurrent_pairs
    return trace, truth, results


def _check(cell, family=None, detected=None, counters=None):
    trace, truth, results = cell
    outputs = {f: (r.detected_pairs, r.counters) for f, r in results.items()}
    if family is not None:
        old_detected, old_counters = outputs[family]
        outputs[family] = (
            old_detected if detected is None else detected,
            old_counters if counters is None else counters,
        )
    return check_cell(
        len(trace.events), len(trace.messages), trace.dropped_messages, truth.concurrent_pairs, outputs
    )


def test_correct_cell_passes(cell):
    assert _check(cell).failures == []


@pytest.mark.parametrize("family", FAMILIES)
def test_one_extra_pair_fails(sd, cell, family):
    # Consecutive events of one process never overlap in wall time.
    extra = sd.detectors.pair_key(sd.detectors.EventId(0, 0), sd.detectors.EventId(0, 1))
    detected = cell[2][family].detected_pairs | {extra}
    assert _check(cell, family, detected=detected).failures


@pytest.mark.parametrize("family", FAMILIES)
def test_pair_checks_off_by_one_fails(cell, family):
    counters = cell[2][family].counters
    bumped = dataclasses.replace(counters, pair_checks=counters.pair_checks + 1)
    assert _check(cell, family, counters=bumped).failures


def test_physical_missing_a_pair_fails(cell):
    detected = set(cell[2]["physical"].detected_pairs)
    detected.pop()
    assert _check(cell, "physical", detected=detected).failures


def test_run_pass_counts_a_wrong_cell_as_failed(sd, cell):
    trace, truth, results = cell
    extra = sd.detectors.pair_key(sd.detectors.EventId(0, 0), sd.detectors.EventId(0, 1))

    def run_cell(observer):
        observer.begin(trace, truth)
        for family, result in results.items():
            if family == "vector":
                result = dataclasses.replace(result, detected_pairs=result.detected_pairs | {extra})
            observer.result(trace, family, result)
        observer.flush()

    silent = workloads.Part("silent", 1, lambda obs: None, lambda result, records: {})
    bad = workloads.Part("bad", 1, run_cell, lambda result, records: {})
    outcome = run.run_pass([silent, bad], CellObserver())
    # "silent" promised a cell and ran none; "bad" ran one with an extra pair.
    assert [bool(r.failures) for r in outcome.records] == [True, True]


def test_probe_samples_during_a_part_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    with probe.sampling() as speed:
        end = time.perf_counter() + 0.35
        while time.perf_counter() < end:
            pass
    assert len(speed.samples) >= probe.SAMPLES_BEFORE + 2
    assert speed.spent_s > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


class _Stop(Exception):
    pass


def _dense_traces(sd, seed, tmp_path):
    generate, seen = sd.simulate.generate_trace, []

    def record(config):
        seen.append(generate(config))
        raise _Stop

    with patched([(sd.simulate, "generate_trace", record)]):
        for part in workloads.setup_scale_dense(sd, seed, tmp_path):
            with pytest.raises(_Stop):
                part.run(CellObserver())
    return [(t.events, t.messages) for t in seen]


def test_seed_changes_scale_dense_traces(sd, tmp_path):
    assert _dense_traces(sd, 3, tmp_path) == _dense_traces(sd, 3, tmp_path)
    assert _dense_traces(sd, 3, tmp_path) != _dense_traces(sd, 4, tmp_path)


def _long_trace_digests(sd, seed, directory):
    directory.mkdir()
    workloads.setup_long_traces(sd, seed, directory)
    return sorted(hashlib.sha256(p.read_bytes()).hexdigest() for p in directory.iterdir())


def test_seed_changes_long_traces(sd, tmp_path):
    a = _long_trace_digests(sd, 1, tmp_path / "a")
    assert a == _long_trace_digests(sd, 1, tmp_path / "b")
    assert not set(a) & set(_long_trace_digests(sd, 5, tmp_path / "c"))


def _site_values(sd):
    values = {}
    for module, path, _ in SITES:
        owner = getattr(sd, module)
        *parents, attr = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        values[(module, path)] = vars(owner)[attr]
    return values


def test_tracing_records_nested_spans_and_restores_every_site(sd, cell):
    before = _site_values(sd)
    tracer, observer = Tracer(), CellObserver()
    with pytest.raises(ZeroDivisionError):
        with tracer.tracing(vars(sd), extra=[(observer, "flush", "bench.check")]):
            assert all(_site_values(sd)[k] is not v for k, v in before.items())
            sd.simulate.run_trace(cell[0], sd.simulate.DetectorFamily.VECTOR)
            1 / 0
    assert all(_site_values(sd)[k] is v for k, v in before.items())
    assert "flush" not in vars(observer)
    names = {s[0]: s[1] for s in tracer.spans}
    assert names[0] == "simulate.run_trace.vector"
    assert {names[s[2]] for s in tracer.spans if s[1] == "detectors.vector_detect"} == {
        "simulate.run_trace.vector"
    }


def test_self_time_subtracts_children():
    spans = [
        [0, "simulate.run_trace.vector", None, 0.0, 10.0],
        [1, "detectors.vector_detect", 0, 2.0, 8.0],
        [2, "bench.check", None, 10.0, 11.0],
    ]
    out = layer_metrics(spans)
    assert out["simulate.run_trace.vector.self_s"] == 4.0
    assert out["detectors.vector_detect.host_s"] == 6.0
    assert out["layer_self_s"] == 10.0


def test_compare_requires_identical_exact_facts():
    report = {"workload": "w", "seed": 1, "failed": 0, "exact": {"counters": {"x": 1}}}
    assert compare.exact_problems([report, dict(report)]) == []
    changed = dict(report, exact={"counters": {"x": 2}})
    assert compare.exact_problems([report, changed])
