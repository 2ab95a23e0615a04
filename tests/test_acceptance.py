"""End-to-end acceptance checks, one per release criterion.

Each test prints a single pass/fail line (bypassing capture) so the
suite's acceptance status is readable straight from the pytest run.
"""
import hashlib
import json
import sys
from pathlib import Path

import pytest

from _oracles import (
    brute_force_overlap,
    causal_closure,
    readings_of,
    timeline_point_stamps,
    vector_lt,
    vector_point_stamps,
)
from snapdetect.detectors import EventId
from snapdetect.experiment import load_spec, parse_spec, read_results, run_sweep, summarize
from snapdetect.metrics import complexity_fit, score, trend
from snapdetect.scenarios import (
    FIXTURE_NAMES,
    SNAPSHOT_DETECTS,
    TRUTH_PAIR,
    run_all_scenarios,
)
from snapdetect.simulate import (
    DetectorFamily,
    SimConfig,
    generate_trace,
    ground_truth,
    run_trace,
)

NODE_SWEEP_SPEC = {
    "base": {"nodes": 2, "instances_per_node": 2, "events_per_process": 6},
    "sweep": {"axis": "nodes", "points": [2, 5, 10, 15, 20]},
    "seeds": {"count": 30, "base": 1},
    "detectors": ["snapshot", "vector"],
}

DELAY_SWEEP_SPEC = {
    "base": {"nodes": 4, "instances_per_node": 2, "events_per_process": 8},
    "sweep": {"axis": "delay_ms", "points": [0.25, 1, 4, 16, 64, 250, 1000, 8000]},
    "seeds": {"count": 30, "base": 1},
    "detectors": ["snapshot", "vector"],
}

SPECS = Path(__file__).resolve().parents[1] / "specs"

#: sha256 of each sweep's results.csv and manifest.json.  A change to
#: either file's bytes must update these pins where reviewers see it.
PINNED = {
    "node_sweep": (
        "0b606d8ca80de364b16993f27f722318c0e34c20b3b61b50dd4b3917bd7db879",
        "37331de74325a585f7ebeb833bdeb9527ec025a623460b901e40f43245479dd7",
    ),
    "delay_sweep": (
        "aac7c7201a6468cf7cc44ef6cbc09164c06e7a1b140ca240adb781ebad2161cc",
        "458b545aa73774104eeb9b816f85183c0a2ccb56c1f3cdfd9d6f0faf9129ab09",
    ),
}

#: sha256 of each sweep's summary as ``json.dumps(indent=2, sort_keys=True)``
#: writes it, less ``trends`` and ``growth``: those come from numpy fits,
#: whose last bits may differ between machines.
SUMMARY_PINNED = {
    "node_sweep": "c54f7c3d57d77b6196a248b438ec32251676327f483c13c18e25062d9bf48ffa",
    "delay_sweep": "42e00f5bfc82e48219bdfc4734ec472e2bb249eb32bd0959e7b4cfe79f590405",
}


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"acceptance {num} ({label}): {status}{suffix}", file=sys.__stdout__, flush=True)
    assert ok, f"criterion {num} ({label}) failed{suffix}"


@pytest.fixture(scope="module")
def node_sweep(tmp_path_factory):
    """Criterion 2's sweep, run twice so criterion 6 can compare bytes."""
    spec = parse_spec(NODE_SWEEP_SPEC)
    first = run_sweep(spec, tmp_path_factory.mktemp("nodes1"))
    second = run_sweep(spec, tmp_path_factory.mktemp("nodes2"))
    assert first.failed_jobs == 0 and second.failed_jobs == 0
    return first, second


@pytest.fixture(scope="module")
def delay_sweep(tmp_path_factory):
    """Criterion 3's sweep, run once for the criterion and the byte pin."""
    outcome = run_sweep(parse_spec(DELAY_SWEEP_SPEC), tmp_path_factory.mktemp("delays"))
    assert outcome.failed_jobs == 0
    return outcome


def test_criterion_1_scenario_fidelity():
    results = {r.name: r for r in run_all_scenarios()}
    ok = all(results[name].vector_pairs == frozenset() for name in FIXTURE_NAMES)
    for name in FIXTURE_NAMES:
        expected = {TRUTH_PAIR} if SNAPSHOT_DETECTS[name] else frozenset()
        ok = ok and set(results[name].snapshot_pairs) == set(expected)
    detail = ", ".join(
        f"{n}: snap={'hit' if results[n].snapshot_pairs else 'miss'}"
        f"/vec={'hit' if results[n].vector_pairs else 'miss'}"
        for n in FIXTURE_NAMES
    )
    _report(1, "scenario fidelity", ok, detail)


def test_criterion_2_node_sweep_dominance(node_sweep):
    summary = summarize(read_results(node_sweep[0].results_csv))
    dominance = summary["dominance"]["snapshot_ge_vector_everywhere"]
    trends_ok = all(
        summary["trends"][det] is not None and summary["trends"][det] <= 0.0
        for det in ("snapshot", "vector")
    )
    detail = (
        f"dominance everywhere={dominance}, "
        f"trend snap={summary['trends']['snapshot']:+.3f} "
        f"vec={summary['trends']['vector']:+.3f}, "
        f"vacuous={summary['vacuous']}"
    )
    _report(2, "node sweep dominance", dominance and trends_ok, detail)


def test_vacuous_flag_marks_the_sweep_no_family_scores_on(node_sweep, delay_sweep):
    """The node sweep's rows all have true pairs and no detected pair; the delay sweep detects some."""
    node_rows = read_results(node_sweep[0].results_csv)
    assert all(r["true_pairs"] > 0 and r["detected_pairs"] == 0 for r in node_rows)
    assert summarize(node_rows)["vacuous"] is True
    assert summarize(read_results(delay_sweep.results_csv))["vacuous"] is False


def test_physical_rows_do_not_make_a_sweep_non_vacuous(node_sweep):
    """Ground truth detects every true pair; only the detecting families count."""
    node_rows = read_results(node_sweep[0].results_csv)
    physical = [
        dict(r, detector="physical", detected_pairs=r["true_pairs"], recall=1.0, precision=1.0)
        for r in node_rows
    ]
    assert summarize(node_rows + physical)["vacuous"] is True
    assert summarize(physical)["vacuous"] is True


def test_criterion_3_delay_sweep(delay_sweep):
    summary = summarize(read_results(delay_sweep.results_csv))
    trends_ok = all(summary["trends"][det] <= -0.8 for det in ("snapshot", "vector"))
    dominance = summary["dominance"]["snapshot_ge_vector_everywhere"]
    detail = (
        f"trend snap={summary['trends']['snapshot']:+.3f} "
        f"vec={summary['trends']['vector']:+.3f}, dominance={dominance}"
    )
    _report(3, "delay sweep decline", trends_ok and dominance, detail)


def test_criterion_4_complexity_growth():
    sizes, intervals = [], []
    counters = {DetectorFamily.SNAPSHOT: [], DetectorFamily.VECTOR: []}
    for nodes in (2, 8, 20):
        config = SimConfig(
            nodes=nodes,
            instances_per_node=1,
            events_per_process=10,
            message_delay_us=(1_000, 5_000),
            peer_fanout=1,
            seed=7,
        )
        trace = generate_trace(config)
        sizes.append(nodes)
        intervals.append(len(trace.events))
        for family in counters:
            counters[family].append(run_trace(trace, family).counters)

    def per_event_payload(family):
        return [c.stamp_words_sent / c.events_processed for c in counters[family]]

    snap_payload = complexity_fit(sizes, per_event_payload(DetectorFamily.SNAPSHOT))
    vec_payload = complexity_fit(sizes, per_event_payload(DetectorFamily.VECTOR))
    snap_checks = complexity_fit(
        intervals, [c.pair_checks for c in counters[DetectorFamily.SNAPSHOT]]
    )
    vec_checks = complexity_fit(
        intervals, [c.pair_checks for c in counters[DetectorFamily.VECTOR]]
    )
    # At delta = 0 each announcement is one stamp word per processed event,
    # so the snapshot payload is the identity, not a fitted trend.
    identity = all(
        c.stamp_words_sent == c.events_processed for c in counters[DetectorFamily.SNAPSHOT]
    )
    ok = (
        identity
        and snap_payload.exponent < 0.3
        and 0.7 <= vec_payload.exponent <= 1.3
        and 1.7 <= vec_checks.exponent <= 2.3
        and 0.7 <= snap_checks.exponent <= 1.3
    )
    detail = (
        "stamp words/processed event (broadcast once per emission) "
        f"snap={snap_payload.exponent:.2f} vec={vec_payload.exponent:.2f}, "
        f"snap stamp words == events processed at delta=0: {identity}, "
        f"checks snap={snap_checks.exponent:.2f} vec={vec_checks.exponent:.2f}"
    )
    _report(4, "complexity growth", ok, detail)


def test_criterion_5_oracle_equivalences():
    def small_config(seed, **overrides):
        defaults = dict(
            nodes=3,
            instances_per_node=2,
            events_per_process=3,
            message_delay_us=(500, 40_000),
            seed=seed,
        )
        defaults.update(overrides)
        return SimConfig(**defaults)

    # Microsecond spans that start together and touch end to start.
    tight = dict(event_lifespan_us=(1, 4), inter_event_gap_us=(0, 3), start_jitter_us=3)
    physical_exact = True
    snapshot_sound = True
    for seed in range(100):
        for config in (small_config(seed), small_config(seed, **tight)):
            trace = generate_trace(config)
            # The physical family returns ground truth's overlap, so the
            # overlap itself is checked against the brute-force oracle.
            truth = ground_truth(trace).concurrent_pairs
            physical_exact &= (
                truth == brute_force_overlap(trace)
                and run_trace(trace, DetectorFamily.PHYSICAL).detected_pairs == truth
            )
            snapshot_sound &= (
                run_trace(trace, DetectorFamily.SNAPSHOT).detected_pairs <= truth
            )

    vector_exact = True
    small_shapes = [(2, 1), (2, 2), (2, 4), (3, 1), (3, 2)]
    for nodes, epp in small_shapes:
        for seed in range(10):
            trace = generate_trace(
                small_config(seed, nodes=nodes, instances_per_node=1, events_per_process=epp)
            )
            closure = causal_closure(trace)
            keyed = timeline_point_stamps(trace, vector_point_stamps(trace))
            vector_exact &= len(keyed) == len(closure)
            for a in keyed:
                for b in keyed:
                    if a != b:
                        vector_exact &= (b in closure[a]) == vector_lt(keyed[a], keyed[b])

    ok = physical_exact and vector_exact and snapshot_sound
    detail = (
        f"physical==truth==brute force:{physical_exact}, vector<=>reachability:{vector_exact}, "
        f"snapshot<=truth:{snapshot_sound}"
    )
    _report(5, "oracle equivalences", ok, detail)


def test_criterion_6_byte_identical_rerun(node_sweep):
    first, second = node_sweep
    identical = first.results_csv.read_bytes() == second.results_csv.read_bytes()
    _report(6, "deterministic rerun", identical, f"rows={first.rows_written}")


@pytest.mark.parametrize(
    ("name", "spec"), [("node_sweep", NODE_SWEEP_SPEC), ("delay_sweep", DELAY_SWEEP_SPEC)]
)
def test_in_test_specs_are_the_checked_in_specs(name, spec):
    assert load_spec(SPECS / f"{name}.json") == parse_spec(spec)


def _assert_pinned(outcome, name: str) -> None:
    csv_digest, manifest_digest = PINNED[name]
    assert hashlib.sha256(outcome.results_csv.read_bytes()).hexdigest() == csv_digest
    assert hashlib.sha256(outcome.manifest.read_bytes()).hexdigest() == manifest_digest


def test_node_sweep_bytes_are_pinned(node_sweep):
    _assert_pinned(node_sweep[0], "node_sweep")


def test_delay_sweep_bytes_are_pinned(delay_sweep):
    _assert_pinned(delay_sweep, "delay_sweep")


def _summary_digest(outcome) -> str:
    summary = summarize(read_results(outcome.results_csv))
    kept = {key: summary[key] for key in ("points", "dominance", "vacuous", "detectors")}
    return hashlib.sha256(json.dumps(kept, indent=2, sort_keys=True).encode()).hexdigest()


def test_node_sweep_summary_is_pinned(node_sweep):
    assert _summary_digest(node_sweep[0]) == SUMMARY_PINNED["node_sweep"]


def test_delay_sweep_summary_is_pinned(delay_sweep):
    assert _summary_digest(delay_sweep) == SUMMARY_PINNED["delay_sweep"]


def test_criterion_7_error_rate_calibration():
    config = SimConfig(
        nodes=5,
        instances_per_node=2,
        events_per_process=1_000,
        message_delay_us=(1_000, 5_000),
        error_rate=0.5,
        peer_fanout=1,
        seed=11,
    )
    trace = generate_trace(config)
    readings = readings_of(trace)
    fraction = sum(1 for r in readings.values() if r.erroneous) / len(readings)
    ok = len(readings) >= 10_000 and abs(fraction - 0.5) <= 0.02
    _report(7, "error-rate calibration", ok, f"n={len(readings)}, observed={fraction:.4f}")
