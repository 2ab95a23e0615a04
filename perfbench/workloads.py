"""The benchmark's workloads.

Each workload's set-up imports snapdetect from ``src/`` and returns a
list of ``Part``s.  A part is one timed unit of the measured phase: a
spec sweep, or one trace run through all three detector families.  A
pass runs every part once.  Set-up and checks are never inside a part's
timing.

Why these workloads:

* ``sweep_specs`` runs the two checked-in specs exactly as users and the
  acceptance gate do.  Their seconds-scale delays deliver almost no
  messages in the node sweep, so the cost is generation, ground truth,
  the vector scan at <= 40 processes, snapshot start broadcasts and the
  CSV/summary harness.  The specs fix their own seeds, so ``--seed`` does
  not change this workload.
* ``scale_dense`` is message-heavy (1-5 ms delays, up to 40 processes),
  so the snapshot replay, whose send broadcasts grow about n^3, does most
  of the work; the vector replay merges 40-slot stamps.
* ``long_traces`` has few processes and long traces, so the O(m^2)
  vector scan is about 90% of the time, and trace generation happens in
  set-up: a snapshot or generation speed-up should not move it.
"""
from __future__ import annotations

import hashlib
import importlib
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

from cells import CellObserver, CellRecord
from tracing import patched

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SPEC_DIR = ROOT / "specs"
SPECS = ("node_sweep", "delay_sweep")
MODULES = ("simulate", "detectors", "metrics", "tracefile", "experiment")
DEFAULT_SEEDS = {"sweep_specs": 1, "scale_dense": 3, "long_traces": 1}

DENSE_NODES = (5, 10, 20)
LONG_TRACES = 4


class MissingSource(RuntimeError):
    """The checkout lacks the program or the specs the benchmark runs."""


def import_snapdetect() -> SimpleNamespace:
    """Import snapdetect's modules afresh from ``src/``.

    Earlier imports are dropped first, so the module code runs again and
    its cost is part of set-up.
    """
    if not (SRC / "snapdetect" / "__init__.py").is_file():
        raise MissingSource(f"no snapdetect package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "snapdetect" or m.startswith("snapdetect.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"snapdetect.{m}") for m in MODULES})


@dataclass
class Part:
    """One timed unit of a pass.

    ``run(observer)`` is timed and feeds every cell it runs to the
    observer.  ``verify(result, records)`` runs untimed afterwards; it may
    add failures to the part's cell records and returns the part's
    digests and facts for the report.
    """

    name: str
    cells: int
    run: Callable[[CellObserver], object]
    verify: Callable[[object, list[CellRecord]], dict]


# -- sweep_specs ---------------------------------------------------------


def _sweep_part(sd, name: str, spec, cells: int, out_dir: Path) -> Part:
    exp = sd.experiment

    def run(observer: CellObserver):
        ground_truth, run_trace = exp.ground_truth, exp.run_trace

        def observed_truth(trace):
            truth = ground_truth(trace)
            observer.begin(trace, truth)
            return truth

        def observed_run(trace, family, *args, **kwargs):
            result = run_trace(trace, family, *args, **kwargs)
            observer.result(trace, family.value, result)
            return result

        with patched([(exp, "ground_truth", observed_truth), (exp, "run_trace", observed_run)]):
            outcome = exp.run_sweep(spec, out_dir, jobs=1)
        observer.flush()
        rows = exp.read_results(outcome.results_csv)
        summary = exp.summarize(rows)
        return outcome, rows, summary

    def verify(result, records: list[CellRecord]) -> dict:
        outcome, rows, summary = result
        problems = [f"{name}: {e}" for e in outcome.errors]
        expected = [(r, f) for r in records for f in r.families]
        if len(rows) != len(expected):
            problems.append(f"{name}: {len(rows)} csv rows for {len(expected)} detector runs")
        for row, (rec, family) in zip(rows, expected):
            stats = rec.families[family]
            want = {
                "detector": family,
                "true_pairs": rec.true_pairs,
                "detected_pairs": stats["detected_pairs"],
                "clock_updates": stats["clock_updates"],
                "stamp_words_sent": stats["stamp_words_sent"],
                "pair_checks": stats["pair_checks"],
                "recall": float(f"{rec.recall(family):.6f}"),
            }
            got = {k: row[k] for k in want}
            if got != want:
                rec.failures.append(f"{name}: csv row {got} != {want}")
        if len(summary["points"]) != len(spec.points) * len(spec.detectors):
            problems.append(f"{name}: summary has {len(summary['points'])} points")
        for rec in records:
            rec.failures.extend(problems)
        return {"results_csv_sha256": hashlib.sha256(outcome.results_csv.read_bytes()).hexdigest()}

    return Part(name, cells, run, verify)


def setup_sweep_specs(sd, seed: int, work_dir: Path) -> list[Part]:
    exp = sd.experiment
    parts = []
    for name in SPECS:
        path = SPEC_DIR / f"{name}.json"
        if not path.is_file():
            raise MissingSource(f"missing spec {path}")
        spec = exp.load_spec(path)
        configs = [
            exp.config_for_point(spec.base, spec.axis, point, s)
            for point in spec.points
            for s in spec.seeds
        ]
        for config in configs:
            config.validate()
        parts.append(_sweep_part(sd, name, spec, len(configs), work_dir / name))
    return parts


# -- scale_dense and long_traces -----------------------------------------


def _cell_part(sd, name: str, make_trace: Callable) -> Part:
    """A part that makes one trace and runs it through every family."""
    simulate, metrics = sd.simulate, sd.metrics

    def run(observer: CellObserver):
        trace = make_trace()
        truth = simulate.ground_truth(trace)
        observer.begin(trace, truth)
        reports = {}
        for family in simulate.DetectorFamily:
            result = simulate.run_trace(trace, family)
            reports[family.value] = metrics.score(result.detected_pairs, truth)
            observer.result(trace, family.value, result)
        observer.flush()
        return reports

    def verify(reports: dict, records: list[CellRecord]) -> dict:
        for rec in records:
            for family, report in reports.items():
                got = (report.true_pairs, report.detected_pairs, report.recall)
                want = (rec.true_pairs, rec.families[family]["detected_pairs"], rec.recall(family))
                if got != want:
                    rec.failures.append(f"{name}: {family} score {got} != {want}")
        return {}

    return Part(name, 1, run, verify)


def dense_config(sd, nodes: int, seed: int):
    return sd.simulate.SimConfig(
        nodes=nodes,
        instances_per_node=2,
        events_per_process=20,
        message_delay_us=(1_000, 5_000),
        seed=seed,
    )


def long_config(sd, seed: int):
    return sd.simulate.SimConfig(
        nodes=4,
        instances_per_node=2,
        events_per_process=150,
        message_delay_us=(1_000, 5_000),
        peer_fanout=1,
        seed=seed,
    )


def setup_scale_dense(sd, seed: int, work_dir: Path) -> list[Part]:
    parts = []
    for nodes in DENSE_NODES:
        config = dense_config(sd, nodes, seed)
        config.validate()
        parts.append(
            _cell_part(sd, f"nodes={nodes}", lambda c=config: sd.simulate.generate_trace(c))
        )
    return parts


def setup_long_traces(sd, seed: int, work_dir: Path) -> list[Part]:
    parts = []
    for s in range(seed, seed + LONG_TRACES):
        path = work_dir / f"trace-{s}.jsonl"
        sd.tracefile.save_trace(sd.simulate.generate_trace(long_config(sd, s)), path)
        parts.append(_cell_part(sd, f"seed={s}", lambda p=path: sd.tracefile.load_trace(p)))
    return parts


SETUPS = {
    "sweep_specs": setup_sweep_specs,
    "scale_dense": setup_scale_dense,
    "long_traces": setup_long_traces,
}
