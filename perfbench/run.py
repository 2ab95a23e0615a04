"""snapdetect benchmark: one workload, timed, checked and reported.

    python3 perfbench/run.py --workload sweep_specs --seed 1 --seconds 38 --trace 0

Run from anywhere; paths resolve against the repository root (the parent
of this directory).  The workloads are described in ``workloads.py`` and
their metrics in ``BENCHMARK.json``.

A run repeats, until another round would overrun ``--seconds``: import
snapdetect from ``src/`` and set up ``SETUPS_PER_PASS`` times, then run
one pass over the workload's parts.  ``setup_s`` is the median set-up.
``wall_s`` is the sum over parts of each part's median time.  Both are
seconds at a nominal host speed: each set-up and part is timed against
the host-speed probe (see ``probe.py``), because raw seconds on a shared
host move by more than any useful bound.  The raw figures are printed and
recorded as ``setup_raw_s`` and ``wall_raw_s``.  Every cell is checked
(see ``cells.py``), and every pass must repeat the first pass's counters
and digests exactly.

With ``--trace 1`` the first half of the budget runs untraced passes,
then one set-up and one pass run with every public layer function
wrapped (see ``tracing.py``); the per-layer metrics come from those spans
and the exact counters.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` (cells, over all passes) and ``metrics``.  A
full report, with the exact counters, the ``results.csv`` and
detected-pair digests and the per-part facts, goes to
``.bench_out/reports/`` (``--out`` to change), spans to
``.bench_out/spans/``.  ``compare.py`` checks two sets of reports.

Exit status: 0 when a result was printed, 2 when the checkout lacks the
program or its specs, or ``BENCHMARK.json`` does not match the metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from cells import FAMILIES, CellObserver, CellRecord, digest
from probe import SpeedProbe, at_nominal_speed, sampling
from tracing import Tracer, layer_metrics, span_records
from workloads import DEFAULT_SEEDS, ROOT, SETUPS, MissingSource, import_snapdetect

SETUPS_PER_PASS = 3
# Printed and recorded but not in BENCHMARK.json: raw host time swings by
# more than any useful bound between runs on a shared host (see probe.py),
# and failed_cell_frac is 0 when all is well.  wall_s, sim_events_per_s,
# setup_s and cells_ok_frac are their gated forms.
UNGATED_UNITS = {
    "wall_raw_s": "s",
    "sim_events_per_raw_s": "1/s",
    "setup_raw_s": "s",
    "failed_cell_frac": "ratio",
}
OUT_DIR = ROOT / ".bench_out"


@dataclass
class PassResult:
    times: dict = field(default_factory=dict)  # part name -> seconds, checks excluded
    infos: dict = field(default_factory=dict)  # part name -> digests and facts
    records: list = field(default_factory=list)
    nominal: dict = field(default_factory=dict)  # part name -> seconds at nominal host speed

    @property
    def total_s(self) -> float:
        return sum(self.times.values())


def run_pass(parts, observer: CellObserver, probe: bool = True) -> PassResult:
    """Run every part once, timing each and checking its cells.

    With ``probe`` each part is also measured against the host-speed probe.
    """
    out = PassResult()
    for part in parts:
        start, excluded = len(observer.records), observer.excluded_s
        failure = None
        with sampling() if probe else contextlib.nullcontext(SpeedProbe()) as speed:
            t0 = time.perf_counter()
            try:
                result = part.run(observer)
            except Exception as exc:  # noqa: BLE001 - a raising part counts its cells as failed
                traceback.print_exc(file=sys.stderr)
                observer.discard()
                failure = f"{part.name}: raised {exc!r}"
            elapsed = time.perf_counter() - t0
        out.times[part.name] = elapsed - (observer.excluded_s - excluded) - speed.spent_s
        if probe:
            out.nominal[part.name] = at_nominal_speed(out.times[part.name], speed)
        while len(observer.records) - start < part.cells:
            observer.records.append(CellRecord(0, 0, 0, 0, failures=[f"{part.name}: cell missing"]))
        records = observer.records[start:]
        if len(records) != part.cells:
            failure = failure or f"{part.name}: ran {len(records)} cells, expected {part.cells}"
        if failure:
            for rec in records:
                rec.failures.append(failure)
            info = {}
        else:
            info = part.verify(result, records)
        delivered = sum(r.delivered for r in records)
        info["delivery_ratio"] = delivered / max(1, delivered + sum(r.dropped for r in records))
        for family in FAMILIES:
            ran = [r for r in records if family in r.families]
            if ran:
                info[f"{family}_recall"] = _mean(r.recall(family) for r in ran)
        out.infos[part.name] = info
    out.records = observer.records
    return out


def check_repeats(first: PassResult, later: PassResult) -> None:
    """Fail every cell of ``later`` that does not repeat ``first`` exactly."""
    for a, b in zip(first.records, later.records):
        if a.identity() != b.identity():
            b.failures.append("output differs from the first pass")
    if later.infos != first.infos:
        for rec in later.records:
            rec.failures.append("part digests differ from the first pass")


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def end_to_end(passes, setup_times, setup_raw) -> dict:
    first = passes[0]
    parts = first.times
    wall_raw = sum(statistics.median(p.times[name] for p in passes) for name in parts)
    wall = sum(statistics.median(p.nominal[name] for p in passes) for name in parts)
    work = sum((r.events + r.delivered) * len(r.families) for r in first.records)
    cells = [r for p in passes for r in p.records]
    failed = sum(1 for r in cells if r.failures) / len(cells)
    return {
        "wall_s": wall,
        "wall_raw_s": wall_raw,
        "sim_events_per_s": work / wall,
        "sim_events_per_raw_s": work / wall_raw,
        "setup_s": statistics.median(setup_times),
        "setup_raw_s": statistics.median(setup_raw),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_cell_frac": failed,
        "cells_ok_frac": 1.0 - failed,
        "snapshot_recall": _mean(r.recall("snapshot") for r in first.records if "snapshot" in r.families),
        "vector_recall": _mean(r.recall("vector") for r in first.records if "vector" in r.families),
    }


def per_layer(spans, pass_spans, traced: PassResult, untraced_wall: float, counters: dict) -> dict:
    out = layer_metrics(spans)
    del out["layer_self_s"]
    out["trace.layer_coverage"] = layer_metrics(pass_spans)["layer_self_s"] / traced.total_s
    out["trace.wall_s"] = traced.total_s
    out["trace_overhead_s"] = traced.total_s - untraced_wall
    out.update(counters)
    delivered = counters["simulate.messages_delivered"]
    out["simulate.delivery_ratio"] = delivered / max(1, delivered + counters["simulate.messages_dropped"])
    for f in FAMILIES:
        checks = counters[f"detectors.{f}.pair_checks"]
        out[f"detectors.{f}.pair_hit_ratio"] = (
            counters[f"detectors.{f}.detected_pairs"] / checks if checks else 0.0
        )
    return out


def declared_metrics() -> dict:
    """``BENCHMARK.json``'s metrics: section -> {name: unit}."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {sec: {m["name"]: m["unit"] for m in spec[sec]} for sec in ("end_to_end", "per_layer")}


def run(workload: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    setup = SETUPS[workload]
    import_snapdetect()  # untimed: loads numpy once, so set-ups are alike
    work_dir = OUT_DIR / f"work-{workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        budget = seconds / 2 if trace else seconds
        t_start = time.perf_counter()
        setup_times, setup_raw, passes = [], [], []
        while True:
            # Set-ups are spread over the run, so they see the same host as the passes.
            for _ in range(SETUPS_PER_PASS):
                with sampling() as speed:
                    t0 = time.perf_counter()
                    sd = import_snapdetect()
                    parts = setup(sd, seed, work_dir)
                    elapsed = time.perf_counter() - t0 - speed.spent_s
                setup_raw.append(elapsed)
                setup_times.append(at_nominal_speed(elapsed, speed))
            passes.append(run_pass(parts, CellObserver()))
            typical = statistics.median(p.total_s for p in passes)
            if time.perf_counter() - t_start + typical > budget:
                break

        report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace)}
        if trace:
            tracer, observer = Tracer(), CellObserver()
            with tracer.tracing(vars(sd), extra=[(observer, "flush", "bench.check")]):
                traced_parts = setup(sd, seed, work_dir)
                mark = len(tracer.spans)
                traced = run_pass(traced_parts, observer, probe=False)
            passes.append(traced)
        for later in passes[1:]:
            check_repeats(passes[0], later)
        exact = digest(passes[0].records)
        e2e = end_to_end(passes[:-1] if trace else passes, setup_times, setup_raw)
        metrics = e2e
        if trace:
            metrics = per_layer(tracer.spans, tracer.spans[mark:], traced, e2e["wall_raw_s"], exact["counters"])
            spans_dir = OUT_DIR / "spans"
            spans_dir.mkdir(parents=True, exist_ok=True)
            (spans_dir / f"{workload}-seed{seed}.json").write_text(
                json.dumps(span_records(tracer.spans)) + "\n", encoding="utf-8"
            )
        failures = [f for p in passes for r in p.records for f in r.failures]
        report.update(
            attempted=sum(len(p.records) for p in passes),
            failed=sum(1 for p in passes for r in p.records if r.failures),
            failures=failures[:20],
            setup_times_s=setup_times,
            setup_raw_s=setup_raw,
            pass_times_s=[p.times for p in passes],
            pass_nominal_s=[p.nominal for p in passes],
            end_to_end=e2e,
            metrics=metrics,
            exact={**exact, "parts": passes[0].infos},
        )
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
            json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )
        return report
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SETUPS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=OUT_DIR / "reports")
    args = parser.parse_args(argv)
    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    section = "per_layer" if args.trace else "end_to_end"
    try:
        units = declared_metrics()[section]
        report = run(args.workload, seed, args.seconds, bool(args.trace), args.out)
    except (MissingSource, FileNotFoundError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    values = report["metrics"]
    missing = set(units) - set(values)
    unknown = set(values) - set(units) - set(UNGATED_UNITS)
    if missing or unknown:
        print(
            f"perfbench: metrics differ from BENCHMARK.json {section}: "
            f"undeclared {sorted(unknown)}, missing {sorted(missing)}",
            file=sys.stderr,
        )
        return 2
    for failure in report["failures"]:
        print(f"FAILED {failure}")
    for name, info in report["exact"]["parts"].items():
        facts = " ".join(f"{k}={v:.6f}" for k, v in info.items() if isinstance(v, float))
        print(f"part {name}: {facts}")
    for name, value in values.items():
        print(f"{name} {value:.6g} {units.get(name) or UNGATED_UNITS[name]}")
    print(
        json.dumps(
            {
                "correct": report["failed"] == 0,
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
