"""Sweep harness: run detector grids, emit results.csv and summaries.

Spec files are JSON with explicit units in field names (times are given
in milliseconds and converted to integer microseconds internally).  A
sweep runs every (point, seed, detector) combination; rows are written
in spec order so reruns with the same spec are byte-identical.
"""
from __future__ import annotations

import csv
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .metrics import complexity_fit, score, trend
from .simulate import (
    ConfigError,
    DetectorFamily,
    SimConfig,
    generate_trace,
    ground_truth,
    run_trace,
)

CSV_SCHEMA_VERSION = 1
CSV_COLUMNS = (
    "axis_value",
    "seed",
    "detector",
    "recall",
    "precision",
    "true_pairs",
    "detected_pairs",
    "clock_updates",
    "stamp_words_sent",
    "pair_checks",
    "wall_ms",
)

AXES = ("nodes", "delay_ms", "error_rate")


class SpecError(ValueError):
    """Invalid experiment spec; ``field`` names the offender."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field = field_name


@dataclass(frozen=True)
class ExperimentSpec:
    base: SimConfig
    axis: str
    points: tuple
    seeds: tuple[int, ...]
    detectors: tuple[DetectorFamily, ...]


def _ms_to_us(value: float) -> int:
    return int(round(value * 1000))


def _range_us(field: str, value) -> tuple[int, int]:
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise SpecError(field, f"expected [lo_ms, hi_ms], got {value!r}")
    return (_ms_to_us(value[0]), _ms_to_us(value[1]))


def parse_spec(data: dict) -> ExperimentSpec:
    if not isinstance(data, dict):
        raise SpecError("spec", "top level must be a JSON object")
    base_raw = data.get("base")
    if not isinstance(base_raw, dict):
        raise SpecError("base", "missing or not an object")
    known = {
        "nodes",
        "instances_per_node",
        "events_per_process",
        "event_lifespan_ms",
        "message_delay_ms",
        "inter_event_gap_ms",
        "start_jitter_ms",
        "error_rate",
        "stay_mean_ms",
        "users",
        "rooms",
        "peer_fanout",
    }
    for key in base_raw:
        if key not in known:
            raise SpecError(f"base.{key}", "unknown field")
    kwargs = {}
    if "nodes" not in base_raw:
        raise SpecError("base.nodes", "required")
    kwargs["nodes"] = base_raw["nodes"]
    for name in ("instances_per_node", "events_per_process", "error_rate", "users", "rooms", "peer_fanout"):
        if name in base_raw:
            kwargs[name] = base_raw[name]
    if "event_lifespan_ms" in base_raw:
        kwargs["event_lifespan_us"] = _range_us("base.event_lifespan_ms", base_raw["event_lifespan_ms"])
    if "message_delay_ms" in base_raw:
        kwargs["message_delay_us"] = _range_us("base.message_delay_ms", base_raw["message_delay_ms"])
    if "inter_event_gap_ms" in base_raw:
        kwargs["inter_event_gap_us"] = _range_us("base.inter_event_gap_ms", base_raw["inter_event_gap_ms"])
    if "start_jitter_ms" in base_raw:
        kwargs["start_jitter_us"] = _ms_to_us(base_raw["start_jitter_ms"])
    if "stay_mean_ms" in base_raw:
        kwargs["stay_mean_us"] = _ms_to_us(base_raw["stay_mean_ms"])
    try:
        base = SimConfig(**kwargs)
        base.validate()
    except ConfigError as exc:
        raise SpecError(f"base.{exc.field}", str(exc)) from exc
    except TypeError as exc:
        raise SpecError("base", str(exc)) from exc

    sweep = data.get("sweep")
    if not isinstance(sweep, dict):
        raise SpecError("sweep", "missing or not an object")
    axis = sweep.get("axis")
    if axis not in AXES:
        raise SpecError("sweep.axis", f"must be one of {AXES}, got {axis!r}")
    points = sweep.get("points")
    if not isinstance(points, list) or not points:
        raise SpecError("sweep.points", "must be a non-empty list")

    seeds_raw = data.get("seeds", {"count": 30, "base": 1})
    if isinstance(seeds_raw, list):
        seeds = tuple(int(s) for s in seeds_raw)
    elif isinstance(seeds_raw, dict):
        count = seeds_raw.get("count", 30)
        base_seed = seeds_raw.get("base", 1)
        seeds = tuple(range(base_seed, base_seed + count))
    else:
        raise SpecError("seeds", "must be a list or {count, base}")
    if not seeds:
        raise SpecError("seeds", "must be non-empty")

    det_names = data.get("detectors", ["snapshot", "vector"])
    if not isinstance(det_names, list) or not det_names:
        raise SpecError("detectors", "must be a non-empty list")
    try:
        detectors = tuple(DetectorFamily(name) for name in det_names)
    except ValueError as exc:
        raise SpecError("detectors", str(exc)) from exc

    return ExperimentSpec(base=base, axis=axis, points=tuple(points), seeds=seeds, detectors=detectors)


def load_spec(path: str | Path) -> ExperimentSpec:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise SpecError("spec", f"file not found: {path}")
    except json.JSONDecodeError as exc:
        raise SpecError("spec", f"bad JSON in {path}: {exc}")
    return parse_spec(data)


def config_for_point(base: SimConfig, axis: str, point, seed: int) -> SimConfig:
    if axis == "nodes":
        return replace(base, nodes=int(point), seed=seed)
    if axis == "delay_ms":
        if isinstance(point, (list, tuple)):
            delay = (_ms_to_us(point[0]), _ms_to_us(point[1]))
        else:
            delay = (_ms_to_us(point), _ms_to_us(point))
        return replace(base, message_delay_us=delay, seed=seed)
    if axis == "error_rate":
        return replace(base, error_rate=float(point), seed=seed)
    raise SpecError("sweep.axis", f"unknown axis {axis!r}")


def _job(args: tuple) -> list[dict]:
    """One (point, seed) cell: generate once, run every detector."""
    base, axis, point, seed, det_values = args
    config = config_for_point(base, axis, point, seed)
    trace = generate_trace(config)
    truth = ground_truth(trace)
    rows = []
    for value in det_values:
        family = DetectorFamily(value)
        result = run_trace(trace, family)
        report = score(result.detected_pairs, truth)
        rows.append(
            {
                "axis_value": _axis_repr(point),
                "seed": seed,
                "detector": family.value,
                "recall": f"{report.recall:.6f}",
                "precision": f"{report.precision:.6f}",
                "true_pairs": report.true_pairs,
                "detected_pairs": report.detected_pairs,
                "clock_updates": result.counters.clock_updates,
                "stamp_words_sent": result.counters.stamp_words_sent,
                "pair_checks": result.counters.pair_checks,
                "wall_ms": f"{result.sim_wall_ms:.3f}",
            }
        )
    return rows


def _axis_repr(point) -> str:
    if isinstance(point, (list, tuple)):
        return "-".join(format(p, "g") for p in point)
    return format(point, "g") if isinstance(point, float) else str(point)


@dataclass
class SweepOutcome:
    results_csv: Path
    manifest: Path
    rows_written: int
    completed_jobs: int
    failed_jobs: int
    errors: list[str]


def run_sweep(
    spec: ExperimentSpec,
    out_dir: str | Path,
    jobs: int = 1,
    seed_override: Optional[int] = None,
) -> SweepOutcome:
    """Run the full grid and write results.csv plus manifest.json."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    seeds = (seed_override,) if seed_override is not None else spec.seeds
    det_values = tuple(d.value for d in spec.detectors)
    job_args = [
        (spec.base, spec.axis, point, seed, det_values)
        for point in spec.points
        for seed in seeds
    ]

    results: list[Optional[list[dict]]] = []
    errors: list[str] = []
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_job, args) for args in job_args]
            for args, future in zip(job_args, futures):
                try:
                    results.append(future.result())
                except Exception as exc:  # noqa: BLE001 - partial failure is reported
                    results.append(None)
                    errors.append(f"point={args[2]} seed={args[3]}: {exc}")
    else:
        for args in job_args:
            try:
                results.append(_job(args))
            except Exception as exc:  # noqa: BLE001 - partial failure is reported
                results.append(None)
                errors.append(f"point={args[2]} seed={args[3]}: {exc}")

    csv_path = out_dir / "results.csv"
    rows_written = 0
    with csv_path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for outcome in results:
            if outcome is None:
                continue
            for row in outcome:
                writer.writerow(row)
                rows_written += 1

    manifest = {
        "tool": "snapdetect",
        "version": __version__,
        "csv_schema": CSV_SCHEMA_VERSION,
        "base_config": _config_echo(spec.base),
        "sweep": {"axis": spec.axis, "points": list(spec.points)},
        "seeds": list(seeds),
        "detectors": list(det_values),
    }
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    completed = sum(1 for r in results if r is not None)
    return SweepOutcome(
        results_csv=csv_path,
        manifest=manifest_path,
        rows_written=rows_written,
        completed_jobs=completed,
        failed_jobs=len(results) - completed,
        errors=errors,
    )


def _config_echo(config: SimConfig) -> dict:
    return {
        "nodes": config.nodes,
        "instances_per_node": config.instances_per_node,
        "events_per_process": config.events_per_process,
        "event_lifespan_us": list(config.event_lifespan_us),
        "message_delay_us": list(config.message_delay_us),
        "inter_event_gap_us": list(config.inter_event_gap_us),
        "start_jitter_us": config.start_jitter_us,
        "error_rate": config.error_rate,
        "stay_mean_us": config.stay_mean_us,
        "users": config.users,
        "rooms": config.rooms,
        "peer_fanout": config.peer_fanout,
    }


class ResultsFormatError(ValueError):
    """Malformed results.csv; carries the offending line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def read_results(csv_path: str | Path) -> list[dict]:
    path = Path(csv_path)
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ResultsFormatError(1, "empty file")
        if tuple(header) != CSV_COLUMNS:
            raise ResultsFormatError(1, f"unexpected header {header}")
        rows = []
        for lineno, raw in enumerate(reader, start=2):
            if len(raw) != len(CSV_COLUMNS):
                raise ResultsFormatError(lineno, f"expected {len(CSV_COLUMNS)} fields, got {len(raw)}")
            rec = dict(zip(CSV_COLUMNS, raw))
            try:
                rec["recall"] = float(rec["recall"])
                rec["precision"] = float(rec["precision"])
                rec["seed"] = int(rec["seed"])
                for key in ("true_pairs", "detected_pairs", "clock_updates", "stamp_words_sent", "pair_checks"):
                    rec[key] = int(rec[key])
                rec["wall_ms"] = float(rec["wall_ms"])
                rec["axis_numeric"] = _axis_numeric(rec["axis_value"])
            except ValueError as exc:
                raise ResultsFormatError(lineno, str(exc))
            rows.append(rec)
    if not rows:
        raise ResultsFormatError(2, "no data rows")
    return rows


def _axis_numeric(value: str) -> float:
    if "-" in value.lstrip("-"):  # range points like "250-8000"
        lo, hi = value.split("-", 1)
        return (float(lo) + float(hi)) / 2.0
    return float(value)


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def _std(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    m = _mean(values)
    return (sum((v - m) ** 2 for v in values) / (len(values) - 1)) ** 0.5


def summarize(rows: list[dict]) -> dict:
    """Aggregate sweep rows into per-point stats, trends and growth fits."""
    detectors = sorted({r["detector"] for r in rows})
    axis_values: list[str] = []
    for r in rows:
        if r["axis_value"] not in axis_values:
            axis_values.append(r["axis_value"])

    points = []
    by_cell: dict[tuple[str, str], list[dict]] = {}
    for r in rows:
        by_cell.setdefault((r["axis_value"], r["detector"]), []).append(r)
    for value in axis_values:
        for det in detectors:
            cell = by_cell.get((value, det), [])
            if not cell:
                continue
            recalls = [r["recall"] for r in cell]
            precisions = [r["precision"] for r in cell]
            points.append(
                {
                    "axis_value": value,
                    "detector": det,
                    "runs": len(cell),
                    "mean_recall": _mean(recalls),
                    "std_recall": _std(recalls),
                    "mean_precision": _mean(precisions),
                    "std_precision": _std(precisions),
                    "mean_stamp_words_sent": _mean([r["stamp_words_sent"] for r in cell]),
                    "mean_pair_checks": _mean([r["pair_checks"] for r in cell]),
                }
            )

    cells_by_det = {det: _dedupe_points(rows, det) for det in detectors}
    trends = {}
    for det, cells in cells_by_det.items():
        xs = [p["axis_numeric"] for p in cells]
        ys = [p["mean_recall"] for p in cells]
        trends[det] = trend(xs, ys) if len(xs) >= 3 else None

    dominance = None
    if "snapshot" in detectors and "vector" in detectors:
        per_point = []
        for value in axis_values:
            snap = [p for p in points if p["axis_value"] == value and p["detector"] == "snapshot"]
            vec = [p for p in points if p["axis_value"] == value and p["detector"] == "vector"]
            if snap and vec:
                per_point.append(
                    {
                        "axis_value": value,
                        "snapshot_mean_recall": snap[0]["mean_recall"],
                        "vector_mean_recall": vec[0]["mean_recall"],
                        "snapshot_ge_vector": snap[0]["mean_recall"] >= vec[0]["mean_recall"],
                    }
                )
        dominance = {
            "per_point": per_point,
            "snapshot_ge_vector_everywhere": all(p["snapshot_ge_vector"] for p in per_point),
        }

    growth = {}
    for det, cells in cells_by_det.items():
        xs = [p["axis_numeric"] for p in cells]
        for counter in ("mean_stamp_words_sent", "mean_pair_checks"):
            key = f"{det}.{counter.removeprefix('mean_')}"
            ys = [p[counter] for p in cells]
            if len(xs) >= 3 and all(y > 0 for y in ys) and len(set(xs)) == len(xs):
                fit = complexity_fit(xs, ys)
                growth[key] = {"exponent": fit.exponent, "label": fit.label}
            else:
                growth[key] = None

    return {
        "csv_schema": CSV_SCHEMA_VERSION,
        "detectors": detectors,
        "points": points,
        "trends": trends,
        "dominance": dominance,
        "growth": growth,
    }


def _dedupe_points(rows: list[dict], detector: str) -> list[dict]:
    """Per-axis-point mean cells for one detector, in axis order."""
    order: list[str] = []
    cells: dict[str, list[dict]] = {}
    for r in rows:
        if r["detector"] != detector:
            continue
        if r["axis_value"] not in cells:
            order.append(r["axis_value"])
            cells[r["axis_value"]] = []
        cells[r["axis_value"]].append(r)
    out = []
    for value in order:
        group = cells[value]
        out.append(
            {
                "axis_value": value,
                "axis_numeric": group[0]["axis_numeric"],
                "mean_recall": _mean([g["recall"] for g in group]),
                "mean_stamp_words_sent": _mean([g["stamp_words_sent"] for g in group]),
                "mean_pair_checks": _mean([g["pair_checks"] for g in group]),
            }
        )
    return out
