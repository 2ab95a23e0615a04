"""Sweep harness: run detector grids, emit results.csv and summaries.

Spec files are JSON with explicit units in field names (times are given
in milliseconds and converted to integer microseconds internally).  A
sweep runs every (point, seed, detector) combination; rows are written
in spec order so reruns with the same spec are byte-identical.
"""
from __future__ import annotations

import contextlib
import csv
import json
import math
import re
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Iterable, Optional, Sequence

from . import __version__
from .metrics import complexity_fit, score, trend
from .simulate import (
    SPEC_FIELDS,
    ConfigError,
    DetectorFamily,
    Layout,
    SimConfig,
    Trace,
    config_record,
    generate_layout,
    generate_trace,
    ground_truth,
    is_range,
    layout_key,
    run_trace,
    wire_trace,
    with_caches,
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

#: Sweep axes by spec key: every ``SPEC_FIELDS`` key, and ``delay_ms``.
AXIS_FIELDS = {**SPEC_FIELDS, "delay_ms": SPEC_FIELDS["message_delay_ms"]}


class SpecError(ConfigError):
    """Invalid experiment spec; ``field`` names the offender."""


@dataclass(frozen=True)
class ExperimentSpec:
    base: SimConfig
    axis: str
    points: tuple
    seeds: tuple[int, ...]
    detectors: tuple[DetectorFamily, ...]


def _ms_to_us(ms) -> int:
    if type(ms) not in (int, float):
        raise TypeError(f"expected milliseconds, got {ms!r}")
    return int(round(ms * 1000))


def spec_value(key: str, value):
    """The ``SimConfig`` field value of spec key ``key`` in a base or a point.

    A time (a ``_us`` field) is given in milliseconds and becomes integer
    microseconds.  A range field takes ``[lo, hi]`` or one number ``v``,
    read as ``[v, v]``.  Other values pass as given, for ``validate``.
    """
    f = AXIS_FIELDS[key]
    convert = _ms_to_us if f.name.endswith("_us") else (lambda v: v)
    if not is_range(f):
        return convert(value)
    bounds = tuple(value) if isinstance(value, (list, tuple)) else (value, value)
    if len(bounds) != 2:
        raise ValueError(f"expected [lo, hi], got {value!r}")
    return tuple(map(convert, bounds))


def _checked_spec_value(key: str, value):
    """``spec_value``, with an empty or negative range rejected as the spec wrote it.

    ``SimConfig.validate`` rejects the same ranges, but quotes microseconds.
    """
    got = spec_value(key, value)
    if is_range(AXIS_FIELDS[key]) and not 0 <= got[0] <= got[1]:
        raise ValueError(f"range empty or negative: {value!r}")
    return got


#: The spec key of each ``SimConfig`` field: a time is written ``_ms``.
_SPEC_KEYS = {f.name: key for key, f in SPEC_FIELDS.items()}


def _spec_terms(exc: ConfigError, axis: Optional[str] = None) -> tuple[str, str]:
    """The spec key of the field ``exc`` names, and its message naming that key.

    The key is ``axis`` when ``exc`` names the axis's field, so a
    ``delay_ms`` point's error says ``delay_ms``.
    """
    key = axis if axis is not None and AXIS_FIELDS[axis].name == exc.field else _SPEC_KEYS.get(exc.field, exc.field)
    return key, f"{key}: {exc.reason}"


def _base_config(raw: dict) -> SimConfig:
    kwargs = {}
    for key, value in raw.items():
        if key not in SPEC_FIELDS:
            raise SpecError(f"base.{key}", "unknown field")
        try:
            kwargs[SPEC_FIELDS[key].name] = _checked_spec_value(key, value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise SpecError(f"base.{key}", str(exc)) from None
    if "nodes" not in raw:
        raise SpecError("base.nodes", "required")
    base = SimConfig(**kwargs)
    try:
        base.validate()
    except ConfigError as exc:
        key, message = _spec_terms(exc)
        raise SpecError(f"base.{key}", message) from exc
    return base


def parse_spec(data: dict) -> ExperimentSpec:
    if not isinstance(data, dict):
        raise SpecError("spec", "top level must be a JSON object")
    base_raw = data.get("base")
    if not isinstance(base_raw, dict):
        raise SpecError("base", "missing or not an object")
    base = _base_config(base_raw)

    sweep = data.get("sweep")
    if not isinstance(sweep, dict):
        raise SpecError("sweep", "missing or not an object")
    axis = sweep.get("axis")
    if not isinstance(axis, str) or axis not in AXIS_FIELDS:
        raise SpecError("sweep.axis", f"must be one of {tuple(AXIS_FIELDS)}, got {axis!r}")
    points = sweep.get("points")
    if not isinstance(points, list) or not points:
        raise SpecError("sweep.points", "must be a non-empty list")

    seeds = data.get("seeds", {"count": 30, "base": 1})
    if isinstance(seeds, dict):
        base_seed, count = seeds.get("base", 1), seeds.get("count", 30)
        if type(base_seed) is not int or type(count) is not int:
            raise SpecError("seeds", f"base and count must be integers, got {seeds!r}")
        seeds = list(range(base_seed, base_seed + count))
    if not isinstance(seeds, list) or not seeds:
        raise SpecError("seeds", "must be a non-empty list or {count, base}")
    check_seeds(base, seeds)
    _reject_repeats("seeds", "seed", seeds, seeds)
    values = []
    for point in points:
        try:
            if point is None:  # peer_fanout takes null, but results.csv needs a number
                raise TypeError("a point must be a number")
            values.append(_checked_spec_value(axis, point))
            config_for_point(base, axis, point, seeds[0]).validate()
        except ConfigError as exc:
            raise SpecError("sweep.points", f"bad point {point!r}: {_spec_terms(exc, axis)[1]}") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise SpecError("sweep.points", f"bad point {point!r}: {exc}") from exc
    _reject_repeats("sweep.points", "point", points, values)

    det_names = data.get("detectors", ["snapshot", "vector"])
    if not isinstance(det_names, list) or not det_names:
        raise SpecError("detectors", "must be a non-empty list")
    try:
        detectors = tuple(DetectorFamily(name) for name in det_names)
    except ValueError as exc:
        raise SpecError("detectors", str(exc)) from exc

    return ExperimentSpec(base=base, axis=axis, points=tuple(points), seeds=tuple(seeds), detectors=detectors)


def _reject_repeats(field: str, noun: str, given: Sequence, values: Sequence) -> None:
    """Raise ``SpecError(field)`` at the first of ``given`` whose value is an earlier one's.

    A repeated seed would run its cells twice, and two points of one
    value would be one config under two axis values.  Points compare by
    the ``SimConfig`` field value they give, so 1 and 1.0, 2 and [2, 2]
    on a range axis, or two times that round to one microsecond, are one
    value.
    """
    seen = {}
    for k, value in enumerate(values):
        j = seen.setdefault(value, k)
        if j != k:
            earlier = "" if repr(given[j]) == repr(given[k]) else f" {noun} {given[j]!r}"
            raise SpecError(field, f"{noun} {given[k]!r} repeats{earlier}")


def check_seeds(base: SimConfig, seeds: Sequence[int]) -> None:
    """Raise ``SpecError("seeds")`` unless ``SimConfig`` accepts every seed."""
    for seed in seeds:
        try:
            replace(base, seed=seed).validate()
        except ConfigError as exc:
            raise SpecError("seeds", str(exc)) from exc


def load_spec(path: str | Path) -> ExperimentSpec:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecError("spec", f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise SpecError("spec", f"bad JSON in {path}: {exc}")
    return parse_spec(data)


def config_for_point(base: SimConfig, axis: str, point, seed: int) -> SimConfig:
    return replace(base, **{AXIS_FIELDS[axis].name: spec_value(axis, point)}, seed=seed)


class _Layouts:
    """The layouts of one serial sweep, each held while a later cell shares its ``layout_key``.

    ``left`` counts each key's cells still to run, from every valid cell
    config; an invalid one, whose key may not even hash, fails its cell
    before any lookup.  A layout is dropped when the last cell of its key
    starts.
    """

    def __init__(self, configs: Iterable[SimConfig]):
        self.left = Counter()
        for config in configs:
            with contextlib.suppress(ConfigError):
                config.validate()
                self.left[layout_key(config)] += 1
        self.held: dict[tuple, Layout] = {}

    def trace(self, config: SimConfig) -> Trace:
        """``generate_trace(config)``, wired from the held layout of its key if there is one."""
        config.validate()  # an invalid config has no key to look up
        key = layout_key(config)
        self.left[key] -= 1
        layout = self.held.pop(key, None)
        if layout is None:
            layout = generate_layout(config)
        if self.left[key] > 0:
            self.held[key] = layout  # held before wiring, so a wiring error does not drop it
        return wire_trace(layout, config)

    def keep(self, trace: Trace) -> None:
        """Hold the caches ``trace`` built with its layout, if a later cell shares it."""
        key = layout_key(trace.config)
        if key in self.held:
            self.held[key] = with_caches(self.held[key], trace)


def _job(args: tuple, layouts: Optional[_Layouts] = None) -> list[dict]:
    """One cell, ``(config, point, det_values)``: generate once, run every detector.

    With ``layouts`` the trace is wired from a layout shared with the
    sweep's other cells of its ``layout_key``.
    """
    config, point, det_values = args
    trace = generate_trace(config) if layouts is None else layouts.trace(config)
    truth = ground_truth(trace)
    wall_ms = f"{trace.makespan_us / 1000.0:.3f}"
    rows = []
    for value in det_values:
        family = DetectorFamily(value)
        result = run_trace(trace, family)
        report = score(result.detected_pairs, truth)
        rows.append(
            {
                "axis_value": _axis_repr(point),
                "seed": config.seed,
                "detector": family.value,
                "recall": f"{report.recall:.6f}",
                "precision": f"{report.precision:.6f}",
                "true_pairs": report.true_pairs,
                "detected_pairs": report.detected_pairs,
                "clock_updates": result.counters.clock_updates,
                "stamp_words_sent": result.counters.stamp_words_sent,
                "pair_checks": result.counters.pair_checks,
                "wall_ms": wall_ms,
            }
        )
    if layouts is not None:
        layouts.keep(trace)
    return rows


def _axis_repr(point) -> str:
    """A point as ``results.csv`` writes it: ``repr`` keeps distinct floats distinct."""
    if isinstance(point, (list, tuple)):
        return "-".join(map(repr, point))
    return repr(point)


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
    """Run the full grid and write results.csv plus manifest.json.

    ``jobs`` is the number of worker processes; 1 runs the grid in this
    process, and a value below 1 raises ``ValueError``.  In this process,
    cells whose configs share a ``layout_key`` share one layout, held for
    this call only and dropped after the last of them; a worker runs each
    cell on its own.  Each cell's config is built once, before ``out_dir``
    is made, so a point that cannot be converted raises and writes nothing;
    one whose config is invalid fails its own cell, whatever ``jobs`` is.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    seeds = (seed_override,) if seed_override is not None else spec.seeds
    det_values = tuple(d.value for d in spec.detectors)
    job_args = [
        (config_for_point(spec.base, spec.axis, point, seed), point, det_values)
        for point in spec.points
        for seed in seeds
    ]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_job, args) for args in job_args]
        runs = [future.result for future in futures]
    else:
        layouts = _Layouts(config for config, _, _ in job_args)
        runs = [partial(_job, args, layouts) for args in job_args]
    results: list[Optional[list[dict]]] = []
    errors: list[str] = []
    for args, run in zip(job_args, runs):
        try:
            results.append(run())
        except Exception as exc:  # noqa: BLE001 - partial failure is reported
            results.append(None)
            errors.append(f"point={args[1]} seed={args[0].seed}: {exc}")

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
        "base_config": config_record(spec.base, SPEC_FIELDS.values()),
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


class ResultsFormatError(ValueError):
    """Malformed results.csv; carries the offending line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno
        self.reason = message

    def __reduce__(self):
        return type(self), (self.lineno, self.reason)


#: The results.csv columns that count pairs or operations: ints, none below 0.
_COUNT_COLUMNS = ("true_pairs", "detected_pairs", "clock_updates", "stamp_words_sent", "pair_checks")


def read_results(csv_path: str | Path) -> list[dict]:
    """A results.csv's rows, parsed; ``ResultsFormatError`` names the first malformed line.

    Recall and precision must lie in [0, 1], no counter may be negative, the
    seed must be one ``SimConfig`` accepts (0..2**64 - 1), and ``wall_ms``
    and the axis number must be finite.
    """
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
                for key in _COUNT_COLUMNS:
                    rec[key] = int(rec[key])
                rec["wall_ms"] = float(rec["wall_ms"])
                rec["axis_numeric"] = _axis_numeric(rec["axis_value"])
            except ValueError as exc:
                raise ResultsFormatError(lineno, str(exc))
            for key in ("recall", "precision"):
                if not 0.0 <= rec[key] <= 1.0:
                    raise ResultsFormatError(lineno, f"{key} {rec[key]} is not in [0, 1]")
            for key in _COUNT_COLUMNS:
                if rec[key] < 0:
                    raise ResultsFormatError(lineno, f"{key} {rec[key]} is negative")
            if not 0 <= rec["seed"] < 2**64:
                raise ResultsFormatError(lineno, f"seed {rec['seed']} is not in 0..2**64 - 1")
            for key, value in (("wall_ms", rec["wall_ms"]), ("axis_value", rec["axis_numeric"])):
                if not math.isfinite(value):
                    raise ResultsFormatError(lineno, f"{key} {value} is not finite")
            rows.append(rec)
    if not rows:
        raise ResultsFormatError(2, "no data rows")
    return rows


#: The ``-`` between a range point's bounds: not leading, not an exponent sign
#: (``_axis_repr`` writes floats with ``repr``, so ``1e-05-1`` is a range).
_RANGE_SEP = re.compile(r"(?<=[^eE])-")


def _axis_numeric(value: str) -> float:
    """A point's number; a range point like ``250-8000`` reads as its midpoint."""
    bounds = _RANGE_SEP.split(value, maxsplit=1)
    if len(bounds) == 2:
        return (float(bounds[0]) + float(bounds[1])) / 2.0
    return float(value)


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def _std(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    m = _mean(values)
    return (sum((v - m) ** 2 for v in values) / (len(values) - 1)) ** 0.5


def summarize(rows: list[dict]) -> dict:
    """Aggregate sweep rows into per-point stats, trends and growth fits.

    ``vacuous`` is True when no detecting family found a pair on any row
    whose ``true_pairs`` is above 0.  ``physical`` rows are ground truth
    itself, so they do not count.
    """
    detectors = sorted({r["detector"] for r in rows})
    # Rows by axis value, in first-seen order, then by detector.
    groups: dict[str, dict[str, list[dict]]] = {}
    for r in rows:
        groups.setdefault(r["axis_value"], {}).setdefault(r["detector"], []).append(r)

    points = []
    # Per detector, (axis_numeric, point) in axis order: the cells the
    # trend and growth fits run over.
    cells_by_det: dict[str, list[tuple[float, dict]]] = {det: [] for det in detectors}
    per_point = []
    for value, by_det in groups.items():
        stats = {}
        for det in sorted(by_det):
            cell = by_det[det]
            recalls = [r["recall"] for r in cell]
            precisions = [r["precision"] for r in cell]
            point = {
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
            points.append(point)
            cells_by_det[det].append((cell[0]["axis_numeric"], point))
            stats[det] = point
        snap, vec = stats.get("snapshot"), stats.get("vector")
        if snap and vec:
            per_point.append(
                {
                    "axis_value": value,
                    "snapshot_mean_recall": snap["mean_recall"],
                    "vector_mean_recall": vec["mean_recall"],
                    "snapshot_ge_vector": snap["mean_recall"] >= vec["mean_recall"],
                }
            )

    trends = {}
    for det, cells in cells_by_det.items():
        xs = [x for x, _ in cells]
        ys = [p["mean_recall"] for _, p in cells]
        trends[det] = trend(xs, ys) if len(xs) >= 3 else None

    dominance = None
    if "snapshot" in detectors and "vector" in detectors:
        dominance = {
            "per_point": per_point,
            "snapshot_ge_vector_everywhere": all(p["snapshot_ge_vector"] for p in per_point),
        }

    growth = {}
    for det, cells in cells_by_det.items():
        xs = [x for x, _ in cells]
        for counter in ("mean_stamp_words_sent", "mean_pair_checks"):
            key = f"{det}.{counter.removeprefix('mean_')}"
            ys = [p[counter] for _, p in cells]
            if len(xs) >= 3 and all(y > 0 for y in ys) and len(set(xs)) == len(xs):
                fit = complexity_fit(xs, ys)
                growth[key] = {"exponent": fit.exponent, "label": fit.label}
            else:
                growth[key] = None

    # A sweep with pairs to find where no family finds one cannot tell the
    # families apart.
    truth = DetectorFamily.PHYSICAL.value
    vacuous = not any(r["detected_pairs"] > 0 for r in rows if r["true_pairs"] > 0 and r["detector"] != truth)

    return {
        "csv_schema": CSV_SCHEMA_VERSION,
        "vacuous": vacuous,
        "detectors": detectors,
        "points": points,
        "trends": trends,
        "dominance": dominance,
        "growth": growth,
    }
