"""Command-line entry points: scenarios | sweep | report.

Exit statuses: 0 success, 1 assertion/partial failure, 2 usage or input
error.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from . import __version__, scenarios as scen
from .experiment import (
    ResultsFormatError,
    SpecError,
    check_seeds,
    load_spec,
    read_results,
    run_sweep,
    summarize,
)
from .simulate import snapshot_intervals
from .tracefile import TraceFormatError, load_trace


@click.group()
@click.version_option(version=__version__, prog_name="snapdetect")
def main() -> None:
    """Concurrent-event detection experiments on simulated async traces."""


@main.command("scenarios")
@click.option(
    "--fixtures",
    "fixture_dir",
    type=click.Path(path_type=Path),
    default=None,
    help="Directory with scenario_*.jsonl fixtures (default: packaged).",
)
@click.option("--verbose", is_flag=True, help="Dump per-event snapshot intervals.")
def cmd_scenarios(fixture_dir: Path | None, verbose: bool) -> None:
    """Run the three canned blind-spot traces and check detector fidelity."""
    for name in scen.FIXTURE_NAMES:
        path = scen.fixture_path(name, fixture_dir)
        if not path.is_file():
            click.echo(f"missing fixture: {path}", err=True)
            sys.exit(2)

    try:
        results = scen.run_all_scenarios(fixture_dir)
    except TraceFormatError as exc:
        click.echo(f"malformed fixture: {exc}", err=True)
        sys.exit(2)

    failed = []
    click.echo(f"{'scenario':<10} {'snapshot':<10} {'vector':<10} status")
    for result in results:
        name = result.name
        snap_mark = "pair" if result.snapshot_pairs else "-"
        vec_mark = "pair" if result.vector_pairs else "-"
        status = "ok" if result.ok else "FAIL"
        click.echo(f"{name:<10} {snap_mark:<10} {vec_mark:<10} {status}")
        if not result.ok:
            failed.append(name)
        if verbose:
            trace = load_trace(scen.fixture_path(name, fixture_dir))
            for event, (lo, hi) in sorted(snapshot_intervals(trace).items()):
                click.echo(f"    event P{event.process}#{event.seq}: [{lo}, {hi})")
    if failed:
        click.echo(f"fidelity failed for scenario(s): {', '.join(failed)}", err=True)
        sys.exit(1)


@main.command("sweep")
@click.option("--spec", "spec_path", required=True, type=click.Path(path_type=Path))
@click.option("--out", "out_dir", required=True, type=click.Path(path_type=Path))
@click.option(
    "--jobs", default=1, show_default=True, type=click.IntRange(min=1), help="Parallel worker processes."
)
@click.option("--seed-override", type=int, default=None, help="Run a single seed instead of the spec's list.")
@click.option("--verbose", is_flag=True)
def cmd_sweep(spec_path: Path, out_dir: Path, jobs: int, seed_override: int | None, verbose: bool) -> None:
    """Run a sweep spec and write results.csv + manifest.json."""
    try:
        spec = load_spec(spec_path)
    except SpecError as exc:
        click.echo(f"invalid spec: {exc}", err=True)
        sys.exit(2)
    if seed_override is not None:
        try:
            check_seeds(spec.base, (seed_override,))
        except SpecError as exc:
            raise click.BadParameter(str(exc), param_hint="'--seed-override'") from exc
    outcome = run_sweep(spec, out_dir, jobs=jobs, seed_override=seed_override)
    if verbose:
        for line in outcome.errors:
            click.echo(f"failed job: {line}", err=True)
    click.echo(
        f"wrote {outcome.rows_written} rows to {outcome.results_csv} "
        f"({outcome.completed_jobs} jobs completed, {outcome.failed_jobs} failed)"
    )
    if outcome.failed_jobs:
        click.echo(f"partial failure: {outcome.completed_jobs} jobs completed", err=True)
        sys.exit(1)


@main.command("report")
@click.argument("results_csv", type=click.Path(path_type=Path))
@click.option(
    "--out",
    "summary_path",
    type=click.Path(path_type=Path),
    default=None,
    help="Summary JSON path (default: summary.json next to the CSV).",
)
def cmd_report(results_csv: Path, summary_path: Path | None) -> None:
    """Aggregate a results.csv into per-point stats, trends and growth fits."""
    try:
        rows = read_results(results_csv)
    except FileNotFoundError:
        click.echo(f"no such file: {results_csv}", err=True)
        sys.exit(2)
    except (OSError, UnicodeDecodeError) as exc:
        click.echo(f"cannot read {results_csv}: {exc}", err=True)
        sys.exit(2)
    except ResultsFormatError as exc:
        click.echo(f"malformed results csv: {exc}", err=True)
        sys.exit(2)
    summary = summarize(rows)

    click.echo(f"{'axis':<12} {'detector':<10} {'recall':<20} {'precision':<20} runs")
    for p in summary["points"]:
        click.echo(
            f"{p['axis_value']:<12} {p['detector']:<10} "
            f"{p['mean_recall']:.4f} ± {p['std_recall']:.4f}      "
            f"{p['mean_precision']:.4f} ± {p['std_precision']:.4f}      {p['runs']}"
        )
    for det, value in summary["trends"].items():
        shown = "n/a" if value is None else f"{value:+.3f}"
        click.echo(f"trend[{det}] (rank correlation of recall vs axis): {shown}")
    if summary["dominance"] is not None:
        ok = summary["dominance"]["snapshot_ge_vector_everywhere"]
        click.echo(f"snapshot recall >= vector recall at every point: {ok}")
    click.echo(f"vacuous (no detecting family found a true pair): {summary['vacuous']}")
    for key, fit in summary["growth"].items():
        if fit is not None:
            click.echo(f"growth[{key}]: exponent {fit['exponent']:.2f} ({fit['label']})")

    if summary_path is None:
        summary_path = results_csv.parent / "summary.json"
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    click.echo(f"wrote {summary_path}")


if __name__ == "__main__":
    main()
