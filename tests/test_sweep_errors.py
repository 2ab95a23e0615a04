"""Errors that cross a process boundary, and sweeps whose cells fail.

A pooled sweep (``jobs > 1``) gets each failed cell's exception back from
its worker by pickle, so every error a cell can raise must survive a
round trip with its message and its fields.  A sweep with a bad cell must
then report the same outcome, rows and errors in a pool as in this
process; a point whose config cannot even hash fails its own cell, as any
other invalid point does, in both.
"""
import pickle
from dataclasses import replace
from pathlib import Path

import pytest

from snapdetect.experiment import ResultsFormatError, SpecError, load_spec, run_sweep
from snapdetect.simulate import ConfigError, EventIdentityError, MessageError

SPECS = Path(__file__).resolve().parents[1] / "specs"

ERRORS = [
    (ConfigError("nodes", "must be in 2..1000, got 1"), {"field": "nodes", "reason": "must be in 2..1000, got 1"}),
    (SpecError("sweep.points", "bad point 1"), {"field": "sweep.points", "reason": "bad point 1"}),
    (EventIdentityError(3, "event (0, 3): id repeats"), {"index": 3}),
    (MessageError(4, "message 4: sent from (1, 0) to itself"), {"index": 4}),
    (ResultsFormatError(7, "no data rows"), {"lineno": 7, "reason": "no data rows"}),
]


@pytest.mark.parametrize("error, fields", ERRORS, ids=[type(error).__name__ for error, _ in ERRORS])
def test_errors_survive_a_pickle_round_trip(error, fields):
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is type(error)
    assert str(back) == str(error) and back.args == error.args
    assert {name: getattr(back, name) for name in fields} == fields


def outcome(spec, out: Path, jobs: int):
    """What a sweep reports and writes: its counts, errors and results.csv bytes."""
    got = run_sweep(spec, out, jobs=jobs)
    return got.completed_jobs, got.failed_jobs, got.errors, got.results_csv.read_bytes()


@pytest.mark.parametrize(
    "point, error",
    [
        (1, "point=1 seed=1: nodes: must be in 2..1000, got 1"),
        ([3, 3], "point=[3, 3] seed=1: nodes: expected an int, got [3, 3]"),
    ],
    ids=["out-of-range", "unhashable"],
)
def test_a_bad_cell_fails_alone_in_this_process_and_in_a_pool(tmp_path, point, error):
    """The bad cell is reported as failed, with its own error, and the good cell's rows are written."""
    spec = replace(load_spec(SPECS / "node_sweep.json"), points=(2, point), seeds=(1,))
    serial = outcome(spec, tmp_path / "serial", jobs=1)
    assert serial[:3] == (1, 1, [error])
    assert serial[3].count(b"\n") == 1 + len(spec.detectors)
    assert outcome(spec, tmp_path / "pooled", jobs=2) == serial
