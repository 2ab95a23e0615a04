import itertools
import json

import pytest
from click.testing import CliRunner

from snapdetect import experiment, scenarios
from snapdetect.cli import main
from snapdetect.experiment import parse_spec, read_results, run_sweep, summarize
from snapdetect.simulate import SPEC_FIELDS

SMALL_SPEC = {
    "base": {
        "nodes": 2,
        "instances_per_node": 2,
        "events_per_process": 4,
        "event_lifespan_ms": [20, 50],
        "message_delay_ms": [1, 10],
        "inter_event_gap_ms": [5, 15],
        "error_rate": 0.1,
    },
    "sweep": {"axis": "nodes", "points": [2, 3, 4]},
    "seeds": [1, 2, 3],
    "detectors": ["snapshot", "vector"],
}


def no_pool(*args, **kwargs):
    raise AssertionError("a process pool was started")


def write_spec(tmp_path, spec=None):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec if spec is not None else SMALL_SPEC))
    return path


class TestScenariosCommand:
    def test_default_fixtures_pass(self):
        result = CliRunner().invoke(main, ["scenarios"])
        assert result.exit_code == 0, result.output
        assert "ok" in result.output

    def test_verbose_dumps_intervals(self):
        result = CliRunner().invoke(main, ["scenarios", "--verbose"])
        assert result.exit_code == 0
        assert "event P0#0" in result.output

    def test_missing_fixture_exits_2(self, tmp_path):
        result = CliRunner().invoke(main, ["scenarios", "--fixtures", str(tmp_path)])
        assert result.exit_code == 2
        assert "scenario_a" in result.output

    @pytest.mark.parametrize("kind", ["directory", "utf-16", "bad-byte"])
    def test_unreadable_fixture_exits_2_naming_it(self, tmp_path, kind):
        scenarios.write_fixtures(tmp_path)
        path = tmp_path / "scenario_b.jsonl"
        if kind == "directory":
            path.unlink()
            path.mkdir()
        else:
            text = path.read_text()
            path.write_bytes(text.encode("utf-16") if kind == "utf-16" else text.encode() + b"\xff\n")
        result = CliRunner().invoke(main, ["scenarios", "--fixtures", str(tmp_path)])
        assert result.exit_code == 2, result.output
        assert str(path) in result.output

    def test_corrupted_fixture_exits_1_naming_scenario(self, tmp_path):
        scenarios.write_fixtures(tmp_path)
        path = tmp_path / "scenario_b.jsonl"
        lines = [l for l in path.read_text().splitlines() if '"message"' not in l]
        path.write_text("\n".join(lines) + "\n")
        result = CliRunner().invoke(main, ["scenarios", "--fixtures", str(tmp_path)])
        assert result.exit_code == 1
        assert "b" in result.output.split("scenario(s):")[-1]


    @pytest.mark.parametrize(
        ("field", "value", "error"),
        [
            ("deliver_us", lambda rec: rec["send_us"] - 1, "message 0: delivered at"),
            ("to", lambda rec: rec["from"], "message 0: sent from (0, 0) to itself"),
            ("send_us", lambda rec: 2**63, f"message 0: send_us {2**63} does not fit int64"),
        ],
        ids=["delivered-before-send", "sent-to-itself", "send-past-int64"],
    )
    def test_delivery_before_send_exits_2_naming_line(self, tmp_path, field, value, error):
        scenarios.write_fixtures(tmp_path)
        path = tmp_path / "scenario_a.jsonl"
        lines = path.read_text().splitlines()
        k = next(i for i, l in enumerate(lines) if '"message"' in l)
        record = json.loads(lines[k])
        record[field] = value(record)
        lines[k] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        result = CliRunner().invoke(main, ["scenarios", "--fixtures", str(tmp_path)])
        assert result.exit_code == 2, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert f"{path}:{k + 1}:" in result.output
        assert error in result.output

    @pytest.mark.parametrize("key, value", [("nodes", 2.0), ("instances_per_node", 1.0)])
    def test_mistyped_config_exits_2_naming_line(self, tmp_path, key, value):
        scenarios.write_fixtures(tmp_path)
        path = tmp_path / "scenario_a.jsonl"
        lines = path.read_text().splitlines()
        record = json.loads(lines[0])
        record[key] = value
        lines[0] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        result = CliRunner().invoke(main, ["scenarios", "--fixtures", str(tmp_path)])
        assert result.exit_code == 2, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert f"{path}:1: config {key}: expected an int, got {value}" in result.output

    def test_event_without_start_exits_2_naming_line(self, tmp_path):
        scenarios.write_fixtures(tmp_path)
        path = tmp_path / "scenario_c.jsonl"
        lines = path.read_text().splitlines()
        k = next(i for i, l in enumerate(lines) if '"event"' in l)
        record = json.loads(lines[k])
        del record["start_us"]
        lines[k] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        result = CliRunner().invoke(main, ["scenarios", "--fixtures", str(tmp_path)])
        assert result.exit_code == 2, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert f"{path}:{k + 1}: event record: missing 'start_us'" in result.output


class TestSweepCommand:
    def test_row_cardinality(self, tmp_path):
        spec = write_spec(tmp_path)
        out = tmp_path / "out"
        result = CliRunner().invoke(main, ["sweep", "--spec", str(spec), "--out", str(out)])
        assert result.exit_code == 0, result.output
        lines = (out / "results.csv").read_text().splitlines()
        assert len(lines) == 1 + 3 * 3 * 2  # header + points x seeds x detectors
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seeds"] == [1, 2, 3]
        assert manifest["base_config"]["message_delay_us"] == [1000, 10000]

    def test_rerun_is_byte_identical(self, tmp_path):
        spec = write_spec(tmp_path)
        runner = CliRunner()
        for out in ("out1", "out2"):
            assert runner.invoke(main, ["sweep", "--spec", str(spec), "--out", str(tmp_path / out)]).exit_code == 0
        assert (tmp_path / "out1/results.csv").read_bytes() == (tmp_path / "out2/results.csv").read_bytes()

    def test_parallel_jobs_match_serial(self, tmp_path):
        spec = write_spec(tmp_path)
        runner = CliRunner()
        assert runner.invoke(main, ["sweep", "--spec", str(spec), "--out", str(tmp_path / "s")]).exit_code == 0
        assert runner.invoke(main, ["sweep", "--spec", str(spec), "--out", str(tmp_path / "p"), "--jobs", "2"]).exit_code == 0
        assert (tmp_path / "s/results.csv").read_bytes() == (tmp_path / "p/results.csv").read_bytes()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_2(self, tmp_path, monkeypatch, jobs):
        monkeypatch.setattr(experiment, "ProcessPoolExecutor", no_pool)
        spec, out = write_spec(tmp_path), tmp_path / "out"
        result = CliRunner().invoke(main, ["sweep", "--spec", str(spec), "--out", str(out), "--jobs", jobs])
        assert result.exit_code == 2, result.output
        assert "--jobs" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_run_sweep_rejects_jobs_below_one(self, tmp_path, monkeypatch, jobs):
        monkeypatch.setattr(experiment, "ProcessPoolExecutor", no_pool)
        out = tmp_path / "out"
        with pytest.raises(ValueError, match=f"jobs must be >= 1, got {jobs}"):
            run_sweep(parse_spec(SMALL_SPEC), out, jobs=jobs)
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["directory", "utf-16"])
    def test_unreadable_spec_exits_2_naming_it(self, tmp_path, kind):
        path = tmp_path / "spec.json"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(json.dumps(SMALL_SPEC).encode("utf-16"))
        result = CliRunner().invoke(main, ["sweep", "--spec", str(path), "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert "invalid spec" in result.output and str(path) in result.output

    def test_invalid_spec_field_exits_2(self, tmp_path):
        bad = dict(SMALL_SPEC, sweep={"axis": "volume", "points": [1]})
        spec = write_spec(tmp_path, bad)
        result = CliRunner().invoke(main, ["sweep", "--spec", str(spec), "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert "sweep.axis" in result.output

    def test_invalid_base_field_exits_2(self, tmp_path):
        bad = json.loads(json.dumps(SMALL_SPEC))
        bad["base"]["error_rate"] = 1.5
        spec = write_spec(tmp_path, bad)
        result = CliRunner().invoke(main, ["sweep", "--spec", str(spec), "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert "error_rate" in result.output

    @pytest.mark.parametrize(
        "part, key, value",
        [
            ("base", "start_jitter_ms", "5"),
            ("base", "message_delay_ms", [1, None]),
            (None, "seeds", ["x"]),
            (None, "seeds", {"count": "3"}),
            ("sweep", "points", ["x", 2]),
            ("sweep", "points", [2, 1]),
            ("sweep", "points", [2, [3]]),
            (None, "seeds", [-1]),
            (None, "seeds", [1, 2**64]),
            ("base", "nodes", 2.5),
            ("base", "events_per_process", 2.5),
            ("base", "users", 2.5),
            ("base", "error_rate", "0.1"),
            ("base", "stay_mean_ms", True),
            ("sweep", "points", [2.7]),
            ("sweep", "points", ["3"]),
            (None, "seeds", [1.7]),
            (None, "seeds", [True]),
            (None, "seeds", {"count": True}),
        ],
        ids=[
            "scalar-time-string",
            "range-time-null",
            "seed-list-string",
            "seed-count-string",
            "point-string",
            "point-out-of-range",
            "point-list",
            "seed-negative",
            "seed-too-big",
            "nodes-float",
            "events-float",
            "users-float",
            "error-rate-string",
            "time-bool",
            "point-float",
            "point-int-string",
            "seed-float",
            "seed-bool",
            "seed-count-bool",
        ],
    )
    def test_malformed_spec_value_exits_2_naming_field(self, tmp_path, part, key, value):
        bad = json.loads(json.dumps(SMALL_SPEC))
        (bad[part] if part else bad)[key] = value
        spec = write_spec(tmp_path, bad)
        result = CliRunner().invoke(main, ["sweep", "--spec", str(spec), "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert f"invalid spec: {part + '.' if part else ''}{key}:" in result.output
        assert not (tmp_path / "out").exists()

    #: Per axis, a valid point and one its field rejects.
    AXIS_POINTS = {
        "nodes": (3, 2.7),
        "instances_per_node": (1, 1.5),
        "events_per_process": (3, "3"),
        "event_lifespan_ms": ([10, 20], [10, 20, 30]),
        "message_delay_ms": (2, "2"),
        "delay_ms": ([1, 5], [1, 2, 3]),
        "inter_event_gap_ms": ([5, 10], [None, 10]),
        "start_jitter_ms": (5, [5, 6]),
        "error_rate": (0.2, "0.2"),
        "stay_mean_ms": (1000, True),
        "users": (3, 2.5),
        "rooms": (4, 4.0),
        "peer_fanout": (1, None),
    }

    def test_every_config_field_is_an_axis(self):
        assert set(self.AXIS_POINTS) == {*SPEC_FIELDS, "delay_ms"}

    @pytest.mark.parametrize("axis", AXIS_POINTS)
    def test_axis_point_round_trips_and_a_bad_one_exits_2(self, tmp_path, axis):
        good, bad = self.AXIS_POINTS[axis]
        runner = CliRunner()
        spec = write_spec(tmp_path, dict(SMALL_SPEC, sweep={"axis": axis, "points": [good]}, seeds=[1]))
        out = tmp_path / "out"
        result = runner.invoke(main, ["sweep", "--spec", str(spec), "--out", str(out)])
        assert result.exit_code == 0, result.output
        rows = read_results(out / "results.csv")
        assert [r["detector"] for r in rows] == ["snapshot", "vector"]
        numeric = sum(good) / 2 if isinstance(good, list) else good
        assert {r["axis_numeric"] for r in rows} == {numeric}
        assert len(summarize(rows)["points"]) == 2

        spec = write_spec(tmp_path, dict(SMALL_SPEC, sweep={"axis": axis, "points": [good, bad]}))
        result = runner.invoke(main, ["sweep", "--spec", str(spec), "--out", str(tmp_path / "bad")])
        assert result.exit_code == 2, result.output
        assert "invalid spec: sweep.points:" in result.output
        assert not (tmp_path / "bad").exists()

    def test_bad_seed_override_is_a_usage_error(self, tmp_path):
        spec = write_spec(tmp_path)
        out = tmp_path / "out"
        result = CliRunner().invoke(
            main, ["sweep", "--spec", str(spec), "--out", str(out), "--seed-override", "-1"]
        )
        assert result.exit_code == 2, result.output
        assert "--seed-override" in result.output
        assert not out.exists()

    def test_seed_override_runs_single_seed(self, tmp_path):
        spec = write_spec(tmp_path)
        out = tmp_path / "out"
        result = CliRunner().invoke(
            main, ["sweep", "--spec", str(spec), "--out", str(out), "--seed-override", "77"]
        )
        assert result.exit_code == 0
        lines = (out / "results.csv").read_text().splitlines()
        assert len(lines) == 1 + 3 * 1 * 2


class TestReportCommand:
    def make_results(self, tmp_path):
        spec = write_spec(tmp_path)
        out = tmp_path / "out"
        assert CliRunner().invoke(main, ["sweep", "--spec", str(spec), "--out", str(out)]).exit_code == 0
        return out / "results.csv"

    def test_report_writes_summary(self, tmp_path):
        csv_path = self.make_results(tmp_path)
        result = CliRunner().invoke(main, ["report", str(csv_path)])
        assert result.exit_code == 0, result.output
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["dominance"] is not None
        assert set(summary["trends"]) == {"snapshot", "vector"}
        assert f"vacuous (no detecting family found a true pair): {summary['vacuous']}" in result.output

    @pytest.mark.parametrize("kind", ["directory", "utf-16"])
    def test_unreadable_csv_exits_2_naming_it(self, tmp_path, kind):
        csv_path = self.make_results(tmp_path)
        if kind == "directory":
            csv_path.unlink()
            csv_path.mkdir()
        else:
            csv_path.write_bytes(csv_path.read_text().encode("utf-16"))
        result = CliRunner().invoke(main, ["report", str(csv_path)])
        assert result.exit_code == 2, result.output
        assert str(csv_path) in result.output

    def test_empty_csv_exits_2(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        result = CliRunner().invoke(main, ["report", str(path)])
        assert result.exit_code == 2

    def test_malformed_row_exits_2_with_line(self, tmp_path):
        csv_path = self.make_results(tmp_path)
        lines = csv_path.read_text().splitlines()
        lines[2] = lines[2].replace(lines[2].split(",")[3], "not-a-number", 1)
        broken = tmp_path / "broken.csv"
        broken.write_text("\n".join(lines) + "\n")
        result = CliRunner().invoke(main, ["report", str(broken)])
        assert result.exit_code == 2
        assert "line 3" in result.output

    def report_edited(self, tmp_path, column, value):
        """``snapdetect report`` on a results.csv whose line 3 has ``column`` set to ``value``."""
        csv_path = self.make_results(tmp_path)
        lines = csv_path.read_text().splitlines()
        fields = lines[2].split(",")
        fields[experiment.CSV_COLUMNS.index(column)] = value
        lines[2] = ",".join(fields)
        broken = tmp_path / "broken.csv"
        broken.write_text("\n".join(lines) + "\n")
        return CliRunner().invoke(main, ["report", str(broken)])

    @pytest.mark.parametrize(
        "column, value",
        [*itertools.product(("recall", "precision"), ("nan", "inf", "-0.5", "1.5")), ("axis_value", "nan")],
    )
    def test_out_of_range_value_exits_2_with_line(self, tmp_path, column, value):
        what = f"{column} {float(value)} is not in [0, 1]"
        if column == "axis_value":
            what = "axis_value nan is not finite"
        result = self.report_edited(tmp_path, column, value)
        assert result.exit_code == 2
        assert f"malformed results csv: line 3: {what}" in result.output

    @pytest.mark.parametrize(
        "column", ["true_pairs", "detected_pairs", "clock_updates", "stamp_words_sent", "pair_checks"]
    )
    def test_negative_counter_exits_2_with_line(self, tmp_path, column):
        result = self.report_edited(tmp_path, column, "-1")
        assert result.exit_code == 2
        assert f"malformed results csv: line 3: {column} -1 is negative" in result.output

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_u64_exits_2_with_line(self, tmp_path, seed):
        result = self.report_edited(tmp_path, "seed", str(seed))
        assert result.exit_code == 2
        assert f"malformed results csv: line 3: seed {seed} is not in 0..2**64 - 1" in result.output

    @pytest.mark.parametrize(
        "axis, points, numeric",
        [
            ("error_rate", [0.00001, 0.1], {"1e-05": 1e-05, "0.1": 0.1}),
            ("delay_ms", [[0.00001, 1], [1, 10]], {"1e-05-1": (1e-05 + 1) / 2, "1-10": 5.5}),
        ],
        ids=["exponent-point", "exponent-range"],
    )
    def test_exponent_axis_values_are_read_back(self, tmp_path, axis, points, numeric):
        # repr writes 0.00001 as 1e-05, whose "-" is not a range separator.
        spec = write_spec(tmp_path, dict(SMALL_SPEC, sweep={"axis": axis, "points": points}))
        out = tmp_path / "out"
        result = CliRunner().invoke(main, ["sweep", "--spec", str(spec), "--out", str(out)])
        assert result.exit_code == 0, result.output
        result = CliRunner().invoke(main, ["report", str(out / "results.csv")])
        assert result.exit_code == 0, result.output
        rows = read_results(out / "results.csv")
        assert {r["axis_value"]: r["axis_numeric"] for r in rows} == numeric

    @pytest.mark.parametrize(
        "axis, points",
        [
            ("stay_mean_ms", [1234567.0, 1234568.0]),
            ("error_rate", [0.1234567, 0.1234568]),
            ("delay_ms", [[1234.567, 1234.568], [1234.567, 1234.569]]),
        ],
        ids=["large", "small", "range"],
    )
    def test_close_float_points_stay_two_cells(self, tmp_path, axis, points):
        # Six significant digits would write both points as one axis_value.
        spec = dict(SMALL_SPEC, sweep={"axis": axis, "points": points}, seeds=[1], detectors=["snapshot"])
        out = tmp_path / "out"
        result = CliRunner().invoke(main, ["sweep", "--spec", str(write_spec(tmp_path, spec)), "--out", str(out)])
        assert result.exit_code == 0, result.output
        rows = read_results(out / "results.csv")
        assert len({r["axis_value"] for r in rows}) == 2
        assert len(summarize(rows)["points"]) == 2

    def test_missing_file_exits_2(self, tmp_path):
        result = CliRunner().invoke(main, ["report", str(tmp_path / "nope.csv")])
        assert result.exit_code == 2
