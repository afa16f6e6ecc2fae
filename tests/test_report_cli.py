import csv
import io
import json
from pathlib import Path

import pytest

from transitfreight.cli import cli_main
from transitfreight.instance import parse_instance, serialize_instance
from transitfreight.plan import PLAN_SCHEMA, parse_plan
from transitfreight.report import (
    ReportRow, emit_report, fill_deviations, rows_from_csv, rows_to_csv)

from conftest import make_micro1


def sample_rows() -> list[ReportRow]:
    rows = []
    for inst, offsets in (("i1", (0.0, 5.0, 9.0)), ("i2", (2.0, 0.0, 4.0))):
        for (method, obj), off in zip(
                (("full", ""), ("d2", "obj2"), ("d1", "obj2")), offsets):
            rows.append(ReportRow(
                instance=inst, method=method, t2_obj=obj, status="ok",
                t1_cost=10.0 + off, t3_cost=5.0, service_cost=0.0,
                total=15.0 + off, runtime=1.0,
                stops_in_used=1, stops_out_used=1, trucks_used=1,
                freighters_used=2, trips_used=1,
                packages_per_truck=3.0, packages_per_freighter=1.5,
                packages_per_trip=3.0))
    return rows


def test_emit_report_files(tmp_path):
    files = emit_report(sample_rows(), tmp_path)
    assert set(files) == {
        "rows.csv", "best_counts.csv", "deviations.csv",
        "series_total_cost.csv", "series_t1_cost.csv", "series_t3_cost.csv",
        "series_packages_per_truck.csv", "series_packages_per_freighter.csv",
        "series_packages_per_trip.csv",
    }
    rows_text = (tmp_path / "rows.csv").read_text()
    assert len(rows_text.strip().splitlines()) == 1 + 6  # header + 6 rows
    series = list(csv.reader(io.StringIO(
        (tmp_path / "series_total_cost.csv").read_text())))
    assert series[0] == ["instance", "d1-obj2", "d2-obj2", "full"]
    assert len(series) == 3


def test_best_counts_equal_argmin(tmp_path):
    rows = sample_rows()
    for row in rows:
        row.proven = row.method == "full" or (row.method == "d2" and row.instance == "i1")
    rows.append(ReportRow(instance="i3", method="full", status="failed", error="[full] timeout"))
    emit_report(rows, tmp_path)
    table = {row["method"]: row for row in
             csv.DictReader(io.StringIO((tmp_path / "best_counts.csv").read_text()))}
    # i1's best total is full (15), i2's is d2 (15): one win each
    assert int(table["full"]["best_total"]) == 1
    assert int(table["d2-obj2"]["best_total"]) == 1
    assert int(table["d1-obj2"]["best_total"]) == 0
    assert int(table["full"]["solved"]) == 2
    assert int(table["full"]["attempted"]) == 3
    # runs whose every stage ended optimal, per method
    assert [int(table[m]["proven"]) for m in ("full", "d2-obj2", "d1-obj2")] == [2, 1, 0]


def test_deviations_nonnegative(tmp_path):
    emit_report(sample_rows(), tmp_path)
    for row in csv.DictReader(io.StringIO((tmp_path / "deviations.csv").read_text())):
        assert float(row["avg_deviation_total_pct"]) >= 0.0


def test_single_method_degenerates(tmp_path):
    rows = [r for r in sample_rows() if r.method == "full"]
    files = emit_report(rows, tmp_path)
    series = (tmp_path / "series_total_cost.csv").read_text().splitlines()
    assert series[0] == "instance,full"


def test_rows_csv_round_trip():
    rows = sample_rows()
    rows[0].proven = True
    for row, status in zip(rows, ("optimal", "feasible", "timeout")):
        row.worst_stage_status = status
    rows.append(ReportRow(instance="i1", method="d3", t2_obj="obj2", status="failed",
                          worst_stage_status="infeasible", error="[t2] model infeasible"))
    text = rows_to_csv(rows)
    again = rows_from_csv(text)
    assert rows_to_csv(again) == text
    assert [r.proven for r in again] == [True] + [False] * 6
    assert [r.worst_stage_status for r in again] == (
        ["optimal", "feasible", "timeout"] + [""] * 3 + ["infeasible"])


def test_costs_are_compared_per_beta_and_mu(tmp_path):
    rows = [ReportRow(instance="i1", method=method, t2_obj=obj, beta=beta, mu=mu, status="ok",
                      t1_cost=total, t3_cost=0.0, total=total)
            for method, obj, beta, mu, total in (
                ("full", "", 0.5, 0.0, 10.0), ("full", "", 1.0, 0.0, 12.0),
                ("d2", "obj2", 1.0, 0.0, 15.0), ("full", "", 1.0, 0.5, 20.0))]
    fill_deviations(rows)
    assert [r.deviation_pct for r in rows] == [0.0, 0.0, 25.0, 0.0]
    text = rows_to_csv(rows)
    again = rows_from_csv(text)
    assert [(r.label(), r.beta, r.mu) for r in again] == [
        ("full-beta0.5", 0.5, 0.0), ("full-beta1", 1.0, 0.0), ("d2-obj2-beta1", 1.0, 0.0),
        ("full-beta1-mu0.5", 1.0, 0.5)]
    emit_report(again, tmp_path)
    table = {row["method"]: int(row["best_total"]) for row in
             csv.DictReader(io.StringIO((tmp_path / "best_counts.csv").read_text()))}
    assert table == {"full-beta0.5": 1, "full-beta1": 1, "d2-obj2-beta1": 0,
                     "full-beta1-mu0.5": 1}
    # a file written before the beta and mu columns reads as beta None, mu 0
    old = [{k: v for k, v in rec.items() if k not in ("beta", "mu")}
           for rec in csv.DictReader(io.StringIO(text))]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(old[0]))
    writer.writeheader()
    writer.writerows(old)
    assert [(r.beta, r.mu, r.total) for r in rows_from_csv(buf.getvalue())] == [
        (None, 0.0, 10.0), (None, 0.0, 12.0), (None, 0.0, 15.0), (None, 0.0, 20.0)]


def test_emit_report_rejects_empty(tmp_path):
    with pytest.raises(ValueError):
        emit_report([], tmp_path)


# ---- CLI ------------------------------------------------------------------


def write_micro1(tmp_path) -> Path:
    path = tmp_path / "micro1.json"
    path.write_text(serialize_instance(make_micro1()), encoding="utf-8")
    return path


def test_cli_gen_solve_validate_roundtrip(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    rc = cli_main(["gen", "--customers", "4", "--lines", "1", "--seed", "3",
                   "--trips-per-line", "3", "--out", str(inst_path)])
    assert rc == 0
    instance = parse_instance(inst_path.read_text())
    assert len(instance.customers) >= 4  # orphan patching may add more

    plan_path = tmp_path / "plan.json"
    metrics_path = tmp_path / "metrics.json"
    rc = cli_main(["solve", "--instance", str(inst_path), "--method", "d2",
                   "--t2-obj", "obj2", "--out", str(plan_path),
                   "--metrics", str(metrics_path)])
    assert rc == 0
    assert parse_plan(plan_path.read_text()) is not None
    assert json.loads(metrics_path.read_text())["method"] == "d2"

    rc = cli_main(["validate", "--instance", str(inst_path),
                   "--plan", str(plan_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert '"ok": true' in out


def test_cli_validate_flags_corruption(tmp_path, capsys):
    inst_path = write_micro1(tmp_path)
    plan_path = tmp_path / "plan.json"
    assert cli_main(["solve", "--instance", str(inst_path), "--method", "full",
                     "--out", str(plan_path)]) == 0
    doc = json.loads(plan_path.read_text())
    doc["itineraries"][0]["delivery_time"] = 10.0  # before the window opens
    doc["freighter_routes"][0]["times"][0] = 10.0
    plan_path.write_text(json.dumps(doc))
    report_path = tmp_path / "violations.json"
    rc = cli_main(["validate", "--instance", str(inst_path),
                   "--plan", str(plan_path), "--out", str(report_path)])
    assert rc == 1
    report = json.loads(report_path.read_text())
    assert any(v["code"] in ("WINDOW", "ORDER") for v in report["violations"])


def test_cli_export_lp_deterministic(tmp_path):
    inst_path = write_micro1(tmp_path)
    out1, out2 = tmp_path / "m1.lp", tmp_path / "m2.lp"
    assert cli_main(["export-lp", "--instance", str(inst_path),
                     "--method", "full", "--out", str(out1)]) == 0
    assert cli_main(["export-lp", "--instance", str(inst_path),
                     "--method", "full", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_compare_and_report(tmp_path):
    inst_dir = tmp_path / "instances"
    inst_dir.mkdir()
    (inst_dir / "micro1.json").write_text(serialize_instance(make_micro1()))
    rows_path = tmp_path / "rows.csv"
    rc = cli_main(["compare", "--instances", str(inst_dir),
                   "--methods", "full,d2,vrptw", "--t2-obj", "obj2",
                   "--out", str(rows_path)])
    assert rc == 0
    rows = rows_from_csv(rows_path.read_text())
    assert {r.label() for r in rows} == {"full", "d2-obj2", "vrptw"}
    assert all(r.status == "ok" for r in rows)

    report_dir = tmp_path / "report"
    rc = cli_main(["report", "--rows", str(rows_path), "--out-dir", str(report_dir)])
    assert rc == 0
    assert (report_dir / "series_total_cost.csv").exists()


def test_cli_unknown_verb_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli_main(["frobnicate"])
    assert exc.value.code == 2


def test_cli_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli_main(["gen", "--nope", "1"])
    assert exc.value.code == 2


def test_cli_runtime_failure_exits_1(tmp_path, capsys):
    missing = tmp_path / "nothing.json"
    rc = cli_main(["solve", "--instance", str(missing), "--method", "full",
                   "--out", str(tmp_path / "p.json")])
    assert rc == 1
    err = capsys.readouterr().err
    assert json.loads(err.strip())["error"]


def test_cli_solve_structural_failure_exits_1(tmp_path, capsys):
    inst_path = write_micro1(tmp_path)
    rc = cli_main(["solve", "--instance", str(inst_path), "--method", "d3",
                   "--t2-obj", "obj2", "--out", str(tmp_path / "p.json")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "PipelineError"


def _micro1_doc() -> dict:
    return json.loads(serialize_instance(make_micro1()))


def _with(doc: dict, path: tuple, value) -> dict:
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


_VRPTW_ROUTE = {"truck": "d1", "customers": ["c1"], "times": [300.0]}


@pytest.mark.parametrize("instance_doc, plan_doc, names", [
    pytest.param(_with(_micro1_doc(), ("stops",), 5), None, "stops: expected a list",
                 id="stops-not-a-list"),
    pytest.param(_with(_micro1_doc(), ("trips", 0, "stop_times"), [150.0, 158.0]), None,
                 "trips[0].stop_times: expected an object", id="stop-times-a-list"),
    pytest.param(_with(_micro1_doc(), ("trips", 1, "capacity"), None), None,
                 "trips[1].capacity: expected a number", id="capacity-null"),
    pytest.param(None, [], "top level: expected an object", id="plan-a-list"),
    pytest.param(None, {"schema": PLAN_SCHEMA, "kind": "three-tier"},
                 "missing field itineraries", id="plan-without-itineraries"),
    pytest.param(None, {"schema": PLAN_SCHEMA, "kind": "vrptw", "routes": [_VRPTW_ROUTE],
                        "total_cost": 104.08},
                 "routes[0]: missing field departure", id="vrptw-route-without-departure"),
])
def test_cli_validate_reports_malformed_documents(tmp_path, capsys, instance_doc, plan_doc,
                                                  names):
    """A malformed instance or plan document is a JSON diagnostic naming the field."""
    inst_path, plan_path = tmp_path / "instance.json", tmp_path / "plan.json"
    inst_path.write_text(json.dumps(instance_doc or _micro1_doc()), encoding="utf-8")
    plan_path.write_text(json.dumps({"schema": PLAN_SCHEMA, "kind": "vrptw", "routes": [],
                                     "total_cost": 0.0} if plan_doc is None else plan_doc),
                         encoding="utf-8")
    rc = cli_main(["validate", "--instance", str(inst_path), "--plan", str(plan_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    diagnostic = json.loads(err.strip())
    assert diagnostic["error"] == ("InstanceError" if plan_doc is None else "PlanError")
    assert names in diagnostic["message"]
