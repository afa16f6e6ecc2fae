"""CSV reporting: per-run rows plus aggregate and plot-ready series files.

Emitted files (deterministic row and column order):
  rows.csv                     one row per (instance, method) run
  best_counts.csv              how often each method found the best cost, and
                               how many of its runs were proven optimal
  deviations.csv               average percentage gap to the best per method
  series_total_cost.csv        instance x method matrix of totals
  series_t1_cost.csv           same for first-leg routing cost
  series_t3_cost.csv           same for last-leg routing cost
  series_packages_per_truck.csv / _freighter.csv / _trip.csv
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

ROW_COLUMNS = [
    "instance", "method", "t2_obj", "status", "proven", "worst_stage_status", "t1_cost",
    "t3_cost", "service_cost", "total", "runtime", "stops_in_used", "stops_out_used",
    "trucks_used", "freighters_used", "trips_used", "packages_per_truck",
    "packages_per_freighter", "packages_per_trip", "deviation_pct", "error",
]


@dataclass
class ReportRow:
    instance: str
    method: str
    t2_obj: str = ""
    status: str = "ok"
    proven: bool = False  # every stage of the run ended optimal
    # least-proven stage status (optimal > feasible > timeout/infeasible/error);
    # a failed run's is the status of the stage it failed at
    worst_stage_status: str = ""
    t1_cost: float = float("nan")
    t3_cost: float = float("nan")
    service_cost: float = float("nan")
    total: float = float("nan")
    runtime: float = float("nan")
    stops_in_used: int = 0
    stops_out_used: int = 0
    trucks_used: int = 0
    freighters_used: int = 0
    trips_used: int = 0
    packages_per_truck: float = 0.0
    packages_per_freighter: float = 0.0
    packages_per_trip: float = 0.0
    deviation_pct: float = float("nan")
    error: str = ""

    def label(self) -> str:
        return self.method if not self.t2_obj else f"{self.method}-{self.t2_obj}"

    def as_record(self) -> dict:
        return {c: getattr(self, c) for c in ROW_COLUMNS}


def rows_to_csv(rows: list[ReportRow]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=ROW_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row.as_record())
    return buf.getvalue()


def rows_from_csv(text: str) -> list[ReportRow]:
    rows = []
    for rec in csv.DictReader(io.StringIO(text)):
        row = ReportRow(instance=rec["instance"], method=rec["method"],
                        t2_obj=rec.get("t2_obj", ""), status=rec.get("status", "ok"),
                        proven=rec.get("proven") == "True",
                        worst_stage_status=rec.get("worst_stage_status", ""),
                        error=rec.get("error", ""))
        for name in ROW_COLUMNS:
            if name in ("instance", "method", "t2_obj", "status", "proven",
                        "worst_stage_status", "error"):
                continue
            value = rec.get(name, "")
            if value == "":
                continue
            if name.endswith("_used"):
                setattr(row, name, int(float(value)))
            else:
                setattr(row, name, float(value))
        rows.append(row)
    return rows


def _series_csv(rows: list[ReportRow], value_of) -> str:
    instances = sorted({r.instance for r in rows})
    labels = sorted({r.label() for r in rows})
    cell: dict[tuple[str, str], float] = {}
    for r in rows:
        if r.status == "ok":
            cell[(r.instance, r.label())] = value_of(r)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["instance"] + labels)
    for inst in instances:
        writer.writerow([inst] + [cell.get((inst, lbl), "") for lbl in labels])
    return buf.getvalue()


def _aggregates(rows: list[ReportRow]) -> tuple[str, str]:
    """(best-count table, average-deviation table), per method label."""
    labels = sorted({r.label() for r in rows})
    instances = sorted({r.instance for r in rows})
    ok = [r for r in rows if r.status == "ok"]

    def best_of(metric) -> dict[str, float]:
        best: dict[str, float] = {}
        for r in ok:
            v = metric(r)
            if v == v:  # not NaN
                best[r.instance] = min(best.get(r.instance, float("inf")), v)
        return best

    metrics = {
        "t1_cost": lambda r: r.t1_cost,
        "t3_cost": lambda r: r.t3_cost,
        "total": lambda r: r.total,
    }
    counts_buf = io.StringIO()
    writer = csv.writer(counts_buf, lineterminator="\n")
    writer.writerow(["method", "best_t1", "best_t3", "best_total", "solved", "attempted",
                     "proven"])
    for lbl in labels:
        mine = [r for r in ok if r.label() == lbl]
        row_out = [lbl]
        for name, metric in metrics.items():
            best = best_of(metric)
            row_out.append(sum(
                1 for r in mine
                if r.instance in best and metric(r) <= best[r.instance] + 1e-6))
        row_out.append(len(mine))
        row_out.append(sum(1 for r in rows if r.label() == lbl))
        row_out.append(sum(1 for r in mine if r.proven))
        writer.writerow(row_out)

    dev_buf = io.StringIO()
    writer = csv.writer(dev_buf, lineterminator="\n")
    writer.writerow(["method", "avg_deviation_t1_pct", "avg_deviation_t3_pct",
                     "avg_deviation_total_pct", "avg_runtime_s"])
    for lbl in labels:
        mine = [r for r in ok if r.label() == lbl]
        row_out = [lbl]
        for name, metric in metrics.items():
            best = best_of(metric)
            devs = [100.0 * (metric(r) - best[r.instance]) / best[r.instance]
                    for r in mine
                    if r.instance in best and best[r.instance] > 0 and metric(r) == metric(r)]
            row_out.append(f"{sum(devs) / len(devs):.4f}" if devs else "")
        runtimes = [r.runtime for r in mine if r.runtime == r.runtime]
        row_out.append(f"{sum(runtimes) / len(runtimes):.4f}" if runtimes else "")
        writer.writerow(row_out)
    return counts_buf.getvalue(), dev_buf.getvalue()


def emit_report(rows: list[ReportRow], out_dir: Path) -> dict[str, Path]:
    """Write the row table plus aggregates and figure-ready series files."""
    if not rows:
        raise ValueError("nothing to report")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files: dict[str, Path] = {}

    def put(name: str, text: str) -> None:
        path = out_dir / name
        path.write_text(text, encoding="utf-8")
        files[name] = path

    put("rows.csv", rows_to_csv(rows))
    counts, deviations = _aggregates(rows)
    put("best_counts.csv", counts)
    put("deviations.csv", deviations)
    put("series_total_cost.csv", _series_csv(rows, lambda r: r.total))
    put("series_t1_cost.csv", _series_csv(rows, lambda r: r.t1_cost))
    put("series_t3_cost.csv", _series_csv(rows, lambda r: r.t3_cost))
    put("series_packages_per_truck.csv", _series_csv(rows, lambda r: r.packages_per_truck))
    put("series_packages_per_freighter.csv",
        _series_csv(rows, lambda r: r.packages_per_freighter))
    put("series_packages_per_trip.csv", _series_csv(rows, lambda r: r.packages_per_trip))
    return files
