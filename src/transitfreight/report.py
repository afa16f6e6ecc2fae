"""CSV reporting: per-run rows plus aggregate and plot-ready series files.

Emitted files (deterministic row and column order):
  rows.csv                     one row per (instance, method, beta, mu) run
  best_counts.csv              how often each method found the best cost, and
                               how many of its runs were proven optimal
  deviations.csv               average percentage gap to the best per method
  series_total_cost.csv        instance x method matrix of totals
  series_t1_cost.csv           same for first-leg routing cost
  series_t3_cost.csv           same for last-leg routing cost
  series_packages_per_truck.csv / _freighter.csv / _trip.csv

Costs are compared only within a case: runs of one instance at one beta and mu.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, fields
from pathlib import Path


def run_label(method: str, t2_obj: str | None, beta: float | None, mu: float) -> str:
    """The method, then whichever of the transit objective, beta and mu the run
    sets: ``d2-obj1``, ``full-beta0.5-mu2``."""
    parts = [method, t2_obj, beta is not None and f"beta{beta:g}", mu and f"mu{mu:g}"]
    return "-".join(part for part in parts if part)


@dataclass
class ReportRow:
    instance: str
    method: str
    t2_obj: str = ""
    beta: float | None = None  # freighter cost scale set by the run; None keeps the instance's
    mu: float = 0.0            # service-cost scale (full only)
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
        return run_label(self.method, self.t2_obj, self.beta, self.mu)

    def case(self) -> tuple:
        """What the run's costs are compared within: its instance, beta and mu."""
        return self.instance, self.beta, self.mu

    def as_record(self) -> dict:
        return {c: getattr(self, c) for c in ROW_COLUMNS}


ROW_COLUMNS = [f.name for f in fields(ReportRow)]


def _best(rows: list[ReportRow], value_of) -> dict[tuple, float]:
    """Per case, the least value among its successful runs, NaN skipped."""
    best: dict[tuple, float] = {}
    for r in rows:
        value = value_of(r)
        if r.status == "ok" and value == value:
            best[r.case()] = min(best.get(r.case(), math.inf), value)
    return best


def fill_deviations(rows: list[ReportRow]) -> None:
    """Each successful run's total, in percent above the best total of its case."""
    best = _best(rows, lambda r: r.total)
    for r in rows:
        if r.status == "ok" and best.get(r.case(), 0.0) > 0:
            r.deviation_pct = 100.0 * (r.total - best[r.case()]) / best[r.case()]


def rows_to_csv(rows: list[ReportRow]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=ROW_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row.as_record())
    return buf.getvalue()


def rows_from_csv(text: str) -> list[ReportRow]:
    """Rows as ``rows_to_csv`` wrote them; a column an older file lacks keeps its default."""
    rows = []
    for rec in csv.DictReader(io.StringIO(text)):
        row = ReportRow(instance=rec["instance"], method=rec["method"])
        for name in ROW_COLUMNS[2:]:
            value = rec.get(name, "")
            if value != "":
                setattr(row, name, _parse(getattr(row, name), value))
        rows.append(row)
    return rows


def _parse(default, value: str):
    """``value`` read as the type of the field's default; beta's default is None."""
    if isinstance(default, bool):
        return value == "True"
    if isinstance(default, str):
        return value
    return int(float(value)) if isinstance(default, int) else float(value)


def _series_csv(rows: list[ReportRow], value_of) -> str:
    labels = sorted({r.label() for r in rows})
    cell = {(r.instance, r.label()): value_of(r) for r in rows if r.status == "ok"}
    return _csv([["instance"] + labels] + [
        [inst] + [cell.get((inst, lbl), "") for lbl in labels]
        for inst in sorted({r.instance for r in rows})])


def _aggregates(rows: list[ReportRow]) -> tuple[str, str]:
    """(best-count table, average-deviation table), per method label."""
    ok = [r for r in rows if r.status == "ok"]
    costs = ("t1_cost", "t3_cost", "total")
    bests = {cost: _best(ok, lambda r, cost=cost: getattr(r, cost)) for cost in costs}
    counts = [["method", "best_t1", "best_t3", "best_total", "solved", "attempted", "proven"]]
    deviations = [["method", "avg_deviation_t1_pct", "avg_deviation_t3_pct",
                   "avg_deviation_total_pct", "avg_runtime_s"]]
    for lbl in sorted({r.label() for r in rows}):
        mine = [r for r in ok if r.label() == lbl]
        wins, devs = [], []
        for cost in costs:
            pairs = [(getattr(r, cost), bests[cost][r.case()]) for r in mine
                     if r.case() in bests[cost] and getattr(r, cost) == getattr(r, cost)]
            wins.append(sum(value <= best + 1e-6 for value, best in pairs))
            devs.append(_mean([100.0 * (value - best) / best for value, best in pairs if best > 0]))
        counts.append([lbl, *wins, len(mine), sum(r.label() == lbl for r in rows),
                       sum(r.proven for r in mine)])
        deviations.append([lbl, *devs, _mean([r.runtime for r in mine])])
    return _csv(counts), _csv(deviations)


def _mean(values: list[float]) -> str:
    values = [v for v in values if v == v]
    return f"{sum(values) / len(values):.4f}" if values else ""


def _csv(table: list[list]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(table)
    return buf.getvalue()


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
