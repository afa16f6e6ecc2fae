"""Command-line interface.

Verbs: gen, solve, validate, compare, export-lp, report. Machine-readable
outputs go to the paths given by --out / --out-dir; diagnostics go to
stderr as JSON. Exit codes: 0 success, 1 runtime failure (including plans
that fail validation), 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .backends import BackendError, ScipyHighsBackend, write_model
from .generate import GenParams, generate_instance
from .instance import InstanceError, parse_instance, serialize_instance
from .milp import ModelError
from .model_full import FullOptions, build_full
from .pipeline import METHODS, PipelineError, RunConfig, compare_methods, run_method
from .plan import Plan, parse_plan, serialize_plan
from .report import emit_report, rows_from_csv, rows_to_csv
from .validate import (
    ValidationInputError,
    validate_plan,
    validate_vrptw_plan,
)
from .vrptw import build_vrptw


def _add_solve_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--time-limit", type=_number(lambda x: x > 0, "a positive number"),
                        default=None, help="seconds per stage (overrides the per-stage defaults)")
    parser.add_argument("--gap", type=_number(lambda x: x >= 0, "a nonnegative number"),
                        default=1e-6, help="relative MIP gap tolerance")


def _number(holds, form: str, kind: type = float):
    """An argparse ``type`` that reads a ``kind`` for which ``holds`` is true; NaN, and
    text that is no ``kind``, fail it."""
    def parse(text: str) -> float:
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if not holds(value):
            raise argparse.ArgumentTypeError(f"expected {form}, got {text!r}")
        return value
    return parse


_COUNT = _number(lambda x: x > 0, "a positive whole number", int)
_SCALE = _number(lambda x: 0 <= x < math.inf, "a finite nonnegative number")


def _comma_list(item, form: str):
    """An argparse ``type`` that reads ``form``, a comma list of what ``item`` reads."""
    def parse(text: str) -> list:
        try:
            return [item(part) for part in text.split(",")]
        except argparse.ArgumentTypeError:
            raise argparse.ArgumentTypeError(f"expected {form}, got {text!r}") from None
    return parse


def _pair(kind: type, sep: str, form: str, holds, values: str, ordered: bool = False):
    """An argparse ``type`` that reads ``form``, two ``kind`` values joined by ``sep``,
    the first no greater than the second when ``ordered``, each one for which ``holds``
    is true (``values`` names them so in the message; NaN fails a comparison)."""
    def parse(text: str) -> tuple:
        first, _, second = text.lower().partition(sep)
        try:
            pair = kind(first), kind(second)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {form}, got {text!r}") from None
        if ordered and pair[0] > pair[1]:
            raise argparse.ArgumentTypeError(
                f"expected {form} with the smaller value first, got {text!r}")
        if not all(holds(x) for x in pair):
            raise argparse.ArgumentTypeError(f"expected {form} with {values}, got {text!r}")
        return pair
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transitfreight",
        description="Three-tier freight-on-transit delivery planning toolkit")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("gen", help="generate a synthetic instance")
    p.add_argument("--customers", type=_COUNT, required=True)
    p.add_argument("--lines", type=_COUNT, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stops-per-line", default="4:6",
                   type=_pair(int, ":", "MIN:MAX", lambda x: x >= 2, "values of at least 2",
                              ordered=True),
                   help="MIN:MAX stops per line")
    p.add_argument("--box", default="100x100",
                   type=_pair(float, "x", "WxH", lambda x: 0 < x < math.inf,
                              "positive finite sizes"),
                   help="WxH bounding box")
    p.add_argument("--trips-per-line", type=_COUNT, default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("solve", help="solve one instance with one method")
    p.add_argument("--instance", required=True)
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--t2-obj", default=None, choices=["obj1", "obj2", "obj3"])
    p.add_argument("--beta", type=_SCALE, default=None)
    p.add_argument("--mu", type=_SCALE, default=0.0)
    p.add_argument("--out", required=True, help="plan document path")
    p.add_argument("--metrics", default=None, help="metrics JSON path")
    p.add_argument("--artifacts", default=None, help="per-stage artifact directory")
    _add_solve_flags(p)

    p = sub.add_parser("validate", help="check a plan against an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--plan", required=True)
    p.add_argument("--out", default=None, help="violation report path")

    p = sub.add_parser("compare", help="run several methods over an instance directory")
    p.add_argument("--instances", required=True, help="directory of instance documents")
    p.add_argument("--methods", required=True,
                   help="comma list, e.g. full,d1,d2,d3,vrptw")
    p.add_argument("--t2-obj", default="obj2", choices=["obj1", "obj2", "obj3"])
    scales = _comma_list(_SCALE, "a comma list of finite nonnegative numbers")
    p.add_argument("--betas", type=scales, default=[None],
                   help="comma list of freighter cost scales")
    p.add_argument("--mus", type=scales, default=[0.0],
                   help="comma list of service-cost scales (full only)")
    p.add_argument("--out", required=True, help="rows CSV path")
    p.add_argument("--report-dir", default=None, help="also emit aggregate/series files here")
    p.add_argument("--artifacts", default=None, help="per-run artifact root")
    _add_solve_flags(p)

    p = sub.add_parser("export-lp",
                       help="write a model as an LP or MPS file, by the extension of --out")
    p.add_argument("--instance", required=True)
    p.add_argument("--method", default="full", choices=["full", "vrptw"])
    p.add_argument("--out", required=True)

    p = sub.add_parser("report", help="emit aggregates and series from a rows CSV")
    p.add_argument("--rows", required=True)
    p.add_argument("--out-dir", required=True)
    return parser


def _cmd_gen(args) -> int:
    params = GenParams(
        n_customers=args.customers, n_lines=args.lines, seed=args.seed,
        stops_per_line=args.stops_per_line, box=args.box,
        trips_per_line=args.trips_per_line)
    instance = generate_instance(params)
    Path(args.out).write_text(serialize_instance(instance), encoding="utf-8")
    print(f"wrote {args.out}: {len(instance.customers)} customers, "
          f"{len(instance.lines)} lines, {len(instance.stops)} stops, "
          f"{len(instance.trips)} trips")
    return 0


def _run_configs(args) -> list[RunConfig]:
    """The runs a ``solve`` or ``compare`` asks for; a ``ModelError`` names a setting no
    run can use. ``compare`` gives ``d3`` obj2 in place of obj3, and mu > 0 to ``full``."""
    if args.verb == "solve":
        return [RunConfig(method=args.method, t2_obj=args.t2_obj, beta=args.beta, mu=args.mu,
                          rel_gap=args.gap, time_limit=args.time_limit)]
    configs = []
    for method in [m.strip() for m in args.methods.split(",") if m.strip()]:
        if method not in METHODS:
            raise ModelError(f"unknown method {method!r} in --methods; "
                             f"expected {', '.join(METHODS)}")
        t2 = args.t2_obj if method in ("d1", "d2", "d3") else None
        if method == "d3" and t2 == "obj3":
            t2 = "obj2"
        for beta in args.betas:
            for mu in args.mus:
                if mu and method != "full":
                    continue
                configs.append(RunConfig(
                    method=method, t2_obj=t2, beta=beta, mu=mu,
                    rel_gap=args.gap, time_limit=args.time_limit))
    if not configs:
        raise ModelError("--methods and --mus leave no run: a service-cost scale other "
                         "than 0 applies to full alone")
    return configs


def _cmd_solve(args) -> int:
    instance = parse_instance(Path(args.instance).read_text(encoding="utf-8"))
    [config] = args.configs
    artifacts = Path(args.artifacts) if args.artifacts else None
    plan, metrics = run_method(instance, config, ScipyHighsBackend(), artifacts)
    Path(args.out).write_text(serialize_plan(plan), encoding="utf-8")
    if args.metrics:
        Path(args.metrics).write_text(metrics.to_json(), encoding="utf-8")
    print(f"{config.label()}: total={metrics.total:.4f} "
          f"(t1={metrics.t1_cost:.4f}, t3={metrics.t3_cost:.4f}) "
          f"in {metrics.wall_time:.2f}s")
    return 0


def _cmd_validate(args) -> int:
    instance = parse_instance(Path(args.instance).read_text(encoding="utf-8"))
    plan = parse_plan(Path(args.plan).read_text(encoding="utf-8"))
    if isinstance(plan, Plan):
        violations = validate_plan(instance, plan)
    else:
        violations = validate_vrptw_plan(instance, plan)
    report = {
        "violations": [
            {"code": v.code, "subjects": list(v.subjects),
             "measured": v.measured, "bound": v.bound, "detail": v.detail}
            for v in violations
        ],
        "ok": not violations,
    }
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    print(text, end="")
    return 0 if not violations else 1


def _cmd_compare(args) -> int:
    directory = Path(args.instances)
    instance_files = sorted(directory.glob("*.json"))
    if not instance_files:
        raise InstanceError(f"no instance documents in {directory}")
    instances = [
        (path.stem, parse_instance(path.read_text(encoding="utf-8")))
        for path in instance_files
    ]
    artifacts = Path(args.artifacts) if args.artifacts else None
    rows = compare_methods(instances, args.configs, ScipyHighsBackend(), artifacts)
    Path(args.out).write_text(rows_to_csv(rows), encoding="utf-8")
    if args.report_dir:
        emit_report(rows, Path(args.report_dir))
    solved = sum(1 for r in rows if r.status == "ok")
    print(f"{solved}/{len(rows)} runs succeeded; rows written to {args.out}")
    return 0


def _cmd_export_lp(args) -> int:
    instance = parse_instance(Path(args.instance).read_text(encoding="utf-8"))
    if args.method == "full":
        model = build_full(instance, FullOptions())
    else:
        model = build_vrptw(instance)
    write_model(model, args.out)
    print(f"wrote {args.out}: {len(model.variables)} variables, "
          f"{len(model.constraints)} constraints")
    return 0


def _cmd_report(args) -> int:
    rows = rows_from_csv(Path(args.rows).read_text(encoding="utf-8"))
    files = emit_report(rows, Path(args.out_dir))
    print(f"wrote {len(files)} report files to {args.out_dir}")
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "solve": _cmd_solve,
    "validate": _cmd_validate,
    "compare": _cmd_compare,
    "export-lp": _cmd_export_lp,
    "report": _cmd_report,
}


def cli_main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verb in ("solve", "compare"):
        try:
            args.configs = _run_configs(args)
        except ModelError as exc:
            parser.error(str(exc))
    try:
        return _COMMANDS[args.verb](args)
    except (InstanceError, ModelError, PipelineError, BackendError,
            ValidationInputError, OSError, ValueError) as exc:
        diagnostic = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(diagnostic), file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())
