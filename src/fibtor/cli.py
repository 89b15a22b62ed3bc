"""Command line front end.

Subcommands:
  list      catalog entries with genus and available methods
  compute   torsion of one representation (character point, holonomy lift,
            or explicit matrices from a representation file)
  sweep     torsion along a parameter grid, written as CSV or JSON
  verify    run the named verification checks

Exit codes: 0 success, 1 computation error, 2 usage error.
"""

import argparse
import cmath
import itertools
import json
import math
import sys

import numpy as np

from .catalog import catalog, get_entry, holonomy_representation
from .errors import FibtorError, InvalidInputError
from .fibered import (
    FiberedKnot,
    lift_character_to_rep,
    main_theorem_torsion,
    TorsionReport,
)
from .linalg import RANK_TOL
from .rep import Representation
from .verify import run_checks

USAGE_ERROR = 2
COMPUTE_ERROR = 1
MAX_SWEEP_ROWS = 1_000_000


def _fmt_float(x):
    return format(float(x), ".12g")


def _fmt_complex(z):
    z = complex(z)
    return "%s%s%sj" % (_fmt_float(z.real), "+" if z.imag >= 0 else "-",
                        _fmt_float(abs(z.imag)))


def _parse_scalar(text):
    text = text.strip()
    try:
        z = complex(text.replace(" ", ""))
    except ValueError as exc:
        raise InvalidInputError("cannot parse %r as a number" % text) from exc
    if not cmath.isfinite(z):
        raise InvalidInputError("%r is not a finite number" % text)
    return z


def _rank_tol(args):
    """The rank cutoff: `--tol`, checked, or RANK_TOL."""
    if args.tol is None:
        return RANK_TOL
    if not 0 < args.tol < 1:
        raise InvalidInputError("--tol must be a finite number in (0, 1), not %r"
                                % args.tol)
    return args.tol


def _read_text(path, what):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InvalidInputError("%s is not UTF-8 text (%s)" % (what, exc)) from exc


def _load_knot(args):
    if args.knot_file:
        return FiberedKnot.from_json(_read_text(args.knot_file, "knot file")), None
    if not args.knot:
        raise InvalidInputError("choose a knot with --knot or --knot-file")
    entry = get_entry(args.knot)
    if entry.torus is not None:
        return None, entry.torus
    return entry.knot, None


def _representation(fk, args, tol):
    if args.rep_file:
        text = _read_text(args.rep_file, "rep file")
        try:
            images = {name: np.array([[complex(c[0], c[1]) for c in row] for row in mat])
                      for name, mat in json.loads(text)["images"].items()}
            return Representation(fk.presentation(), images, tol=tol)
        except (AttributeError, IndexError, KeyError, OverflowError, RecursionError,
                TypeError, ValueError) as exc:
            raise InvalidInputError("malformed rep file (%s: %s)"
                                    % (type(exc).__name__, exc)) from exc
    if args.holonomy:
        # the catalog figure-eight is the one knot whose chart has holonomy lifts
        if fk.locus_chart is None or fk.locus_chart.holonomy is None:
            raise InvalidInputError("--holonomy is specific to figure_eight")
        sign = 1 if args.holonomy == "plus" else -1
        _, rep = holonomy_representation(sign, tol=tol)
        return rep
    if args.x:
        point = [_parse_scalar(v) for v in args.x.split(",")]
        if len(point) != 3:
            raise InvalidInputError("--x needs three comma-separated values")
        return lift_character_to_rep(fk, point, tol=tol)
    raise InvalidInputError("give a character with --x, --holonomy, or --rep-file")


def cmd_list(args):
    entries = catalog()
    if args.json:
        print(json.dumps([
            {"name": e.name, "genus": e.genus, "methods": e.methods}
            for e in entries]))
        return 0
    for e in entries:
        genus = "?" if e.genus is None else str(e.genus)
        print("%s genus=%s methods=%s" % (e.name, genus, ",".join(e.methods)))
    return 0


def _print_report(report, as_json):
    if as_json:
        print(report.to_json())
        return
    print("torsion  = %s" % _fmt_complex(report.torsion))
    if report.epsilon0:
        print("epsilon0 = %+d" % report.epsilon0)
    if report.eigenvalues:
        print("eigenvalues (unit eigenvalue removed):")
        for lam in report.eigenvalues:
            print("  %s" % _fmt_complex(lam))
        print("unit eigenvalue gap = %s" % _fmt_float(report.unit_eigenvalue_gap))
    print("method   = %s" % report.method)


def cmd_compute(args):
    tol = _rank_tol(args)
    fk, torus = _load_knot(args)
    if torus is not None:
        if not args.x:
            raise InvalidInputError(
                "torus knots take --x a,b (representation indices)")
        try:
            parts = [int(v) for v in args.x.split(",")]
        except ValueError as exc:
            raise InvalidInputError("torus knots take integers --x a,b (%s)" % exc) from exc
        if len(parts) != 2:
            raise InvalidInputError("torus knots take --x a,b")
        value = torus.value(*parts)
        report = TorsionReport(torsion=complex(value), epsilon0=0,
                               eigenvalues=[], unit_eigenvalue_gap=float("inf"),
                               method="closed_form", knot=torus.name)
        _print_report(report, args.format == "json")
        return 0
    report = main_theorem_torsion(fk, _representation(fk, args, tol))
    _print_report(report, args.format == "json")
    return 0


def _parse_grid(spec):
    """Parse "name=start:stop:steps[,name=...]" into an ordered dict of
    value arrays.  Grids of more than MAX_SWEEP_ROWS rows are refused before
    any array is allocated."""
    if not spec or not spec.strip():
        raise InvalidInputError("empty grid")
    ranges = {}
    for part in spec.split(","):
        if "=" not in part:
            raise InvalidInputError("grid entries look like name=start:stop:steps")
        name, rng = part.split("=", 1)
        name = name.strip()
        if name in ranges:
            raise InvalidInputError("grid coordinate %r is given twice" % name)
        pieces = rng.split(":")
        if len(pieces) != 3:
            raise InvalidInputError("grid range %r is not start:stop:steps" % rng)
        try:
            start, stop, steps = float(pieces[0]), float(pieces[1]), int(pieces[2])
        except ValueError as exc:
            raise InvalidInputError("grid range %r is not start:stop:steps (%s)"
                                    % (rng, exc)) from exc
        if steps < 1:
            raise InvalidInputError("step counts must be >= 1")
        if not (np.isfinite(start) and np.isfinite(stop)):
            raise InvalidInputError("grid ranges must be finite")
        if not np.isfinite(stop - start):
            raise InvalidInputError("grid range %r spans more than a float can hold" % rng)
        ranges[name] = (start, stop, steps)
    rows = math.prod(steps for _, _, steps in ranges.values())
    if rows > MAX_SWEEP_ROWS:
        raise InvalidInputError("grid has %d rows; sweeps are capped at %d"
                                % (rows, MAX_SWEEP_ROWS))
    return {name: np.linspace(*r) for name, r in ranges.items()}


def _character_from_params(fk, params):
    """Map named grid coordinates to a character point on the fixed locus."""
    if set(params) == {"x1", "x2", "x3"}:
        return (params["x1"], params["x2"], params["x3"])
    chart = fk.locus_chart
    if chart is not None and set(params) == {chart.coordinate}:
        value = params[chart.coordinate]
        if chart.pole is not None and abs(value - chart.pole) < 1e-9:
            raise InvalidInputError("%s = %g is off the locus"
                                    % (chart.coordinate, chart.pole))
        return chart.point(value)
    raise InvalidInputError(
        "unsupported grid coordinates %s for %s (use x for trefoil, u for "
        "figure_eight, or x1,x2,x3)" % (sorted(params), fk.name))


def cmd_sweep(args):
    tol = _rank_tol(args)
    fk, torus = _load_knot(args)
    if torus is not None:
        raise InvalidInputError("sweeps need a fibered-knot entry")
    grid = _parse_grid(args.grid)
    names = list(grid)
    mesh = [dict(zip(names, vals))
            for vals in itertools.product(*(grid[n] for n in names))]
    rows = []
    failures = 0
    for params in mesh:
        row = {"params": params}
        try:
            point = _character_from_params(fk, params)
            rep = lift_character_to_rep(fk, point, tol=tol)
            row["report"] = main_theorem_torsion(fk, rep)
        except FibtorError as exc:
            row["error"] = exc.code
            row["message"] = str(exc)
            failures += 1
        rows.append(row)
    text = _render_rows(names, rows, args.format)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    values = [r["report"].torsion.real for r in rows if "report" in r]
    if values:
        print("# rows=%d failures=%d torsion_re in [%s, %s]"
              % (len(rows), failures, _fmt_float(min(values)),
                 _fmt_float(max(values))), file=sys.stderr)
    return 0 if failures == 0 else COMPUTE_ERROR


def _render_rows(names, rows, fmt):
    if fmt == "json":
        out = []
        for r in rows:
            entry = {n: _fmt_float(r["params"][n]) for n in names}
            if "report" in r:
                entry.update(r["report"].to_dict())
            else:
                entry["error"] = r["error"]
                entry["message"] = r["message"]
            out.append(entry)
        return json.dumps(out, indent=1) + "\n"
    header = names + ["torsion_re", "torsion_im", "epsilon0", "eigenvalues", "error"]
    lines = [",".join(header)]
    for r in rows:
        cells = [_fmt_float(r["params"][n]) for n in names]
        if "report" in r:
            rep = r["report"]
            cells += [_fmt_float(rep.torsion.real), _fmt_float(rep.torsion.imag),
                      "%+d" % rep.epsilon0,
                      ";".join(_fmt_complex(l) for l in rep.eigenvalues), ""]
        else:
            cells += ["", "", "", "", r["error"]]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def cmd_verify(args):
    results = run_checks(name_filter=args.filter, seed=args.seed,
                         perturb=args.inject_perturbation)
    if not results:
        print("no checks match filter %r" % args.filter)
        return USAGE_ERROR
    width = max(len(name) for name, _, _ in results)
    failed = 0
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        if not ok:
            failed += 1
        print("[%s] %-*s  %s" % (status, width, name, detail))
    print("%d/%d checks passed" % (len(results) - failed, len(results)))
    return 0 if failed == 0 else COMPUTE_ERROR


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fibtor",
        description="Adjoint Reidemeister torsion of fibered knot exteriors.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="show the knot catalog")
    p_list.add_argument("--json", action="store_true")
    p_list.set_defaults(func=cmd_list)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--knot", help="catalog name, e.g. trefoil or torus(2,3)")
    common.add_argument("--knot-file", help="JSON knot definition file")
    common.add_argument("--tol", type=float, help="rank tolerance override")

    p_comp = sub.add_parser("compute", parents=[common],
                            help="torsion at one representation")
    p_comp.add_argument("--x", help="character point x1,x2,x3 (torus: a,b)")
    p_comp.add_argument("--holonomy", choices=["plus", "minus"],
                        help="figure-eight holonomy lift")
    p_comp.add_argument("--rep-file", help="JSON file with explicit matrices")
    p_comp.add_argument("--format", choices=["text", "json"], default="text")
    p_comp.set_defaults(func=cmd_compute)

    p_sweep = sub.add_parser("sweep", parents=[common],
                             help="torsion along a parameter grid")
    p_sweep.add_argument("--grid", required=True,
                         help="name=start:stop:steps[,name=...]")
    p_sweep.add_argument("--out", help="output path (default stdout)")
    p_sweep.add_argument("--format", choices=["csv", "json"], default="csv")
    p_sweep.set_defaults(func=cmd_sweep)

    p_ver = sub.add_parser("verify", help="run the verification checks")
    p_ver.add_argument("--filter", help="only run checks whose id contains this")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--inject-perturbation", action="store_true",
                       help=argparse.SUPPRESS)  # negative control for tests
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FibtorError as exc:
        print("error[%s]: %s" % (exc.code, exc), file=sys.stderr)
        return COMPUTE_ERROR
    except OSError as exc:
        print("error[IO]: %s" % exc, file=sys.stderr)
        return COMPUTE_ERROR


if __name__ == "__main__":
    sys.exit(main())
