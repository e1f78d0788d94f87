"""Command-line front end: reproducible verification runs with JSON/CSV output.

Every subcommand emits a single JSON envelope
{"command", "params", "results", "pass", "version"} (schema in
schemas/report.json) to stdout, or to --report, sorted keys, no timestamps
— fixed inputs give byte-identical reports.  Exit codes: 0 all checks within
tolerance (queries always exit 0, a negative verdict is a valid answer); 1 a
tolerance check failed or the library refused the query (a point outside
the hull, a failed closedness certificate, a form without a holomorphic
extension, a quadrature that gives non-finite or unconverged coefficients)
— the envelope is still emitted, with "pass" false, and stderr
reads ``check failed: <group> <mode>: <reason>``; 2 configuration error,
with no envelope.  ``verify all`` also prints one PASS/FAIL line per
criterion and an OVERALL line, to stderr.

Each subcommand imports the layers it runs when it runs: the parser needs
only fields (for the field names), so ``hull contains`` never loads the
transform or the acceptance suite, and ``verify all`` alone loads them all.
"""

import argparse
import json
import sys

import numpy as np

from . import __version__, quat
from .domains import parse_domain
from .fields import _shell_points, field_names, get_field

__all__ = ["main"]


def _json_default(o):
    """json.dumps hook: numpy arrays and scalars as lists and numbers, and a
    complex number as [re, im]."""
    if isinstance(o, (np.ndarray, np.generic)):
        return o.tolist()
    if isinstance(o, complex):
        return [o.real, o.imag]
    raise TypeError("%s is not JSON serializable" % type(o).__name__)


def _emit(args, command, results, passed):
    env = {"command": command, "params": args.params, "results": results,
           "pass": bool(passed), "version": __version__}
    text = json.dumps(env, sort_keys=True, indent=2,
                      default=_json_default) + "\n"
    if args.report:
        with open(args.report, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _parse_complex(s):
    try:
        z = complex(s.replace(" ", ""))
    except ValueError:
        raise ValueError("cannot parse complex number from %r" % s)
    if not np.isfinite(z):
        raise ValueError("complex number %r is not finite" % s)
    return z


def _parse_matrix(obj):
    arr = np.asarray(obj, dtype=float)
    if not np.all(np.isfinite(arr)):  # before 1j * inf makes a NaN
        raise ValueError("non-finite point coordinates in the matrix %s"
                         % arr.tolist())
    if arr.ndim == 3 and arr.shape[-1] == 2 and arr.shape[-2] == 2:
        return arr[..., 0] + 1j * arr[..., 1]
    if arr.ndim == 2 and arr.shape[-1] == 2:
        return arr.astype(complex)
    raise ValueError("matrix must be a (2n, 2) nested list, entries either "
                     "numbers or [re, im] pairs")


def _parse_sigma(s):
    """A biquaternion point from JSON: {"x": [...], "y": [...]} or a matrix;
    an object with any other key set is refused, not read in part."""
    obj = json.loads(s)
    if isinstance(obj, dict) and obj.keys() == {"x", "y"}:
        x = np.asarray(obj["x"], dtype=float)
        y = np.asarray(obj["y"], dtype=float)
        return quat.BiquaternionPoint(x, y)
    if isinstance(obj, dict) and obj.keys() == {"matrix"}:
        return quat.BiquaternionPoint.from_matrix(_parse_matrix(obj["matrix"]))
    if isinstance(obj, list):
        return quat.BiquaternionPoint.from_matrix(_parse_matrix(obj))
    raise ValueError('sigma must be {"x": [...], "y": [...]}, '
                     '{"matrix": [...]}, or a bare matrix list')


def _finite_float(s):
    """argparse type: a finite float, so a NaN or inf option fails by name."""
    try:
        v = float(s)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid float value: %r" % s)
    if not np.isfinite(v):
        raise argparse.ArgumentTypeError("not a finite number: %r" % s)
    return v


# exact option -> (exact_form keyword, type); exact_form owns the defaults
# and refuses a p or q that is not an integer >= 0, by name
_EXACT_KEYS = {"p": ("p", float), "q": ("q", float),
               "rin": ("r_in", float), "rout": ("r_out", float)}
_FORM_KEYS = {"harmonic": ("a0", "a1"), "exact": tuple(_EXACT_KEYS)}


def _parse_form_spec(s):
    """Parse a cp1 coeffs fixture spec 'name:key=value:key=value'.

    ValueError for a name or key not in _FORM_KEYS.
    """
    name, *kvs = s.split(":")
    if name not in _FORM_KEYS:
        raise ValueError("unknown form fixture %r (use harmonic:... or "
                         "exact:...)" % name)
    out = {}
    for kv in kvs:
        k, eq, v = kv.partition("=")
        k = k.strip()
        if not eq:
            raise ValueError("bad form option %r (expected key=value)" % kv)
        if k not in _FORM_KEYS[name]:
            raise ValueError("unknown %s form option %r; known: %s"
                             % (name, k, ", ".join(_FORM_KEYS[name])))
        out[k] = v.strip()
    return name, out


# ---------------------------------------------------------------------------
# handlers: main records the parsed options as args.params, a handler only
# overwrites those it normalises and returns (results, passed, why)
# ---------------------------------------------------------------------------

def _cmd_cf_check(args):
    from .cf import FDConfig, is_monogenic
    field = get_field(args.field, args.n)
    rng = np.random.default_rng(args.seed)
    pts = _shell_points(rng, args.points, args.rmin, args.rmax, n=args.n)
    cfg = FDConfig(step=args.step, scheme=args.scheme)
    rep = is_monogenic(field, pts, tol=args.tol, cfg=cfg)
    return rep, rep["verdict"], ("max residual %.3e exceeds tol %.3e at %s"
                                 % (rep["max_residual"], args.tol,
                                    rep["worst_point"]))


def _cmd_hull(args):
    from .hull import hull_contains, hull_distance, hull_witness
    U = parse_domain(args.domain)
    pt = _parse_sigma(args.sigma)
    args.params["sigma"] = pt.tolist()
    if args.mode == "contains":
        return hull_contains(pt, U).to_json(), True, None
    if args.mode == "distance":
        return {"distance": hull_distance(pt, U)}, True, None
    w, q = hull_witness(pt, U)
    return ({"witness": w.tolist(), "distance": q.inf_value / np.sqrt(2.0),
             "query": q.to_json()}, True, None)


def _cmd_twistor(args):
    from .twistor import hopf_grid, hull_contains_via_lines, line_sweep
    pt = _parse_sigma(args.sigma)
    args.params["sigma"] = pt.tolist()
    if args.mode == "sweep":
        pts = line_sweep(pt, hopf_grid(args.nt, args.ntheta))
        if not args.csv:
            return {"points": len(pts), "sweep": pts.tolist()}, True, None
        np.savetxt(args.csv, pts, fmt="%.17g", delimiter=",", comments="",
                   header=",".join("x%d" % i for i in range(pts.shape[1])))
        return {"points": len(pts), "csv": args.csv}, True, None
    U = parse_domain(args.domain)
    return hull_contains_via_lines(pt, U, return_query=True).to_json(), True, None


def _cmd_cp1(args):
    from .cp1 import (cohomology_coefficients, exact_form, h1_dimension,
                      harmonic_representative)
    if args.mode == "dim":
        return {"dimension": h1_dimension(args.k)}, True, None
    if args.mode == "harmonic":
        a0 = args.params["a0"] = _parse_complex(args.a0)
        a1 = args.params["a1"] = _parse_complex(args.a1)
        c = cohomology_coefficients(harmonic_representative(a0, a1))
        err = float(max(abs(c[0] - a0), abs(c[1] - a1)))
        return ({"coefficients": list(c), "roundtrip_error": err},
                err < args.tol,
                "harmonic roundtrip error %.3e exceeds %.3e" % (err, args.tol))
    # coeffs
    name, kv = _parse_form_spec(args.form)
    if name == "harmonic":
        w = harmonic_representative(_parse_complex(kv.get("a0", "1")),
                                    _parse_complex(kv.get("a1", "0")))
        if args.k != -3:
            raise ValueError("the harmonic fixture is a degree -3 form")
    else:
        w = exact_form(args.k, **{_EXACT_KEYS[k][0]: _EXACT_KEYS[k][1](v)
                                  for k, v in kv.items()})
    c = cohomology_coefficients(w, check=False)
    return {"coefficients": list(c)}, True, None


def _cmd_penrose(args):
    from .penrose import (diagram_check, penrose_transform,
                          penrose_transform_complex, sharp)
    field = get_field(args.field, args.n)
    if args.mode == "complex":
        pt = _parse_sigma(args.sigma)
        args.params["sigma"] = pt.tolist()
        out = penrose_transform_complex(sharp(field), pt)
        results = {"psi0": out[0], "psi1": out[1]}
        if field.extension is None:
            return results, True, None
        p0, p1 = field.extension.pair(pt.matrix)
        err = float(max(abs(out[0] - p0), abs(out[1] - p1)))
        results["extension_error"] = err
        return (results, err < args.tol,
                "extension mismatch %.3e exceeds %.3e" % (err, args.tol))

    pts = _shell_points(np.random.default_rng(args.seed), args.points,
                        args.rmin, args.rmax, n=args.n)
    if args.mode == "diagram":
        rep = diagram_check(field, pts)
        return (rep, rep["max_discrepancy"] < args.tol,
                "diagram discrepancy %.3e exceeds %.3e"
                % (rep["max_discrepancy"], args.tol))
    res = penrose_transform(sharp(field), pts)
    results = res.to_json()
    if args.mode == "forward":
        return results, True, None
    # roundtrip
    exact = np.stack(field.pair(pts), axis=-1)
    err = float(np.max(np.abs(res.values - exact)))
    results["max_error"] = err
    return (results, err < args.tol,
            "roundtrip error %.3e exceeds %.3e" % (err, args.tol))


def _cmd_verify(args):
    from .acceptance import format_line, run_all
    n_values = (1, 2) if args.n is None else (args.n,)
    try:  # absent means all; an empty or blank list is refused
        criteria = (None if args.criteria is None
                    else [int(c) for c in args.criteria.split(",")])
    except ValueError:
        raise ValueError("--criteria takes comma-separated ids, not %r"
                         % args.criteria) from None
    report = run_all(seed=args.seed, n_values=n_values, criteria=criteria)
    for rec in report["criteria"]:
        print(format_line(rec), file=sys.stderr)
    print("OVERALL: %s" % ("PASS" if report["passed"] else "FAIL"),
          file=sys.stderr)
    failed = [r for r in report["criteria"] if not r["passed"]]
    why = failed and "criterion %d: %s" % (failed[0]["id"],
                                           failed[0]["summary"])
    return report, report["passed"], why


def _refusals():
    """The exceptions by which the library refuses a query (exit 1)."""
    from .cp1 import QuadratureError
    from .hull import NotInHullError
    from .penrose import ClosednessError, NoExtensionError
    return NotInHullError, ClosednessError, NoExtensionError, QuadratureError


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser():
    p = argparse.ArgumentParser(
        prog="fueter",
        description="Quaternionic-analysis toolkit: operator checks, monogenic "
                    "hulls, twistor lines, sphere-bundle cohomology, and the "
                    "integral transform.")
    sub = p.add_subparsers(dest="group", required=True)

    def common(sp):
        sp.add_argument("--report", default=None,
                        help="write the JSON report to this path instead of stdout")

    # cf
    cf = sub.add_parser("cf", help="operator residual checks").add_subparsers(
        dest="mode", required=True)
    ck = cf.add_parser("check", help="finite-difference monogenicity report")
    ck.add_argument("--field", required=True, choices=field_names())
    ck.add_argument("--n", type=int, default=1)
    ck.add_argument("--points", type=int, default=200)
    ck.add_argument("--seed", type=int, default=7)
    ck.add_argument("--tol", type=_finite_float, default=1e-5)
    ck.add_argument("--rmin", type=_finite_float, default=0.2)
    ck.add_argument("--rmax", type=_finite_float, default=5.0)
    ck.add_argument("--step", type=_finite_float, default=None)
    ck.add_argument("--scheme", choices=("central", "richardson"),
                    default="central")
    common(ck)
    ck.set_defaults(func=_cmd_cf_check)

    # hull
    hull = sub.add_parser("hull", help="monogenic-hull queries").add_subparsers(
        dest="mode", required=True)
    for mode in ("contains", "distance", "witness"):
        hp = hull.add_parser(mode)
        hp.add_argument("--domain", required=True)
        hp.add_argument("--sigma", required=True)
        common(hp)
        hp.set_defaults(func=_cmd_hull)

    # twistor
    tw = sub.add_parser("twistor", help="twistor-line geometry").add_subparsers(
        dest="mode", required=True)
    sw = tw.add_parser("sweep", help="swept base set of a line")
    sw.add_argument("--sigma", required=True)
    sw.add_argument("--nt", type=int, default=24)
    sw.add_argument("--ntheta", type=int, default=24)
    sw.add_argument("--csv", default=None)
    common(sw)
    sw.set_defaults(func=_cmd_twistor)
    hl = tw.add_parser("hull-lines", help="hull membership via line containment")
    hl.add_argument("--domain", required=True)
    hl.add_argument("--sigma", required=True)
    common(hl)
    hl.set_defaults(func=_cmd_twistor)

    # cp1
    cp = sub.add_parser("cp1", help="sphere line-bundle cohomology").add_subparsers(
        dest="mode", required=True)
    co = cp.add_parser("coeffs", help="cohomology coefficients of a fixture form")
    co.add_argument("--k", type=int, default=-3)
    co.add_argument("--form", required=True,
                    help="harmonic:a0=..:a1=..  or  exact:p=..:q=..:rin=..:rout=..")
    common(co)
    co.set_defaults(func=_cmd_cp1)
    ha = cp.add_parser("harmonic", help="roundtrip check of the harmonic form")
    ha.add_argument("--a0", default="1")
    ha.add_argument("--a1", default="0")
    ha.add_argument("--tol", type=_finite_float, default=1e-6)
    common(ha)
    ha.set_defaults(func=_cmd_cp1)
    dm = cp.add_parser("dim", help="dim H^1 for degree k")
    dm.add_argument("--k", type=int, required=True)
    common(dm)
    dm.set_defaults(func=_cmd_cp1)

    # penrose
    pe = sub.add_parser("penrose", help="integral-transform pipeline").add_subparsers(
        dest="mode", required=True)
    for mode, samples in (("roundtrip", True), ("forward", True),
                          ("diagram", True), ("complex", False)):
        pp = pe.add_parser(mode)
        pp.add_argument("--field", required=True, choices=field_names())
        pp.add_argument("--n", type=int, default=1)
        pp.add_argument("--tol", type=_finite_float, default=1e-4)
        if samples:
            pp.add_argument("--seed", type=int, default=7)
            pp.add_argument("--points", type=int, default=10)
            pp.add_argument("--rmin", type=_finite_float, default=0.6)
            pp.add_argument("--rmax", type=_finite_float, default=2.5)
        else:
            pp.add_argument("--sigma", required=True)
        common(pp)
        pp.set_defaults(func=_cmd_penrose)

    # verify
    ve = sub.add_parser("verify", help="acceptance suite").add_subparsers(
        dest="mode", required=True)
    va = ve.add_parser("all")
    va.add_argument("--n", type=int, default=None,
                    help="restrict multi-n criteria to this n")
    va.add_argument("--seed", type=int, default=7)
    va.add_argument("--criteria", default=None,
                    help="comma-separated criterion ids to run")
    common(va)
    va.set_defaults(func=_cmd_verify)

    return p


def main(argv=None):
    args = _build_parser().parse_args(argv)
    command = "%s %s" % (args.group, args.mode)
    # --report and --csv only choose where output goes
    args.params = {k: v for k, v in vars(args).items()
                   if k not in ("func", "group", "mode", "report", "csv")}
    try:
        try:
            results, passed, why = args.func(args)
        except _refusals() as e:  # evaluated only once an exception arrives
            results, passed, why = {"error": str(e)}, False, str(e)
        _emit(args, command, results, passed)
    except (ValueError, KeyError, json.JSONDecodeError, OSError) as e:
        print("config error: %s" % e, file=sys.stderr)
        return 2
    if not passed:
        print("check failed: %s: %s" % (command, why), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
