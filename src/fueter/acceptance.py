"""End-to-end acceptance suite: eight numbered criteria with frozen seeds.

Each criterion function returns a JSON-serializable record
{"id", "title", "passed", "summary", "details"} and is deterministic for a
given seed (criterion i derives its generator from seed + i, so running a
subset never changes another criterion's numbers).  ``run_all`` aggregates
the records; the test suite and the ``verify all`` CLI subcommand print one
PASS/FAIL line per criterion via ``format_line``.

The tolerances are part of the contract and are asserted exactly as stated
in each criterion's docstring; do not loosen them to make a failing build
green — a red criterion is diagnostic output, not noise.
"""

import numpy as np

from . import quat
from .cf import FDConfig, is_monogenic, dC_apply, cf_residual_complex
from .cp1 import (BUMP_GRADE, quadrature_C, cohomology_coefficients,
                  harmonic_representative, exact_form)
from .domains import Ball, PointComplement
from .fields import get_field, ComplexField
from .hull import hull_contains, hull_distance, hull_witness
from .penrose import (sharp, tau_push_01, penrose_transform,
                      penrose_transform_complex, diagram_check,
                      calibrate_kappa, KAPPA, _fiber_moments)
from .twistor import hull_contains_via_lines

__all__ = ["run_all", "format_line", "CRITERIA",
           "criterion_1_fundamental_solution", "criterion_2_holomorphic_extension",
           "criterion_3_hull_equivalence", "criterion_4_distance_law",
           "criterion_5_cp1_cohomology", "criterion_6_roundtrip",
           "criterion_7_diagram", "criterion_8_complex_transform"]


def _shell_points(rng, count, rmin, rmax, n=1):
    """Volume-uniform sample of the shell rmin < |p| < rmax in R^{4n}."""
    dim = 4 * n
    d = rng.normal(size=(count, dim))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    u = rng.uniform(size=(count, 1))
    r = (rmin ** dim + u * (rmax ** dim - rmin ** dim)) ** (1.0 / dim)
    return r * d


def _gl2_sample(rng, count, det_min):
    """Complex-normal 2x2 matrices conditioned on |det| > det_min."""
    out = np.empty((count, 2, 2), dtype=complex)
    filled = 0
    while filled < count:
        cand = rng.normal(size=(count, 2, 2)) + 1j * rng.normal(size=(count, 2, 2))
        keep = cand[np.abs(np.linalg.det(cand)) > det_min]
        take = min(len(keep), count - filled)
        out[filled:filled + take] = keep[:take]
        filled += take
    return out


def criterion_1_fundamental_solution(seed=7):
    """Fundamental solution is monogenic: max operator residual < 1e-6.

    1000 volume-uniform points of the shell 0.2 < |q| < 5, central
    differences with the pinned absolute step h = 1e-5.
    """
    rng = np.random.default_rng(seed + 1)
    pts = _shell_points(rng, 1000, 0.2, 5.0)
    field = get_field("E", 1)
    cfg = FDConfig(step=1e-5, scheme="central")
    rep = is_monogenic(field, pts, tol=1e-6, cfg=cfg)
    passed = bool(rep["verdict"])
    return {
        "id": 1,
        "title": "fundamental solution is monogenic (FD residual)",
        "passed": passed,
        "summary": "max residual %.3e < 1e-06 over %d shell points"
                   % (rep["max_residual"], rep["samples"]),
        "details": {**rep, "step": 1e-5, "scheme": "central",
                    "min_radius": float(np.min(np.linalg.norm(pts, axis=1)))},
    }


def criterion_2_holomorphic_extension(seed=7):
    """Matrix extension of the fundamental solution solves the complex system.

    dC_apply residual < 1e-6 over 1000 complex 2x2 matrices with
    |det| > 0.1; the restriction to real-slice matrices matches the
    quaternionic field to 1e-12.
    """
    rng = np.random.default_rng(seed + 2)
    field = get_field("E", 1)
    ext = field.extension
    mats = _gl2_sample(rng, 1000, 0.1)
    res = np.abs(dC_apply(ext, mats))
    max_res = float(np.max(res))
    worst = mats[int(np.argmax(np.max(res, axis=-1)))]

    xs = _shell_points(rng, 200, 0.2, 3.0)
    p0, p1 = ext.pair(quat.embed_M(xs))
    v = quat.real_to_ab(xs)
    restr = max(float(np.max(np.abs(p0 - field.pair0(v)))),
                float(np.max(np.abs(p1 - field.pair1(v)))))
    passed = max_res < 1e-6 and restr < 1e-12
    return {
        "id": 2,
        "title": "holomorphic extension identity (complex-system residual)",
        "passed": passed,
        "summary": "max dC residual %.3e < 1e-06; restriction error %.3e < 1e-12"
                   % (max_res, restr),
        "details": {
            "samples": 1000, "det_min": 0.1, "tol": 1e-6,
            "max_residual": max_res,
            "worst_point": [[c.real, c.imag] for c in worst.ravel()],
            "restriction_samples": 200, "restriction_error": restr,
            "restriction_tol": 1e-12,
        },
    }


_HULL_SCALES = {  # (x scale, y scale) giving a healthy verdict mix per domain
    ("ball", 1): (0.35, 0.18),
    ("ball", 2): (0.25, 0.12),
    ("point_complement", 1): (0.5, 0.5),
    ("point_complement", 2): (0.4, 0.4),
}


def criterion_3_hull_equivalence(seed=7, n_values=(1, 2), samples=1000):
    """Definition-based and twistor-line hull membership agree.

    >= 99.5% agreement over ``samples`` random points per domain, any
    disagreement inside a declared indeterminate band; for n = 1 on the
    punctured space both verdicts equal the nonvanishing-determinant test on
    100% of points with |det| > 1e-3.
    """
    rng = np.random.default_rng(seed + 3)
    combos = []
    for n in n_values:
        combos.append(("ball", Ball(n, 1.0)))
        combos.append(("point_complement", PointComplement(n)))
    per_domain = []
    all_ok = True
    for label, U in combos:
        sx, sy = _HULL_SCALES[(label, U.n)]
        xs = rng.normal(scale=sx, size=(samples, 4 * U.n))
        ys = rng.normal(scale=sy, size=(samples, 4 * U.n))
        agree = 0
        banded_disagreements = 0
        inside = 0
        for x, y in zip(xs, ys):
            qd = hull_contains((x, y), U)
            ql = hull_contains_via_lines((x, y), U, return_query=True)
            inside += int(qd.verdict)
            if qd.verdict == ql.verdict:
                agree += 1
            elif qd.indeterminate or ql.indeterminate:
                banded_disagreements += 1
        frac = agree / samples
        ok = frac >= 0.995 and (agree + banded_disagreements == samples)
        all_ok = all_ok and ok
        per_domain.append({
            "domain": label, "n": U.n, "samples": samples,
            "agreement": frac, "contained_fraction": inside / samples,
            "disagreements_in_band": banded_disagreements,
            "disagreements_outside_band": samples - agree - banded_disagreements,
            "ok": ok,
        })

    # punctured space, n = 1: verdicts track the determinant
    xs = rng.normal(scale=0.5, size=(samples, 4))
    ys = rng.normal(scale=0.5, size=(samples, 4))
    U = PointComplement(1)
    checked = 0
    matches = 0
    for x, y in zip(xs, ys):
        pt = quat.BiquaternionPoint(x, y)
        if abs(pt.det()) <= 1e-3:
            continue
        checked += 1
        qd = hull_contains(pt, U)
        ql = hull_contains_via_lines(pt, U, return_query=True)
        if qd.verdict and ql.verdict:
            matches += 1
    det_ok = checked > 0 and matches == checked
    all_ok = all_ok and det_ok

    return {
        "id": 3,
        "title": "hull membership: definition vs twistor lines",
        "passed": all_ok,
        "summary": "agreement %s; det-test matches %d/%d"
                   % (["%.3f" % d["agreement"] for d in per_domain],
                      matches, checked),
        "details": {"per_domain": per_domain,
                    "det_samples_checked": checked, "det_matches": matches},
    }


def criterion_4_distance_law(seed=7):
    """Hull distance law and witnesses.

    For centered points (c, 0) in a ball of radius r the hull distance is
    (r - |c|)/sqrt(2) to 1e-6.  For 100 random in-hull points the witness
    realizes the distance to 1e-3 relative and itself fails membership; no
    sampled exterior point lies closer than the distance minus the band.
    """
    rng = np.random.default_rng(seed + 4)
    U = Ball(1, 1.0)
    law_err = 0.0
    for r in (1.0, 2.5):
        Ur = Ball(1, r)
        for _ in range(10):
            c = rng.normal(scale=0.3 * r, size=4)
            if np.linalg.norm(c) >= r:
                continue
            d = hull_distance((c, np.zeros(4)), Ur)
            law_err = max(law_err, abs(d - (r - np.linalg.norm(c)) / np.sqrt(2)))

    # 100 certified in-hull points of the unit ball
    sigmas = []
    while len(sigmas) < 100:
        x = rng.normal(scale=0.25, size=4)
        y = rng.normal(scale=0.12, size=4)
        q = hull_contains((x, y), U)
        if q.verdict and not q.indeterminate:
            sigmas.append(quat.BiquaternionPoint(x, y))
    # exterior cloud
    exterior = []
    while len(exterior) < 300:
        x = rng.normal(scale=0.7, size=4)
        y = rng.normal(scale=0.4, size=4)
        if not hull_contains((x, y), U).verdict:
            exterior.append((x, y))
    ext_x, ext_y = np.array(exterior).transpose(1, 0, 2)

    witness_rel_err = 0.0
    witness_inside = 0
    cloud_violations = 0
    for pt in sigmas:
        w, q = hull_witness(pt, U)
        d = q.inf_value / np.sqrt(2.0)  # hull_distance(pt, U), same query
        witness_rel_err = max(witness_rel_err, abs((pt - w).norm_C() - d) / d)
        wq = hull_contains(w, U)
        if wq.verdict and not wq.indeterminate:
            witness_inside += 1
        band_d = q.band / np.sqrt(2.0)
        closest = quat.norm_C(pt.x - ext_x, pt.y - ext_y).min()
        if closest < d - band_d - 1e-12:
            cloud_violations += 1

    passed = (law_err < 1e-6 and witness_rel_err < 1e-3
              and witness_inside == 0 and cloud_violations == 0)
    return {
        "id": 4,
        "title": "hull distance law, witnesses, exterior cloud",
        "passed": passed,
        "summary": "law error %.3e < 1e-06; witness rel error %.3e < 1e-03; "
                   "%d cloud violations" % (law_err, witness_rel_err,
                                            cloud_violations),
        "details": {
            "law_error": law_err, "law_tol": 1e-6,
            "witness_samples": len(sigmas),
            "witness_rel_error": witness_rel_err, "witness_tol": 1e-3,
            "witnesses_inside_hull": witness_inside,
            "exterior_samples": len(exterior),
            "cloud_violations": cloud_violations,
        },
    }


def criterion_5_cp1_cohomology(seed=7):
    """Sphere-bundle cohomology at degree -3.

    coefficients(harmonic_representative) is the identity on 100 random
    pairs to 1e-6; coefficients of 20 random exact bump forms stay below
    1e-5; the normalization moment equals 1 to 1e-8.
    """
    rng = np.random.default_rng(seed + 5)
    round_err = 0.0
    for _ in range(100):
        a0, a1 = rng.normal(size=2) + 1j * rng.normal(size=2)
        c = cohomology_coefficients(harmonic_representative(a0, a1))
        round_err = max(round_err, abs(c[0] - a0), abs(c[1] - a1))

    exact_err = 0.0
    for _ in range(20):
        p = int(rng.integers(0, 3))
        q = int(rng.integers(0, 3))
        r_in = float(rng.uniform(0.3, 0.6))
        r_out = float(rng.uniform(1.8, 3.0))
        w = exact_form(-3, p=p, q=q, r_in=r_in, r_out=r_out)
        c = cohomology_coefficients(w, BUMP_GRADE, check=False)
        exact_err = max(exact_err, float(np.max(np.abs(c))))

    norm_err = abs(quadrature_C(lambda z: 2.0 / (1.0 + z * np.conj(z)) ** 3) - 1.0)
    passed = round_err < 1e-6 and exact_err < 1e-5 and norm_err < 1e-8
    return {
        "id": 5,
        "title": "sphere line-bundle cohomology (coefficients/harmonic/exact)",
        "passed": passed,
        "summary": "roundtrip %.3e < 1e-06; exact forms %.3e < 1e-05; "
                   "normalization %.3e < 1e-08" % (round_err, exact_err, norm_err),
        "details": {
            "roundtrip_pairs": 100, "roundtrip_error": round_err,
            "exact_forms": 20, "exact_form_error": exact_err,
            "normalization_error": float(norm_err),
        },
    }


def criterion_6_roundtrip(seed=7):
    """Transform of a lifted pair returns the pair to 1e-4 at 20 points each."""
    rng = np.random.default_rng(seed + 6)
    per_field = []
    passed = True
    for name in ("constant", "linear_monogenic", "E"):
        field = get_field(name, 1)
        pts = _shell_points(rng, 20, 0.6, 2.5)
        res = penrose_transform(sharp(field), pts)
        v = quat.real_to_ab(pts)
        exact = np.stack([np.asarray(field.pair0(v), dtype=complex),
                          np.asarray(field.pair1(v), dtype=complex)], axis=-1)
        err = float(np.max(np.abs(res.values - exact)))
        ok = err < 1e-4
        passed = passed and ok
        per_field.append({"field": name, "points": 20, "max_error": err,
                          "closedness": res.closedness,
                          "cf_residual_max": res.cf_residual_max, "ok": ok})
    return {
        "id": 6,
        "title": "transform round trip on lifted pairs",
        "passed": passed,
        "summary": "; ".join("%s %.3e" % (d["field"], d["max_error"])
                             for d in per_field) + " (all < 1e-04)",
        "details": {"tol": 1e-4, "per_field": per_field},
    }


def criterion_7_diagram(seed=7):
    """Commutative diagram after one-time calibration.

    diagram_check residual < 1e-4 on three independent non-monogenic
    fixtures at 10 points each; both sides < 1e-4 on monogenic fixtures.
    """
    rng = np.random.default_rng(seed + 7)
    cal = calibrate_kappa()
    per_field = []
    passed = abs(cal["kappa_real"] - KAPPA) < 1e-6 and abs(cal["kappa_imag"]) < 1e-6
    for name in ("nonmonogenic_quadratic", "nonmonogenic_linear",
                 "nonmonogenic_absquare"):
        pts = rng.normal(size=(10, 4))
        rep = diagram_check(get_field(name, 1), pts)
        ok = rep["max_discrepancy"] < 1e-4
        passed = passed and ok
        per_field.append({**rep, "ok": ok, "kind": "nonmonogenic"})
    for name in ("constant", "linear_monogenic", "E"):
        pts = _shell_points(rng, 10, 0.6, 2.0)
        rep = diagram_check(get_field(name, 1), pts)
        ok = rep["lhs_max"] < 1e-4 and rep["rhs_max"] < 1e-4
        passed = passed and ok
        per_field.append({**rep, "ok": ok, "kind": "monogenic"})
    worst = max(d["max_discrepancy"] for d in per_field)
    return {
        "id": 7,
        "title": "commutative diagram ties pushforward to the operator",
        "passed": passed,
        "summary": "kappa %.9f; worst discrepancy %.3e < 1e-04"
                   % (cal["kappa_real"], worst),
        "details": {"calibration": cal, "kappa_frozen": KAPPA, "tol": 1e-4,
                    "per_field": per_field},
    }


def criterion_8_complex_transform(seed=7):
    """Complexified transform realizes the extension on the hull.

    Matches the matrix extension to 1e-4 at 20 points with |det| > 0.3
    (each certified in the hull first), the output passes the
    complex-system residual check, and the real-slice evaluation is
    bit-for-bit the real transform.
    """
    rng = np.random.default_rng(seed + 8)
    field = get_field("E", 1)
    ext = field.extension
    form = sharp(field)
    mats = _gl2_sample(rng, 20, 0.3)

    value_err = 0.0
    for S in mats:
        out = penrose_transform_complex(form, S)  # includes the hull check
        p0, p1 = ext.pair(S)
        value_err = max(value_err, abs(out[0] - p0), abs(out[1] - p1))

    def component(A):
        def f(batch):
            S = np.asarray(batch, dtype=complex)
            return _fiber_moments(form.wz_matrix, S, 2, point_ndim=2)[..., A]
        return f

    quad_field = ComplexField(component(0), component(1), n=1,
                              name="complex_transform(E)")
    resid = 0.0
    for S in mats:
        scale = float(np.sqrt(np.sum(np.abs(S) ** 2)))
        cfg = FDConfig(step=1e-3 * max(1.0, scale), scheme="richardson")
        resid = max(resid, float(np.max(np.abs(dC_apply(quad_field, S, cfg)))))

    shared = True
    for _ in range(5):
        x = _shell_points(rng, 1, 0.7, 2.0)[0]
        a_complex = penrose_transform_complex(form, quat.embed_M(x))
        a_real = tau_push_01(form, x)
        shared = shared and np.array_equal(a_complex, a_real)

    passed = value_err < 1e-4 and resid < 1e-6 and shared
    return {
        "id": 8,
        "title": "complexified transform on the monogenic hull",
        "passed": passed,
        "summary": "extension match %.3e < 1e-04; complex residual %.3e < 1e-06; "
                   "real slice shared: %s" % (value_err, resid, shared),
        "details": {
            "points": 20, "det_min": 0.3, "value_error": value_err,
            "value_tol": 1e-4, "complex_residual": resid,
            "residual_tol": 1e-6, "real_slice_bitwise": bool(shared),
        },
    }


CRITERIA = [
    (1, criterion_1_fundamental_solution),
    (2, criterion_2_holomorphic_extension),
    (3, criterion_3_hull_equivalence),
    (4, criterion_4_distance_law),
    (5, criterion_5_cp1_cohomology),
    (6, criterion_6_roundtrip),
    (7, criterion_7_diagram),
    (8, criterion_8_complex_transform),
]


def run_all(seed=7, n_values=(1, 2), criteria=None):
    """Run the (sub)set of criteria; returns the aggregate report dict."""
    records = []
    for cid, fn in CRITERIA:
        if criteria is not None and cid not in criteria:
            continue
        if cid == 3:
            records.append(fn(seed=seed, n_values=tuple(n_values)))
        else:
            records.append(fn(seed=seed))
    return {
        "suite": "acceptance",
        "seed": seed,
        "n_values": list(n_values),
        "criteria": records,
        "passed": bool(all(r["passed"] for r in records)),
    }


def format_line(record):
    """One PASS/FAIL line per criterion, as printed by tests and the CLI."""
    return "%s  criterion %d: %s — %s" % (
        "PASS" if record["passed"] else "FAIL",
        record["id"], record["title"], record["summary"])
