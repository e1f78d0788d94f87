"""Finite-difference operator: exact identities, convergence, and guards."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fueter import cf, domains, fields, penrose, quat


def _shell(rng, count, rmin=0.5, rmax=2.0, n=1):
    pts = rng.normal(size=(count, 4 * n))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    radii = rng.uniform(rmin, rmax, size=(count, 1))
    return pts * radii


def test_operator_on_conjugate_coordinate_is_constant_four():
    # the conjugated coordinate field has constant image (4, 0, 0, 0)
    field = fields.get_field("conj_q")
    rng = np.random.default_rng(10)
    for p in _shell(rng, 10):
        out = cf.cf_apply(field, p)
        np.testing.assert_allclose(out, [[4.0, 0.0, 0.0, 0.0]], atol=1e-6)


def test_operator_on_coordinate_field_is_constant_minus_two():
    field = fields.get_field("identity_q")
    rng = np.random.default_rng(11)
    for p in _shell(rng, 10):
        out = cf.cf_apply(field, p)
        np.testing.assert_allclose(out, [[-2.0, 0.0, 0.0, 0.0]], atol=1e-6)


def test_fundamental_solution_is_in_the_kernel():
    field = fields.get_field("E")
    rng = np.random.default_rng(12)
    worst = 0.0
    for p in _shell(rng, 25, rmin=0.3, rmax=3.0):
        worst = max(worst, cf.residual_norm(cf.cf_apply(field, p)))
    assert worst < 1e-6


def test_linear_monogenic_field_is_in_the_kernel():
    field = fields.get_field("linear_monogenic")
    rng = np.random.default_rng(13)
    for p in _shell(rng, 10):
        assert cf.residual_norm(cf.cf_apply(field, p)) < 1e-8


def _unit_product_sum(psi, p, cfg):
    """D psi as sum_u qmul(e_u, d_u psi), the Hamilton products spelt out."""
    dq = cf._partials(psi.eval_quat, p, cfg, psi.domain)
    blocks = dq.reshape(dq.shape[:-2] + (psi.n, 4, 4))
    out = np.zeros_like(blocks[..., 0, :])
    for u in range(4):
        out = out + quat.qmul(np.eye(4)[u], blocks[..., u, :])
    return out


@pytest.mark.parametrize("name,n", [
    ("E", 1), ("constant", 1), ("conj_q", 2), ("linear_monogenic", 2),
    ("nonmonogenic_quadratic", 1), ("nonmonogenic_absquare", 2)])
def test_cf_apply_is_the_sum_of_unit_products(name, n):
    # cf_apply gathers qmul's signed terms instead of multiplying by the
    # units: the same sums in the same order, equal up to the sign of a
    # zero, so the residual norm is the same bit for bit
    field = fields.get_field(name, n)
    pts = _shell(np.random.default_rng(15), 20, n=n)
    for cfg in (cf.FDConfig(), cf.FDConfig(scheme="richardson")):
        for p in (pts, pts[0]):
            out = cf.cf_apply(field, p, cfg)
            ref = _unit_product_sum(field, p, cfg)
            np.testing.assert_array_equal(out, ref)
            assert (cf.residual_norm(out).tobytes()
                    == cf.residual_norm(ref).tobytes())


def test_quaternion_output_encodes_the_complex_residual_pair():
    # block ell of the quaternion output is (-2 r1_ell, 2 r2_ell) as a
    # complex pair, with r interleaved (r1_1, r2_1, r1_2, r2_2, ...)
    for name in ("nonmonogenic_linear", "nonmonogenic_quadratic"):
        field = fields.get_field(name)
        rng = np.random.default_rng(14)
        for p in _shell(rng, 5):
            blocks = cf.cf_apply(field, p)
            res = cf.cf_residual_complex(field.pair0, field.pair1, p)
            for ell in range(field.n):
                expected = quat.ab_to_real(
                    [-2.0 * res[2 * ell], 2.0 * res[2 * ell + 1]])
                np.testing.assert_allclose(blocks[ell], expected, atol=1e-6)


def test_residual_is_linear_in_the_field():
    f = fields.get_field("nonmonogenic_quadratic")
    g = fields.get_field("nonmonogenic_linear")
    combo = fields.ScalarField(
        lambda p: 2.5 * f.pair0(p) - 1.0j * g.pair0(p),
        lambda p: 2.5 * f.pair1(p) - 1.0j * g.pair1(p))
    cfg = cf.FDConfig(step=1e-4, scheme="central")
    p = np.array([0.4, -0.8, 0.2, 0.9])
    lhs = cf.cf_residual_complex(combo.pair0, combo.pair1, p, cfg)
    rhs = (2.5 * cf.cf_residual_complex(f.pair0, f.pair1, p, cfg)
           - 1.0j * cf.cf_residual_complex(g.pair0, g.pair1, p, cfg))
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_central_differences_converge_at_second_order():
    # psi0 = x0^3 (x0 the real part of the first complex slot) has exact
    # residual (r1, r2) = (-1.5 x0^2, 0); the central scheme error is h^2 x0
    # so halving the step divides the error by 4
    field = fields.ScalarField(lambda v: np.real(v[..., 0]) ** 3 + 0j,
                               lambda v: np.zeros(v.shape[:-1], dtype=complex))
    p = np.array([0.9, 0.3, -0.5, 0.7])
    exact = np.array([-1.5 * 0.9 ** 2, 0.0], dtype=complex)

    def error(h):
        res = cf.cf_residual_complex(field.pair0, field.pair1, p,
                                     cf.FDConfig(step=h, scheme="central"))
        return np.abs(res - exact).max()

    e1, e2 = error(2e-2), error(1e-2)
    assert 3.5 < e1 / e2 < 4.5

    rich = cf.cf_residual_complex(field.pair0, field.pair1, p,
                                  cf.FDConfig(step=2e-2, scheme="richardson"))
    assert np.abs(rich - exact).max() < 1e-10


def test_fdconfig_validation():
    with pytest.raises(ValueError):
        cf.FDConfig(step=-1e-3)
    with pytest.raises(ValueError):
        cf.FDConfig(scheme="upwind")


def test_stencil_leaving_the_domain_raises():
    field = fields.ScalarField(lambda v: v[..., 0],
                               lambda v: v[..., 1] ** 2,
                               domain=domains.parse_domain("ball:r=1"))
    inside = np.array([0.5, 0.0, 0.0, 0.0])
    cf.cf_apply(field, inside, cf.FDConfig(step=1e-3))
    near_edge = np.array([0.9995, 0.0, 0.0, 0.0])
    with pytest.raises(cf.DomainError):
        cf.cf_apply(field, near_edge, cf.FDConfig(step=1e-3))


def _swept_partials(fn, p, cfg, domain):
    """``_partials`` as it was before the clearance certificate: every
    stencil point is checked, then every centre's clearance against h."""
    p = np.asarray(p, dtype=float)
    h = cfg.resolve_step(quat.qnorm(p))
    axes = np.eye(p.shape[-1])
    pts = [p[..., None, :]]
    for s in ([h, h / 2] if cfg.scheme == "richardson" else [h]):
        pts.extend(cf._shifted(p, axes, s))
    pts = np.concatenate(pts, axis=-2)
    inside = domain.contains(pts)
    if not np.all(inside):
        raise cf.DomainError(pts[~inside][0])
    clear = np.broadcast_to(domain.ext_distance(p) > h, p.shape[:-1])
    if not np.all(clear):
        raise cf.DomainError(p[~clear][0])
    return cf._extrapolate(lambda s: cf._central(fn, p, axes, s), h, cfg.scheme)


def _probe(q):
    """A smooth test function with two output components."""
    return np.stack([np.sin(q).sum(-1), q[..., 0] * q[..., 3] - q[..., 1] ** 2],
                    axis=-1)


_OFF = np.array([1.0, -2.0, 0.5, 3.0])
_HALF = domains.HalfSpace(1, normal=[1.0, 1.0, 0.0, -1.0], offset=0.7)
# (domain, place): place(c, d, x) is a point at clearance c (up to rounding),
# reached along the unit direction d, or from the free point x for a plane
_PLACED = [
    (domains.Ball(1, radius=2.0, center=_OFF),
     lambda c, d, x: _OFF + (2.0 - c) * d),
    (domains.PointComplement(1), lambda c, d, x: c * d),
    (domains.PointComplement(1, point=_OFF), lambda c, d, x: _OFF + c * d),
    (_HALF, lambda c, d, x: x + (_HALF.offset - x @ _HALF.normal - c) * _HALF.normal),
    (domains.Intersection([domains.Ball(1, radius=3.0),
                           domains.PointComplement(1, point=[0.5, 0, 0, 0]),
                           domains.HalfSpace(1, normal=[0, 1, 0, 0], offset=2.0)]),
     lambda c, d, x: np.array([0.5, 0, 0, 0]) + c * d),
]
_coords = st.lists(st.floats(-3, 3), min_size=4, max_size=4)
# a clearance in units of the step, from 0 to 3h, or an absolute one far out
_clearance = st.one_of(st.tuples(st.just("steps"), st.floats(0, 3)),
                       st.tuples(st.just("far"), st.floats(0.05, 1)))


@settings(max_examples=300, deadline=None)
@given(which=st.sampled_from(range(len(_PLACED))),
       scheme=st.sampled_from(["central", "richardson"]),
       step=st.sampled_from([None, 1e-5, 1e-3]),
       centres=st.lists(st.tuples(_clearance, _coords, _coords),
                        min_size=1, max_size=4))
@example(which=1, scheme="central", step=1e-5,
         centres=[(("steps", 1.0), [1, 0, 0, 0], [0, 0, 0, 0])])
@example(which=2, scheme="richardson", step=None,
         centres=[(("far", 0.5), [0, 1, 0, 0], [0, 0, 0, 0]),
                  (("steps", 2.0), [1, 0, 0, 0], [0, 0, 0, 0])])
def test_partials_refuse_exactly_the_stencils_a_full_sweep_refuses(
        which, scheme, step, centres):
    domain, place = _PLACED[which]
    cfg = cf.FDConfig(step=step, scheme=scheme)
    pts = []
    for (unit, c), d, x in centres:
        d, x = np.array(d, dtype=float), np.array(x, dtype=float)
        assume(np.linalg.norm(d) > 0.1)
        d /= np.linalg.norm(d)
        if unit == "steps":
            c *= step or 1e-5 * max(1.0, np.linalg.norm(place(0.0, d, x)))
        pts.append(place(c, d, x))
    p = np.array(pts) if len(pts) > 1 else pts[0]
    try:
        want = _swept_partials(_probe, p, cfg, domain)
    except cf.DomainError as swept:
        with pytest.raises(cf.DomainError) as got:
            cf._partials(_probe, p, cfg, domain)
        np.testing.assert_array_equal(got.value.point, swept.point)
    else:
        np.testing.assert_array_equal(cf._partials(_probe, p, cfg, domain), want)


def test_a_centre_just_over_the_step_from_a_removed_point_is_refused():
    # the centre clears the step h, but its -h stencil point rounds onto the
    # removed point; a certificate margin of h instead of 2h would miss it
    h = 1e-5
    p = np.array([1 + math.ceil(h * 2.0 ** 52) * 2.0 ** -52, 0, 0, 0])
    domain = domains.PointComplement(1, point=[1.0, 0, 0, 0])
    assert domain.ext_distance(p) > h and p[0] - h == 1.0
    with pytest.raises(cf.DomainError) as err:
        cf._partials(_probe, p, cf.FDConfig(step=h), domain)
    np.testing.assert_array_equal(err.value.point, [1.0, 0, 0, 0])


def test_centres_clear_of_twice_the_step_need_no_stencil_sweep(monkeypatch):
    field = fields.get_field("E")
    swept, contains = [], field.domain.contains

    def spy(q):
        swept.append(np.shape(q))
        return contains(q)

    monkeypatch.setattr(field.domain, "contains", spy)
    pts = _shell(np.random.default_rng(21), 50, rmin=0.2, rmax=5.0)
    for cfg in (cf.FDConfig(step=1e-5), cf.FDConfig(scheme="richardson")):
        assert cf.is_monogenic(field, pts, cfg=cfg)["verdict"] is True
        cf.cf_residual_complex(field.pair0, field.pair1, pts, cfg, field.domain)
    penrose.tau_push_02(penrose.sharp(field), pts)
    assert swept == []
    # one centre within 2h of the puncture: the whole batch is swept
    near = np.concatenate([pts, [[1.5e-5, 0, 0, 0]]])
    cf.cf_apply(field, near, cf.FDConfig(step=1e-5))
    assert swept == [(51, 9, 4)]


def test_is_monogenic_report_and_verdicts():
    rng = np.random.default_rng(15)
    pts = _shell(rng, 40)
    report = cf.is_monogenic(fields.get_field("E"), pts, tol=1e-6)
    for key in ("field", "n", "samples", "tol", "max_residual",
                "worst_point", "verdict"):
        assert key in report
    assert report["verdict"] is True
    assert report["samples"] == 40
    assert report["max_residual"] < 1e-6

    bad = cf.is_monogenic(fields.get_field("nonmonogenic_absquare"), pts,
                          tol=1e-6)
    assert bad["verdict"] is False
    # loosening the tolerance beyond the measured residual flips the verdict
    loose = cf.is_monogenic(fields.get_field("nonmonogenic_absquare"), pts,
                            tol=10.0 * bad["max_residual"])
    assert loose["verdict"] is True


def test_complexified_operator_annihilates_extended_fundamental_solution():
    ext = fields.get_field("E").extension
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 8:
        x = rng.normal(size=4)
        y = 0.2 * rng.normal(size=4)
        Z = quat.matrix_point(x, y)
        if abs(quat.det_biquat(Z)) < 0.3:
            continue
        assert np.abs(cf.dC_apply(ext, Z)).max() < 1e-6
        checked += 1


def _dC_apply_via_pair(psiC, z, cfg):
    """Reference D^C: every derivative differences the stacked pair."""
    rows = z.shape[-2]
    h = cfg.resolve_step(np.sqrt(np.sum(np.abs(z) ** 2, axis=(-2, -1))),
                         factor=1e-4)

    def partial(which, A, col, step):
        e = np.zeros((rows, 2))
        e[A, col] = 1.0
        sp = step[..., None, None] * e
        return (psiC.pair(z + sp)[which] - psiC.pair(z - sp)[which]) / (2.0 * step)

    def all_components(step):
        out = np.empty(z.shape[:-2] + (rows,), dtype=complex)
        for A in range(rows):
            out[..., A] = partial(1, A, 0, step) - partial(0, A, 1, step)
        return out

    return (4.0 * all_components(h / 2) - all_components(h)) / 3.0


def test_complexified_operator_evaluates_each_component_once_per_stencil_point():
    ext = fields.get_field("E").extension
    evaluated = {"pair0": 0, "pair1": 0}  # matrices, not calls

    def counted(name, fn):
        def wrapped(z):
            evaluated[name] += np.asarray(z)[..., 0, 0].size
            return fn(z)
        return wrapped

    probe = fields.ComplexField(counted("pair0", ext.pair0),
                                counted("pair1", ext.pair1), n=1)
    rng = np.random.default_rng(19)
    Z = np.stack([quat.matrix_point(rng.normal(size=4), 0.2 * rng.normal(size=4))
                  for _ in range(5)])
    out = cf.dC_apply(probe, Z)
    # Richardson: 5 matrices x 2 step sizes x 2 rows x (+/-) per component
    assert evaluated == {"pair0": 40, "pair1": 40}
    ref = _dC_apply_via_pair(ext, Z, cf.FDConfig(scheme="richardson"))
    np.testing.assert_array_equal(out, ref)
    with pytest.raises(ValueError):
        cf.dC_apply(probe, np.zeros((5, 4, 2), dtype=complex))


def test_complexified_operator_on_one_matrix_is_its_batched_row():
    ext = fields.get_field("E").extension
    rng = np.random.default_rng(20)
    for scheme in ("central", "richardson"):
        cfg = cf.FDConfig(scheme=scheme)
        for _ in range(3):
            S = quat.matrix_point(rng.normal(size=4), 0.2 * rng.normal(size=4))
            np.testing.assert_array_equal(cf.dC_apply(ext, S, cfg),
                                          cf.dC_apply(ext, S[None], cfg)[0])


def test_complexified_operator_detects_non_holomorphic_dependence():
    # conjugating one matrix entry breaks holomorphy, so the residual of the
    # anti-holomorphic derivative probe is far from zero
    broken = fields.ComplexField(
        lambda Z: np.conj(Z[..., 0, 0]),
        lambda Z: Z[..., 1, 0],
        n=1)
    Z = quat.matrix_point(np.array([1.0, 0.2, -0.3, 0.5]),
                          np.array([0.1, 0.0, 0.2, -0.1]))
    assert np.abs(cf.dC_apply(broken, Z)).max() > 0.1


def test_restriction_of_extension_matches_the_real_field():
    ext = fields.get_field("E").extension
    base = fields.get_field("E")
    rng = np.random.default_rng(18)
    for p in _shell(rng, 10):
        Z = quat.matrix_point(p, np.zeros(4))
        np.testing.assert_allclose(ext.pair(Z), base.pair(p), rtol=1e-12)


def test_a_pair_field_rejects_points_of_another_dimension():
    # the default WholeSpace domain does not see the dimension, the pair does
    field = fields.get_field("linear_monogenic", 1)
    with pytest.raises(ValueError, match=r"expected points of shape \(\.\.\., 4\)"):
        cf.is_monogenic(field, np.full((2, 8), 0.5))
    with pytest.raises(ValueError, match=r"not \(3,\)"):
        field.pair(np.zeros(3))
    p0, p1 = field.pair(np.full((2, 4), 0.5))
    assert p0.shape == p1.shape == (2,)


def test_is_monogenic_names_the_callers_point_shape():
    # checked on entry, not on the stencil built from the points
    field = fields.get_field("linear_monogenic", 1)
    with pytest.raises(ValueError, match=r"not \(2, 8\)$"):
        cf.is_monogenic(field, np.full((2, 8), 0.5))
