"""Integral transform: splitting, pushforwards, and the commuting square."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fueter import acceptance, cf, cp1, fields, penrose, quat


def _shell(rng, count, rmin=0.6, rmax=2.2):
    pts = rng.normal(size=(count, 4))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return pts * rng.uniform(rmin, rmax, size=(count, 1))


def test_splitting_identity_recovers_the_pair():
    rng = np.random.default_rng(50)
    for name in ("constant", "linear_monogenic", "E"):
        field = fields.get_field(name)
        form = penrose.sharp(field)
        for x in _shell(rng, 6):
            got = penrose.tau_push_01(form, x)
            expected = np.asarray(field.pair(x))
            np.testing.assert_allclose(got, expected, atol=1e-12 * max(
                1.0, np.abs(expected).max()))


def _profile(form, z, x):
    """wz(z, x) = sum_r c_r(x) b_r(z), shape x.shape[:-1] + z.shape."""
    return np.tensordot(form.coeffs(x), form.basis(z), axes=(-1, 0))


def test_the_lifted_profile_is_the_harmonic_representative():
    # over each base point the lift is cp1's harmonic form of the field's
    # pair, whose clutching and decay tests/test_cp1.py checks
    field = fields.get_field("E")
    x = _shell(np.random.default_rng(64), 3)
    z = np.array([0.4 + 0.3j, -1.2 + 0.5j, 2.5j, 30.0 - 4.0j])
    expected = cp1.harmonic_representative(*field.pair(x)).h0(z)
    np.testing.assert_allclose(_profile(penrose.sharp(field), z, x), expected,
                               rtol=1e-14, atol=0)


def _unit_coefficient(x):
    return np.ones(np.shape(x)[:-1] + (1,))


def test_base_independent_lift_returns_its_own_coefficients():
    a0, a1 = 0.7 - 0.3j, -1.1 + 0.25j
    w = cp1.harmonic_representative(a0, a1)
    form = penrose.TwistorFormL(1, _unit_coefficient, lambda z: w.h0(z)[None])
    got = penrose.tau_push_01(form, np.array([0.3, 0.8, -0.1, 0.2]))
    np.testing.assert_allclose(got, [a0, a1], atol=1e-10)


def test_frame_fields_differentiate_the_coordinates():
    # f = z*beta + conj(alpha), the coefficients (beta, conj(alpha)) on the
    # basis (z, 1), is built so the first frame field returns z^2 - 1 and the
    # second returns 0: X^{A+1} f = (z P_A + Q_A) (z, 1)
    def coeffs(p):
        return np.stack([p[..., 3] + 1j * p[..., 2],
                         p[..., 0] - 1j * p[..., 1]], axis=-1)

    x = np.array([0.8, -0.3, 0.5, 0.4])
    P, Q = penrose._frame_rows(cf._partials(coeffs, x, penrose._FD))
    np.testing.assert_allclose(P, [[1.0, 0.0], [0.0, 0.0]], atol=1e-8)
    np.testing.assert_allclose(Q, [[0.0, -1.0], [0.0, 0.0]], atol=1e-8)
    zs = np.array([0.5 + 0.5j, 1.0 - 2.0j, -0.3j])
    basis = np.stack([zs, np.ones_like(zs)])
    rows = zs * (P @ basis) + Q @ basis
    np.testing.assert_allclose(rows[0], zs ** 2 - 1.0, atol=1e-8)
    np.testing.assert_allclose(rows[1], np.zeros_like(zs), atol=1e-8)


def test_closedness_stencil_leaving_the_domain_raises_before_evaluating():
    E = fields.get_field("E")
    evaluated = []

    def counted(fn):
        def wrapped(v):
            evaluated.append(v.shape)
            return fn(v)
        return wrapped

    field = fields.ScalarField(counted(E.pair0), counted(E.pair1),
                               domain=E.domain)
    # the -h point along x0 is the origin, where E is singular
    with pytest.raises(cf.DomainError, match=r"\[0\.0, 0\.0, 0\.0, 0\.0\]"):
        penrose.tau_push_02(penrose.sharp(field), [1e-5, 0.0, 0.0, 0.0])
    assert evaluated == []


def test_closedness_moments_vanish_exactly_for_monogenic_lifts():
    rng = np.random.default_rng(51)
    for name in ("constant", "linear_monogenic", "E"):
        form = penrose.sharp(fields.get_field(name))
        for x in _shell(rng, 3):
            moments = penrose.tau_push_02(form, x)
            assert np.abs(moments).max() < 1e-8


def test_closedness_moments_reproduce_the_operator_residual():
    # the weight -2 pushforward of the lifted field equals the complex
    # residual pair up to the fixed sign, which is the commuting square
    rng = np.random.default_rng(52)
    for name in ("nonmonogenic_linear", "nonmonogenic_quadratic",
                 "nonmonogenic_absquare"):
        field = fields.get_field(name)
        form = penrose.sharp(field)
        for x in _shell(rng, 3):
            lhs = penrose.tau_push_02(form, x)
            rhs = penrose.KAPPA * cf.cf_residual_complex(
                field.pair0, field.pair1, x)
            np.testing.assert_allclose(lhs, rhs, atol=1e-8)


def test_kappa_calibration_finds_minus_one():
    cal = penrose.calibrate_kappa()
    assert abs(cal["kappa_real"] - penrose.KAPPA) < 1e-6
    assert abs(cal["kappa_imag"]) < 1e-6
    assert cal["max_rel_misfit"] < 1e-6
    assert cal["pattern"] == "identity-interleaved"


def test_diagram_check_reports_small_discrepancy():
    rng = np.random.default_rng(53)
    pts = _shell(rng, 5)
    report = penrose.diagram_check(fields.get_field("nonmonogenic_quadratic"),
                                   pts)
    assert report["max_discrepancy"] < 1e-6
    assert report["rhs_max"] > 1e-2  # the residual itself is far from zero
    assert report["points"] == 5


def test_diagram_check_counts_the_points_it_checked():
    # the product of the lead shape: one (4,) point is one point, not 4,
    # and a (3, 2, 4) batch is 6 points, not 3
    field = fields.get_field("nonmonogenic_quadratic")
    pts = _shell(np.random.default_rng(57), 6)
    flat = penrose.diagram_check(field, pts)
    batch = penrose.diagram_check(field, pts.reshape(3, 2, 4))
    one = penrose.diagram_check(field, pts[0])
    assert (flat["points"], batch["points"], one["points"]) == (6, 6, 1)
    assert type(batch["points"]) is int
    for key in ("max_discrepancy", "lhs_max", "rhs_max"):
        assert batch[key] == pytest.approx(flat[key], rel=1e-12, abs=1e-300)
    assert one["max_discrepancy"] < 1e-6 and one["rhs_max"] > 1e-2


@pytest.mark.parametrize("name,n", [
    ("nonmonogenic_quadratic", 1), ("nonmonogenic_linear", 1),
    ("nonmonogenic_absquare", 1), ("E", 1), ("linear_monogenic", 2)])
def test_diagram_sides_are_the_two_public_functions_bit_for_bit(name, n):
    # one differencing pass of the lift gives both sides: each equals the
    # public function that differences on its own
    field = fields.get_field(name, n)
    points = acceptance._shell_points(np.random.default_rng(65), 10, 0.6, 2.5,
                                      n=n)
    lhs, rhs = penrose._diagram_sides(field, points)
    np.testing.assert_array_equal(
        lhs, penrose.tau_push_02(penrose.sharp(field), points))
    np.testing.assert_array_equal(
        rhs, cf.cf_residual_complex(field.pair0, field.pair1, points,
                                    penrose._FD, field.domain))


def _wirtinger_with_a_sign_flipped(d):
    """The Wirtinger combinations with the sign of i d_x1 in d_alpha and
    d_conj(alpha) flipped: a broken frame algebra."""
    d0, d1, d2, d3 = d[..., 0::4], d[..., 1::4], d[..., 2::4], d[..., 3::4]
    return ((d0 + 1j * d1) / 2, (d0 - 1j * d1) / 2,
            (d3 - 1j * d2) / 2, (d3 + 1j * d2) / 2)


def test_the_diagram_catches_a_broken_frame_algebra(monkeypatch):
    # the two sides of the square must come from independent algebras: with
    # the frame's Wirtinger helper broken, wherever it lives, the
    # discrepancy of a non-monogenic field must show it
    for module in (cf, penrose):
        monkeypatch.setattr(module, "_wirtinger",
                            _wirtinger_with_a_sign_flipped, raising=False)
    report = penrose.diagram_check(fields.get_field("nonmonogenic_quadratic"),
                                   _shell(np.random.default_rng(68), 10))
    assert report["max_discrepancy"] > 1e-2


@pytest.mark.parametrize("check", [
    lambda: penrose.diagram_check(fields.get_field("nonmonogenic_linear"),
                                  _shell(np.random.default_rng(66), 7)),
    penrose.calibrate_kappa])
def test_the_diagram_takes_one_finite_difference_pass(monkeypatch, check):
    calls = []
    partials = cf._partials

    def counted(*args, **kwargs):
        calls.append(np.shape(args[1]))
        return partials(*args, **kwargs)

    for module in (cf, penrose):
        monkeypatch.setattr(module, "_partials", counted)
    check()
    assert len(calls) == 1


@pytest.mark.parametrize("name,n", [
    (name, n) for name in fields.field_names() for n in (1, 2)
    if (name, n) != ("E", 2)])  # E is an n = 1 field
def test_the_lift_coefficients_are_the_stacked_pair_bit_for_bit(name, n):
    # the identity that lets the diagram difference the lift alone: a lift's
    # coefficients are the field's one evaluation, ScalarField.stacked, and
    # its matrix coefficients the extension's ComplexField.stacked, each the
    # bits of the stacked pair
    field = fields.get_field(name, n)
    form = penrose.sharp(field)
    assert form.coeffs == field.stacked
    x = acceptance._shell_points(np.random.default_rng(67), 8, 0.6, 2.5, n=n)
    z = quat.matrix_point(x, 0.1 * x[::-1])

    def same_bits(got, pair, lead):
        expected = np.stack(pair, axis=-1)
        assert got.dtype == expected.dtype == complex
        assert got.shape == expected.shape == lead + (2,)
        assert got.tobytes() == expected.tobytes()

    for lead in ((), (3,), (2, 3), (2, 4)):
        p = x[:math.prod(lead)].reshape(lead + (4 * n,))
        same_bits(form.coeffs(p), field.pair(p), lead)
        if field.extension is not None:
            assert form.coeffs_matrix == field.extension.stacked
            m = z[:math.prod(lead)].reshape(lead + (2 * n, 2))
            same_bits(form.coeffs_matrix(m), field.extension.pair(m), lead)


def test_transform_inverts_the_lift_on_monogenic_fields():
    rng = np.random.default_rng(54)
    field = fields.get_field("E")
    form = penrose.sharp(field)
    points = _shell(rng, 6)
    result = penrose.penrose_transform(form, points)
    expected = np.stack([np.asarray(field.pair(x)) for x in points])
    assert np.abs(result.values - expected).max() < 1e-6
    assert result.closedness < result.closed_tol
    assert result.cf_residual_max < 1e-4
    blob = result.to_json()
    for key in ("points", "psi0", "psi1", "closedness", "closed_tol",
                "cf_residual_max"):
        assert key in blob


def test_transform_rejects_non_closed_integrands():
    rng = np.random.default_rng(55)
    form = penrose.sharp(fields.get_field("nonmonogenic_absquare"))
    with pytest.raises(penrose.ClosednessError):
        penrose.penrose_transform(form, _shell(rng, 4))


def test_closedness_is_certified_at_every_given_point():
    # a kink far out at x0 = 5 spoils closedness at one point only; a strided
    # sample of the twenty points that skips it would certify the output
    rng = np.random.default_rng(61)
    points = _shell(rng, 20, 1.0, 1.0)
    points[1] = [6.0, 0.0, 0.0, 0.0]
    field = fields.ScalarField(
        lambda v: np.conj(v[..., 0]) + np.maximum(0.0, v[..., 0].real - 5) ** 3,
        lambda v: v[..., 1])
    with pytest.raises(penrose.ClosednessError, match="1.500e"):
        penrose.penrose_transform(penrose.sharp(field), points)
    # without the bad point the same field is certified
    result = penrose.penrose_transform(penrose.sharp(field), points[2:])
    assert result.closedness < 1e-8


def _output_residual(form, points):
    """The Cauchy-Fueter residual of the transform's output pair, differenced
    through cf_residual_complex: the reference for the one-pass
    cf_residual_max."""
    def component(A):
        return lambda v: penrose.tau_push_01(form, quat.ab_to_real(v))[..., A]

    return cf.cf_residual_complex(component(0), component(1), points,
                                  penrose._FD, form.domain)


@pytest.mark.parametrize("name,n", [("E", 1), ("linear_monogenic", 1),
                                    ("linear_monogenic", 2)])
def test_reported_residual_is_the_residual_of_the_output(name, n):
    form = penrose.sharp(fields.get_field(name, n))
    rng = np.random.default_rng(62)
    points = acceptance._shell_points(rng, 20, 0.6, 2.5, n=n)
    result = penrose.penrose_transform(form, points)
    reference = np.max(np.abs(_output_residual(form, points)))
    scale = max(1.0, float(np.max(np.abs(result.values))))
    assert abs(result.cf_residual_max - reference) <= 1e-14 * scale
    assert result.closedness == result.cf_residual_max


def test_transform_takes_one_finite_difference_pass(monkeypatch):
    calls = []
    partials = cf._partials

    def counted(*args, **kwargs):
        calls.append(np.shape(args[1]))
        return partials(*args, **kwargs)

    for module in (cf, penrose):
        monkeypatch.setattr(module, "_partials", counted)
    points = _shell(np.random.default_rng(63), 12)
    penrose.penrose_transform(penrose.sharp(fields.get_field("E")), points)
    assert calls == [points.shape]


def test_complexified_transform_matches_the_holomorphic_extension():
    rng = np.random.default_rng(56)
    form = penrose.sharp(fields.get_field("E"))
    ext = fields.get_field("E").extension
    checked = 0
    while checked < 6:
        x = rng.normal(size=4)
        y = 0.25 * rng.normal(size=4)
        sigma = quat.matrix_point(x, y)
        if abs(quat.det_biquat(sigma)) < 0.3:
            continue
        got = penrose.penrose_transform_complex(form, sigma)
        expected = np.asarray(ext.pair(sigma))
        np.testing.assert_allclose(got, expected, atol=1e-10 * max(
            1.0, np.abs(expected).max()))
        checked += 1


def test_complexified_transform_on_the_real_slice_is_bitwise_stable():
    rng = np.random.default_rng(57)
    form = penrose.sharp(fields.get_field("E"))
    for x in _shell(rng, 4):
        sigma = quat.matrix_point(x, np.zeros(4))
        via_matrix = penrose.penrose_transform_complex(form, sigma)
        via_point = penrose.tau_push_01(form, x)
        assert np.array_equal(via_matrix, via_point)


def test_complexified_transform_guards_the_hull():
    form = penrose.sharp(fields.get_field("E"))
    singular = quat.matrix_point(np.array([1.0, 0, 0, 0]),
                                 np.array([0.0, 1.0, 0, 0]))
    from fueter import hull
    with pytest.raises(hull.NotInHullError):
        penrose.penrose_transform_complex(form, singular)


def test_complexified_transform_rejects_a_point_of_another_n():
    # on the real slice an n = 2 point would otherwise reach tau_push_01 of
    # an n = 1 form and return a value
    form = penrose.sharp(fields.get_field("nonmonogenic_linear"))
    sigma = quat.matrix_point(np.array([1.0, 0, 0, 0, 0.5, 0, 0, 0]),
                              np.zeros(8))
    with pytest.raises(ValueError, match="n=2 but n=1"):
        penrose.penrose_transform_complex(form, sigma)


def test_complexified_transform_requires_an_extension_off_slice():
    const = fields.ScalarField(
        lambda v: np.full(v.shape[:-1], 0.7 + 0.2j),
        lambda v: np.full(v.shape[:-1], -0.1j))
    form = penrose.sharp(const)
    off_slice = quat.matrix_point(np.array([0.8, -0.3, 0.5, 0.4]),
                                  0.2 * np.ones(4))
    with pytest.raises(ValueError):
        penrose.penrose_transform_complex(form, off_slice)
    # on the real slice no extension is needed
    x = np.array([0.8, -0.3, 0.5, 0.4])
    got = penrose.penrose_transform_complex(
        form, quat.matrix_point(x, np.zeros(4)))
    np.testing.assert_allclose(got, [0.7 + 0.2j, -0.1j], atol=1e-12)


def test_two_variable_splitting_identity():
    # an n=2 constant pair field splits and comes back through the fiber
    # integral exactly as in the one-variable case
    vals = np.array([0.3 - 1.0j, 0.8j, -0.2 + 0.4j, 1.5])

    def pair0(v):
        return np.broadcast_to(vals[0] * np.ones((), complex), v.shape[:-1]) \
            + 0.1 * v[..., 2]

    def pair1(v):
        return np.broadcast_to(vals[1] * np.ones((), complex), v.shape[:-1])

    field = fields.ScalarField(pair0, pair1, n=2)
    form = penrose.sharp(field)
    rng = np.random.default_rng(58)
    x = rng.normal(size=8)
    got = penrose.tau_push_01(form, x)
    expected = np.asarray(field.pair(x))
    np.testing.assert_allclose(got, expected, atol=1e-10)


# ---------------------------------------------------------------------------
# batched base points: one fiber pass per batch equals stacked single points
# ---------------------------------------------------------------------------

_BATCHED = settings(max_examples=12, deadline=None, derandomize=True)


@st.composite
def _base_batch(draw):
    n = draw(st.sampled_from([1, 2]))
    lead = draw(st.sampled_from([(3,), (2, 2)]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return n, _shell(np.random.default_rng(seed), int(np.prod(lead)) * n,
                     0.6, 2.0).reshape(lead + (4 * n,))


def _stacked(fn, x):
    """fn at every single point of the batch x (..., 4n), stacked on the lead."""
    flat = x.reshape(-1, x.shape[-1])
    out = np.stack([fn(p) for p in flat])
    return out.reshape(x.shape[:-1] + out.shape[1:])


def _assert_rel(got, expected, rtol=1e-13):
    np.testing.assert_allclose(got, expected, rtol=0,
                               atol=rtol * max(1.0, np.abs(expected).max()))


@_BATCHED
@given(_base_batch())
def test_batched_pushforwards_match_single_points(case):
    n, x = case
    form = penrose.sharp(fields.get_field("nonmonogenic_quadratic", n))
    one = penrose.tau_push_01(form, x)
    assert one.shape == x.shape[:-1] + (2,)
    _assert_rel(one, _stacked(lambda p: penrose.tau_push_01(form, p), x))
    two = penrose.tau_push_02(form, x)
    assert two.shape == x.shape[:-1] + (2 * n,)
    assert np.abs(two).max() > 1e-2  # a non-closed form: nothing cancels
    _assert_rel(two, _stacked(lambda p: penrose.tau_push_02(form, p), x))


@_BATCHED
@given(_base_batch())
def test_batched_frame_fields_match_single_points(case):
    # the frame fields X^{A+1} wz = (z P_A + Q_A) b(z) of a lift, on the batch
    # and at each of its points
    n, x = case
    form = penrose.sharp(fields.get_field("nonmonogenic_quadratic", n))
    zs = np.array([0.5 + 0.5j, 1.0 - 2.0j, -0.3j])
    basis = form.basis(zs)

    def rows(p):
        P, Q = penrose._frame_rows(cf._partials(form.coeffs, p, penrose._FD))
        return zs * (P @ basis) + Q @ basis

    got = rows(x)
    assert got.shape == x.shape[:-1] + (2 * n,) + zs.shape
    _assert_rel(got, _stacked(rows, x))


@_BATCHED
@given(_base_batch())
def test_base_independent_profiles_broadcast_over_the_batch(case):
    n, x = case
    a0, a1 = 0.7 - 0.3j, -1.1 + 0.25j
    w = cp1.harmonic_representative(a0, a1)
    form = penrose.TwistorFormL(n, _unit_coefficient, lambda z: w.h0(z)[None])
    got = penrose.tau_push_01(form, x)
    assert got.shape == x.shape[:-1] + (2,)
    np.testing.assert_allclose(got, np.broadcast_to([a0, a1], got.shape),
                               atol=1e-10)
    closed = penrose.tau_push_02(form, x)
    assert closed.shape == x.shape[:-1] + (2 * n,)
    assert np.abs(closed).max() < 1e-12


@_BATCHED
@given(st.sampled_from([1, 2]), st.integers(6, 30), st.integers(0, 2 ** 32 - 1))
def test_transform_batches_match_single_points(n, count, seed):
    # every row of a batched transform must be its own point's value
    field = fields.get_field("linear_monogenic", n)
    form = penrose.sharp(field)
    points = _shell(np.random.default_rng(seed), count * n,
                    0.6, 2.0).reshape(count, 4 * n)
    result = penrose.penrose_transform(form, points)
    assert result.values.shape == (count, 2)
    _assert_rel(result.values,
                np.stack([penrose.tau_push_01(form, p) for p in points]))
    assert result.cf_residual_max < 1e-4


@settings(max_examples=8, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 16))
def test_complex_transform_real_slice_stays_bitwise(seed):
    record = acceptance.criterion_8_complex_transform(seed=seed)
    assert record["details"]["real_slice_bitwise"] is True


# ---------------------------------------------------------------------------
# the moment table against brute-force fiber quadrature
# ---------------------------------------------------------------------------

def _reference_moments(form, x, count=2):
    """sum_j W_j Z_j^ell wz(Z_j, x), ell < count, over the default nodes."""
    Z, W = cp1.quadrature_nodes()
    profile = _profile(form, Z, x)
    return np.stack([np.sum(W * Z ** ell * profile, axis=-1)
                     for ell in range(count)], axis=-1)


def _reference_closedness(form, x):
    """sum_j W_j (-X^{A+1} wz)(Z_j, x), differencing the whole profile in x."""
    Z, W = cp1.quadrature_nodes()
    # (..., 4n, nodes)
    d = cf._partials(lambda p: _profile(form, Z, p), x, penrose._FD)
    da, dab, db, dbb = penrose._wirtinger(np.swapaxes(d, -1, -2))  # each (..., nodes, n)
    rows = np.empty(da.shape[:-1] + (2 * da.shape[-1],), dtype=complex)
    rows[..., 0::2] = Z[:, None] * db - dab
    rows[..., 1::2] = Z[:, None] * da + dbb
    return -np.sum(W[:, None] * rows, axis=-2)


# The reference differences profile values already rounded to eps * |wz|
# over a step of at least 1e-5, so it is itself no closer than this.
_REFERENCE_FD_ROUNDING = np.finfo(float).eps / 1e-5


@_BATCHED
@given(_base_batch(), st.sampled_from(["nonmonogenic_quadratic",
                                       "linear_monogenic"]))
def test_pushforwards_match_brute_force_fiber_quadrature(case, name):
    n, x = case
    form = penrose.sharp(fields.get_field(name, n))
    _assert_rel(penrose.tau_push_01(form, x), _reference_moments(form, x))
    _assert_rel(penrose.tau_push_02(form, x), _reference_closedness(form, x),
                _REFERENCE_FD_ROUNDING)


@pytest.mark.parametrize("name,n", [("E", 1), ("linear_monogenic", 2)])
def test_complexified_transform_matches_brute_force_fiber_quadrature(name, n):
    field = fields.get_field(name, n)
    form = penrose.sharp(field)
    Z, W = cp1.quadrature_nodes()
    rng = np.random.default_rng(59)
    for _ in range(4):
        sigma = quat.matrix_point(_shell(rng, n, 0.8, 1.6).ravel(),
                                  0.2 * rng.normal(size=4 * n))
        profile = cp1.harmonic_representative(*field.extension.pair(sigma)).h0(Z)
        expected = [np.sum(W * Z ** ell * profile) for ell in range(2)]
        _assert_rel(penrose.penrose_transform_complex(form, sigma), expected)


def test_transform_evaluates_the_fiber_basis_once_per_form():
    Z, _ = cp1.quadrature_nodes()
    form = penrose.sharp(fields.get_field("E"))
    basis, on_nodes = form.basis, []

    def counted(z):
        if np.shape(z) == Z.shape:
            on_nodes.append(z)
        return basis(z)

    form.basis = counted
    penrose.penrose_transform(form, _shell(np.random.default_rng(60), 40))
    assert len(on_nodes) == 1


def test_sharp_forms_share_one_read_only_moment_table():
    # the table depends on the fiber basis alone
    form = penrose.sharp(fields.get_field("E"))
    assert form.moments is penrose.sharp(
        fields.get_field("linear_monogenic", 2)).moments
    with pytest.raises(ValueError, match="read-only"):
        form.moments[0, 0] = 0.0
    # a form with a basis of its own gets a table of its own, built alike
    own = penrose.TwistorFormL(1, form.coeffs, lambda z: form.basis(z))
    assert own.moments is not form.moments
    np.testing.assert_array_equal(own.moments, form.moments)


def test_moment_table_is_the_certified_cp1_coefficients_of_the_basis():
    # the table is cp1's, the one its factored harmonic forms are multiplied
    # by; row r holds the H^1 coefficients of the degree -3 form b_r dconj(z)
    table = penrose.sharp(fields.get_field("E")).moments
    assert table is cp1.moment_table(cp1.harmonic_basis, -3)
    assert table is cp1._basis_table(cp1.harmonic_basis, -3, 96, 64)[0]
    basis = cp1.Form01(-3, cp1.harmonic_basis)
    want, bound = cp1._certified_moments(basis, cp1.QuadratureConfig())
    assert table.tobytes() == want.tobytes()
    assert np.all(np.abs(table - np.eye(2)) <= bound)
    # a basis whose terms are too large for the sums to certify is refused
    big = penrose.TwistorFormL(1, None, lambda z: 1e12 * cp1.harmonic_basis(z))
    with pytest.raises(cp1.QuadratureError, match="not certified"):
        big.moments


# ---------------------------------------------------------------------------
# an exact form dbar(f) is invisible to the transform
# ---------------------------------------------------------------------------

def _monomial(powers, block):
    """phi = alpha^p conj(alpha)^q beta^r conj(beta)^s of one block, as a
    function of flat real points (..., 4n) -> (...)."""
    def phi(x):
        ab = quat.real_to_ab(x)
        a, b = ab[..., 2 * block], ab[..., 2 * block + 1]
        out = np.ones(x.shape[:-1], dtype=complex)
        for base, k in zip((a, np.conj(a), b, np.conj(b)), powers):
            out = out * base ** k
        return out
    return phi


def _exact_profile(a):
    """The fiber basis of wz = d_conj(z) f for f = phi(x) s(z),
    s = conj(z)^a/(1+|z|^2)^3, a section of Q_-3 for a = 2, 3 (chart 1:
    conj(w)^(3-a)/(1+|w|^2)^3), in both charts.

    wz = phi conj(z)^(a-1) (a + (a-3)|z|^2)/(1+|z|^2)^4.  The base-direction
    parts X^A f of dbar(f) have no fiber moment (see tau_push_02), so the
    form keeps only this part.
    """
    def basis(z):
        r2 = np.abs(z) ** 2
        return (np.conj(z) ** (a - 1) * (a + (a - 3) * r2)
                / (1.0 + r2) ** 4)[None]

    def basis_chart1(w):
        # -conj(w)^(2-a) (a - 3 + a|w|^2)/(1+|w|^2)^4, smooth at w = 0
        r2 = np.abs(w) ** 2
        return ((-3.0 * w if a == 3 else 1.0 - 2.0 * r2)
                / (1.0 + r2) ** 4)[None]

    return basis, basis_chart1


@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.sampled_from([1, 2]), st.integers(0, 1), st.sampled_from([2, 3]),
       st.tuples(*[st.integers(0, 2)] * 4), st.integers(0, 2 ** 32 - 1))
def test_exact_forms_push_forward_to_zero(n, block, a, powers, seed):
    # at a = 3 every fiber moment the pushforwards take vanishes by the
    # angular integral alone; at a = 2 the integrand of the z-moment of wz
    # is nonzero and only its integral vanishes, as a boundary term
    block = min(block, n - 1)
    phi = _monomial(powers, block)
    basis, basis_chart1 = _exact_profile(a)

    def coeffs(x):
        return phi(x)[..., None]

    form = penrose.TwistorFormL(n, coeffs, basis)
    x = _shell(np.random.default_rng(seed), 3 * n, 0.6, 1.6).reshape(3, 4 * n)
    scale = max(1.0, float(np.max(np.abs(phi(x)))))

    # f is a section: the profile of dbar(f) clutches, h1(1/z) =
    # -z^3 conj(z)^2 h0(z) on Q_-3.  Its decay needs no sampling: the
    # profile conj(z)^(a-1) (a + (a-3)|z|^2)/(1+|z|^2)^4 decays as
    # |z|^(a-7) in closed form
    c = coeffs(x[0])
    z = np.exp(np.linspace(np.log(0.1), np.log(10.0), 7)) * np.exp(
        1j * np.linspace(0.3, 6.0, 7))
    np.testing.assert_allclose(c @ basis_chart1(1.0 / z),
                               -z ** 3 * np.conj(z) ** 2 * (c @ basis(z)),
                               rtol=1e-12, atol=1e-15 * scale)

    # moments of an exact form vanish, and so does the (0,2)-part of dbar^2
    assert np.abs(penrose.tau_push_01(form, x)).max() < 1e-13 * scale
    assert np.abs(penrose.tau_push_02(form, x)).max() < 1e-12 * scale

    # adding dbar(f) to a lift leaves its class, so its pushforward, unchanged
    if n == 1:
        E = fields.get_field("E")
        lift = penrose.sharp(E)
        shifted = penrose.TwistorFormL(
            1, lambda p: np.concatenate([lift.coeffs(p), coeffs(p)], axis=-1),
            lambda z: np.concatenate([lift.basis(z), basis(z)]),
            domain=E.domain)
        got = penrose.tau_push_01(shifted, x)
        _assert_rel(got, np.stack(E.pair(x), axis=-1), 1e-13 * scale)


def test_the_transform_rejects_points_of_another_dimension():
    field = fields.get_field("linear_monogenic", 2)
    with pytest.raises(ValueError, match=r"expected points of shape \(\.\.\., 8\)"):
        penrose.penrose_transform(penrose.sharp(field), np.full((2, 4), 0.5))
    with pytest.raises(ValueError, match=r"expected points of shape \(\.\.\., 8\)"):
        penrose.diagram_check(field, np.full((2, 4), 0.5))


def test_an_empty_point_set_is_refused_before_any_evaluation():
    # numpy's maximum of a zero-size array once failed inside the transform
    # and the diagram check; now the point set is refused on entry, and
    # neither the field nor the lift is evaluated
    def untouched(*args):
        raise AssertionError("evaluated on an empty point set")

    field = fields.ScalarField(untouched, untouched, name="untouched")
    form = penrose.TwistorFormL(1, untouched, untouched)
    for points in (np.empty((0, 4)), np.empty((3, 0, 4))):
        with pytest.raises(ValueError, match="empty point set"):
            penrose.penrose_transform(form, points)
        with pytest.raises(ValueError, match="empty point set"):
            penrose.diagram_check(field, points)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_point_is_refused_before_any_evaluation(bad):
    # the transform once evaluated E at a NaN point, warning, before its
    # stencil was refused; now the point set is refused on entry
    def untouched(*args):
        raise AssertionError("evaluated at a non-finite point")

    field = fields.ScalarField(untouched, untouched, name="untouched")
    form = penrose.TwistorFormL(1, untouched, untouched)
    points = np.array([[1.0, 0.5, 0.0, 0.0], [0.5, bad, 1.0, 0.0],
                       [bad, 0.0, 0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for check in (lambda p: penrose.penrose_transform(form, p),
                      lambda p: penrose.diagram_check(field, p)):
            with pytest.raises(cf.DomainError) as err:
                check(points)
            np.testing.assert_array_equal(err.value.point, points[1])
        with pytest.raises(cf.DomainError) as err:
            penrose.penrose_transform(penrose.sharp(fields.get_field("E")),
                                      points[2])
        np.testing.assert_array_equal(err.value.point, points[2])


def test_diagram_check_names_the_callers_point_shape():
    # checked on entry, not on the stencil built from the points, as the
    # transform's own first evaluation does
    field = fields.get_field("linear_monogenic", 2)
    for check in (penrose.diagram_check,
                  lambda f, p: penrose.penrose_transform(penrose.sharp(f), p)):
        with pytest.raises(ValueError, match=r"not \(2, 4\)$"):
            check(field, np.full((2, 4), 0.5))


def test_the_complex_transform_off_the_slice_needs_an_extension():
    form = penrose.sharp(fields.get_field("nonmonogenic_linear"))
    x = np.array([1.1, 0.2, -0.3, 0.5])
    # the real slice needs no extension
    np.testing.assert_array_equal(
        penrose.penrose_transform_complex(form, quat.BiquaternionPoint(x, 0 * x)),
        penrose.tau_push_01(form, x))
    off = quat.BiquaternionPoint(x, np.array([0.1, 0.0, 0.2, -0.1]))
    with pytest.raises(penrose.NoExtensionError) as exc:
        penrose.penrose_transform_complex(form, off)
    assert isinstance(exc.value, ValueError)
