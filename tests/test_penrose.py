"""Integral transform: splitting, pushforwards, and the commuting square."""

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


def test_lifted_forms_validate_clutching_and_decay():
    form = penrose.sharp(fields.get_field("E"))
    report = form.validate(np.array([0.9, -0.2, 0.4, 0.3]))
    assert report["clutching"]["ok"] is True
    assert report["decay"] is True
    assert report["k"] == -3


def test_base_independent_lift_returns_its_own_coefficients():
    a0, a1 = 0.7 - 0.3j, -1.1 + 0.25j
    w = cp1.harmonic_representative(a0, a1)
    form = penrose.TwistorFormL(
        1,
        lambda z, x: w.h0(z) * np.ones(np.shape(z), dtype=complex),
        wz_chart1=lambda z, x: w.h1(z) * np.ones(np.shape(z), dtype=complex))
    got = penrose.tau_push_01(form, np.array([0.3, 0.8, -0.1, 0.2]))
    np.testing.assert_allclose(got, [a0, a1], atol=1e-10)


def test_frame_fields_differentiate_the_coordinates():
    # f = z*beta + conj(alpha) is built so the first frame field returns
    # z^2 - 1 and the second returns 0
    def f(zs, p):
        return (p[..., 3, None] + 1j * p[..., 2, None]) * zs \
            + (p[..., 0, None] - 1j * p[..., 1, None])

    zs = np.array([0.5 + 0.5j, 1.0 - 2.0j, -0.3j])
    x = np.array([0.8, -0.3, 0.5, 0.4])
    rows = penrose.frame_apply(f, zs, x)
    np.testing.assert_allclose(rows[0], zs ** 2 - 1.0, atol=1e-8)
    np.testing.assert_allclose(rows[1], np.zeros_like(zs), atol=1e-8)


def test_antiholomorphic_fiber_derivative_in_the_k_part():
    # with no fiber component, C_zi reduces to the plain z-bar derivative of
    # the i-th coefficient; conj(z) has derivative 1
    form = penrose.TwistorFormL(
        1, lambda z, x: np.zeros(np.shape(z), dtype=complex),
        K_parts=[lambda z, x: np.conj(z) * np.ones(np.shape(z), complex),
                 lambda z, x: np.zeros(np.shape(z), dtype=complex)])
    out = penrose.dbar_chart0(form, np.array([0.3 + 0.1j, 1.2j]),
                              np.array([0.5, 0.1, -0.2, 0.3]))
    np.testing.assert_allclose(out["C_zi"][0], [1.0, 1.0], atol=1e-8)
    np.testing.assert_allclose(out["C_zi"][1], [0.0, 0.0], atol=1e-8)
    assert np.abs(out["C_ij"]).max() < 1e-10


def test_closedness_stencil_leaving_the_domain_raises_before_evaluating():
    E = fields.get_field("E")
    evaluated = []

    def counted(fn):
        def wrapped(v):
            evaluated.append(v.shape)
            return fn(v)
        return wrapped

    field = fields.make_pair(counted(E.pair0), counted(E.pair1),
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


def test_complexified_transform_matches_the_holomorphic_extension():
    rng = np.random.default_rng(56)
    form = penrose.sharp(fields.get_field("E"))
    ext = fields.get_field("E_ext")
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
    const = fields.make_pair(
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

    field = fields.make_pair(pair0, pair1, n=2)
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
    n, x = case
    form = penrose.sharp(fields.get_field("nonmonogenic_quadratic", n))
    zs = np.array([0.5 + 0.5j, 1.0 - 2.0j, -0.3j])
    rows = penrose.frame_apply(form.wz, zs, x)
    assert rows.shape == (2 * n,) + x.shape[:-1] + zs.shape
    each = _stacked(lambda p: penrose.frame_apply(form.wz, zs, p), x)
    _assert_rel(np.moveaxis(rows, 0, x.ndim - 1), each)


@_BATCHED
@given(_base_batch())
def test_base_independent_profiles_broadcast_over_the_batch(case):
    n, x = case
    a0, a1 = 0.7 - 0.3j, -1.1 + 0.25j
    w = cp1.harmonic_representative(a0, a1)
    form = penrose.TwistorFormL(
        n, lambda z, p: w.h0(z) * np.ones(np.shape(z), dtype=complex))
    got = penrose.tau_push_01(form, x)
    assert got.shape == x.shape[:-1] + (2,)
    np.testing.assert_allclose(got, np.broadcast_to([a0, a1], got.shape),
                               atol=1e-10)
    closed = penrose.tau_push_02(form, x)
    assert closed.shape == x.shape[:-1] + (2 * n,)
    assert np.abs(closed).max() < 1e-12


@_BATCHED
@given(st.sampled_from([1, 2]), st.integers(1, 25), st.integers(0, 2 ** 32 - 1))
def test_transform_batches_across_chunks_match_single_points(n, extra, seed):
    # more base points than one chunk holds, so the batch is split and
    # restacked; every row must still be its own point's value
    Z, _ = cp1.quadrature_nodes()
    count = penrose._CHUNK_ELEMENTS // Z.size + extra
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
