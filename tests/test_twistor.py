"""Twistor space: homogeneous charts, lines, and line-containment membership."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from fueter import domains, hull, quat, twistor


def _proportional(u, v, tol=1e-12):
    """Rows of u and v (..., m) that are complex multiples of each other."""
    u = np.asarray(u)
    v = np.asarray(v)
    j = np.argmax(np.abs(u), axis=-1)[..., None]
    scale = np.take_along_axis(v, j, -1) / np.take_along_axis(u, j, -1)
    return (np.abs(v - scale * u).max(axis=-1)
            <= tol * np.maximum(1.0, np.abs(scale[..., 0])))


def _fibre_pairs(rng, count, chart):
    """count fibre points [1 : z] (chart 0) or [w : 1] (chart 1)."""
    t = rng.normal(size=count) + 1j * rng.normal(size=count)
    one = np.ones(count)
    return np.stack([one, t] if chart == 0 else [t, one], axis=-1)


def test_eta_roundtrip_on_both_charts():
    rng = np.random.default_rng(30)
    for n in (1, 2):
        for chart in (0, 1):
            pi = _fibre_pairs(rng, 20, chart)
            x = rng.normal(size=(20, 4 * n))
            v = twistor.eta(pi, x)
            assert v.shape == (20, 2 * n + 2)
            back_pi, back_x = twistor.eta_inverse(v)
            np.testing.assert_array_equal(back_pi, pi)
            np.testing.assert_allclose(back_x, x, rtol=0, atol=1e-12)


def test_eta_is_the_per_chart_formula():
    # chart 0 [1 : z]: (a - z conj(b), b + z conj(a)); chart 1 [w : 1]:
    # (w a - conj(b), w b + conj(a)), per quaternion entry (a, b)
    rng = np.random.default_rng(36)
    for n in (1, 2):
        x = rng.normal(size=(10, 4 * n))
        ab = quat.real_to_ab(x)
        a, b = ab[:, 0::2], ab[:, 1::2]
        t = (rng.normal(size=10) + 1j * rng.normal(size=10))[:, None]
        rows0 = np.empty_like(ab)
        rows0[:, 0::2] = a - t * np.conj(b)
        rows0[:, 1::2] = b + t * np.conj(a)
        rows1 = np.empty_like(ab)
        rows1[:, 0::2] = t * a - np.conj(b)
        rows1[:, 1::2] = t * b + np.conj(a)
        for chart, rows in ((0, rows0), (1, rows1)):
            pi = np.concatenate([np.ones_like(t), t] if chart == 0
                                else [t, np.ones_like(t)], axis=1)
            np.testing.assert_allclose(twistor.eta(pi, x)[:, 2:], rows,
                                       rtol=0, atol=1e-14)


def test_chart_transition_inverts_the_fiber_coordinate():
    # [1 : z] and [1/z : 1] name the same fibre point: proportional images
    # and the same base point
    x = np.array([0.1, 0.4, -0.2, 0.9])
    z = 0.8 - 0.5j
    v0 = twistor.eta(np.array([1.0, z]), x)
    v1 = twistor.eta(np.array([1.0 / z, 1.0]), x)
    assert _proportional(v0, v1)
    np.testing.assert_allclose(twistor.eta_inverse(v1)[1], x, atol=1e-14)


def test_eta_inverse_needs_a_nonzero_fiber_pair():
    bad = np.array([0, 0, 1.0, 0.5j])
    with pytest.raises(twistor.OutsideChartsError):
        twistor.eta_inverse(bad)
    # one bad row fails the batch
    batch = np.stack([twistor.eta(np.array([1.0, 0.2j]), np.ones(4)), bad])
    with pytest.raises(twistor.OutsideChartsError):
        twistor.eta_inverse(batch)


def test_lines_interpolate_the_incidence_embedding():
    rng = np.random.default_rng(31)
    zs = np.array([0.0, 0.3 + 0.2j, -1.5j, 4.0])
    pi = np.stack([np.ones(4), zs], axis=-1)
    for n in (1, 2):
        x = rng.normal(size=4 * n)
        lp = twistor.line_embed(quat.embed_M(x), pi)
        assert _proportional(lp, twistor.eta(pi, x)).all()
        # the fiber point at infinity lives on chart 1
        top = twistor.line_embed(quat.embed_M(x), np.array([0.0, 1.0]))
        assert top[0] == 0 and top[1] != 0


def test_line_embed_broadcasts_matrices_and_fibre_points():
    rng = np.random.default_rng(37)
    S = quat.matrix_point(rng.normal(size=(3, 8)), rng.normal(size=(3, 8)))
    pi = rng.normal(size=(5, 1, 2)) + 1j * rng.normal(size=(5, 1, 2))
    v = twistor.line_embed(S, pi)
    assert v.shape == (5, 3, 6)
    for i in range(5):
        for k in range(3):
            np.testing.assert_allclose(v[i, k, 2:], S[k] @ pi[i, 0],
                                       rtol=0, atol=1e-14)
            np.testing.assert_array_equal(v[i, k, :2], pi[i, 0])


def test_one_fibre_point_is_broadcast_over_a_batch_of_matrices():
    # one pi (2,) over S (3, 2n, 2): each row is the one-matrix call, and
    # the fibre columns are pi; pi with the lead shape is used as it is
    rng = np.random.default_rng(38)
    for n in (1, 2):
        S = quat.matrix_point(rng.normal(size=(3, 4 * n)),
                              rng.normal(size=(3, 4 * n)))
        pi = rng.normal(size=2) + 1j * rng.normal(size=2)
        v = twistor.line_embed(S, pi)
        assert v.shape == (3, 2 * n + 2) and v.flags.c_contiguous
        for k in range(3):
            np.testing.assert_array_equal(v[k], twistor.line_embed(S[k], pi))
            np.testing.assert_array_equal(v[k, :2], pi)
        np.testing.assert_array_equal(
            twistor.line_embed(S, np.broadcast_to(pi, (3, 2)).copy()), v)


def test_line_base_points_collapse_to_the_matrix():
    rng = np.random.default_rng(32)
    zs = np.array([0.0, 0.5, -0.25 + 1.0j, 2.0 - 3.0j, 10.0j])
    for n in (1, 2):
        x = rng.normal(size=4 * n)
        y = 0.5 * rng.normal(size=4 * n)
        sigma = quat.matrix_point(x, y)
        base = twistor.line_base_points(sigma, zs)
        assert base.shape == (len(zs), 2 * n, 2)
        assert np.abs(base - sigma[None]).max() < 1e-10 * max(
            1.0, np.abs(sigma).max())


def test_lines_of_distinct_real_points_are_disjoint():
    x1 = np.array([0.2, -0.4, 0.7, 0.1])
    x2 = np.array([0.2, -0.4, 0.7, 0.6])
    zs = np.linspace(-3, 3, 31)
    pi = np.stack([np.ones_like(zs), zs], axis=-1)
    p1 = twistor.line_embed(quat.embed_M(x1), pi)
    p2 = twistor.line_embed(quat.embed_M(x2), pi)
    assert not _proportional(p1[:, None, :], p2[None, :, :], tol=1e-8).any()


def test_sweep_quaternions_are_unit_imaginary():
    qs = twistor.sweep_quaternions(twistor.hopf_grid())
    assert qs.shape == (578, 4)
    assert np.abs(qs[:, 0]).max() == 0.0
    assert np.abs(np.linalg.norm(qs, axis=1) - 1.0).max() < 1e-12
    # the grid covers the imaginary unit sphere reasonably densely
    rng = np.random.default_rng(33)
    probes = rng.normal(size=(2000, 3))
    probes /= np.linalg.norm(probes, axis=1, keepdims=True)
    gaps = np.linalg.norm(probes[:, None, :] - qs[None, :, 1:],
                          axis=2).min(axis=1)
    assert gaps.max() < 0.2


@pytest.mark.parametrize("n_t,n_theta", [(0, 4), (4, 0), (-1, 4), (4, -3)])
def test_hopf_grid_refuses_empty_grids(n_t, n_theta):
    with pytest.raises(ValueError, match="n_t, n_theta >= 1"):
        twistor.hopf_grid(n_t, n_theta)
    assert twistor.hopf_grid(1, 1).shape == (3, 2)


@pytest.mark.parametrize("n_t,n_theta", [(2.5, 1), (4, 0.5), (np.nan, 4),
                                         (4, np.inf), ("4", 4), (None, 4)])
def test_hopf_grid_refuses_non_integral_counts(n_t, n_theta):
    # hopf_grid(2.5, 1) once gave 5 rows, its t = 1.0 ring a copy of the
    # pole (1, 0); a NaN count reached numpy's arange
    message = "integers n_t, n_theta >= 1, not %r, %r" % (n_t, n_theta)
    with pytest.raises(ValueError, match=re.escape(message)):
        twistor.hopf_grid(n_t, n_theta)


def test_hopf_grid_reads_integral_counts_of_any_type():
    want = twistor.hopf_grid(3, 4)
    for n_t, n_theta in ((3.0, 4.0), (np.int64(3), np.int32(4))):
        assert twistor.hopf_grid(n_t, n_theta).tobytes() == want.tobytes()


def test_line_sweep_is_the_quaternionic_orbit():
    rng = np.random.default_rng(34)
    x = rng.normal(size=4)
    y = rng.normal(size=4)
    pairs = twistor.hopf_grid(6, 6)
    qs = twistor.sweep_quaternions(pairs)
    swept = twistor.line_sweep(quat.matrix_point(x, y), pairs)
    assert swept.shape == (len(qs), 4)
    for i, u in enumerate(qs):
        np.testing.assert_allclose(swept[i], x + quat.qmul(y, u), atol=1e-13)


# ---------------------------------------------------------------------------
# the real base points of sigma's line are its swept set x + y S^2
# ---------------------------------------------------------------------------

# the tolerance hull_contains_via_lines states, in units of
# eps * max(1, ||sigma||_C)
_LINE_EPS = 32


def _fibre_over(q):
    """Unit fibre points pi (..., 2) with Hopf(pi) = q, for unit imaginary q.

    pi is (1 + u1, u2 - i u3) where u1 >= 0 and (u2 + i u3, 1 - u1)
    elsewhere, for q = u1 i + u2 j + u3 k, divided by its norm
    sqrt(2 (1 + |u1|)) >= sqrt(2).
    """
    u1, u2, u3 = q[..., 1], q[..., 2], q[..., 3]
    north = u1 >= 0.0
    c = 1.0 + np.abs(u1)
    pi = np.stack([np.where(north, c, u2 + 1j * u3),
                   np.where(north, u2 - 1j * u3, c)], axis=-1)
    return pi / np.sqrt(2.0 * c)[..., None]


@st.composite
def _line_case(draw):
    n = draw(st.sampled_from([1, 2]))
    scale = 10.0 ** draw(st.floats(-2.0, 2.0))
    unit = st.floats(-1.0, 1.0, allow_subnormal=False)
    x = scale * draw(hnp.arrays(np.float64, 4 * n, elements=unit))
    y = scale * draw(hnp.arrays(np.float64, 4 * n, elements=unit))
    nodes = hull._icosphere(draw(st.sampled_from([0, 1, 2])))[0]
    picks = draw(st.lists(st.integers(0, len(nodes) - 1), min_size=1,
                          max_size=8))
    u = draw(hnp.arrays(np.float64, (4, 3), elements=unit).filter(
        lambda a: (np.linalg.norm(a, axis=1) > 1e-3).all()))
    rand = np.zeros((4, 4))
    rand[:, 1:] = u / np.linalg.norm(u, axis=1, keepdims=True)
    return x, y, np.concatenate([nodes[picks], rand])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_line_case())
def test_line_base_points_are_the_swept_set(case):
    x, y, q = case
    pi = _fibre_over(q)
    # pi is a unit fibre point over q
    np.testing.assert_allclose(np.abs(pi) ** 2 @ np.ones(2), 1.0, atol=1e-15)
    np.testing.assert_allclose(twistor.sweep_quaternions(pi), q, atol=1e-15)
    S = quat.matrix_point(x, y)
    back_pi, base = twistor.eta_inverse(twistor.line_embed(S, pi))
    np.testing.assert_array_equal(back_pi, pi)
    tol = _LINE_EPS * np.finfo(float).eps * max(
        1.0, quat.BiquaternionPoint(x, y).norm_C())
    assert np.abs(base - quat.right_line(x, y)(q)).max() <= tol
    # far below the verdict threshold the branch-and-bound certifies against
    assert tol < 1e-12 * max(1.0, quat.BiquaternionPoint(x, y).norm_C()) / 100


def test_line_membership_goes_through_the_charts(monkeypatch):
    calls = {"line_embed": 0, "eta_inverse": 0}
    for name in calls:
        fn = getattr(twistor, name)

        def counting(*args, _fn=fn, _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(twistor, name, counting)
    query = twistor.hull_contains_via_lines(
        quat.BiquaternionPoint([0.2, 0, 0, 0], [0, 0.3, 0.1, 0]),
        domains.Ball(1, 1.0), return_query=True)
    assert calls["line_embed"] == 1 and calls["eta_inverse"] == 1
    assert query.count == 0


# ---------------------------------------------------------------------------
# membership by line containment
# ---------------------------------------------------------------------------

def test_sweep_membership_matches_the_direct_query():
    ball = domains.parse_domain("ball:r=1")
    rng = np.random.default_rng(35)
    compared = 0
    for _ in range(60):
        sigma = quat.matrix_point(0.25 * rng.normal(size=4),
                                  0.1 * rng.normal(size=4))
        via = twistor.hull_contains_via_lines(sigma, ball, return_query=True)
        direct = hull.hull_contains(sigma, ball)
        if via.indeterminate or direct.indeterminate:
            continue
        assert via.verdict == direct.verdict
        compared += 1
    assert compared >= 40


def test_sweep_membership_on_special_configurations():
    star = domains.parse_domain("H*")
    singular = quat.matrix_point(np.array([1.0, 0, 0, 0]),
                                 np.array([0.0, 1.0, 0, 0]))
    assert abs(quat.det_biquat(singular)) < 1e-14
    assert twistor.hull_contains_via_lines(singular, star) is False

    ball = domains.parse_domain("ball:r=1")
    real_in = quat.matrix_point(np.array([0.4, 0.1, 0, 0]), np.zeros(4))
    real_out = quat.matrix_point(np.array([1.4, 0.1, 0, 0]), np.zeros(4))
    assert twistor.hull_contains_via_lines(real_in, ball) is True
    assert twistor.hull_contains_via_lines(real_out, ball) is False


def test_sweep_membership_returns_full_query_on_request():
    ball = domains.parse_domain("ball:r=1")
    sigma = quat.matrix_point(np.array([0.2, 0, 0, 0]),
                              np.array([0.05, 0, 0, 0]))
    query = twistor.hull_contains_via_lines(sigma, ball, return_query=True)
    assert isinstance(query, hull.HullQuery)
    assert query.verdict is True
    assert query.band == 0.0 and query.indeterminate is False
    assert query.count == 0


def _empty_batch_cases():
    """(call, expected shapes), by name, of each hull-path kernel on a batch
    with no rows, at n = 1 and 2 and the lead shapes (0,) and (2, 0)."""
    cases = []
    for n in (1, 2):
        for lead in ((0,), (2, 0)):
            x = np.empty(lead + (4 * n,))
            z = np.empty(lead + (2 * n, 2), dtype=complex)
            pt = quat.BiquaternionPoint(np.full(4 * n, 0.1), np.full(4 * n, 0.2))
            tag = "n%d-%s" % (n, "x".join(map(str, lead)))
            cases += [
                ("qmul_right-" + tag, lambda x=x: quat.qmul_right(x, x[..., :4]),
                 [x.shape]),
                ("right_line-" + tag, lambda x=x: quat.right_line(x, x)(x[..., :4]),
                 [x.shape]),
                ("right_line_map-" + tag,
                 lambda n=n, x=x: quat.right_line(np.ones(4 * n), np.ones(4 * n))(
                     x[..., :4]), [x.shape]),
                ("matrix_point-" + tag, lambda x=x: quat.matrix_point(x, x),
                 [z.shape]),
                ("decompose_matrix-" + tag, lambda z=z: quat.decompose_matrix(z),
                 [x.shape, x.shape]),
                ("eta_inverse-" + tag,
                 lambda n=n, lead=lead: twistor.eta_inverse(
                     np.empty(lead + (2 * n + 2,), dtype=complex)),
                 [lead + (2,), x.shape]),
                ("line_sweep-" + tag,
                 lambda pt=pt, lead=lead: twistor.line_sweep(
                     pt, np.empty(lead + (2,), dtype=complex)), [x.shape]),
            ]
            for domain in (domains.Ball(n), domains.PointComplement(n),
                           domains.Intersection([domains.Ball(n),
                                                 domains.PointComplement(n)])):
                cases.append(("sweep_inf-%s-%s" % (type(domain).__name__, tag),
                              lambda d=domain, x=x: d.sweep_inf(x, x),
                              [lead, lead + (4,)]))
    return [pytest.param(call, shapes, id=name) for name, call, shapes in cases]


@pytest.mark.parametrize("call,shapes", _empty_batch_cases())
def test_hull_kernels_map_an_empty_batch_to_an_empty_result(call, shapes):
    # the kernels reshape by their trailing sizes, so a batch with no rows
    # is no error: its result has the batch's lead shape and no entries
    out = call()
    out = out if isinstance(out, tuple) else (out,)
    assert [o.shape for o in out] == shapes
