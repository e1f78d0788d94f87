"""Arithmetic of quaternions, complex coordinates, and matrix embeddings."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fueter import quat


def test_unit_multiplication_table():
    e = np.eye(4)
    # i*j = k and cyclic, anti-commuting imaginary units
    products = {
        (1, 1): -e[0], (2, 2): -e[0], (3, 3): -e[0],
        (1, 2): e[3], (2, 1): -e[3],
        (2, 3): e[1], (3, 2): -e[1],
        (3, 1): e[2], (1, 3): -e[2],
    }
    for (i, j), expected in products.items():
        np.testing.assert_array_equal(quat.qmul(e[i], e[j]), expected)
    for i in range(4):
        np.testing.assert_array_equal(quat.qmul(e[0], e[i]), e[i])
        np.testing.assert_array_equal(quat.qmul(e[i], e[0]), e[i])


def test_norm_is_multiplicative():
    rng = np.random.default_rng(1)
    for _ in range(50):
        p = rng.normal(size=4)
        q = rng.normal(size=4)
        lhs = quat.qnorm(quat.qmul(p, q))
        rhs = quat.qnorm(p) * quat.qnorm(q)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, rhs)


def test_conjugation_reverses_products():
    rng = np.random.default_rng(2)
    p = rng.normal(size=4)
    q = rng.normal(size=4)
    lhs = quat.qconj(quat.qmul(p, q))
    rhs = quat.qmul(quat.qconj(q), quat.qconj(p))
    np.testing.assert_allclose(lhs, rhs, atol=1e-13)
    # p conj(p) is the squared norm times the identity
    np.testing.assert_allclose(quat.qmul(p, quat.qconj(p)),
                               [quat.qnorm(p) ** 2, 0, 0, 0], atol=1e-13)


def test_qmul_right_multiplies_every_entry():
    rng = np.random.default_rng(3)
    for n in (1, 2):
        x = rng.normal(size=4 * n)
        q = rng.normal(size=4)
        expected = np.concatenate(
            [quat.qmul(x[4 * ell:4 * ell + 4], q) for ell in range(n)])
        np.testing.assert_array_equal(quat.qmul_right(x, q), expected)
        # a leading batch axis on both x and q
        xs = rng.normal(size=(3, 4 * n))
        qs = rng.normal(size=(3, 4))
        np.testing.assert_array_equal(
            quat.qmul_right(xs, qs),
            [quat.qmul_right(xk, qk) for xk, qk in zip(xs, qs)])


def test_complex_coordinate_layout_and_roundtrip():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    ab = quat.real_to_ab(x)
    # first complex slot pairs components 0,1; second pairs components 3,2
    assert ab[0] == 1.0 + 2.0j
    assert ab[1] == 4.0 + 3.0j
    rng = np.random.default_rng(4)
    v = rng.normal(size=8)  # two quaternion entries
    np.testing.assert_array_equal(quat.ab_to_real(quat.real_to_ab(v)), v)


def test_kappa_is_right_multiplication_by_k_and_squares_to_minus_one():
    rng = np.random.default_rng(5)
    x = rng.normal(size=4)
    ab = quat.real_to_ab(x)
    k_unit = np.array([0.0, 0.0, 0.0, 1.0])
    np.testing.assert_allclose(quat.ab_to_real(quat.kappa(ab)),
                               quat.qmul(x, k_unit), atol=1e-13)
    np.testing.assert_allclose(quat.kappa(quat.kappa(ab)), -ab, atol=1e-13)
    # component formula: (a, b) -> (-conj b, conj a)
    a, b = ab
    out = quat.kappa(ab)
    assert out[0] == -np.conj(b)
    assert out[1] == np.conj(a)


def test_embed_matrix_structure_and_determinant():
    x = np.array([0.7, -0.2, 0.4, 1.1])
    a = 0.7 - 0.2j  # components 0,1
    b = 1.1 + 0.4j  # components 3,2
    M = quat.embed_M(x)
    np.testing.assert_allclose(M, [[a, -np.conj(b)], [b, np.conj(a)]], atol=0)
    assert abs(np.linalg.det(M) - quat.qnorm(x) ** 2) < 1e-13


def test_det_biquat_matches_closed_form_and_numpy():
    rng = np.random.default_rng(6)
    for _ in range(25):
        x = rng.normal(size=4)
        y = rng.normal(size=4)
        Z = quat.matrix_point(x, y)
        expected = quat.qnorm(x) ** 2 - quat.qnorm(y) ** 2 + 2j * np.dot(x, y)
        assert abs(quat.det_biquat(Z) - expected) < 1e-12
        assert abs(np.linalg.det(Z) - expected) < 1e-12


def test_matrix_point_is_its_definition():
    rng = np.random.default_rng(9)
    for n in (1, 2, 3):
        x = rng.normal(size=(5, 4 * n))
        y = rng.normal(size=(5, 4 * n))
        np.testing.assert_array_equal(
            quat.matrix_point(x, y), quat.embed_M(x) + 1j * quat.embed_M(y))
        # and it broadcasts x against y
        np.testing.assert_array_equal(
            quat.matrix_point(x, y[0]), quat.embed_M(x) + 1j * quat.embed_M(y[0]))
    with pytest.raises(ValueError):
        quat.matrix_point(np.ones(6), np.ones(6))


def test_decompose_matrix_inverts_matrix_point():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3):
        x = rng.normal(size=4 * n)
        y = rng.normal(size=4 * n)
        Z = quat.matrix_point(x, y)
        assert Z.shape == (2 * n, 2)
        x2, y2 = quat.decompose_matrix(Z)
        np.testing.assert_allclose(x2, x, rtol=0, atol=1e-14)
        np.testing.assert_allclose(y2, y, rtol=0, atol=1e-14)


def _decompose_by_formulas(z):
    """decompose_matrix's docstring formulas, block by block."""
    z00, z10 = z[..., 0::2, 0], z[..., 1::2, 0]
    z01, z11 = z[..., 0::2, 1], z[..., 1::2, 1]
    xab = np.empty(z.shape[:-1], dtype=complex)
    yab = np.empty_like(xab)
    xab[..., 0::2] = (z00 + np.conj(z11)) / 2
    xab[..., 1::2] = (z10 - np.conj(z01)) / 2
    yab[..., 0::2] = (z00 - np.conj(z11)) / 2j
    yab[..., 1::2] = (z10 + np.conj(z01)) / 2j
    return quat.ab_to_real(xab), quat.ab_to_real(yab)


def test_decompose_matrix_is_its_formulas_bit_for_bit():
    # one product with _POINT_MAP.T / 2 sums two exact halves per entry,
    # rounded once, as the formulas do
    P = quat._POINT_MAP
    np.testing.assert_array_equal(P.T @ P, 2.0 * np.eye(8))
    assert not np.signbit(P[P == 0]).any()  # no -0.0 entry
    rng = np.random.default_rng(10)
    for n in (1, 2, 3):
        for lead in ((), (7,), (3, 2)):
            shape = lead + (2 * n, 2)
            z = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            for got, want in zip(quat.decompose_matrix(z),
                                 _decompose_by_formulas(z)):
                assert _same_bits(got, want)
            # exact zeros of both signs: equal values
            z = np.where(rng.random(shape) < 0.5, 0.0, z) * np.where(
                rng.random(shape) < 0.5, 1.0, -1.0)
            for got, want in zip(quat.decompose_matrix(z),
                                 _decompose_by_formulas(z)):
                np.testing.assert_array_equal(got, want)


def test_embed_of_decompose_is_bitwise_identity_on_real_slice_matrices():
    rng = np.random.default_rng(8)
    for n in (1, 2):
        x = rng.normal(size=4 * n)
        M = quat.matrix_point(x, np.zeros(4 * n))
        x2, y2 = quat.decompose_matrix(M)
        assert np.array_equal(quat.embed_M(x2), M)
        assert np.all(y2 == 0.0)


def test_norm_C_combines_both_real_parts():
    x = np.array([3.0, 0.0, 0.0, 0.0])
    y = np.array([0.0, 4.0, 0.0, 0.0])
    assert abs(quat.norm_C(x, y) - 5.0) < 1e-13
    assert abs(quat.BiquaternionPoint(x, y).norm_C() - 5.0) < 1e-13


def test_biquaternion_point_roundtrip_and_det():
    rng = np.random.default_rng(9)
    x = rng.normal(size=8)
    y = rng.normal(size=8)
    pt = quat.BiquaternionPoint(x, y)
    assert pt.n == 2
    pt2 = quat.BiquaternionPoint.from_matrix(pt.matrix)
    np.testing.assert_allclose(pt2.x, x, rtol=0, atol=1e-14)
    np.testing.assert_allclose(pt2.y, y, rtol=0, atol=1e-14)
    diff = pt - quat.BiquaternionPoint(0.5 * x, 0.5 * y)
    expected = 0.5 * np.sqrt(np.dot(x, x) + np.dot(y, y))
    assert abs(diff.norm_C() - expected) < 1e-12

    one = quat.BiquaternionPoint(np.array([1.0, 0, 0, 0]),
                                 np.array([0.0, 2.0, 0, 0]))
    det = one.det()
    assert abs(det - (1.0 - 4.0 + 2j * 0.0)) < 1e-13

    try:
        pt.det()
    except ValueError:
        pass
    else:
        raise AssertionError("det() must reject vector-valued points")


def test_biquaternion_point_owns_read_only_copies():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    y = np.array([0.5, 0.0, -0.5, 0.0])
    pt = quat.BiquaternionPoint(x, y)
    x[0] = 99.0
    y[1] = 99.0
    assert pt.tolist() == {"x": [1.0, 2.0, 3.0, 4.0], "y": [0.5, 0.0, -0.5, 0.0]}
    for arr in (pt.x, pt.y, quat.BiquaternionPoint(x).y):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    with pytest.raises(ValueError, match="flat length must be 4n"):
        quat.BiquaternionPoint(np.zeros(3))
    with pytest.raises(ValueError, match="same number of entries"):
        quat.BiquaternionPoint(np.zeros(4), np.zeros(8))
    # a nested array is no flat point: it is refused, not flattened
    with pytest.raises(ValueError, match=r"must be flat, got shape \(2, 4\)"):
        quat.BiquaternionPoint(np.zeros((2, 4)))
    with pytest.raises(ValueError, match=r"must be flat, got shape \(2, 2\)"):
        quat.BiquaternionPoint([0.1, 0, 0, 0], [[0, 0.2], [0, 0]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_biquaternion_point_rejects_non_finite_coordinates(bad):
    with pytest.raises(ValueError, match="non-finite point coordinates"):
        quat.BiquaternionPoint([1.0, bad, 0.0, 0.0])
    with pytest.raises(ValueError, match="non-finite point coordinates"):
        quat.BiquaternionPoint(np.zeros(4), [0.0, 0.0, bad, 0.0])
    with pytest.raises(ValueError, match="non-finite point coordinates"):
        quat.BiquaternionPoint.from_matrix([[bad, 0.0], [0.0, 1.0]])


def test_biquaternion_point_rejects_an_overflowing_c_norm():
    # finite coordinates whose squares sum past the float range: the hull's
    # norms of x and y would be inf or NaN
    for x, y in (([1e200, 0, 0, 0], [0, 0, 0, 0]),
                 ([1e160, 0, 0, 0], [0, 1e160, 0, 0]),
                 ([0] * 7 + [1.5e154], [0] * 4 + [1e154, 0, 0, 0])):
        with pytest.raises(ValueError, match="squared C-norm overflows"):
            quat.BiquaternionPoint(x, y)
    with pytest.raises(ValueError, match="squared C-norm overflows"):
        quat.BiquaternionPoint.from_matrix([[1e200, 0.0], [0.0, 1.0]])
    big = quat.BiquaternionPoint([1e150, 0, 0, 0], [0, 1e150, 0, 0])
    assert big.norm_C() == pytest.approx(np.sqrt(2.0) * 1e150, rel=1e-15)


def _checked_in_turn(x, y=None):
    """The checks of a BiquaternionPoint one by one, in their order: x is
    flat, 4n and finite, then y, then the sizes agree, then the squared
    C-norm is finite; returns (x, y) or raises the first refusal."""
    def flat(a):
        a = np.array(a, dtype=float)
        if a.ndim != 1:
            raise ValueError("point coordinates must be flat, got shape %s"
                             % (a.shape,))
        if a.size % 4:
            raise ValueError("flat length must be 4n")
        if not np.isfinite(a).all():
            raise ValueError("non-finite point coordinates %s" % a.tolist())
        return a

    x = flat(x)
    y = flat(np.zeros_like(x) if y is None else y)
    if y.size != x.size:
        raise ValueError("x and y must have the same number of entries")
    if sum(v * v for v in x.tolist() + y.tolist()) == math.inf:
        raise ValueError("squared C-norm overflows at %s"
                         % {"x": x.tolist(), "y": y.tolist()})
    return x, y


def _outcome(make, *args):
    """What make(*args) gives: ("ok", x, y) or (exception type, message)."""
    try:
        out = make(*args)
    except (TypeError, ValueError) as e:
        return type(e), str(e)
    if isinstance(out, quat.BiquaternionPoint):
        out = out.x, out.y
    return ("ok",) + tuple(a.tolist() for a in out)


_NESTED = [[0.1, 0.0], [0.0, 0.2]]

# (x, y, the refusal's message); each refusal comes before the later
# checks the same input also fails
_REFUSALS = [
    (_NESTED, [0, 0.2, 0, 0], "point coordinates must be flat, got shape (2, 2)"),
    ([0.1, 0, 0, 0], [_NESTED[0] * 2], "point coordinates must be flat, got shape (1, 4)"),
    (_NESTED, [np.nan] * 3, "point coordinates must be flat, got shape (2, 2)"),
    (_NESTED, [[1.0], [2.0, 3.0]], "point coordinates must be flat, got shape (2, 2)"),
    (_NESTED, "abc", "point coordinates must be flat, got shape (2, 2)"),
    (1.0, 2.0, "point coordinates must be flat, got shape ()"),
    (np.float64(0.5), None, "point coordinates must be flat, got shape ()"),
    ([0, 0, 0], [0, 0, 0], "flat length must be 4n"),
    ([0, 0, 0], [np.nan, 0, 0, 0], "flat length must be 4n"),
    ([0, 0, 0, 0], [0] * 8, "x and y must have the same number of entries"),
    ([0] * 8, [0, 0, 0, 0], "x and y must have the same number of entries"),
    ([np.nan, 0, 0, 0], [0, 0, 0, 0], "non-finite point coordinates [nan, 0.0, 0.0, 0.0]"),
    ([0, np.inf, 0, 0], [0] * 8, "non-finite point coordinates [0.0, inf, 0.0, 0.0]"),
    ([0, 0, -np.inf, 0], [0, 0, 0, 0], "non-finite point coordinates [0.0, 0.0, -inf, 0.0]"),
    ([0, 0, 0, 0], [0, 0, 0, np.nan], "non-finite point coordinates [0.0, 0.0, 0.0, nan]"),
    ([0, 0, 0, 0], [np.inf, 0, 0, 0, 0, 0, 0, 0],
     "non-finite point coordinates [inf, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]"),
    ([1e200, 0, 0, 0], [-np.inf, 0, 0, 0], "non-finite point coordinates [-inf, 0.0, 0.0, 0.0]"),
    ([1e200, 0, 0, 0], [0, 0, 0, 0],
     "squared C-norm overflows at {'x': [1e+200, 0.0, 0.0, 0.0], 'y': [0.0, 0.0, 0.0, 0.0]}"),
    ([0, 0, 0, 0], [0, -1e200, 0, 0],
     "squared C-norm overflows at {'x': [0.0, 0.0, 0.0, 0.0], 'y': [0.0, -1e+200, 0.0, 0.0]}"),
    ([1e154, 1e154, 0, 0], [1e154, 0, 0, 0],
     "squared C-norm overflows at {'x': [1e+154, 1e+154, 0.0, 0.0], 'y': [1e+154, 0.0, 0.0, 0.0]}"),
]


@pytest.mark.parametrize("x, y, message", _REFUSALS)
def test_biquaternion_point_refuses_in_order_with_its_message(x, y, message):
    # one pass over the coordinates finds a fault; the refusal is that of
    # the checks in turn, with the same message, and nothing warns first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as exc:
            quat.BiquaternionPoint(x, y)
        assert str(exc.value) == message
        assert _outcome(quat.BiquaternionPoint, x, y) == _outcome(
            _checked_in_turn, x, y)


def test_a_point_without_y_is_on_the_real_slice():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pt = quat.BiquaternionPoint([1, 2, 3, 4])
    assert pt.x.dtype == pt.y.dtype == np.float64
    assert pt.tolist() == {"x": [1.0, 2.0, 3.0, 4.0], "y": [0.0] * 4}
    assert not np.signbit(pt.y).any()
    assert not np.shares_memory(pt.x, pt.y)
    assert not (pt.x.flags.writeable or pt.y.flags.writeable)


def test_a_hull_query_keeps_its_own_copy_of_sigma():
    # the query's point is read-only copies: changing the caller's arrays
    # after the query leaves query.sigma as it was
    from fueter import domains, hull

    x = np.array([0.1, 0.2, -0.1, 0.0])
    y = np.array([0.0, 0.3, 0.0, 0.1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        query = hull.hull_contains((x, y), domains.Ball(1))
    x[:] = 7.0
    y[:] = np.nan
    assert query.sigma.tolist() == {"x": [0.1, 0.2, -0.1, 0.0],
                                    "y": [0.0, 0.3, 0.0, 0.1]}


_FAULTY = st.one_of(
    st.floats(-4.0, 4.0), st.sampled_from([0.0, -0.0, np.nan, np.inf,
                                           -np.inf, 1e154, -1e200]))


@st.composite
def _point_args(draw):
    def coords():
        shape = draw(st.sampled_from([(4,), (4,), (8,), (3,), (), (2, 4)]))
        return draw(hnp.arrays(np.float64, shape, elements=_FAULTY))

    x = coords()
    y = coords() if draw(st.booleans()) else None
    if draw(st.booleans()):
        x = x.tolist()
    return x, y


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_point_args())
def test_biquaternion_point_is_its_checks_in_turn(args):
    # any mix of faults: the same point, or the same first refusal
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _outcome(quat.BiquaternionPoint, *args) == _outcome(
            _checked_in_turn, *args)


# finite coordinates with exact zeros of both signs mixed in
_COORD = st.one_of(st.floats(-4.0, 4.0, allow_subnormal=False),
                   st.sampled_from([0.0, -0.0]))


@st.composite
def _line_case(draw):
    n = draw(st.sampled_from([1, 2, 3]))
    k = draw(st.integers(1, 40))
    batched = draw(st.booleans())
    lead = (k,) if batched else ()
    x = draw(hnp.arrays(np.float64, lead + (4 * n,), elements=_COORD))
    y = draw(hnp.arrays(np.float64, lead + (4 * n,), elements=_COORD))
    q = draw(hnp.arrays(np.float64, (k, 4), elements=_COORD))
    if draw(st.booleans()):
        q[:, 0] = draw(st.sampled_from([0.0, -0.0]))  # imaginary q
    return x, y, q


def _same_bits(a, b):
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_line_case())
def test_right_line_is_x_plus_y_q_bit_for_bit(case):
    # the prebuilt line map adds qmul's terms in qmul's order, so it equals
    # x + qmul_right(y, q) exactly, signed zeros included, and each row of
    # a batch equals the one-row call
    x, y, q = case
    line = quat.right_line(x, y)
    out = line(q)
    assert _same_bits(out, x + quat.qmul_right(y, q))
    assert out.flags.c_contiguous
    for i in range(len(q)):
        if x.ndim == 1:
            row = line(q[i])
        else:
            row = quat.right_line(x[i], y[i])(q[i])
        assert _same_bits(row, out[i])


_TINY = np.finfo(float).tiny


def _qnorm_quietly(x):
    """quat.qnorm(x), failing on any RuntimeWarning (overflow, invalid)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return quat.qnorm(x)


@st.composite
def _norm_rows(draw, elements):
    n = draw(st.sampled_from([1, 2, 4]))
    lead = draw(st.sampled_from([(), (0,), (3,), (2, 5)]))
    return draw(hnp.arrays(np.float64, lead + (4 * n,), elements=elements))


# entries of at most 11 bits at exponents -20..20 (or 0): ldexp keeps them
# exact far into the subnormal range, and their squares are normal
_SHORT = st.one_of(st.builds(math.ldexp, st.integers(-1024, 1024),
                             st.integers(-30, 10)),
                   st.sampled_from([0.0, -0.0]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_norm_rows(_SHORT), st.integers(-1090, 0))
def test_qnorm_scales_by_powers_of_two_exactly(x, k):
    # qnorm(x 2^k) = qnorm(x) 2^k bit for bit wherever the result is
    # normal, also where the squares of x 2^k underflow and it is scaled
    # back.  Left out: a normal sum with subnormal squares in it, which is
    # rounded twice and must equal the unscaled formula there (below)
    z = np.ldexp(x, k)
    assume(np.array_equal(np.ldexp(z, -k), x))
    got = np.asarray(_qnorm_quietly(z))
    want = np.ldexp(np.asarray(_qnorm_quietly(x)), k)
    sq = z * z
    rounded_twice = ((np.add.reduce(sq, axis=-1) >= _TINY)
                     & ((sq > 0) & (sq < _TINY)).any(axis=-1))
    keep = (want >= _TINY) & ~rounded_twice
    assert np.array_equal(got[keep], want[keep])


# any magnitude from 0 through the subnormals up to 2^500, whose squares
# cannot overflow
_ANY = st.one_of(st.builds(math.ldexp, st.floats(-1.0, 1.0),
                           st.integers(-1080, 500)),
                 st.sampled_from([0.0, -0.0]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_norm_rows(_ANY))
def test_qnorm_is_the_plain_formula_where_the_sum_is_normal(x):
    # bit for bit sqrt(add.reduce(x * x)) wherever that sum is normal; a
    # row below it reads its true norm, within rounding (an ulp where the
    # norm itself is subnormal), and is 0 only for a zero row
    got = np.asarray(_qnorm_quietly(x))
    s = np.add.reduce(x * x, axis=-1)
    normal = s >= _TINY
    assert np.array_equal(got[normal], np.sqrt(s)[normal])
    m = np.abs(x).max(axis=-1)
    low = ~normal
    assert np.all((got[low] > 0) == (m[low] > 0))
    scale = np.where(m > 0, m, 1.0)
    true = np.linalg.norm(x / scale[..., None], axis=-1) * scale
    assert np.allclose(got[low], true[low], rtol=4e-16, atol=5e-324)
