"""Line bundles on the sphere: clutching, quadrature, and cohomology."""

import decimal
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fueter import cp1


def _riemann_plane_integral(g, half_width=60.0, step=0.05):
    """Brute midpoint Riemann sum of (1/pi) * integral of g over the plane.

    Independent cross-check of the radial/angular product quadrature; only
    accurate for integrands decaying at least like |z|^-6.
    """
    xs = np.arange(-half_width + step / 2.0, half_width, step)
    total = 0.0 + 0.0j
    for ys in np.array_split(xs, 50):
        z = xs[None, :] + 1j * ys[:, None]
        total += np.sum(g(z))
    return total * step ** 2 / np.pi


def test_quadrature_config_validation():
    with pytest.raises(ValueError):
        cp1.QuadratureConfig(n_radial=4)
    with pytest.raises(ValueError):
        cp1.QuadratureConfig(n_angular=6)
    cfg = cp1.QuadratureConfig(32, 16)
    finer = cfg.refined()
    assert finer.n_radial > cfg.n_radial and finer.n_angular > cfg.n_angular
    # a node count is an integer, never truncated (96.9 once became 96)
    for counts in ((96.9, 64), (96, 64.5), (np.nan, 64), (96, np.inf)):
        with pytest.raises(ValueError, match="must be an integer"):
            cp1.QuadratureConfig(*counts)
    # NaN or a negative tolerance refused every coefficient, and inf
    # certified anything
    for tol in (np.nan, -1.0, 0.0, np.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            cp1.QuadratureConfig(target_tol=tol)
    # numpy integers and integral floats are counts; the default rule and
    # BUMP_GRADE's settings pass
    cfg = cp1.QuadratureConfig(np.int64(96), 64.0, np.float32(1e-6))
    assert (cfg.n_radial, cfg.n_angular) == (96, 64)
    assert type(cfg.n_radial) is int and type(cfg.n_angular) is int
    bump = cp1.BUMP_GRADE
    again = cp1.QuadratureConfig(bump.n_radial, bump.n_angular, bump.target_tol)
    assert repr(again) == repr(bump) and again.target_tol == bump.target_tol
    assert repr(cp1.QuadratureConfig()) == "QuadratureConfig(96, 64)"


def test_quadrature_nodes_are_shared_and_read_only():
    Z, W = cp1.quadrature_nodes()
    for arr in (Z, W):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    # an equal config, default or not, gets the very same arrays
    again = cp1.quadrature_nodes(cp1.QuadratureConfig(96, 64))
    assert again[0] is Z and again[1] is W
    finer = cp1.QuadratureConfig(48, 32).refined()
    assert cp1.quadrature_nodes(finer)[0] is Z


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 9, 96, 1536])
def test_gauss_legendre_is_exact_on_monomials_below_degree_2n(n):
    x, w = cp1._gauss_legendre(n)
    k = np.arange(2 * n)
    got = np.power(x[None, :], k[:, None]) @ w
    scale = 2.0 / (k + 1)                     # the integral of |x|^k
    exact = np.where(k % 2 == 0, scale, 0.0)
    # rounding a node to double moves x^k by up to k ulps relative, so the
    # bound grows with k; numpy's eigensolver rule exceeds it 3-fold at n = 96
    # and 140-fold at n = 1536
    bound = 4.0 * (k + 1) * np.finfo(float).eps * scale
    assert np.all(np.abs(got - exact) <= bound)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 8, 9, 33, 96, 1536, 3072])
def test_gauss_legendre_nodes_and_weights_are_well_formed(n):
    x, w = cp1._gauss_legendre(n)
    assert x.shape == w.shape == (n,)
    assert np.all(w > 0) and abs(w.sum() - 2.0) < 1e-14
    assert -1.0 < x[0] and x[-1] < 1.0 and np.all(np.diff(x) > 0)
    np.testing.assert_array_equal(x, -x[::-1])
    np.testing.assert_array_equal(w, w[::-1])


def test_small_gauss_legendre_rules_match_their_closed_forms():
    eps = np.finfo(float).eps
    rules = {1: ([0.0], [2.0]),
             2: ([-1 / np.sqrt(3), 1 / np.sqrt(3)], [1.0, 1.0]),
             3: ([-np.sqrt(0.6), 0.0, np.sqrt(0.6)], [5 / 9, 8 / 9, 5 / 9])}
    for n, (nodes, weights) in rules.items():
        x, w = cp1._gauss_legendre(n)
        np.testing.assert_allclose(x, nodes, rtol=0, atol=2 * eps)
        np.testing.assert_allclose(w, weights, rtol=8 * eps, atol=0)
        if n % 2:
            assert x[n // 2] == 0.0


def _decimal_gauss_legendre_node(n, x0):
    """The root of P_n next to x0, its weight and its radius (1+x)/(1-x).

    To 50 digits, by Newton's method on the three-term recurrence in decimal
    arithmetic.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        x = decimal.Decimal(x0)

        def legendre(x):
            p0, p1 = decimal.Decimal(1), x
            for k in range(1, n):
                p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
            return p1, n * (x * p1 - p0) / ((x - 1) * (x + 1))

        for _ in range(8):
            p, dp = legendre(x)
            x -= p / dp
            if abs(p / dp) < decimal.Decimal(10) ** -40:
                break
        _, dp = legendre(x)
        return x, 2 / ((1 - x) * (1 + x) * dp * dp), (1 + x) / (1 - x)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 33, 96, 1536])
def test_gauss_legendre_matches_a_50_digit_reference(n):
    # the four outermost and the two innermost nonnegative nodes, and the
    # radii the plane rule puts them at.  Newton's root theta of P_n(cos
    # theta) is within about 2u theta of the true one (u = eps/2), as the
    # phase (n+1/2) theta rounds to an ulp of its size: x = cos(theta) is
    # then within 2 eps, absolute.  r = cot^2(theta/2) carries 2 dtheta /
    # sin(theta) and three roundings: 4 eps relative at the outer radii.  The
    # weight 2 / (dP/dtheta)^2 doubles the error of dP/dtheta, a sum of
    # terms each rounded about four times, and adds the root's offset and
    # two roundings: 8 eps relative.  The rule by the Legendre recurrence
    # in x misses the outermost weight and radius by about 7e-11 at n = 1536
    eps = np.finfo(float).eps
    x, w = cp1._gauss_legendre(n)
    r = cp1._nodes.__wrapped__(n, 8)[0][::8].real  # past the rule cache
    outer = range(n - 1, max(n - 5, n // 2 - 1), -1)
    inner = range(n // 2, min(n // 2 + 2, n))
    for i in sorted(set(outer) | set(inner)):
        x_ref, w_ref, r_ref = map(float, _decimal_gauss_legendre_node(n, x[i]))
        assert abs(x[i] - x_ref) <= 2 * eps, (i, x[i], x_ref)
        assert abs(w[i] - w_ref) <= 8 * eps * w_ref, (i, w[i], w_ref)
        if i in outer:
            assert abs(r[i] - r_ref) <= 4 * eps * r_ref, (i, r[i], r_ref)


def test_gauss_legendre_nodes_match_numpy():
    x, _ = cp1._gauss_legendre(96)
    ref, _ = np.polynomial.legendre.leggauss(96)
    assert np.max(np.abs(x - ref)) <= 1e-15


def test_gauss_legendre_resolves_an_edge_layer():
    # exp(50(x-1)) lives within ~0.02 of x = 1; numpy's rule misses the
    # integral by ~6e-12 relative at this node count
    x, w = cp1._gauss_legendre(1536)
    exact = -np.expm1(-100.0) / 50.0
    assert abs(np.sum(w * np.exp(50.0 * (x - 1.0))) - exact) <= 1e-13 * exact


def test_odd_radial_node_count_builds_a_rule():
    Z, W = cp1.quadrature_nodes(cp1.QuadratureConfig(33, 16))
    assert Z.shape == W.shape == (33 * 16,)
    assert np.all(W > 0) and np.all(np.isfinite(Z))
    g = lambda z: 2.0 / (1 + z * np.conj(z)) ** 3
    assert abs(cp1.quadrature_C(g, cp1.QuadratureConfig(33, 16)) - 1.0) < 1e-8


def test_quadrature_against_brute_riemann_sum():
    profiles = [
        lambda z: 2.0 / (1 + z * np.conj(z)) ** 3,
        lambda z: (1.3 - 0.4j + (0.2 + 0.9j) * np.conj(z))
        * 2.0 / (1 + z * np.conj(z)) ** 3,
    ]
    for g in profiles:
        brute = _riemann_plane_integral(g)
        fast = cp1.quadrature_C(g)
        assert abs(brute - fast) < 1e-6


def test_quadrature_exact_moments_of_the_round_profile():
    # the weight-(-3) round profile integrates to exactly 1 against both
    # monomials that index the cohomology coefficients
    g0 = lambda z: 2.0 / (1 + z * np.conj(z)) ** 3
    g1 = lambda z: 2.0 * z * np.conj(z) / (1 + z * np.conj(z)) ** 3
    assert abs(cp1.quadrature_C(g0) - 1.0) < 1e-12
    assert abs(cp1.quadrature_C(g1) - 1.0) < 1e-12


def test_quadrature_doubling_check_flags_divergent_integrands():
    # a degree -2 form has one moment, the plain integral, and the doubled
    # rule of cohomology_coefficients checks it
    slow = lambda z: 1.0 / (1 + z * np.conj(z))  # log-divergent tail
    with pytest.raises(cp1.QuadratureError):
        cp1.cohomology_coefficients(cp1.Form01(-2, slow, None))


def test_harmonic_representative_clutches_and_collapses():
    rng = np.random.default_rng(40)
    for _ in range(10):
        a0 = complex(rng.normal(), rng.normal())
        a1 = complex(rng.normal(), rng.normal())
        w = cp1.harmonic_representative(a0, a1)
        assert w.k == -3
        report = cp1.validate_form(w)
        assert report["ok"] is True
        c0, c1 = cp1.cohomology_coefficients(w)
        assert abs(c0 - a0) < 1e-10 * max(1.0, abs(a0))
        assert abs(c1 - a1) < 1e-10 * max(1.0, abs(a1))


def test_batched_harmonic_coefficients_match_the_scalar_ones():
    rng = np.random.default_rng(43)
    a = rng.normal(size=(3, 4, 2)) + 1j * rng.normal(size=(3, 4, 2))
    w = cp1.harmonic_representative(a[..., 0], a[..., 1])
    z = np.array([0.3 + 0.1j, -2.0j])
    assert w.h0(z).shape == w.h1(z).shape == (3, 4, 2)
    c = cp1.cohomology_coefficients(w)
    assert c.shape == (3, 4, 2)
    for i in np.ndindex(3, 4):
        one = cp1.cohomology_coefficients(cp1.harmonic_representative(*a[i]))
        assert one.shape == (2,)
        # bit for bit: the product with the table is elementwise, where a
        # BLAS product of a batch and of one pair may round differently
        assert c[i].tobytes() == one.tobytes()
    assert cp1.validate_form(w)["ok"] is True
    with pytest.raises(ValueError):
        cp1.harmonic_representative(np.ones(3), np.ones(2))


def test_coefficients_are_linear():
    w1 = cp1.harmonic_representative(1.0, -2.0j)
    w2 = cp1.harmonic_representative(0.5j, 0.25)
    combo = cp1.Form01(-3,
                       lambda z: 3.0 * w1.h0(z) + 2.0j * w2.h0(z),
                       lambda z: 3.0 * w1.h1(z) + 2.0j * w2.h1(z))
    got = np.asarray(cp1.cohomology_coefficients(combo))
    expected = (3.0 * np.asarray(cp1.cohomology_coefficients(w1))
                + 2.0j * np.asarray(cp1.cohomology_coefficients(w2)))
    np.testing.assert_allclose(got, expected, atol=1e-10)


def test_coefficient_count_matches_the_weight():
    for k, dim in ((-2, 1), (-3, 2), (-5, 4)):
        w = cp1.exact_form(k, p=0, q=0, r_in=0.4, r_out=1.6)
        coeffs = cp1.cohomology_coefficients(w, cfg=cp1.BUMP_GRADE)
        assert len(coeffs) == dim
        assert cp1.h1_dimension(k) == dim
    assert cp1.h1_dimension(-1) == 0
    assert cp1.h1_dimension(0) == 0
    assert cp1.h1_dimension(3) == 0
    assert cp1.h1_dimension(np.int64(-3)) == cp1.h1_dimension(-3.0) == 2
    with pytest.raises(ValueError):
        cp1.cohomology_coefficients(cp1.Form01(-1, lambda z: 0 * z,
                                               lambda z: 0 * z))


def test_exact_forms_have_vanishing_coefficients():
    rng = np.random.default_rng(41)
    for _ in range(6):
        p = int(rng.integers(0, 3))
        q = int(rng.integers(0, 3))
        w = cp1.exact_form(-3, p=p, q=q,
                           r_in=float(rng.uniform(0.3, 0.6)),
                           r_out=float(rng.uniform(1.8, 3.0)))
        coeffs = cp1.cohomology_coefficients(w, cfg=cp1.BUMP_GRADE)
        assert np.abs(np.asarray(coeffs)).max() < 1e-5


@pytest.mark.parametrize("r_in,r_out", [(-1.0, 2.0), (2.0, 1.0), (1.0, 1.0),
                                        (0.5, np.inf), (np.nan, 2.0),
                                        (0.5, np.nan)])
def test_exact_form_refuses_radii_outside_an_annulus(r_in, r_out):
    # a negative r_in once gave a form with a_0 = -0.32, and r_in >= r_out
    # the zero form
    with pytest.raises(ValueError, match="0 <= r_in < r_out"):
        cp1.exact_form(-3, r_in=r_in, r_out=r_out)
    with pytest.raises(ValueError, match="0 <= r_in < r_out"):
        cp1.Form01(-3, None, None, support=(r_in, r_out))


def test_exact_form_takes_a_bump_from_the_origin():
    w = cp1.exact_form(-3, p=1, q=1, r_in=0.0, r_out=2.0)
    assert w.h0(np.array([0.0j]))[0] == 0
    coeffs = cp1.cohomology_coefficients(w, cfg=cp1.BUMP_GRADE)
    assert np.abs(np.asarray(coeffs)).max() < 1e-5


def _exact_h0_by_mask(p, q, r_in, r_out):
    """``exact_form``'s h0 as it was: the closed form on the gathered
    support nodes, scattered into zeros."""
    mid = (r_out + r_in) / 2.0
    half = (r_out - r_in) / 2.0

    def monomial(z, p, q):
        out = np.ones_like(z)
        for _ in range(p):
            out = out * z
        zc = np.conj(z)
        for _ in range(q):
            out = out * zc
        return out

    def h0(z):
        z = np.asarray(z, dtype=complex)
        r = np.abs(z)
        out = np.zeros_like(z)
        nz = (r > 0) & (np.abs(r - mid) < half)
        zz = z[nz]
        rr = r[nz]
        t = (rr - mid) / half
        s = 1.0 - t * t
        e = np.exp(-1.0 / s)
        if q:
            out[nz] = e * (q - t * rr / (s * s * half)) * monomial(zz, p, q - 1)
        else:
            out[nz] = e * (-t / (s * s * half * rr)) * monomial(zz, p + 1, 0)
        return out

    return h0


@st.composite
def _annulus_nodes(draw):
    """Radii 0 <= r_in < r_out and nodes inside, outside and on the edges
    of their annulus: z = 0, |z| = r_in or r_out exactly (and one ulp
    either side), on the axes with signed zeros, and at random angles."""
    r_in = draw(st.one_of(st.just(0.0), st.floats(1e-3, 2.0)))
    r_out = r_in + draw(st.floats(1e-3, 3.0))
    edges = [0.0, r_in, r_out, (r_in + r_out) / 2]
    edges += [np.nextafter(r, s) for r in (r_in, r_out) for s in (0.0, np.inf)]
    radius = st.one_of(st.sampled_from(edges), st.floats(0.0, 2 * r_out))
    axis = st.tuples(radius, st.sampled_from([1.0, -1.0]), st.booleans()).map(
        lambda t: complex(0.0 * t[1], t[0] * t[1]) if t[2]
        else complex(t[0] * t[1], -0.0 * t[1]))
    polar = st.tuples(radius, st.floats(0, 2 * np.pi)).map(
        lambda t: t[0] * complex(np.cos(t[1]), np.sin(t[1])))
    z = draw(st.lists(st.one_of(axis, polar), min_size=1, max_size=30))
    return r_in, r_out, np.array(z, dtype=complex)


@settings(max_examples=300, deadline=None)
@given(p=st.sampled_from([0, 1, 2]), q=st.sampled_from([0, 1, 2]),
       case=_annulus_nodes())
def test_exact_form_h0_keeps_the_values_of_the_masked_evaluation(p, q, case):
    # evaluated at every node and zeroed off the support, h0 equals the old
    # gather-and-scatter form (up to the sign of a zero), and the warnings
    # of the thrown-away nodes stay silenced
    r_in, r_out, z = case
    want = _exact_h0_by_mask(p, q, r_in, r_out)(z)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = cp1.exact_form(-3, p=p, q=q, r_in=r_in, r_out=r_out).h0(z)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


@st.composite
def _polar_annulus(draw):
    r_in = draw(st.one_of(st.just(0.0), st.floats(0.0, 2.9)))
    r_out = draw(st.floats(r_in, 3.0, exclude_min=True))
    return r_in, r_out


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(-8, -2),
       _polar_annulus())
@example(0, 0, -3, (0.0, 1.5))
@example(1, 2, -3, (0.4, 2.5))
@example(2, 0, -3, (0.3, 0.6))
@example(0, 1, -3, (0.45, 2.3))
@example(2, 2, -3, (0.5, 2.0))
def test_exact_form_row_sums_match_the_node_sum_within_both_bounds(
        p, q, k, annulus):
    # the polar row sum and the node sum of the same h0 (a form without
    # the polar declaration) sum the same terms in different ways, on the
    # bump grade and on its doubled rule; the row sum's bound is the
    # tighter of the two
    w = cp1.exact_form(k, p=p, q=q, r_in=annulus[0], r_out=annulus[1])
    node = cp1.Form01(k, w.h0, w.h1, support=w.support)
    assert w.polar is not None and node.polar is None
    # the largest finite tolerance, so every bound is returned
    cfg = cp1.QuadratureConfig(cp1.BUMP_GRADE.n_radial,
                               cp1.BUMP_GRADE.n_angular,
                               target_tol=np.finfo(float).max)
    for rule in (cfg, cfg.refined()):
        got, bound = cp1._certified_moments(w, rule)
        ref, ref_bound = cp1._certified_moments(node, rule)
        assert got.shape == ref.shape == (-k - 1,)
        assert np.all(np.abs(got - ref) <= bound + ref_bound)
        assert np.all(bound <= ref_bound)


def test_exact_form_coefficients_never_build_the_node_grid():
    # the row sums read the radial rule alone: neither the bump grade's
    # 1536 x 96 grid nor its doubled 3072 x 192 one is built
    w = cp1.exact_form(-3, p=1, q=2, r_in=0.45, r_out=2.3)
    for check in (False, True):
        cp1._nodes.cache_clear()
        cp1.cohomology_coefficients(w, cp1.BUMP_GRADE, check=check)
        assert cp1._nodes.cache_info().currsize == 0


@pytest.mark.parametrize("key,value,message", [
    ("p", -2, "p must be a nonnegative integer, not -2"),
    ("q", -1, "q must be a nonnegative integer, not -1"),
    ("p", 1.5, "p must be an integer, not 1.5"),
    ("q", np.nan, "q must be an integer, not nan"),
    ("q", "1", "q must be an integer, not '1'")])
def test_exact_form_refuses_a_negative_or_non_integral_power(key, value,
                                                              message):
    # q = -1 once gave a_0 = -1.665: _monomial read the negative count as
    # an empty product, so h0 was not dbar(phi z^p conj(z)^q)
    with pytest.raises(ValueError, match=message):
        cp1.exact_form(-3, **{key: value})


def test_a_polar_declaration_takes_nonnegative_integer_powers():
    # exact_form's h0 = radial(|z|) z^p conj(z)^(q-1); numpy integers and
    # integral floats are read as ints
    w = cp1.exact_form(-3, p=np.int64(1), q=2.0)
    assert w.polar[1:] == (1, 1) and type(w.polar[1]) is int
    for a, b in ((-1, 0), (0, 1.5)):
        with pytest.raises(ValueError, match="must be"):
            cp1.Form01(-3, None, None, polar=(abs, a, b))
    with pytest.raises(ValueError, match="a factored form"):
        cp1.Form01(-3, None, None, coeffs=[1.0, 0.0],
                   basis=cp1.harmonic_basis, polar=(abs, 0, 0))


def test_bump_sections_clutch_and_differentiate():
    p, q, r_in, r_out = 1, 1, 0.4, 2.2
    w = cp1.exact_form(-3, p=p, q=q, r_in=r_in, r_out=r_out)
    assert cp1.validate_form(w)["ok"] is True
    # chart-0 part of the exact form is the antiholomorphic derivative of
    # the section's chart-0 part f0: check by central differences
    mid, half = (r_out + r_in) / 2.0, (r_out - r_in) / 2.0

    def f0(z):
        return cp1.bump((abs(z) - mid) / half) * z ** p * np.conj(z) ** q

    rng = np.random.default_rng(42)
    for _ in range(10):
        z = complex(rng.uniform(0.45, 2.1), 0) * np.exp(
            2j * np.pi * rng.uniform())
        h = 1e-5
        d_real = (f0(z + h) - f0(z - h)) / (2 * h)
        d_imag = (f0(z + 1j * h) - f0(z - 1j * h)) / (2 * h)
        dbar = (d_real + 1j * d_imag) / 2.0
        assert abs(dbar - w.h0(z)) < 1e-7 * max(1.0, abs(w.h0(z)))


def test_validators_reject_wrong_weights():
    good = cp1.harmonic_representative(1.0, 1.0)
    mislabeled = cp1.Form01(-2, good.h0, good.h1)
    report = cp1.validate_form(mislabeled)
    assert report["ok"] is False
    assert report["max_violation"] > 1e-3


def test_decay_check_classifies_tails():
    # a form on Q_k with the generic chart-0 tail z^(k-2) passes: z^ell h0
    # decays for ell < -k + 2 and stays bounded at ell = -k + 2
    k = -3
    tail = cp1.Form01(k, lambda z: z ** (k - 2), None)
    assert cp1.decay_check(tail, ell=0) is True
    assert cp1.decay_check(tail, ell=-k + 2) is True
    growing = cp1.Form01(k, lambda z: z ** 2, None)
    assert cp1.decay_check(growing, ell=0) is False
    short = cp1.Form01(k, lambda z: z ** (k - 1), None)
    assert cp1.decay_check(short, ell=-k + 2) is False
    w = cp1.harmonic_representative(1.0, 1.0)
    assert cp1.decay_check(w, ell=0) is True
    assert cp1.decay_check(w, ell=1) is True


def test_quadrature_error_on_under_resolved_integrands():
    cfg = cp1.QuadratureConfig(16, 8, target_tol=1e-12)
    wild = lambda z: np.cos(40.0 * np.real(z)) / (1 + z * np.conj(z)) ** 3
    with pytest.raises(cp1.QuadratureError):
        cp1.cohomology_coefficients(cp1.Form01(-2, wild, None), cfg)


def _harmonic_profile(z):
    return 2.0 / (1.0 + np.abs(z) ** 2) ** 3


def _aliased_profile(z):
    # e^{64 i phi} is a constant on the default 64-node angular grid and
    # integrates to zero on the doubled one
    return np.exp(64j * np.angle(z)) * _harmonic_profile(z)


def test_checked_quadrature_returns_the_refined_value():
    cfg = cp1.QuadratureConfig()
    w = cp1.Form01(-2, _harmonic_profile, None)
    (val,) = cp1.cohomology_coefficients(w, cfg)
    (refined,) = cp1.cohomology_coefficients(w, cfg.refined(), check=False)
    assert val == refined
    assert abs(val - 1.0) < 1e-12
    # the one moment of a degree -2 form is the plain integral, up to the
    # rounding of a sum in another order
    assert abs(val - cp1.quadrature_C(_harmonic_profile, cfg.refined())) \
        < 1e-13


def test_coefficients_raise_when_the_doubled_rule_disagrees():
    w = cp1.Form01(-3, _aliased_profile, None)
    coarse = cp1.cohomology_coefficients(w, check=False)
    assert abs(coarse[0] - 1.0) < 1e-6  # the alias reads as the profile
    with pytest.raises(cp1.QuadratureError, match="coefficient quadrature "
                                                  "not converged"):
        cp1.cohomology_coefficients(w)


def test_coefficients_refuse_what_their_rounding_bound_cannot_certify():
    # z^ell h0 is as large as 3^38 on the support at k = -40 and 2^58 at
    # k = -60, so the cancelling sums keep rounding far above target_tol
    # (k = -40 once passed with |a_38| = 666, where a = 0); they are refused
    for w in (cp1.exact_form(-60),
              cp1.exact_form(-40, p=1, q=2, r_in=0.3, r_out=3.0)):
        for check in (False, True):
            with pytest.raises(cp1.QuadratureError, match="not certified"):
                cp1.cohomology_coefficients(w, cp1.BUMP_GRADE, check=check)


def test_coefficients_refuse_an_overflowed_moment():
    # without a support the whole rule is summed, and z^ell overflows on the
    # outer nodes of the bump grade before ell = 58; the coefficients are
    # refused, not returned as NaN, and no overflow warning escapes
    # (RuntimeWarnings fail the test)
    w = cp1.exact_form(-60)
    whole = cp1.Form01(w.k, w.h0, w.h1)
    for check in (False, True):
        with pytest.raises(cp1.QuadratureError, match="non-finite coefficients"):
            cp1.cohomology_coefficients(whole, cp1.BUMP_GRADE, check=check)


def test_certified_coefficients_carry_small_bounds():
    w = cp1.exact_form(-3, p=1, q=2, r_in=0.4, r_out=2.5)
    out, bound = cp1._certified_moments(w, cp1.BUMP_GRADE)
    assert bound.shape == out.shape == (2,)
    assert np.all(bound < 1e-9)
    w = cp1.harmonic_representative(np.array([1.0, 2j]), np.array([0.5, -1]))
    out, bound = cp1._certified_moments(w, cp1.QuadratureConfig())
    assert bound.shape == out.shape == (2, 2)
    assert np.all(bound < 1e-11)


# the bump grade's node radii, read as _nodes lays them out; a support
# radius may fall exactly on one
_BUMP_RADII = cp1.quadrature_nodes(cp1.BUMP_GRADE)[0][::cp1.BUMP_GRADE.n_angular].real
_SUPPORT_RADII = st.one_of(st.just(0.0), st.floats(0.0, 3.0),
                           st.sampled_from(_BUMP_RADII[_BUMP_RADII <= 3.0].tolist()))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(0, 2), st.integers(0, 2), st.integers(-8, -2),
       _SUPPORT_RADII, _SUPPORT_RADII)
def test_support_sums_match_the_whole_rule(p, q, k, a, b):
    assume(a != b)
    w = cp1.exact_form(k, p=p, q=q, r_in=min(a, b), r_out=max(a, b))
    whole = cp1.Form01(k, w.h0, w.h1)
    # the bump grade's nodes with the largest finite tolerance, so every
    # bound is returned
    cfg = cp1.QuadratureConfig(cp1.BUMP_GRADE.n_radial,
                               cp1.BUMP_GRADE.n_angular,
                               target_tol=np.finfo(float).max)
    got, bound = cp1._certified_moments(w, cfg)
    ref, ref_bound = cp1._certified_moments(whole, cfg)
    # both sum the same nonzero terms, in different orders
    assert np.all(np.abs(got - ref) <= bound + ref_bound)
    # and h0 is exactly zero on every node the support sum skips
    Z, _ = cp1.quadrature_nodes(cfg)
    lo, hi, _ = cp1._support_rows(w.support, cfg).indices(cfg.n_radial)
    skipped = np.ones(Z.size, dtype=bool)
    skipped[lo * cfg.n_angular:hi * cfg.n_angular] = False
    assert not w.h0(Z)[skipped].any()


@settings(max_examples=6, deadline=None, derandomize=True)
@given(st.integers(-8, -3), st.integers(0, 2), st.integers(0, 2),
       st.floats(0.3, 0.6), st.floats(1.8, 3.0))
@example(-3, 1, 2, 0.45, 2.3)
def test_forms_pick_their_own_rule(k, p, q, r_in, r_out):
    # a form with a support gets the bump grade; the default 96x64 rule
    # reads |a_0| = 0.26 for exact_form(-3, p=1, q=2, r_in=0.45, r_out=2.3)
    w = cp1.exact_form(k, p=p, q=q, r_in=r_in, r_out=r_out)
    got = cp1.cohomology_coefficients(w, check=False)
    want = cp1.cohomology_coefficients(w, cp1.BUMP_GRADE, check=False)
    assert got.tobytes() == want.tobytes()
    assert np.abs(cp1.cohomology_coefficients(w)).max() < 1e-5
    # the same form without a support gets the default rule
    whole = cp1.Form01(k, w.h0, w.h1)
    got = cp1.cohomology_coefficients(whole, check=False)
    want = cp1.cohomology_coefficients(whole, cp1.QuadratureConfig(),
                                       check=False)
    assert got.tobytes() == want.tobytes()


def test_a_non_integral_degree_is_refused():
    # h1_dimension(-3.7) once read 2 and Form01(-3.5, ...) degree -3
    for k in (-3.7, -3.5, 2.5, np.float64(-2.25), np.nan, np.inf):
        with pytest.raises(ValueError, match="degree k must be an integer"):
            cp1.h1_dimension(k)
        with pytest.raises(ValueError, match="degree k must be an integer"):
            cp1.Form01(k, _harmonic_profile, None)
    for k in (np.int32(-3), np.int64(-3), -3.0):
        w = cp1.Form01(k, _harmonic_profile, None)
        assert w.k == -3 and type(w.k) is int


def test_a_factored_form_takes_coeffs_and_basis_and_no_support():
    for kwargs in ({"coeffs": [1.0, 0.0]}, {"basis": cp1.harmonic_basis},
                   {"coeffs": [1.0, 0.0], "basis": cp1.harmonic_basis,
                    "support": (0.5, 2.0)}):
        with pytest.raises(ValueError, match="a factored form"):
            cp1.Form01(-3, _harmonic_profile, None, **kwargs)


def _pairs(size):
    """Complex numbers of magnitude 1e-150 to 1e150 and any phase."""
    one = st.builds(lambda e, t: 10.0 ** e * np.exp(1j * t),
                    st.floats(-150, 150), st.floats(0, 2 * np.pi))
    return st.lists(st.tuples(one, one), min_size=size, max_size=size)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.one_of(_pairs(1).map(lambda p: np.array(p[0])),
                 st.integers(1, 5).flatmap(_pairs).map(np.array)))
def test_factored_coefficients_match_the_node_sum_within_both_bounds(a):
    w = cp1.harmonic_representative(a[..., 0], a[..., 1])
    # the same profile with no factorisation is summed node by node
    whole = cp1.Form01(-3, w.h0, w.h1)
    # the largest finite tolerance, so every bound is returned
    cfg = cp1.QuadratureConfig(target_tol=np.finfo(float).max)
    got, bound = cp1._certified_moments(w, cfg)
    ref, ref_bound = cp1._certified_moments(whole, cfg)
    assert got.shape == ref.shape == a.shape
    assert np.all(np.abs(got - ref) <= bound + ref_bound)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3),
       st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3),
       st.integers(-700, 40))
def test_factored_coefficients_scale_exactly_by_powers_of_two(a0, a1, k):
    assume(a0.real and a0.imag and a1.real and a1.imag)
    try:
        base = cp1.cohomology_coefficients(cp1.harmonic_representative(a0, a1))
        scaled = cp1.cohomology_coefficients(
            cp1.harmonic_representative(2.0 ** k * a0, 2.0 ** k * a1))
    except cp1.QuadratureError:
        # |a| 2^k beyond about 1e5: the rounding bound exceeds 1e-6
        assume(False)
    assert scaled.tobytes() == (2.0 ** k * base).tobytes()


def test_factored_coefficients_refuse_what_they_cannot_certify():
    # the product of (1e308, 1e308) with the table is finite, but its
    # rounding bound (about 2e296) is not below 1e-6; nor is 1e300's
    for a in ((1e308, 1e308), (1e300, 0.0)):
        w = cp1.harmonic_representative(*a)
        for check in (False, True):
            with pytest.raises(cp1.QuadratureError, match="not certified"):
                cp1.cohomology_coefficients(w, check=check)
    # a product that overflows is refused as non-finite, after the product
    # and with no overflow warning (RuntimeWarnings fail the test)
    double = cp1.Form01(-3, None, None, coeffs=[1e308, 0.0],
                        basis=lambda z: 2.0 * cp1.harmonic_basis(z))
    for check in (False, True):
        with pytest.raises(cp1.QuadratureError, match="non-finite coefficients"):
            cp1.cohomology_coefficients(double, check=check)


def test_factored_coefficients_read_one_cached_table_per_rule():
    T, B = cp1._basis_table(cp1.harmonic_basis, -3, 96, 64)
    assert cp1.moment_table(cp1.harmonic_basis, -3) is T
    for arr in (T, B):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 0.0
    # the table is the node sum of the basis read as a batch of two forms
    basis = cp1.Form01(-3, cp1.harmonic_basis, None)
    assert cp1.cohomology_coefficients(basis, check=False).tobytes() == T.tobytes()
    # the checked coefficients read the doubled rule's table, built once
    # however many refined() configs ask for it
    cp1.cohomology_coefficients(cp1.harmonic_representative(1.0, 2.0j))
    misses = cp1._basis_table.cache_info().misses
    for a0 in (0.5, -1.0j, 3.0):
        cp1.cohomology_coefficients(cp1.harmonic_representative(a0, 1.0))
    assert cp1._basis_table.cache_info().misses == misses


def test_subnormal_harmonic_coefficients_are_returned_as_given():
    # the node sum once read 1.53e-321 and 8.1e-322 for 1e-320 and 1e-320
    a = np.array([1e-320, 1e-320j])
    c = cp1.cohomology_coefficients(cp1.harmonic_representative(*a))
    assert c.tobytes() == a.tobytes()
