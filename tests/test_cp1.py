"""Line bundles on the sphere: clutching, quadrature, and cohomology."""

import numpy as np
import pytest

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
    slow = lambda z: 1.0 / (1 + z * np.conj(z))  # log-divergent tail
    with pytest.raises(cp1.QuadratureError):
        cp1.quadrature_C(slow, check=True)


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


def test_bump_sections_clutch_and_differentiate():
    s = cp1.bump_section(-3, p=1, q=1, r_in=0.4, r_out=2.2)
    report = cp1.validate_section(s)
    assert report["ok"] is True
    w = cp1.exact_form(-3, p=1, q=1, r_in=0.4, r_out=2.2)
    assert cp1.validate_form(w)["ok"] is True
    # chart-0 part of the exact form is the antiholomorphic derivative of
    # the section's chart-0 part: check by central differences
    rng = np.random.default_rng(42)
    for _ in range(10):
        z = complex(rng.uniform(0.45, 2.1), 0) * np.exp(
            2j * np.pi * rng.uniform())
        h = 1e-5
        d_real = (s.f0(z + h) - s.f0(z - h)) / (2 * h)
        d_imag = (s.f0(z + 1j * h) - s.f0(z - 1j * h)) / (2 * h)
        dbar = (d_real + 1j * d_imag) / 2.0
        assert abs(dbar - w.h0(z)) < 1e-7 * max(1.0, abs(w.h0(z)))


def test_validators_reject_wrong_weights():
    good = cp1.harmonic_representative(1.0, 1.0)
    mislabeled = cp1.Form01(-2, good.h0, good.h1)
    report = cp1.validate_form(mislabeled)
    assert report["ok"] is False
    assert report["max_violation"] > 1e-3

    s = cp1.bump_section(-3, p=0, q=1, r_in=0.4, r_out=2.0)
    bad = cp1.BundleSection(-4, s.f0, s.f1)
    assert cp1.validate_section(bad)["ok"] is False


def test_decay_check_classifies_tails():
    # a section with the generic chart-0 tail z^k passes: it decays at
    # negative weight once the transition growth z^ell is discounted
    k = -3
    s = cp1.BundleSection(k, lambda z: z ** k, lambda z: np.ones_like(z))
    assert cp1.decay_check(s, ell=0) is True
    growing = cp1.BundleSection(k, lambda z: z ** 2, lambda z: np.ones_like(z))
    assert cp1.decay_check(growing, ell=0) is False
    w = cp1.harmonic_representative(1.0, 1.0)
    assert cp1.decay_check(w, ell=0) is True
    assert cp1.decay_check(w, ell=1) is True


def test_quadrature_error_on_under_resolved_integrands():
    cfg = cp1.QuadratureConfig(16, 8, target_tol=1e-12)
    wild = lambda z: np.cos(40.0 * np.real(z)) / (1 + z * np.conj(z)) ** 3
    with pytest.raises(cp1.QuadratureError):
        cp1.quadrature_C(wild, cfg, check=True)
