"""Line bundles on the sphere: quadrature, coefficients, and exactness.

The first cohomology of the degree-k bundle is trivial for k >= -1 and has
dimension -k-1 below that; its classes are read off by moment integrals.
Run with `python3 demos/04_cp1_cohomology.py`.
"""

import numpy as np

from fueter import (
    cohomology_coefficients,
    decay_check,
    exact_form,
    h1_dimension,
    harmonic_representative,
    quadrature_C,
    validate_form,
)

print("=" * 72)
print("1. Dimension table")
print("=" * 72)
print("  k      :", "  ".join("%4d" % k for k in range(-6, 2)))
print("  dim H^1:", "  ".join("%4d" % h1_dimension(k) for k in range(-6, 2)))

print()
print("=" * 72)
print("2. The plane quadrature and the round profile")
print("=" * 72)
g0 = lambda z: 2.0 / (1 + z * np.conj(z)) ** 3
g1 = lambda z: 2.0 * z * np.conj(z) / (1 + z * np.conj(z)) ** 3
print(f"  moment 0 of the round profile: {quadrature_C(g0):.15f} (exact 1)")
print(f"  moment 1 of the round profile: {quadrature_C(g1):.15f} (exact 1)")

print()
print("=" * 72)
print("3. Harmonic representatives round-trip their coefficients")
print("=" * 72)
rng = np.random.default_rng(2026)
worst = 0.0
for _ in range(5):
    a0 = complex(rng.normal(), rng.normal())
    a1 = complex(rng.normal(), rng.normal())
    w = harmonic_representative(a0, a1)
    c0, c1 = cohomology_coefficients(w)
    worst = max(worst, abs(c0 - a0), abs(c1 - a1))
    print(f"  target ({a0:+.3f}, {a1:+.3f}) -> "
          f"recovered ({c0:+.3f}, {c1:+.3f})")
print(f"  worst roundtrip error: {worst:.3e}")
report = validate_form(harmonic_representative(1.0, -0.5j))
print(f"  chart clutching violation of a representative: "
      f"{report['max_violation']:.3e}")

print()
print("=" * 72)
print("4. Exact forms have vanishing classes")
print("=" * 72)
for p, q, r_in, r_out in ((0, 0, 0.5, 2.0), (1, 2, 0.3, 3.0), (2, 1, 0.6, 1.8)):
    w = exact_form(-3, p=p, q=q, r_in=r_in, r_out=r_out)
    coeffs = cohomology_coefficients(w)
    print(f"  bump derivative with (p, q, r_in, r_out) = "
          f"({p}, {q}, {r_in}, {r_out}): |coefficients| <= "
          f"{np.abs(coeffs).max():.3e}")

print()
print("=" * 72)
print("5. Sampled decay checks at the chart boundary")
print("=" * 72)
w = harmonic_representative(1.0, 1.0)
for ell in (0, 1):
    print(f"  representative, moment weight {ell}: "
          f"decay_check = {decay_check(w, ell=ell)}")
