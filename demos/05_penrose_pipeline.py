"""End-to-end integral transform: lift, pushforwards, and the hull.

A field pair lifts to a fiberwise form over each base point; moment integrals
push it back down (the splitting identity), weight -2 moments certify
closedness, and the same integral evaluated over lines of complex matrices
extends the field to the monogenic hull.  Run with
`python3 demos/05_penrose_pipeline.py`.
"""

import numpy as np

from fueter import (
    KAPPA,
    NotInHullError,
    calibrate_kappa,
    cf_residual_complex,
    diagram_check,
    fields,
    matrix_point,
    penrose_transform,
    penrose_transform_complex,
    sharp,
    tau_push_01,
    tau_push_02,
)

rng = np.random.default_rng(2026)
x = np.array([0.8, -0.3, 0.5, 0.4])

print("=" * 72)
print("1. Splitting identity: pushing the lift down returns the pair")
print("=" * 72)
for name in ("constant", "linear_monogenic", "E"):
    field = fields.get_field(name)
    form = sharp(field)
    got = tau_push_01(form, x)
    expected = np.asarray(field.pair(x))
    print(f"  {name:18s} |tau(sharp psi) - psi| = "
          f"{np.abs(got - expected).max():.3e}")

print()
print("=" * 72)
print("2. Weight -2 moments: zero iff the field is in the kernel")
print("=" * 72)
for name in ("E", "nonmonogenic_quadratic"):
    field = fields.get_field(name)
    moments = tau_push_02(sharp(field), x)
    print(f"  {name:24s} |closedness moments| = {np.abs(moments).max():.3e}")

print()
print("=" * 72)
print("3. The commuting square and its constant")
print("=" * 72)
cal = calibrate_kappa()
print(f"  calibrated constant: {cal['kappa_real']:+.12f} "
      f"{cal['kappa_imag']:+.2e}i   (frozen value {KAPPA})")
print(f"  component pattern: {cal['pattern']}, "
      f"relative misfit {cal['max_rel_misfit']:.2e}")
field = fields.get_field("nonmonogenic_absquare")
rep = diagram_check(field, np.array([x]))
print(f"  diagram discrepancy on a non-kernel field: "
      f"{rep['max_discrepancy']:.3e} "
      f"(residual magnitude {rep['rhs_max']:.3e})")
lhs = tau_push_02(sharp(field), x)
rhs = KAPPA * cf_residual_complex(field.pair0, field.pair1, x)
print(f"  moments vs kappa * residual at one point: "
      f"{np.abs(lhs - rhs).max():.3e}")

print()
print("=" * 72)
print("4. Transform with certificates")
print("=" * 72)
field = fields.get_field("E")
pts = rng.normal(size=(6, 4))
pts /= np.linalg.norm(pts, axis=1, keepdims=True)
pts *= rng.uniform(0.8, 2.0, size=(6, 1))
res = penrose_transform(sharp(field), pts)
exact = np.stack([np.asarray(field.pair(p)) for p in pts])
print(f"  roundtrip error over 6 points: "
      f"{np.abs(res.values - exact).max():.3e}")
print(f"  closedness certificate: {res.closedness:.3e} "
      f"(tolerance {res.closed_tol:.0e})")
print(f"  output monogenicity residual: {res.cf_residual_max:.3e} "
      f"(the same moments: minus the operator on the output)")

print()
print("=" * 72)
print("5. The same integral evaluated over the hull")
print("=" * 72)
form = sharp(field)
sigma = matrix_point(np.array([1.1, 0.2, -0.3, 0.5]),
                     np.array([0.1, 0.0, 0.2, -0.1]))
got = penrose_transform_complex(form, sigma)
expected = np.asarray(field.extension.pair(sigma))
print(f"  at a complex matrix with |det| = "
      f"{abs(np.linalg.det(sigma)):.3f}:")
print(f"    transform        = {np.round(got, 8)}")
print(f"    closed-form ext. = {np.round(expected, 8)}")
print(f"    difference       = {np.abs(got - expected).max():.3e}")

singular = matrix_point(np.array([1.0, 0, 0, 0]), np.array([0.0, 1.0, 0, 0]))
try:
    penrose_transform_complex(form, singular)
except NotInHullError as e:
    print(f"  outside the hull the transform refuses to evaluate: {e}")
