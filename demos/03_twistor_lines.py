"""The double fibration: charts, lines over points, and swept base sets.

Run with `python3 demos/03_twistor_lines.py`.
"""

import numpy as np

from fueter import (
    embed_M,
    eta,
    eta_inverse,
    hopf_grid,
    hull_contains,
    hull_contains_via_lines,
    line_base_points,
    line_embed,
    line_sweep,
    matrix_point,
    parse_domain,
    qmul,
    sweep_quaternions,
)

rng = np.random.default_rng(2026)

print("=" * 72)
print("1. The correspondence map and its inverse, on both charts")
print("=" * 72)
x = np.array([0.1, 0.4, -0.2, 0.9])
# fibre points [1 : z] (chart 0) and [w : 1] (chart 1), one array
pi = np.array([[1.0, 0.3 + 0.2j], [0.5 - 1.0j, 1.0]])
v = eta(pi, x)
back_pi, back_x = eta_inverse(v)
print(f"  fibre points: {pi.tolist()}")
print(f"  homogeneous images:\n{np.round(v, 6)}")
print(f"  back through the inverse: fibre points kept "
      f"{np.array_equal(back_pi, pi)}, base error "
      f"{np.abs(back_x - x).max():.2e}")

print()
print("=" * 72)
print("2. The line over a real point interpolates the correspondence")
print("=" * 72)
zs = np.array([0.0, 1.0 - 0.5j, 3.0j])
pi = np.stack([np.ones_like(zs), zs], axis=-1)
lp = line_embed(embed_M(x), pi)
ep = eta(pi, x)
for z, a, b in zip(zs, lp, ep):
    ratio = a[np.argmax(np.abs(a))] / b[np.argmax(np.abs(b))]
    print(f"  z = {z!s:9s} line point / eta image agree up to scale "
          f"{ratio:.6f} (residual {np.abs(a - ratio * b).max():.2e})")

print()
print("=" * 72)
print("3. Base points of the line of a complex matrix collapse to it")
print("=" * 72)
x, y = rng.normal(size=4), 0.5 * rng.normal(size=4)
sigma = matrix_point(x, y)
zs = np.array([0.0, 0.7, -1.2 + 0.4j, 5.0j])
base = line_base_points(sigma, zs)
print(f"  sigma =\n{np.round(sigma, 4)}")
print(f"  max |base(z) - sigma| over {len(zs)} fiber values: "
      f"{np.abs(base - sigma[None]).max():.3e}")

print()
print("=" * 72)
print("4. Real base points of the line are the swept set x + y S^2")
print("=" * 72)
pairs = hopf_grid(12, 12)
qs = sweep_quaternions(pairs)
pi = pairs / np.linalg.norm(pairs, axis=1, keepdims=True)
_, real_base = eta_inverse(line_embed(sigma, pi))
swept = line_sweep(sigma, pairs)
print(f"  sweep grid: {len(qs)} unit imaginary quaternions q(pi)")
print(f"  max |eta_inverse(line_embed(sigma, pi)) - (x + y q(pi))|: "
      f"{np.abs(real_base - (x + qmul(y, qs))).max():.2e}")
print(f"  swept set radius range: [{np.linalg.norm(swept, axis=1).min():.4f},"
      f" {np.linalg.norm(swept, axis=1).max():.4f}]")

ball = parse_domain("ball:r=1")
# along the line |x + y q|^2 = pi* S* S pi for a unit fibre point pi over q,
# so the farthest base point sits over the top eigenvector of S* S
pi_star = ball.line_argmin(sigma)[0]
_, far = eta_inverse(line_embed(sigma, pi_star))
print(f"  farthest base point over the top eigenvector of S* S: radius "
      f"{np.linalg.norm(far):.6f} (Hopf grid: at most "
      f"{np.linalg.norm(swept, axis=1).max():.6f})")

agree = 0
gap = 0.0
for _ in range(50):
    s = matrix_point(0.25 * rng.normal(size=4), 0.1 * rng.normal(size=4))
    via = hull_contains_via_lines(s, ball, return_query=True)
    direct = hull_contains(s, ball)
    agree += via.verdict == direct.verdict
    gap = max(gap, abs(via.inf_value - direct.inf_value))
print(f"  line spectrum vs closed-form sweep on 50 random sigmas: "
      f"{agree}/50 verdicts agree, values within {gap:.1e}, "
      f"band {via.band}, count {via.count}")
