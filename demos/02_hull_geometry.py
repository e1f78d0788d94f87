"""Membership, distance, and witnesses for the monogenic hull.

The hull of an open set U consists of the complex points sigma = x + iy whose
swept line {x + y q : q a unit imaginary quaternion} stays inside U.  Run with
`python3 demos/02_hull_geometry.py`.
"""

import numpy as np

from fueter import (
    Ball,
    BiquaternionPoint,
    NotInHullError,
    hull_contains,
    hull_distance,
    hull_witness,
    parse_domain,
)

ball = parse_domain("ball:r=1")
star = parse_domain("H*")

print("=" * 72)
print("1. Membership queries against the unit ball")
print("=" * 72)
cases = [
    ("real point inside", [0.5, 0.2, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]),
    ("real point outside", [1.5, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]),
    ("small imaginary part", [0.3, 0.1, -0.2, 0.0], [0.2, 0.0, 0.1, 0.1]),
    ("imaginary part too large", [0.3, 0.0, 0.0, 0.0], [0.9, 0.0, 0.0, 0.0]),
]
for label, x, y in cases:
    q = hull_contains(BiquaternionPoint(np.array(x), np.array(y)), ball)
    print(f"  {label:26s} verdict={q.verdict!s:5s} "
          f"inf={q.inf_value:+.4f} band={q.band:.4f} "
          f"indeterminate={q.indeterminate}")

print()
print("=" * 72)
print("2. Built-in domains are exact; other domains get a grid band")
print("=" * 72)


class SampledBall(Ball):
    """The unit ball as a user domain would see it: no closed-form sweep."""

    line_form = None


sigma = BiquaternionPoint(np.array([0.78, 0.0, 0.0, 0.0]),
                          np.array([0.0, 0.12, 0.0, 0.16]))
q = hull_contains(sigma, ball)
print(f"  built-in ball (closed form): inf={q.inf_value:.5f} "
      f"band={q.band:.5f} indeterminate={q.indeterminate}")
q = hull_contains(sigma, SampledBall(1, 1.0))
print(f"  user ball ({q.count} grid nodes): inf={q.inf_value:.5f} "
      f"band={q.band:.5f} indeterminate={q.indeterminate}")
print("  (the grid is the icosahedron split twice 4-to-1; a grid minimum")
print("   inside the scan band goes to a branch-and-bound over its triangles,")
print("   which certifies the verdict; the band is then inf minus its")
print("   certified lower bound)")

print()
print("=" * 72)
print("3. For the punctured space the hull is cut out by a determinant")
print("=" * 72)
singular = BiquaternionPoint(np.array([1.0, 0, 0, 0]),
                             np.array([0.0, 1.0, 0, 0]))
regular = BiquaternionPoint(np.array([1.0, 0, 0, 0]),
                            np.array([0.0, 0.3, 0, 0]))
print(f"  det = 0 matrix: in hull of H*? {hull_contains(singular, star).verdict}")
print(f"  det != 0 matrix: in hull of H*? {hull_contains(regular, star).verdict}")

print()
print("=" * 72)
print("4. Distance law and witnesses")
print("=" * 72)
for c in (0.0, 0.4, 0.8):
    sigma = BiquaternionPoint(np.array([c, 0, 0, 0]), np.zeros(4))
    d = hull_distance(sigma, ball)
    print(f"  sigma = ({c:.1f}, 0): distance {d:.9f}  "
          f"law (1 - {c:.1f})/sqrt(2) = {(1 - c) / np.sqrt(2):.9f}")

sigma = BiquaternionPoint(np.array([0.2, 0.1, 0.0, 0.0]),
                          np.array([0.05, 0.0, 0.1, 0.0]))
d = hull_distance(sigma, ball)
witness, query = hull_witness(sigma, ball)
print(f"\n  witness for a generic interior point:")
print(f"    distance to the hull boundary  {d:.9f}")
print(f"    |sigma - witness|              {(sigma - witness).norm_C():.9f}")
print(f"    witness itself in the hull?    "
      f"{hull_contains(witness, ball).verdict}")

try:
    hull_distance(BiquaternionPoint(np.array([2.5, 0, 0, 0]),
                                    np.array([0.1, 0, 0, 0])), ball)
except NotInHullError as e:
    print(f"\n  a point outside the hull raises NotInHullError: {e}")
