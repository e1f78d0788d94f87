"""Monogenic-hull membership, distance, and boundary witnesses.

The hull of an open U in H^n is

    H(U) = {(x, y) : x + y*q in U for every q in Sp(1) with Re q = 0},

an open subset of M_{2n x 2}(C).  Membership is decided by the minimum of
g(q) = ext_distance(x + y*q) over the unit imaginary sphere.

Every built-in domain knows that minimum in closed form
(``DomainSpec.sweep_inf``, see ``fueter.domains``), so for them the query is
exact: band 0, never indeterminate, no lattice (``count`` 0).

A domain without a closed form (a user-defined DomainSpec) falls back to a
scan of a Fibonacci lattice of ``count`` nodes (default 512, at least 12).
g is Lipschitz in q with constant exactly ||y|| (chord metric), and every
point of the sphere lies within the lattice's covering chord c of a node, so

    true min >= grid min - ||y|| * c.

c is exact, not measured: ``covering_chord`` reads it off the convex hull of
the nodes (the spherical Delaunay triangulation), whose outward facet normals
are the spherical-Voronoi vertices.  Verdicts with 0 < inf_value <= twice
that bound are flagged indeterminate rather than trusted.  A grid minimum in
that band (and every lattice query of hull_distance and hull_witness) is
polished by a pattern search (Hooke & Jeeves 1961; Torczon 1997) in a 2D
tangent chart at the best node, from a mesh step of one covering chord; each
round evaluates the 8 mesh neighbours in one batched call of the scan's own
evaluator, so the reported arg-min attains inf_value bit for bit.  Points
with y = 0 short-circuit to plain membership of x (the infimand is
constant), which keeps the real slice exact.

The twistor-line test (``fueter.twistor.hull_contains_via_lines``) runs the
same sweep core on its Hopf grid of about ``count`` nodes, with that grid's
own covering chord.

The distance of an interior point to the hull boundary is

    (1/sqrt(2)) * inf_q ext_distance(x + y*q),

and the witness construction realizes it: with q* the arg-min, x0 a nearest
boundary point of U seen from x + y*q*, and w = x0 - x - y*q*, the point
(x + w/2, y - w*q*/2) lies on the hull boundary at exactly that distance
(note q*^2 = -1 makes its swept line pass through x0).
"""

import functools

import numpy as np

from . import quat
from .quat import BiquaternionPoint

__all__ = [
    "HullQuery", "NotInHullError", "covering_chord",
    "fibonacci_imaginary_sphere", "hull_contains", "hull_distance",
    "hull_witness",
]

# inf_value must exceed this (times the point's scale) for a True verdict
_TINY = 1e-12

# nodes scanned on the unit imaginary sphere when a domain has no closed form
_DEFAULT_COUNT = 512


class NotInHullError(ValueError):
    pass


def fibonacci_imaginary_sphere(count):
    """count unit imaginary quaternions (0, u) from the golden-angle lattice.

    Cached per count; the returned (count, 4) array is read-only.
    """
    return _fibonacci_lattice(int(count))


@functools.lru_cache(maxsize=32)
def _fibonacci_lattice(count):
    i = np.arange(count)
    golden = (1 + np.sqrt(5.0)) / 2
    z = 1 - 2 * (i + 0.5) / count
    theta = 2 * np.pi * i / golden
    r = np.sqrt(np.maximum(0.0, 1 - z * z))
    u = np.stack([r * np.cos(theta), r * np.sin(theta), z], axis=1)
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    q = np.zeros((count, 4))
    q[:, 1:] = u
    q.flags.writeable = False
    return q


def _grid_count(count):
    """count as an int; every sampled grid needs at least 12 nodes."""
    if count < 12:
        raise ValueError("sampler count must be >= 12")
    return int(count)


@functools.lru_cache(maxsize=32)
def _lattice(count):
    """Fibonacci lattice nodes for count and their covering chord."""
    qs = _fibonacci_lattice(count)
    return qs, covering_chord(qs)


def covering_chord(qs):
    """Covering radius (chord metric) of unit imaginary quaternions qs (K, 4).

    The largest distance from a point of S^2 to its nearest node.  It is
    attained at a spherical-Voronoi vertex, which is the outward normal of a
    facet of the nodes' convex hull; the chord from it to the facet's
    vertices is the radius of the facet's empty cap.  The nodes must not all
    lie in one closed hemisphere.
    """
    # only the sampled grids get here, once per count: keep scipy off the
    # import path of the exact queries
    from scipy.spatial import ConvexHull

    u = np.asarray(qs, dtype=float)[:, 1:]
    facets = ConvexHull(u)
    normals = facets.equations[:, None, :3]
    return float(np.linalg.norm(normals - u[facets.simplices], axis=-1).max())


class HullQuery:
    """Result of a hull membership query."""

    def __init__(self, sigma, verdict, inf_value, argmin_q, band, indeterminate,
                 count):
        self.sigma = sigma
        self.verdict = bool(verdict)
        self.inf_value = float(inf_value)
        self.argmin_q = np.asarray(argmin_q, dtype=float)
        self.band = float(band)
        self.indeterminate = bool(indeterminate)
        self.count = int(count)

    def to_json(self):
        return {
            "sigma": self.sigma.tolist(),
            "verdict": self.verdict,
            "inf_value": self.inf_value,
            "argmin_q": self.argmin_q.tolist(),
            "band": self.band,
            "indeterminate": self.indeterminate,
            "count": self.count,
        }

    def __repr__(self):
        return ("HullQuery(verdict=%r, inf_value=%.6g, band=%.3g, indeterminate=%r)"
                % (self.verdict, self.inf_value, self.band, self.indeterminate))


def _as_point(sigma, n=None):
    """sigma as a BiquaternionPoint; a given n must equal its n."""
    if isinstance(sigma, BiquaternionPoint):
        pt = sigma
    elif isinstance(sigma, (tuple, list)) and len(sigma) == 2:
        pt = BiquaternionPoint(sigma[0], sigma[1])
    else:
        z = np.asarray(sigma)
        if not (z.ndim == 2 and z.shape[-1] == 2 and np.iscomplexobj(z)):
            raise ValueError("cannot interpret %r as a biquaternion point"
                             % (sigma,))
        pt = BiquaternionPoint.from_matrix(z)
    if n is not None and pt.n != n:
        raise ValueError("sigma has n=%d but n=%d is required" % (pt.n, n))
    return pt


def _line_points(x, y, qs):
    """x + y*q for a batch of quaternions qs (K, 4) -> (K, 4n)."""
    return x + quat.qmul_right(y, qs)


def hull_contains(sigma, U, count=_DEFAULT_COUNT):
    """Decide sigma in H(U); returns a HullQuery.

    Exact when U has a closed-form ``sweep_inf``; count is then only
    checked.  Otherwise a Fibonacci lattice of count nodes is scanned and the
    local search runs when the grid minimum is inside the indeterminate band.
    """
    return _hull_query(sigma, U, count, polish=False)


def _hull_query(sigma, U, count, polish):
    count = _grid_count(count)
    grid = None if U.sweep_inf is not None else _lattice(count)
    return _sweep(_as_point(sigma), U, grid, polish)


# pattern-search mesh neighbours in the chart: the axes and the diagonals
_STENCIL = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0],
                     [1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])


def _local_min(g, q0, f0, step):
    """Pattern search for min of g over S^2 in a tangent chart at q0.

    g maps unit imaginary quaternions (K, 4) to values (K,); f0 = g(q0).
    Each round evaluates the 8 neighbours of the current chart point on the
    square mesh of spacing h in one call of g, moves to the best one if it
    is strictly lower and otherwise halves h.  h starts at step (the
    scanned grid's covering chord); the search stops when h < 1e-12, after
    200 rounds, or at f == 0 (g is a distance, so 0 is its minimum).
    Returns (f, q) with q the row g was evaluated at, or (f0, q0).
    """
    u0 = np.asarray(q0, dtype=float)[1:]
    # orthonormal tangent basis at u0
    a = np.array([1.0, 0.0, 0.0])
    if abs(u0 @ a) > 0.9:
        a = np.array([0.0, 1.0, 0.0])
    e1 = a - (a @ u0) * u0
    e1 /= np.linalg.norm(e1)
    basis = np.stack([e1, np.cross(u0, e1)])
    f, q = f0, q0
    st = np.zeros(2)
    h = step
    qs = np.zeros((len(_STENCIL), 4))
    for _ in range(200):
        if h < 1e-12 or f == 0.0:
            break
        nbrs = st + h * _STENCIL
        v = u0 + nbrs @ basis
        qs[:, 1:] = v / np.linalg.norm(v, axis=1, keepdims=True)
        vals = g(qs)
        i = int(np.argmin(vals))
        if vals[i] < f:
            f, q, st = vals[i], qs[i].copy(), nbrs[i]
        else:
            h /= 2.0
    return f, q


def _sweep(pt, U, grid, polish=False):
    """Minimum of ext_distance over the swept set of pt, as a HullQuery.

    grid None: the exact ``U.sweep_inf`` (band 0, count 0).  Otherwise grid
    is (qs, cover): unit imaginary quaternions qs (K, 4) and their covering
    chord.  qs is scanned, and ``_local_min`` runs from the best node when
    the grid minimum is inside the indeterminate band, or always with
    polish.  With y = 0 nothing is scanned (count 0).
    """
    if pt.n != U.n:
        raise ValueError("sigma has n=%d but the domain has n=%d" % (pt.n, U.n))
    x = pt.x
    y = pt.y
    ynorm = float(quat.qnorm(y))

    if ynorm == 0.0:
        # the swept set is {x}: membership is exact
        return HullQuery(pt, bool(U.contains(x)), float(U.ext_distance(x)),
                         np.array([0.0, 1.0, 0.0, 0.0]), 0.0, False, 0)

    if grid is None:
        inf_value, argmin = U.sweep_inf(x, y)
        band = 0.0
        count = 0
    else:
        qs, cover = grid
        vals = U.ext_distance(_line_points(x, y, qs))
        i0 = int(np.argmin(vals))
        inf_value = float(vals[i0])
        argmin = qs[i0]
        band = 2.0 * ynorm * cover
        count = len(qs)
        if (polish or 0.0 < inf_value <= band) and np.isfinite(inf_value):
            inf_value, argmin = _local_min(
                lambda q: U.ext_distance(_line_points(x, y, q)), argmin,
                inf_value, cover)

    verdict = inf_value > _TINY * max(1.0, pt.norm_C())
    return HullQuery(pt, verdict, inf_value, argmin, band,
                     0.0 < inf_value <= band, count)


def hull_distance(sigma, U, count=_DEFAULT_COUNT):
    """Distance (1/sqrt 2) * inf_q ext_distance(x + y q) to the hull boundary.

    For a domain without a closed form (no ``sweep_inf``) every lattice
    query is polished by the local search, since a value is wanted, not just
    a sign.  The value is then a local minimum of the sweep, which can exceed
    the true one (on an ``Intersection``, say) by up to the query's band; it
    is certified only when the query of ``hull_witness`` is not indeterminate.
    """
    query = _hull_query(sigma, U, count, polish=True)
    if not query.verdict:
        raise NotInHullError("sigma is not in the monogenic hull of the domain")
    return query.inf_value / np.sqrt(2.0)


def hull_witness(sigma, U, count=_DEFAULT_COUNT):
    """A hull-boundary point realizing hull_distance(sigma).

    Returns (witness, query): with q* the query's arg-min, p = x + y q*, and
    x0 = U.nearest_boundary(p), the witness is (x + w/2, y - w q*/2) where
    w = x0 - p.  Its own swept line passes through x0, so it lies outside the
    (open) hull, at C-distance ||w||/sqrt(2) = hull_distance(sigma), which
    without ``sweep_inf`` is a local minimum (see hull_distance).
    """
    query = _hull_query(sigma, U, count, polish=True)
    if not query.verdict:
        raise NotInHullError("sigma is not in the monogenic hull of the domain")
    pt = query.sigma
    x = pt.x
    y = pt.y
    qstar = query.argmin_q
    p = _line_points(x, y, qstar[None, :])[0]
    x0 = np.asarray(U.nearest_boundary(p), dtype=float)
    w = x0 - p
    n = pt.n
    wq = quat.qmul(w.reshape(n, 4), qstar).reshape(4 * n)
    witness = BiquaternionPoint(x + w / 2.0, y - wq / 2.0)
    return witness, query
