"""Monogenic-hull membership, distance, and boundary witnesses.

The hull of an open U in H^n is

    H(U) = {(x, y) : x + y*q in U for every q in Sp(1) with Re q = 0},

an open subset of M_{2n x 2}(C).  Membership is decided by the minimum of
g(q) = ext_distance(x + y*q) over the unit imaginary sphere.

Every query (hull_contains, hull_distance, hull_witness and the twistor-line
test ``fueter.twistor.hull_contains_via_lines``) is one call of ``_sweep``,
which picks its path.  With y = 0 it is the membership of x (the infimand is
constant), exact.  Every built-in domain knows the minimum in closed form:
its ``DomainSpec.line_form`` gives 2x2 Hermitian forms along the twistor
line whose top eigenvectors hold the arg-min, and the caller's readout takes
it from them (``DomainSpec.sweep_inf``, or the twistor-line test's base
points).  So for them the query is exact: band 0, never indeterminate, no
grid (``count`` 0).

A domain without a line form (a user-defined DomainSpec) falls back to a
scan of one grid, the icosahedron split twice 4-to-1 (``_icosphere``): 162
nodes and 320 spherical triangles.  g is Lipschitz in q with constant
exactly ||y|| (chord metric), and every point of a spherical triangle lies
within its circumchord of a vertex, so with c the largest one (0.188)

    true min >= grid min - ||y|| * c.

A grid minimum above the band 2||y||c is a certain True, and a grid minimum
of 0 a certain False.  One inside the band goes to a Lipschitz
branch-and-bound (Piyavskii 1972; Shubert 1972) over the same triangles: a
triangle's lower bound is its least vertex value minus ||y|| times its
circumchord; triangles whose bound exceeds the verdict threshold are dropped
and the others split 4-to-1 at their edge midpoints, as the grid was, all
evaluated in one batched call per level.  It ends at a swept point outside U
(certain False), with no triangle left (certain True, the least dropped
bound lb being a lower bound of the minimum), or at a fixed cap on depth and
live triangles (indeterminate).  The triangles are coordinate-major: vertex
indices and values are (3, T) arrays, one row per vertex, so each step of a
level is a numpy call streaming over the triangles, and vertex coordinates
are gathered only at a level that splits (most searches stop at depth 0, on
values and radii alone).

The band of a sampled query is a certified width: the true minimum lies in
[inf_value - band, inf_value] (band inf_value - lb after a branch-and-bound),
and the query is indeterminate exactly when 0 < inf_value <= band; a
membership query answers False then, being True only when certified.  The
reported arg-min is a row the evaluator was called on, so it attains
inf_value bit for bit.  hull_distance and hull_witness want a value, so
their sampled queries are polished by a pattern search (Hooke & Jeeves 1961;
Torczon 1997) in a 2D tangent chart at the best point, from a mesh step of
one covering chord, each round evaluating the 8 mesh neighbours in one
batched call.  When the centre is the least point of its 3x3 mesh, the
search stops if the mesh is flat to rounding and otherwise tries the Newton
step of the quadratic fitted to the 9 values, together with that point's
own mesh in one call (Custodio & Vicente 2007; Conn, Scheinberg & Vicente
2009), shrinking the mesh when that point is no lower and halving it when
the model gives no usable step; so it converges like Newton's method near a
smooth minimum.  An in-band query is first run through the branch-and-bound,
which rules out a point outside the hull and gives the polished value its lb.

The distance of an interior point to the hull boundary is

    (1/sqrt(2)) * inf_q ext_distance(x + y*q),

and the witness construction realizes it: with q* the arg-min, x0 a nearest
boundary point of U seen from x + y*q*, and w = x0 - x - y*q*, the point
(x + w/2, y - w*q*/2) lies on the hull boundary at exactly that distance
(note q*^2 = -1 makes its swept line pass through x0).
"""

import functools
import itertools
import math

import numpy as np

from . import quat
from .quat import BiquaternionPoint

__all__ = [
    "HullQuery", "NotInHullError", "hull_contains", "hull_distance",
    "hull_witness",
]

# inf_value must exceed this (times the point's scale) for a True verdict
_TINY = 1e-12

# added to every circumchord, which rounds by a few ulps of 1: without it a
# minimum at a circumcentre (a face centre, say) can fall below the bound
_SLACK = 4 * np.finfo(float).eps

# the split level of the icosahedron scanned when a domain has no closed
# form: 162 nodes, and its 320 triangles stay below _BB_LIVE at depth 0
_LEVEL = 2


class NotInHullError(ValueError):
    pass


# the 4-to-1 split, as rows of (vertex 0, 1, 2, midpoint opposite 0, 1, 2):
# each corner keeps its vertex and the midpoints of its two edges, and the
# middle child is the three midpoints
_CHILDREN = np.array([[0, 5, 4], [5, 1, 3], [4, 3, 2], [3, 4, 5]])


@functools.lru_cache(maxsize=None)
def _icosphere(level):
    """The icosahedron split level times 4-to-1, as a sweep grid.

    Returns (qs, chord, tris, rho): read-only nodes qs (K, 4), unit
    imaginary quaternions; triangles tris (3, T) of node indices (row j:
    vertex j); their circumchords rho (T,); and the covering chord, the
    largest of them, since every point of a spherical triangle lies within
    its circumchord of a vertex.  Each split is ``_CHILDREN``'s, the
    branch-and-bound's, with an edge's midpoint shared by its two triangles.
    """
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    u = np.array([[0.0, a, b * phi] for a in (-1, 1) for b in (-1, 1)])
    u = np.concatenate([u, np.roll(u, 1, axis=1), np.roll(u, 2, axis=1)])
    # the faces are the triples of mutually adjacent vertices, at distance
    # 2, in the lexicographic order of the 220 triples
    adj = np.isclose(np.linalg.norm(u[:, None] - u[None], axis=-1), 2.0)
    tris = np.array(list(itertools.combinations(range(12), 3)))
    i, j, k = tris.T
    tris = tris[adj[i, j] & adj[j, k] & adj[i, k]]
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    for _ in range(level):
        # edge k is the one opposite vertex k, as in _branch_and_bound
        edges = np.sort(np.stack([tris[:, [1, 2, 0]], tris[:, [2, 0, 1]]],
                                 axis=-1), axis=-1)
        pairs, mid = np.unique(edges.reshape(-1, 2), axis=0,
                               return_inverse=True)
        m = u[pairs[:, 0]] + u[pairs[:, 1]]
        mid = len(u) + mid.reshape(-1, 3)
        u = np.concatenate([u, m / np.linalg.norm(m, axis=1, keepdims=True)])
        tris = np.concatenate([tris, mid], axis=1)[:, _CHILDREN].reshape(-1, 3)
    qs = np.concatenate([np.zeros((len(u), 1)), u], axis=1)
    qs.flags.writeable = False
    tris = np.ascontiguousarray(tris.T, dtype=np.intp)
    rho = _circumchord(u.T[:, tris])
    return qs, float(rho.max()), tris, rho


def _circumchord(tri):
    """Chord radius of the circumcap of spherical triangles tri (3, 3, ...).

    tri[c, j] is coordinate c of vertex j, batched over the trailing axes
    (coordinate-major).  The chord runs from the unit normal of a triangle's plane
    (oriented toward it) to its vertices.  Every point of the spherical
    triangle lies within this chord of one of its vertices.  With R the
    circumradius of the flat triangle, the chord is
    R * sqrt(2 / (1 + sqrt(1 - R^2))).  R comes from the edge vectors and
    their cross product, which stay accurate on tiny triangles, where a
    normal from differences of nearly equal unit vectors would lose most of
    its digits.
    """
    u = tri[:, 1] - tri[:, 0]
    w = tri[:, 2] - tri[:, 0]
    # |u x w|, the cross product's terms in np.cross's order
    c0 = u[1] * w[2] - u[2] * w[1]
    c1 = u[2] * w[0] - u[0] * w[2]
    c2 = u[0] * w[1] - u[1] * w[0]
    area2 = np.sqrt(c0 * c0 + c1 * c1 + c2 * c2)
    r = _norm(u) * _norm(w) * _norm(u - w) / (2.0 * area2)
    # R <= 1 on the unit sphere; rounding can push a flat triangle past it
    r = np.minimum(r, 1.0)
    return r * np.sqrt(2.0 / (1.0 + np.sqrt(1.0 - r * r))) + _SLACK


def _norm(v):
    """Euclidean norm over the first axis, coordinate-major vectors (3, ...)."""
    return np.sqrt(np.add.reduce(v * v, axis=0))


class HullQuery:
    """Result of a hull membership query.

    inf_value is the least swept exterior distance found and argmin_q the
    unit imaginary quaternion attaining it (through the charts, on the
    twistor-line path); the true minimum lies in [inf_value - band,
    inf_value] (band 0 when exact), and indeterminate is 0 < inf_value <= band.
    verdict is inf_value > 1e-12 * max(1, ||sigma||_C) and, for the
    membership queries (``hull_contains`` and
    ``twistor.hull_contains_via_lines``), not indeterminate: True only when
    certified.  The queries behind hull_distance and hull_witness keep the
    plain threshold, since they want a value.
    count is the number of grid nodes scanned (162; 0 when exact or y = 0).
    """

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


def hull_contains(sigma, U):
    """Decide sigma in H(U); returns a HullQuery.

    Exact when U has a ``line_form`` (``U.sweep_inf``).  Otherwise the split
    icosahedron's nodes are scanned, and a grid minimum inside the band goes
    to the branch-and-bound, which certifies the verdict or, at its cap,
    leaves the query indeterminate (verdict False).
    """
    return _sweep(sigma, U, U.sweep_inf)


# pattern-search mesh neighbours in the chart: the axes and the diagonals
# (the model step reads them in this order)
_STENCIL = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0],
                     [1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])

# a mesh whose neighbours all lie within _FLAT * f of its centre's value f
# is flat to rounding
_FLAT = 8 * np.finfo(float).eps


def _local_min(g, q0, f0, step):
    """Pattern search for min of g over S^2 in a tangent chart at q0.

    g maps unit imaginary quaternions (K, 4) to values (K,); f0 = g(q0).
    Each round evaluates the 8 neighbours of the current chart point on the
    square mesh of spacing h in one call of g and moves to the best one if
    it is strictly lower (Hooke & Jeeves 1961); h starts at step (the
    scanned grid's covering chord).  When the centre is the least point of
    its 3x3 mesh, the search stops if the mesh is flat to rounding (every
    neighbour within 8 eps f of f).  Otherwise it takes the Newton step s
    of the quadratic that central differences fit to the 9 values, the
    standard acceleration of a pattern search (Custodio & Vicente 2007;
    Conn, Scheinberg & Vicente 2009): when the model's Hessian is positive
    definite and s lies inside the mesh (|s|_inf <= h), s and its own mesh
    of spacing h' = max(|s|_inf, h/64) are evaluated in one call, and the
    search moves to s and sets h = h' if g(s) is strictly lower, else sets
    h = min(h/2, h'); a step of 0 cannot be lower and only sets h = h/64.
    With no such step h is halved.  So near a smooth minimum the search
    converges like Newton's method, and where the model gives no step it is
    the halving search.
    It stops when h < 1e-12, after 200 calls of g, or at f == 0 (g is a
    distance, so 0 is its minimum).  Returns (f, q) with q the row g was
    evaluated at, or (f0, q0).
    """
    u0 = np.asarray(q0, dtype=float)[1:]
    # orthonormal tangent basis at u0
    a = np.array([1.0, 0.0, 0.0])
    if abs(u0 @ a) > 0.9:
        a = np.array([0.0, 1.0, 0.0])
    e1 = a - (a @ u0) * u0
    e1 /= np.sqrt(e1 @ e1)
    # u0 x e1, its terms in np.cross's order
    basis = np.array([e1, [u0[1] * e1[2] - u0[2] * e1[1],
                           u0[2] * e1[0] - u0[0] * e1[2],
                           u0[0] * e1[1] - u0[1] * e1[0]]])
    f, q = f0, q0
    st = np.zeros(2)
    h = step
    # a model step (s, h') to evaluate with its mesh in the next call
    trial = None
    for _ in range(200):
        if h < 1e-12 or f == 0.0:
            break
        if trial is None:
            pts = st + h * _STENCIL
        else:
            s, hs = trial
            pts = np.concatenate([s[None], s + hs * _STENCIL])
        v = u0 + pts @ basis
        qs = np.zeros((len(pts), 4))
        # np.linalg.norm's own formula
        qs[:, 1:] = v / np.sqrt(np.add.reduce(v * v, axis=1))[:, None]
        vals = g(qs)
        if trial is not None:
            trial = None
            if not vals[0] < f:
                h = min(h / 2.0, hs)
                continue
            # at s, whose mesh is the rest of the call
            f, q, st, h = vals[0], qs[0], s, hs
            pts, qs, vals = pts[1:], qs[1:], vals[1:]
        i = int(vals.argmin())
        if vals[i] < f:
            f, q, st = vals[i], qs[i], pts[i]
            continue
        if vals.max() - f <= _FLAT * f:
            break
        t = _model_step(vals, f)
        if t is None:
            h /= 2.0
        elif t.any():
            trial = st + h * t, h * max(np.abs(t).max(), 1.0 / 64.0)
        else:
            h /= 64.0
    return f, q


def _model_step(vals, f):
    """Newton step of the quadratic through a 3x3 mesh, in mesh units.

    vals (8,) are g at the _STENCIL neighbours of a centre of value f.  The
    model's gradient and Hessian, times h and h^2, are the central
    differences of the 9 values.  Returns the model's minimiser t (2,), the
    step s over h, when the Hessian is positive definite and |t|_inf <= 1
    (inside the mesh); else None.
    """
    gx = 0.5 * (vals[0] - vals[1])
    gy = 0.5 * (vals[2] - vals[3])
    hxx = vals[0] + vals[1] - 2.0 * f
    hyy = vals[2] + vals[3] - 2.0 * f
    hxy = 0.25 * (vals[4] - vals[5] - vals[6] + vals[7])
    det = hxx * hyy - hxy * hxy
    if not (hxx > 0.0 and det > 0.0):
        return None
    t = np.array([hxy * gy - hyy * gx, hxy * gx - hxx * gy]) / det
    return t if np.abs(t).max() <= 1.0 else None


# the branch-and-bound gives up (indeterminate) after this many levels of
# 4-to-1 splits, or when more triangles than this are live; the second cap
# bounds each batched evaluation at 3 midpoints per live triangle
_BB_DEPTH = 32
_BB_LIVE = 1024


def _branch_and_bound(g, grid, vals, ynorm, tau):
    """Certify min g > tau, or find a value <= tau, by Lipschitz bounds.

    A branch-and-bound over spherical triangles (Piyavskii 1972; Shubert
    1972).  g maps unit imaginary quaternions (K, 4) to values (K,) and is
    ynorm-Lipschitz in the chord metric; grid is the scanned grid (see
    _icosphere) and vals = g(grid nodes).  Every point of a spherical
    triangle T lies within its circumchord rho_T of a vertex, so

        min over T of g >= min over T's vertices of g - ynorm * rho_T.

    Each level drops the triangles whose bound exceeds tau, splits each
    remaining one 4-to-1 at its normalized edge midpoints, and evaluates all
    the new midpoints in one call of g.  Returns (f, q, lb): the least value
    found, the row it was evaluated at, and lb, the least bound of the
    triangles that tile the sphere when it stops, clamped at 0 (g >= 0).  It
    stops at a value <= tau (outside), with no triangle left (inside: lb,
    the least dropped bound, is > tau), or at the _BB_DEPTH / _BB_LIVE cap
    (usually lb = 0: indeterminate).

    The triangles are coordinate-major: a level holds the vertex values
    (3, T), the radii (T,) and indices (3, T) into a table of points (3, P),
    and gathers vertex coordinates (3, 3, T) only when it splits.  The
    points are the grid's nodes at depth 0, and after a split the live
    triangles' vertices and then their midpoints.  Triangles, midpoints and
    children keep the row order of a triangle-major loop (each triangle's
    children in turn), so every evaluation of g sees the same rows in the
    same order.
    """
    qs, _, ids, rho = grid
    i = int(vals.argmin())
    f, q = vals[i], qs[i]
    pts = qs[:, 1:].T
    tval = vals[ids]
    lb = np.inf
    for depth in range(_BB_DEPTH + 1):
        bound = np.minimum.reduce(tval) - ynorm * rho
        live = bound <= tau
        nlive = np.count_nonzero(live)
        if f <= tau or not nlive or nlive > _BB_LIVE or depth == _BB_DEPTH:
            lb = min(lb, bound.min())
            break
        lb = min(lb, bound[~live].min(initial=np.inf))
        tval = tval[:, live]
        # tri[c, j] is coordinate c of vertex j; mids[c, k] of the midpoint
        # of the edge opposite vertex k
        tri = pts[:, ids[:, live]]
        mids = tri[:, [1, 2, 0]] + tri[:, [2, 0, 1]]
        mids /= _norm(mids)
        mq = np.zeros((nlive, 3, 4))
        mq[..., 1:] = mids.T
        mq = mq.reshape(-1, 4)
        mval = g(mq)
        k = int(mval.argmin())
        if mval[k] < f:
            f, q = mval[k], mq[k]
        # the new table holds point j of live triangle t (vertex j, then
        # midpoint j - 3, _CHILDREN's numbering) at j * nlive + t, and
        # child c of t is triangle 4 t + c
        pts = np.concatenate([tri, mids], axis=1).reshape(3, -1)
        ids = (_CHILDREN.T[:, None, :] * nlive
               + np.arange(nlive)[:, None]).reshape(3, -1)
        tval = np.concatenate([tval, mval.reshape(-1, 3).T]).ravel()[ids]
        rho = _circumchord(pts[:, ids])
    return float(f), q, max(0.0, float(lb))


def _sweep(sigma, U, readout, polish=False):
    """The one hull query: least ext_distance over the swept set of sigma.

    It alone picks the path.  y = 0: the membership of x, exact (count 0).
    A domain with a ``line_form``: the caller's exact readout (x, y) ->
    (inf_value, q*), band 0 and count 0.  Any other: the nodes of
    ``_icosphere(_LEVEL)`` are scanned along the line map
    ``quat.right_line(x, y)``, and a grid minimum inside the band 2 ||y|| c
    (c the covering chord) goes to ``_branch_and_bound``, whose lower bound
    lb sets the band to inf_value - lb; with polish, a query not found
    outside is then polished by ``_local_min`` from the best point.  The
    verdict is inf_value > tau, and for a membership query (no polish) also
    not indeterminate: certified, or False.

    A BiquaternionPoint is taken as it is, already checked; any other sigma
    is read by ``_as_point``.  ynorm, tau and an exact readout's inf_value
    are Python floats: the same IEEE operations as on numpy scalars, each
    at less cost.
    """
    pt = sigma if isinstance(sigma, BiquaternionPoint) else _as_point(sigma)
    x, y = pt.x, pt.y
    if x.size != U.dim:
        raise ValueError("sigma has n=%d but the domain has n=%d" % (pt.n, U.n))
    ynorm = float(quat.qnorm(y))
    # pt.norm_C() from the norm of y at hand
    tau = _TINY * max(1.0, math.sqrt(float(quat.qnorm(x)) ** 2 + ynorm ** 2))

    if ynorm == 0.0:
        # the swept set is {x}: membership is exact
        return HullQuery(pt, bool(U.contains(x)), float(U.ext_distance(x)),
                         np.array([0.0, 1.0, 0.0, 0.0]), 0.0, False, 0)
    if U.line_form is not None:
        inf_value, argmin = readout(x, y)
        inf_value = float(inf_value)
        band, count = 0.0, 0
    else:
        grid = _icosphere(_LEVEL)
        qs, cover = grid[:2]
        line = quat.right_line(x, y)

        def g(q):
            return U.ext_distance(line(q))

        vals = g(qs)
        i0 = int(vals.argmin())
        inf_value, argmin = float(vals[i0]), qs[i0]
        band = 2.0 * ynorm * cover
        count = len(qs)
        lb = None
        if 0.0 < inf_value <= band:
            inf_value, argmin, lb = _branch_and_bound(g, grid, vals, ynorm, tau)
        if polish and tau < inf_value < np.inf:
            inf_value, argmin = _local_min(g, argmin, inf_value, cover)
        if lb is not None:
            band = inf_value - lb

    indeterminate = 0.0 < inf_value <= band
    verdict = inf_value > tau and (polish or not indeterminate)
    return HullQuery(pt, verdict, inf_value, argmin, band, indeterminate,
                     count)


def _polished(sigma, U):
    """The polished query of hull_distance and hull_witness, in the hull."""
    query = _sweep(sigma, U, U.sweep_inf, polish=True)
    if not query.verdict:
        raise NotInHullError("sigma is not in the monogenic hull of the domain")
    return query


def hull_distance(sigma, U):
    """Distance (1/sqrt 2) * inf_q ext_distance(x + y q) to the hull boundary.

    For a domain without a closed form (no ``line_form``) every sampled
    query is polished by the local search (``_local_min``: a pattern search
    whose quadratic-model steps converge like Newton's method at a smooth
    minimum, stopping once its mesh is flat to rounding), since a value is
    wanted, not just a sign; an in-band one first goes through the
    branch-and-bound, so a sigma with a swept point found outside U raises
    NotInHullError.  The value is a local minimum of the sweep, which can
    exceed the true one (on an ``Intersection``, say) by up to the query's
    band; it is certified only when the query of ``hull_witness`` is not
    indeterminate.
    """
    return _polished(sigma, U).inf_value / np.sqrt(2.0)


def hull_witness(sigma, U):
    """A hull-boundary point realizing hull_distance(sigma).

    Returns (witness, query): with q* the query's arg-min, p = x + y q*, and
    x0 = U.nearest_boundary(p), the witness is (x + w/2, y - w q*/2) where
    w = x0 - p.  Its own swept line passes through x0, so it lies outside the
    (open) hull, at C-distance ||w||/sqrt(2) = hull_distance(sigma), which
    without ``line_form`` is a local minimum (see hull_distance).  A domain
    without a boundary has no witness: ValueError.
    """
    query = _polished(sigma, U)
    if query.inf_value == np.inf:
        raise ValueError("%r has no boundary, so no hull witness" % (U,))
    x, y = query.sigma.x, query.sigma.y
    qstar = query.argmin_q
    p = quat.right_line(x, y)(qstar)
    x0 = np.asarray(U.nearest_boundary(p), dtype=float)
    w = x0 - p
    witness = BiquaternionPoint(x + w / 2.0, y - quat.qmul_right(w, qstar) / 2.0)
    return witness, query
