"""Open subsets of H^n described by membership + exterior-distance oracles.

A DomainSpec knows three things about an open set U:

* ``contains(p)``      -- is the point inside U?
* ``ext_distance(p)``  -- the distance delta(p, complement of U), zero outside;
* ``nearest_boundary(p)`` -- a nearest point of the boundary (used by the hull
  witness construction); optional, closed-form for every built-in.

All oracles are vectorized: they accept flat real points of shape (..., 4n) and
return shape (...).  ``ext_distance`` is 1-Lipschitz and positive exactly on U.

A fourth, optional oracle gives the hull sweep in closed form:

* ``sweep_inf(x, y)`` -- ``(inf_value, q_star)``, the minimum of
  ``ext_distance(x + y q)`` over unit imaginary quaternions q and a q
  attaining it, batched over leading axes: x, y of shape (..., 4n) give
  shapes (...) and (..., 4).

Right multiplication by a unit q is an isometry of H^n, so for any w

    ||w + y q||^2 = ||w||^2 + ||y||^2 - 2 v.u,   v = sum_l Vec(conj(w_l) y_l),

with q = (0, u), and <w, y q> = -v.u is linear in u on the unit sphere.  Its
extremes sit at u = -+v/|v| (any u when v = 0), which settles balls (w = x minus
the centre, largest norm), point complements (w = x minus the point, smallest
norm) and half-spaces (w = the normal, largest <normal, y q>).  v is one
gather of y's coefficients, their signed products with w and three sums in
``qmul``'s term order (the trick of ``quat.right_line``), so it equals the
sum of the quaternion products conj(w_l) y_l bit for bit.  The value is
``ext_distance`` evaluated at that arg-min, never the expanded square root,
whose cancellation near a zero minimum (the hull boundary of H*) leaves
~1e-8 of rounding noise.  Intersections take the minimum over their parts;
the whole space and the empty set are constant.

``DomainSpec.sweep_inf`` is ``None``: no closed form, and the hull falls back
to a scan of a split icosahedron with a covering band.  A user domain opts
in by defining a ``sweep_inf(x, y)`` method with the contract above; it must
return the exact minimum, since the hull then reports no uncertainty band.

A fifth, optional oracle decides the twistor-line test in closed form:
``line_argmin(S)`` maps matrices S (..., 2n, 2) to unit fibre points
(..., P, 2), over one of which the least ``ext_distance`` on the real base
points of S's twistor line sits.  For unit pi over q = Hopf(pi),
S pi = M(x + y q) pi and ||M(w) pi|| = ||w||, so ||x + y q - c||^2 =
pi* A* A pi (A = S - M(c)) and <nu, x + y q> = pi* Herm(M(nu)* S) pi:
balls take the top eigenvector of A* A, point complements the bottom one,
half-spaces the top one of Herm(M(normal)* S); intersections pool their
parts', and the whole space and the empty set give (1, 0).  ``None``: the
twistor-line test is ``hull.hull_contains``.

Built-ins: balls, complements of a point, half-spaces, finite intersections,
the whole space and the empty set.  Each declares its JSON form once
(``json_type``, ``json_keys``); ``to_json`` writes it and ``parse_domain``
reads it, refusing other keys, or a shorthand such as ``"H*:n=1"``.
"""

import json

import numpy as np

from .quat import CONJ_SIGNS, _SIGN, _XOR, embed_M, qnorm, right_line

__all__ = [
    "DomainSpec", "Ball", "PointComplement", "HalfSpace", "Intersection",
    "WholeSpace", "EmptySet", "parse_domain",
]


class DomainSpec:
    """Base class; subclasses fill in ext_distance (and usually nearest_boundary)."""

    # closed-form oracles of the hull sweep (see the module docstring)
    sweep_inf = None
    line_argmin = None
    # a built-in's JSON "type" and keys after "n", each a constructor argument
    # and the attribute that holds it; None: no JSON form
    json_type = None
    json_keys = ()

    def __init__(self, n=1):
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise ValueError("n must be an integer, got %r" % (n,))
        self.n = int(n)
        if self.n < 1:
            raise ValueError("n must be >= 1")

    @property
    def dim(self):
        return 4 * self.n

    def _check(self, p):
        p = np.asarray(p, dtype=float)
        if p.shape[-1] != self.dim:
            raise ValueError("expected points with %d coordinates, got %d"
                             % (self.dim, p.shape[-1]))
        return p

    def ext_distance(self, p):
        raise NotImplementedError

    def contains(self, p):
        return self.ext_distance(p) > 0.0

    def nearest_boundary(self, p):
        raise NotImplementedError(
            "%s has no nearest_boundary oracle" % type(self).__name__)

    def _sweep_at(self, x, y, u):
        """(ext_distance(x + y q), q) at q = (0, u), batched over leading axes."""
        q = np.zeros(u.shape[:-1] + (4,))
        q[..., 1:] = u
        return self.ext_distance(right_line(x, y)(q)), q

    def to_json(self):
        if self.json_type is None:
            raise NotImplementedError
        blob = {"type": self.json_type, "n": self.n}
        for key in self.json_keys:
            v = getattr(self, key)
            blob[key] = (v.tolist() if isinstance(v, np.ndarray)
                         else [d.to_json() for d in v] if isinstance(v, list)
                         else v)
        return blob

    def __repr__(self):
        try:
            blob = self.to_json()
        except NotImplementedError:
            blob = {"n": self.n}
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % kv for kv in blob.items() if kv[0] != "type"))


class Ball(DomainSpec):
    """Open ball {p : ||p - center|| < radius}."""
    json_type, json_keys = "ball", ("radius", "center")

    def __init__(self, n=1, radius=1.0, center=None):
        super().__init__(n)
        self.radius = float(_finite(radius, "radius"))
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        self.center = (np.zeros(self.dim) if center is None
                       else _finite(center, "center", (self.dim,)))
        self._M = embed_M(self.center)

    def ext_distance(self, p):
        p = self._check(p)
        return np.maximum(0.0, self.radius - qnorm(p - self.center))

    def nearest_boundary(self, p):
        p = self._check(p)
        d = p - self.center
        r = qnorm(d)
        if np.any(r == 0):
            # center itself: every boundary point is nearest, pick an axis one
            d = np.where((r == 0)[..., None], _axis_dir(self.dim, d.shape), d)
            r = qnorm(d)
        return self.center + d * (self.radius / r)[..., None]

    def sweep_inf(self, x, y):
        # farthest swept point from the centre
        x, y = self._check(x), self._check(y)
        return self._sweep_at(x, y, _unit(-_sweep_vec(x - self.center, y)))

    def line_argmin(self, S):
        # farthest base point from the centre: top eigenvector of A* A
        A = S - self._M
        return _top_eigvec(np.conj(np.swapaxes(A, -1, -2)) @ A)


class PointComplement(DomainSpec):
    """H^n minus one point; the default point is the origin (punctured H^n)."""
    json_type, json_keys = "point_complement", ("point",)

    def __init__(self, n=1, point=None):
        super().__init__(n)
        self.point = (np.zeros(self.dim) if point is None
                      else _finite(point, "point", (self.dim,)))
        self._M = embed_M(self.point)

    def ext_distance(self, p):
        p = self._check(p)
        return qnorm(p - self.point)

    def nearest_boundary(self, p):
        p = self._check(p)
        return np.broadcast_to(self.point, p.shape).copy()

    def sweep_inf(self, x, y):
        # nearest swept point to the removed point
        x, y = self._check(x), self._check(y)
        return self._sweep_at(x, y, _unit(_sweep_vec(x - self.point, y)))

    def line_argmin(self, S):
        # nearest base point to the removed point: bottom eigenvector of A* A
        A = S - self._M
        return _top_eigvec(-np.conj(np.swapaxes(A, -1, -2)) @ A)


class HalfSpace(DomainSpec):
    """Open half-space {p : <normal, p> < offset}, held with a unit normal."""
    json_type, json_keys = "halfspace", ("normal", "offset")

    def __init__(self, n=1, normal=None, offset=0.0):
        super().__init__(n)
        if normal is None:
            raise ValueError("a half-space needs a normal")
        normal = _finite(normal, "normal", (self.dim,))
        with np.errstate(over="ignore"):
            nn = np.linalg.norm(normal)
        # where |normal|^2 overflows, or loses bits below 1e-300, divide by
        # the largest entry first
        scale = 1.0 if 1e-150 < nn < np.inf else float(np.max(np.abs(normal)))
        if scale == 0:
            raise ValueError("normal must be nonzero")
        nn = float(np.linalg.norm(normal / scale))
        self.normal = normal / scale / nn
        self.offset = float(_finite(offset, "offset")) / scale / nn
        if not np.isfinite(self.offset):
            raise ValueError("offset / |normal| must be finite")
        self._M_adj = np.conj(embed_M(self.normal)).T  # M(normal)*

    def ext_distance(self, p):
        p = self._check(p)
        return np.maximum(0.0, self.offset - p @ self.normal)

    def nearest_boundary(self, p):
        p = self._check(p)
        gap = (self.offset - p @ self.normal)[..., None]
        return p + gap * self.normal

    def sweep_inf(self, x, y):
        # swept point deepest along the normal
        x, y = self._check(x), self._check(y)
        return self._sweep_at(x, y, _unit(-_sweep_vec(self.normal, y)))

    def line_argmin(self, S):
        # base point deepest along the normal
        return _top_eigvec(self._M_adj @ S)


class Intersection(DomainSpec):
    """Finite intersection of domains (or parse_domain specs) over one H^n."""
    json_type, json_keys = "intersection", ("parts",)

    def __init__(self, parts=(), n=None):
        if not isinstance(parts, (list, tuple)):
            raise ValueError("parts must be a list of domains, got %r"
                             % (parts,))
        parts = [parse_domain(d) for d in parts]
        if not parts:
            raise ValueError("intersection of zero domains is not supported")
        super().__init__(parts[0].n if n is None else n)
        if any(d.n != self.n for d in parts):
            raise ValueError("all parts must share the intersection's n = %d"
                             % self.n)
        self.parts = parts

    def ext_distance(self, p):
        # distance to the complement of the intersection = min over parts
        return np.minimum.reduce([d.ext_distance(p) for d in self.parts])

    def nearest_boundary(self, p):
        # the nearest part's nearest boundary point, among the parts that
        # have a boundary: a part with ext_distance inf everywhere (the
        # whole space) has no nearest_boundary oracle
        p = self._check(p)
        dists = [d.ext_distance(p) for d in self.parts]
        parts = [(d, r) for d, r in zip(self.parts, dists)
                 if np.isfinite(r).any()]
        if not parts:
            return DomainSpec.nearest_boundary(self, p)
        which = np.argmin(np.stack([r for _, r in parts], axis=0), axis=0)
        cands = np.stack([d.nearest_boundary(p) for d, _ in parts], axis=0)
        return np.take_along_axis(cands, which[None, ..., None], axis=0)[0]

    @property
    def sweep_inf(self):
        # inf commutes with min, so the parts' closed forms combine
        if any(d.sweep_inf is None for d in self.parts):
            return None
        return self._sweep_inf_parts

    def _sweep_inf_parts(self, x, y):
        # the least part's value is the intersection's ext_distance at its q
        x, y = self._check(x), self._check(y)
        vals, qs = map(np.stack, zip(*(d.sweep_inf(x, y) for d in self.parts)))
        which = np.argmin(vals, axis=0)
        q = np.take_along_axis(qs, which[None, ..., None], axis=0)[0]
        return np.take_along_axis(vals, which[None], axis=0)[0], q

    @property
    def line_argmin(self):
        # every part's candidates: the least part attains its minimum at one
        return (None if any(d.line_argmin is None for d in self.parts)
                else self._line_argmin_parts)

    def _line_argmin_parts(self, S):
        return np.concatenate([d.line_argmin(S) for d in self.parts], axis=-2)


class WholeSpace(DomainSpec):
    """All of H^n; exterior distance is +inf."""
    json_type = "whole_space"

    def ext_distance(self, p):
        p = self._check(p)
        return np.full(p.shape[:-1], np.inf)

    def sweep_inf(self, x, y):
        # constant: any q attains it
        x, y = self._check(x), self._check(y)
        return self._sweep_at(x, y, _axis_dir(3, y.shape))

    def line_argmin(self, S):
        # constant: any fibre point attains it
        return np.broadcast_to([1.0 + 0j, 0.0], np.shape(S)[:-2] + (1, 2))


class EmptySet(DomainSpec):
    """The empty open set."""
    json_type = "empty"

    def ext_distance(self, p):
        p = self._check(p)
        return np.zeros(p.shape[:-1])

    sweep_inf = WholeSpace.sweep_inf  # constant as well
    line_argmin = WholeSpace.line_argmin


def _finite(a, name, shape=()):
    """a as a float array of the given shape (a number by default);
    ValueError naming the parameter unless it has that shape and is finite."""
    try:
        a = np.asarray(a, dtype=float)
    except TypeError:
        raise ValueError("%s must be numeric, got %r" % (name, a))
    if a.shape != shape:  # a nested list is refused, never flattened
        raise ValueError("%s must have shape %s, got shape %s"
                         % (name, shape, a.shape))
    if not np.isfinite(a).all():
        raise ValueError("%s must be finite, got %s" % (name, a.tolist()))
    return a


# components 1..3 of conj(w)*y: term t of component k is
# _VSIGN[t, k] * w_t * y_(_VXOR[t, k]), qmul's signs with conj's folded in
_VXOR = _XOR[:, 0, 1:]
_VSIGN = _SIGN[:, 0, 1:] * CONJ_SIGNS[:, None]


def _axis_dir(dim, shape):
    e = np.zeros(shape[:-1] + (dim,))
    e[..., 0] = 1.0
    return e


def _sweep_vec(w, y):
    """v = sum_l Vec(conj(w_l) y_l), so that <w, y*(0, u)> = -v.u; (..., 3).

    w and y broadcast.  Term t of component k is _VSIGN[t, k] w_t y_(t xor
    k), with qmul's signs (quat._SIGN) times qconj's: one gather of y, the
    signed products and three sums in ``qmul``'s order, then the sum over
    l, so v equals qmul(qconj(w_l), y_l) summed over l bit for bit.
    """
    w = np.asarray(w, dtype=float)
    y = np.asarray(y, dtype=float)
    terms = (w.reshape(w.shape[:-1] + (-1, 4, 1)) * _VSIGN
             * y.reshape(y.shape[:-1] + (-1, 4))[..., _VXOR])
    v = terms[..., 0, :] + terms[..., 1, :] + terms[..., 2, :] + terms[..., 3, :]
    return np.add.reduce(v, axis=-2)


def _top_eigvec(H):
    """Unit top eigenvectors (..., 1, 2) of Herm(H) = (H + H*)/2.

    H is (..., 2, 2).  With s = H00 - H11, b = H01 + conj(H10) (twice
    Herm(H)'s corner) and h = hypot(s, |b|), (s + h, conj(b)) and (b, h - s)
    are top eigenvectors; the larger, of norm sqrt(2 h (h + |s|)), is taken,
    and (1, 0) when h is subnormal (Herm(H) = a I up to 1e-308).
    """
    s = (H[..., 0, 0] - H[..., 1, 1]).real
    b = H[..., 0, 1] + np.conj(H[..., 1, 0])
    h = np.hypot(s, np.abs(b))
    tied = h < np.finfo(float).tiny
    s, h = s + tied, h + tied
    big = h + np.abs(s)
    north = s >= 0
    v = np.empty(h.shape + (1, 2), dtype=complex)
    v[..., 0, 0] = np.where(north, big, b)
    v[..., 0, 1] = np.where(north, np.conj(b), big)
    v /= (np.sqrt(2.0 * h) * np.sqrt(big))[..., None, None]
    return v


def _unit(v):
    """v/|v| over the last axis; the i axis where v = 0 (every unit u is optimal).

    v is first scaled by the power of two that brings its largest entry into
    [1/2, 1), so no square goes subnormal or overflows; the scaling is exact,
    so for |v| in the normal range the result is unchanged bit for bit.
    """
    m = np.maximum.reduce(np.abs(v), axis=-1, keepdims=True)
    _, e = np.frexp(m)
    v = np.ldexp(v, -e)
    if not m.all():  # a where costs about as much as the rest
        v = np.where(m > 0, v, _I_AXIS)
    return v / np.sqrt(np.add.reduce(v * v, axis=-1, keepdims=True))


_I_AXIS = np.array([1.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_KINDS = {cls.json_type: cls for cls in (Ball, PointComplement, HalfSpace,
                                         Intersection, WholeSpace, EmptySet)}
# shorthand head -> JSON type and the JSON keys of its short option names
_SHORTHANDS = {"H*": ("point_complement", {}),
               "ball": ("ball", {"r": "radius"})}


def parse_domain(spec):
    """Build a DomainSpec from a dict, a JSON string, or a shorthand string.

    A dict holds "type", "n" (default 1) and the type's ``json_keys`` only.
    Shorthands: ``"H*"`` or ``"H*:n=2"`` for the punctured space, and
    ``"ball"`` / ``"ball:r=2:n=1"`` for origin-centered balls.
    """
    if isinstance(spec, DomainSpec):
        return spec
    if isinstance(spec, str):
        s = spec.strip()
        if s.startswith("{"):
            return parse_domain(json.loads(s))
        return parse_domain(_shorthand_spec(s))
    if isinstance(spec, dict):
        kind = spec.get("type")
        cls = _KINDS.get(kind) if isinstance(kind, str) else None
        if cls is None:
            raise ValueError("unknown domain type %r" % (kind,))
        args = {k: v for k, v in spec.items() if k != "type"}
        for key in args:
            _check_key(cls, key)
        return cls(**args)
    raise ValueError("cannot parse domain from %r" % (spec,))


def _check_key(cls, key):
    """ValueError naming key unless it is "n" or one of cls's json_keys."""
    known = ("n",) + cls.json_keys
    if key not in known:
        raise ValueError("unknown %s domain key %r; known: %s"
                         % (cls.json_type, key, ", ".join(known)))


def _shorthand_spec(s):
    """The JSON spec of a shorthand string, its options renamed and parsed.

    Each option's key is checked before its value is read, so an unknown key
    is named even when its value is no number.
    """
    head, *items = s.split(":")
    if head not in _SHORTHANDS:
        raise ValueError("unknown domain shorthand %r" % (s,))
    kind, keys = _SHORTHANDS[head]
    spec = {"type": kind}
    for item in items:
        key, _, val = item.partition("=")
        if not val:
            raise ValueError("bad domain shorthand option %r in %r" % (item, s))
        key = keys.get(key.strip(), key.strip())
        _check_key(_KINDS[kind], key)
        spec[key] = int(val) if key == "n" else float(val)
    return spec
