"""Open subsets of H^n described by membership + exterior-distance oracles.

A DomainSpec knows three things about an open set U:

* ``contains(p)``      -- is the point inside U?
* ``ext_distance(p)``  -- the distance delta(p, complement of U), zero outside;
* ``nearest_boundary(p)`` -- a nearest point of the boundary (used by the hull
  witness construction); optional, closed-form for every built-in.

All oracles are vectorized: they accept flat real points of shape (..., 4n) and
return shape (...).  ``ext_distance`` is 1-Lipschitz and positive exactly on U.

A fourth, optional oracle gives the hull sweep in closed form.  For a unit
fibre point pi over q = Hopf(pi) (see ``fueter.twistor``), S pi =
M(x + y q) pi with S = ``matrix_point(x, y)``, and ||M(w) pi|| = ||w||, so
along the swept set {x + y q} a distance or a linear form is a Hermitian
form in pi: ||x + y q - c||^2 = pi* A* A pi with A = S - M(c), and
<nu, x + y q> = pi* Herm(M(nu)* S) pi.

* ``line_form(S)`` maps matrices S (..., 2n, 2) to 2x2 forms H
  (..., P, 2, 2) such that the least ``ext_distance(x + y q)`` over unit
  imaginary q is attained over the top eigenvector of Herm(H) = (H + H*)/2
  for one of the P forms: A* A for a ball (farthest from the centre), -A* A
  for a point complement (nearest to the point), M(normal)* S for a
  half-space (deepest along the normal), the parts' forms together for an
  intersection, and zeros (any q) for the whole space and the empty set.
  Where the trace of A* A leaves [2^-900, 2^900] (a square went subnormal
  or overflowed), A is first scaled by a power of two, which is exact.

Two methods derive from it: ``line_argmin(S)``, the unit top eigenvectors
(..., P, 2), the candidate fibre points of the twistor-line test; and
``sweep_inf(x, y)``, ``(inf_value, q_star)``: the minimum of
``ext_distance(x + y q)`` over unit imaginary q and a q attaining it,
batched over leading axes (x, y (..., 4n) give (...) and (..., 4)).  It
takes no eigenvector: with s = H00 - H11, b = H01 + conj(H10) and
h = hypot(s, |b|), the top eigenvector's Hopf image is (0, s, Re b, Im b)/h
(``_top_hopf``).  The value is ``ext_distance`` at the least candidate,
never the form's expanded square root, whose cancellation near a zero
minimum (the hull boundary of H*) leaves ~1e-8 of rounding noise.

``DomainSpec.line_form`` is ``None``: no closed form, and both membership
tests (``hull.hull_contains`` and the twistor-line test) fall back to
``hull._sweep``'s scan of a split icosahedron with a covering band.  A user
domain opts in by defining a ``line_form(S)`` method with the contract
above; it must name the exact minimiser, since the hull then reports no
uncertainty band.

Built-ins: balls, complements of a point, half-spaces, finite intersections,
the whole space and the empty set.  Each declares its JSON form once
(``json_type``, ``json_keys``); ``to_json`` writes it and ``parse_domain``
reads it, refusing other keys, or a shorthand such as ``"H*:n=1"``.  A
ball's centre and a removed point must have a finite squared norm, as a
``BiquaternionPoint`` must.
"""

import numpy as np

from .quat import embed_M, matrix_point, qnorm, right_line

__all__ = [
    "DomainSpec", "Ball", "PointComplement", "HalfSpace", "Intersection",
    "WholeSpace", "EmptySet", "parse_domain",
]


class DomainSpec:
    """Base class; subclasses fill in ext_distance (and usually nearest_boundary)."""

    # the closed form of the hull sweep (see the module docstring)
    line_form = None
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

    def line_argmin(self, S):
        """Candidate fibre points (..., P, 2) of the line of each S."""
        return _top_eigvec(self.line_form(S))

    def sweep_inf(self, x, y):
        """(min of ext_distance(x + y q) over unit imaginary q, a q at it)."""
        x, y = self._check(x), self._check(y)
        q = _top_hopf(self.line_form(matrix_point(x, y)))
        line = right_line(x[..., None, :], y[..., None, :])
        vals = self.ext_distance(line(q))
        if vals.ndim == 1:  # one (x, y): plain indexing is the cheaper gather
            i = vals.argmin()
            return vals[i], q[i]
        i = np.argmin(vals, axis=-1)[..., None]
        return (np.take_along_axis(vals, i, axis=-1)[..., 0],
                np.take_along_axis(q, i[..., None], axis=-2)[..., 0, :])

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
        self.center = (np.zeros(self.dim) if center is None else
                       _finite(center, "center", (self.dim,), squares=True))
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

    def line_form(self, S):
        # farthest base point from the centre
        return _gram(S - self._M)


class PointComplement(DomainSpec):
    """H^n minus one point; the default point is the origin (punctured H^n)."""
    json_type, json_keys = "point_complement", ("point",)

    def __init__(self, n=1, point=None):
        super().__init__(n)
        self.point = (np.zeros(self.dim) if point is None else
                      _finite(point, "point", (self.dim,), squares=True))
        self._M = embed_M(self.point)

    def ext_distance(self, p):
        p = self._check(p)
        return qnorm(p - self.point)

    def nearest_boundary(self, p):
        p = self._check(p)
        return np.broadcast_to(self.point, p.shape).copy()

    def line_form(self, S):
        # nearest base point to the removed point
        return -_gram(S - self._M)


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

    def line_form(self, S):
        # base point deepest along the normal
        return (self._M_adj @ S)[..., None, :, :]


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
    def line_form(self):
        # every part's forms: the least part attains its minimum at one
        return (None if any(d.line_form is None for d in self.parts)
                else self._line_form_parts)

    def _line_form_parts(self, S):
        return np.concatenate([d.line_form(S) for d in self.parts], axis=-3)


class WholeSpace(DomainSpec):
    """All of H^n; exterior distance is +inf."""
    json_type = "whole_space"

    def ext_distance(self, p):
        p = self._check(p)
        return np.full(p.shape[:-1], np.inf)

    def line_form(self, S):
        # constant: any fibre point attains it
        return np.zeros(np.shape(S)[:-2] + (1, 2, 2))


class EmptySet(DomainSpec):
    """The empty open set."""
    json_type = "empty"

    def ext_distance(self, p):
        p = self._check(p)
        return np.zeros(p.shape[:-1])

    line_form = WholeSpace.line_form  # constant as well


def _finite(a, name, shape=(), squares=False):
    """a as a float array of the given shape (a number by default);
    ValueError naming the parameter unless it has that shape and is finite,
    and, with squares, unless its sum of squares is finite too."""
    try:
        a = np.asarray(a, dtype=float)
    except TypeError:
        raise ValueError("%s must be numeric, got %r" % (name, a))
    if a.shape != shape:  # a nested list is refused, never flattened
        raise ValueError("%s must have shape %s, got shape %s"
                         % (name, shape, a.shape))
    if not np.isfinite(a).all():
        raise ValueError("%s must be finite, got %s" % (name, a.tolist()))
    # in Python floats, which overflow to inf without a warning
    if squares and sum(v * v for v in a.tolist()) == np.inf:
        raise ValueError("%s's squared norm overflows at %s"
                         % (name, a.tolist()))
    return a


def _axis_dir(dim, shape):
    e = np.zeros(shape[:-1] + (dim,))
    e[..., 0] = 1.0
    return e


# A* A is formed again from A scaled by a power of two where its trace
# leaves this range
_GRAM_RANGE = (2.0 ** -900, 2.0 ** 900)

# a form whose eigen-gap h is below this is read as a multiple of I
_TINY = np.finfo(float).tiny


def _gram(A):
    """The forms A* A (..., 1, 2, 2) of matrices A (..., 2n, 2), scale-safe.

    Where the trace is outside _GRAM_RANGE (a square went subnormal or
    overflowed), A is first scaled by the power of two that brings its
    largest real or imaginary part into [1/2, 1); the scaling is exact and
    leaves the top eigenvector, so in range nothing changes.
    """
    G = np.conj(np.swapaxes(A, -1, -2)) @ A
    trace = (G[..., 0, 0] + G[..., 1, 1]).real
    off = (trace < _GRAM_RANGE[0]) | (trace > _GRAM_RANGE[1])
    if np.count_nonzero(off):  # cheaper than any() on a scalar
        m = np.maximum(np.abs(A.real), np.abs(A.imag)).max(axis=(-2, -1))
        e = np.frexp(np.where(off, m, 1.0))[1][..., None, None]
        A = np.ldexp(A.real, -e) + 1j * np.ldexp(A.imag, -e)
        G = np.where(off[..., None, None],
                     np.conj(np.swapaxes(A, -1, -2)) @ A, G)
    return G[..., None, :, :]


def _top_eigvec(H):
    """Unit top eigenvectors (..., 2) of Herm(H) = (H + H*)/2.

    H is (..., 2, 2).  With s = H00 - H11, b = H01 + conj(H10) (twice
    Herm(H)'s corner) and h = hypot(s, |b|), (s + h, conj(b)) and (b, h - s)
    are top eigenvectors; the larger, of norm sqrt(2 h (h + |s|)), is taken,
    and (1, 0) when h is subnormal (Herm(H) = a I up to 1e-308): there s
    and h are read as 1/2, so the norm is exactly 1.
    """
    s, b, h = _split(H)
    tied = 0.5 * (h < _TINY)
    s, h = s + tied, h + tied
    big = h + np.abs(s)
    north = s >= 0
    v = np.empty(h.shape + (2,), dtype=complex)
    v[..., 0] = np.where(north, big, b)
    v[..., 1] = np.where(north, np.conj(b), big)
    v /= (np.sqrt(2.0 * h) * np.sqrt(big))[..., None]
    return v


def _top_hopf(H):
    """Hopf images (..., 4) of the top eigenvectors of Herm(H), H (..., 2, 2).

    For the top eigenvector v = (s + h, conj(b)) / sqrt(2 h (h + s)) (that
    of ``_top_eigvec`` up to a phase), (|v0|^2 - |v1|^2, 2 Re(conj(v0) v1),
    -2 Im(conj(v0) v1)) is exactly (s, Re b, Im b) / h, read here without
    the eigenvector.
    Where h is subnormal (every unit q is optimal) s and h are read as 1,
    which gives the i axis to within 1e-308.
    """
    s, b, h = _split(H)
    tied = h < _TINY
    s, h = s + tied, h + tied
    q = np.empty(h.shape + (4,))
    q[..., 0] = 0.0
    q[..., 1] = s
    q[..., 2] = b.real
    q[..., 3] = b.imag
    q /= h[..., None]
    return q


def _split(H):
    """(s, b, h) of forms H (..., 2, 2): s = H00 - H11, b = H01 + conj(H10)
    (twice the corner of Herm(H)) and h = hypot(s, |b|), its eigen-gap."""
    s = (H[..., 0, 0] - H[..., 1, 1]).real
    b = H[..., 0, 1] + np.conj(H[..., 1, 0])
    return s, b, np.hypot(s, np.abs(b))


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
            import json  # only a JSON spec needs the parser
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
