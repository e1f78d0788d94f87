"""The twistor correspondence over H^n: charts, lines, and sweeps.

Points of CP^{2n+1} over the chart cover W0 = {first coordinate != 0},
W1 = {second coordinate != 0} correspond to pairs (fiber coordinate, base
point) through the chart maps

    eta(chart 0): (z, x) -> [1 : z : a1 - z*conj(b1) : b1 + z*conj(a1) : ...]
    eta(chart 1): (w, x) -> [w : 1 : w*a1 - conj(b1) : w*b1 + conj(a1) : ...]

where (a_i, b_i) are the interleaved complex coordinates of x.  The inverse
maps divide out the fiber coordinate and solve the 2x2 systems per block:

    chart 0:  a_i = (z_{2i-1} + z0*conj(z_{2i})) / (1+|z0|^2)
              b_i = (z_{2i}   - z0*conj(z_{2i-1})) / (1+|z0|^2)
    chart 1:  a_i = (conj(w_{2i})  + conj(w0)*w_{2i-1}) / (1+|w0|^2)
              b_i = (-conj(w_{2i-1}) + conj(w0)*w_{2i}) / (1+|w0|^2)

A biquaternion matrix Sigma spans a projective line via

    line_embed(Sigma, [pi0 : pi1]) = [pi0 : pi1 : pi0*S_{A,0} + pi1*S_{A,1} ...]

and for real points Sigma = M(x) this line is exactly the eta-image of the
fiber over x.  line_base_points recovers the base point seen from any fiber
position of the line of an arbitrary complex Sigma, filling the conjugated
chart slots with the formal conjugates read from the partner rows of Sigma
(the holomorphic continuation of the genuine conjugates off the real slice);
the result is constant along the line and equal to Sigma itself -- the
algebraic identity behind the transform over the hull.

The proof-level sweep parametrizes the imaginary unit sphere by a complex
pair (a, b) with |a|^2 + |b|^2 = 1:

    q(a, b) = (|a|^2 - |b|^2) i + 2 j conj(a) b,

covered by the Hopf-style grid a = sqrt(t), b = sqrt(1-t) e^{i theta}.
hull_contains_via_lines scans that grid, sized by a node count, with the
sweep core of ``fueter.hull`` (band from the grid's own exact covering
chord, branch-and-bound over its own Delaunay triangles), so it decides the
same infimum as hull_contains on another grid.
"""

import functools

import numpy as np

from . import quat
from .hull import (_DEFAULT_COUNT, _as_point, _grid, _grid_count,
                   _line_points, _sweep)

__all__ = [
    "TwistorPoint", "FiberPoint", "TwistorLine", "OutsideChartsError",
    "eta", "eta_inverse", "line_embed", "line_base_points",
    "hopf_grid", "sweep_quaternions", "line_sweep", "hull_contains_via_lines",
]

_COORD_EPS = 1e-12


class OutsideChartsError(ValueError):
    """Both of the first two homogeneous coordinates vanish."""


class TwistorPoint:
    """A point of CP^{2n+1} held as a normalized homogeneous tuple.

    The representative is scaled to unit Euclidean norm with the first
    coordinate of magnitude > 1e-12 made positive real, so projectively equal
    tuples compare equal componentwise.
    """

    def __init__(self, homogeneous):
        v = np.asarray(homogeneous, dtype=complex).ravel()
        if v.size < 4 or v.size % 2:
            raise ValueError("need 2n+2 homogeneous coordinates")
        norm = np.linalg.norm(v)
        if norm == 0:
            raise ValueError("homogeneous coordinates must not all vanish")
        v = v / norm
        lead = np.flatnonzero(np.abs(v) > _COORD_EPS)
        if lead.size:
            phase = v[lead[0]] / abs(v[lead[0]])
            v = v / phase
        self.v = v

    @property
    def n(self):
        return (self.v.size - 2) // 2

    def in_W0(self):
        return abs(self.v[0]) > _COORD_EPS

    def in_W1(self):
        return abs(self.v[1]) > _COORD_EPS

    def isclose(self, other, tol=1e-10):
        return bool(np.max(np.abs(self.v - TwistorPoint(other.v).v)) <= tol)

    def __repr__(self):
        return "TwistorPoint(%r)" % (self.v.tolist(),)


class FiberPoint:
    """A chart pair (fiber coordinate, base point of H^n)."""

    def __init__(self, chart, fiber, base):
        if chart not in (0, 1):
            raise ValueError("chart must be 0 or 1")
        self.chart = int(chart)
        self.fiber = complex(fiber)
        self.base = np.asarray(base, dtype=float).ravel()
        if self.base.size % 4:
            raise ValueError("base must be a flat real point of H^n")

    @property
    def n(self):
        return self.base.size // 4

    def to_chart(self, chart):
        if chart == self.chart:
            return self
        if self.fiber == 0:
            raise ZeroDivisionError("fiber coordinate 0 is not on the overlap")
        return FiberPoint(chart, 1.0 / self.fiber, self.base)

    def isclose(self, other, tol=1e-10):
        o = other.to_chart(self.chart)
        return (abs(self.fiber - o.fiber) <= tol
                and np.max(np.abs(self.base - o.base)) <= tol)

    def __repr__(self):
        return "FiberPoint(chart=%d, fiber=%r, base=%r)" % (
            self.chart, self.fiber, self.base.tolist())


class TwistorLine:
    """The projective line attached to a biquaternion matrix Sigma."""

    def __init__(self, sigma):
        pt = _as_point(sigma)
        self.sigma = pt
        self.matrix = pt.matrix

    @property
    def n(self):
        return self.sigma.n


def eta(fp):
    """Chart map eta: FiberPoint -> TwistorPoint."""
    v = quat.real_to_ab(fp.base)
    a = v[0::2]
    b = v[1::2]
    t = fp.fiber
    rows = np.empty(2 * fp.n, dtype=complex)
    if fp.chart == 0:
        rows[0::2] = a - t * np.conj(b)
        rows[1::2] = b + t * np.conj(a)
        head = [1.0, t]
    else:
        rows[0::2] = t * a - np.conj(b)
        rows[1::2] = t * b + np.conj(a)
        head = [t, 1.0]
    return TwistorPoint(np.concatenate([head, rows]))


def eta_inverse(tp):
    """Invert eta on W0 (preferred when |v0| >= |v1|) or W1."""
    v = tp.v
    if not (tp.in_W0() or tp.in_W1()):
        raise OutsideChartsError("point lies over the line at infinity")
    use0 = abs(v[0]) >= abs(v[1])
    if use0:
        z = v[1] / v[0]
        coords = v[2:] / v[0]
        den = 1.0 + abs(z) ** 2
        a = (coords[0::2] + z * np.conj(coords[1::2])) / den
        b = (coords[1::2] - z * np.conj(coords[0::2])) / den
        chart, fiber = 0, z
    else:
        w = v[0] / v[1]
        coords = v[2:] / v[1]
        den = 1.0 + abs(w) ** 2
        a = (np.conj(coords[1::2]) + np.conj(w) * coords[0::2]) / den
        b = (-np.conj(coords[0::2]) + np.conj(w) * coords[1::2]) / den
        chart, fiber = 1, w
    ab = np.empty(coords.size, dtype=complex)
    ab[0::2] = a
    ab[1::2] = b
    return FiberPoint(chart, fiber, quat.ab_to_real(ab))


def line_embed(line, pi):
    """Homogeneous coordinates of the line point at [pi0 : pi1]."""
    if not isinstance(line, TwistorLine):
        line = TwistorLine(line)
    pi0, pi1 = complex(pi[0]), complex(pi[1])
    if pi0 == 0 and pi1 == 0:
        raise ValueError("[0 : 0] is not a projective point")
    rows = pi0 * line.matrix[:, 0] + pi1 * line.matrix[:, 1]
    return TwistorPoint(np.concatenate([[pi0, pi1], rows]))


def line_base_points(sigma, zs):
    """Base matrices seen along the line of sigma at chart-0 fiber values zs.

    For each z the chart-0 line coordinates are zeta_A(z) = S_{A,0} + z*S_{A,1}
    and the conjugated chart slots are filled with the formal conjugates

        row 2i-1:  S_{2i,1}   - conj(z)*S_{2i,0}
        row 2i:   -S_{2i-1,1} + conj(z)*S_{2i-1,0}

    (these are the honest conjugates when sigma is real).  Feeding both
    through the inverse-chart formulas reconstructs, for every z, the full
    biquaternion matrix of the base point -- which collapses to sigma itself.
    Returned as an array (len(zs), 2n, 2) so the identity is testable.
    """
    pt = _as_point(sigma)
    S = pt.matrix
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    zc = np.conj(zs)[:, None]
    z = zs[:, None]
    zeta = S[None, :, 0] + z * S[None, :, 1]  # (K, 2n)
    cj = np.empty_like(zeta)
    cj[:, 0::2] = S[None, 1::2, 1] - zc * S[None, 1::2, 0]
    cj[:, 1::2] = -S[None, 0::2, 1] + zc * S[None, 0::2, 0]
    den = 1.0 + np.abs(z) ** 2
    a_slot = (zeta[:, 0::2] + z * cj[:, 1::2]) / den
    b_slot = (zeta[:, 1::2] - z * cj[:, 0::2]) / den
    ac_slot = (cj[:, 0::2] + zc * zeta[:, 1::2]) / den
    bc_slot = (cj[:, 1::2] - zc * zeta[:, 0::2]) / den
    out = np.empty((zs.size, S.shape[0], 2), dtype=complex)
    out[:, 0::2, 0] = a_slot
    out[:, 1::2, 0] = b_slot
    out[:, 0::2, 1] = -bc_slot
    out[:, 1::2, 1] = ac_slot
    return out


# ---------------------------------------------------------------------------
# quaternionic line sweeps
# ---------------------------------------------------------------------------

def hopf_grid(n_t=24, n_theta=24):
    """Complex pairs (a, b), |a|^2+|b|^2 = 1, covering the unit sphere fiber."""
    t = (np.arange(n_t) + 0.5) / n_t
    theta = 2 * np.pi * np.arange(n_theta) / n_theta
    a = np.sqrt(t)[:, None] * np.ones_like(theta)[None, :]
    b = np.sqrt(1 - t)[:, None] * np.exp(1j * theta)[None, :]
    pairs = np.stack([a.ravel().astype(complex), b.ravel()], axis=1)
    # include the two poles exactly
    poles = np.array([[1.0 + 0j, 0.0], [0.0, 1.0 + 0j]])
    return np.concatenate([pairs, poles], axis=0)


def sweep_quaternions(pairs):
    """Map (a, b) pairs to unit imaginary quaternions (|a|^2-|b|^2) i + 2 j conj(a) b."""
    pairs = np.asarray(pairs, dtype=complex)
    a = pairs[..., 0]
    b = pairs[..., 1]
    c = np.conj(a) * b
    q = np.stack([np.zeros_like(c.real), np.abs(a) ** 2 - np.abs(b) ** 2,
                  2 * c.real, -2 * c.imag], axis=-1)
    return q


def line_sweep(sigma, pairs=None):
    """The swept base set {x + y*q(a,b)} of sigma over a fiber grid -> (K, 4n)."""
    pt = _as_point(sigma)
    if pairs is None:
        pairs = hopf_grid()
    qs = sweep_quaternions(pairs)
    return _line_points(pt.x, pt.y, qs)


def hull_contains_via_lines(sigma, U, count=_DEFAULT_COUNT, return_query=False):
    """Line-containment test of hull membership (Hopf grid + branch-and-bound).

    True iff every swept base point lies in U.  The grid is the Hopf grid of
    about count nodes (at least 12), and the scan, band, branch-and-bound
    and verdict are those of hull_contains (the sweep is the same set
    {x + y q}), with the grid's own exact covering chord as the band's
    radius and its own Delaunay triangles to split.  Returns the HullQuery
    when return_query is set, else the verdict.
    """
    grid = _default_sweep(_grid_count(count))
    query = _sweep(_as_point(sigma), U, grid)
    return query if return_query else query.verdict


@functools.lru_cache(maxsize=32)
def _default_sweep(count):
    """The Hopf grid of about count nodes as a sweep grid (see hull._grid)."""
    n_t = max(4, int(np.sqrt(count)))
    qs = sweep_quaternions(hopf_grid(n_t, max(4, count // n_t)))
    qs.flags.writeable = False
    return _grid(qs)
