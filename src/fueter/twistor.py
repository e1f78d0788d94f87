"""The twistor correspondence over H^n: homogeneous charts, lines, and sweeps.

A point of CP^{2n+1} is a homogeneous (..., 2n+2) complex array v and a
fibre point a homogeneous pair pi = (pi0, pi1) of shape (..., 2); chart 0
is the representative [1 : z] and chart 1 is [w : 1], so each map below is
one formula on arrays for both charts.  With (a_i, b_i) the interleaved
complex coordinates of a base point x (``quat.real_to_ab``),

    eta(pi, x)        = [pi0 : pi1 : ... : pi0 a_i - pi1 conj(b_i) :
                                           pi0 b_i + pi1 conj(a_i) : ...]
                      = [pi : M(x) pi],
    line_embed(S, pi) = [pi : S pi]   for a (2n x 2) complex matrix S,

and eta_inverse solves the 2x2 system of each block: with v = [pi : zeta]
and zeta_e, zeta_o the rows 2i-1 and 2i of zeta,

    a_i = (conj(pi0) zeta_e + pi1 conj(zeta_o)) / (|pi0|^2 + |pi1|^2)
    b_i = (conj(pi0) zeta_o - pi1 conj(zeta_e)) / (|pi0|^2 + |pi1|^2),

defined off the line pi0 = pi1 = 0 (OutsideChartsError).  For a real point
S = M(x) the line is the eta-image of the fibre over x.  For a complex
point sigma = (x, y), S = M(x) + i M(y), and M(q) pi = i pi for the unit
imaginary quaternion q = Hopf(pi) = (|pi0|^2 - |pi1|^2) i + 2 j conj(pi0) pi1
(``sweep_quaternions``), so S pi = M(x + y q) pi and

    eta_inverse(line_embed(S, pi)) = (pi, x + y q):

the real base points of sigma's line L_sigma are the swept set
{x + y q : q in S^2} that defines the monogenic hull.
``hull_contains_via_lines`` decides membership that way: it scans the
hull's Fibonacci lattice, each node q mapped to a unit fibre point with
Hopf(pi) = q, through the charts of L_sigma, with the sweep core of
``fueter.hull`` (band, branch-and-bound, verdict).

line_base_points recovers the base point seen from any fiber position of
the line of an arbitrary complex Sigma, filling the conjugated chart slots
with the formal conjugates read from the partner rows of Sigma (the
holomorphic continuation of the genuine conjugates off the real slice); the
result is constant along the line and equal to Sigma itself -- the
algebraic identity behind the transform over the hull.

``fueter twistor sweep`` prints the swept set on the Hopf-style grid
a = sqrt(t), b = sqrt(1-t) e^{i theta} of the fibre (``hopf_grid``,
``line_sweep``).
"""

import functools

import numpy as np

from . import quat
from .hull import _DEFAULT_COUNT, _as_point, _grid_count, _lattice, _sweep

__all__ = [
    "OutsideChartsError", "eta", "eta_inverse", "line_embed",
    "line_base_points", "hopf_grid", "sweep_quaternions", "line_sweep",
    "hull_contains_via_lines",
]


class OutsideChartsError(ValueError):
    """Both of the first two homogeneous coordinates vanish."""


def eta(pi, x):
    """The chart map: fibre points pi (..., 2) over x (..., 4n) -> (..., 2n+2).

    Returns [pi : M(x) pi], the point of CP^{2n+1} that pi names in the
    fibre over the base point x.
    """
    return line_embed(quat.embed_M(x), pi)


def line_embed(S, pi):
    """The points [pi : S pi] (..., 2n+2) of the lines of matrices S.

    S is a (..., 2n, 2) complex matrix (``quat.matrix_point(x, y)``), pi a
    homogeneous fibre point (..., 2).  A row with pi = (0, 0) is no point;
    eta_inverse refuses it.  The result is coordinate-major in memory (each
    coordinate one run over the batch), which eta_inverse and the domain
    oracles after it stream over.
    """
    S = np.asarray(S, dtype=complex)
    pi = np.asarray(pi, dtype=complex)
    batch = np.broadcast(S[..., 0, 0], pi[..., 0]).shape
    v = np.empty((S.shape[-2] + 2,) + batch[::-1], dtype=complex).T
    v[..., :2] = pi
    # the products are written in v's layout, not in a C-ordered temporary
    rows = v[..., 2:]
    np.multiply(S[..., 0], pi[..., :1], out=rows)
    rows += np.multiply(S[..., 1], pi[..., 1:], out=np.empty_like(rows))
    return v


def eta_inverse(v):
    """Fibre and base points (pi, x) of points v (..., 2n+2) of CP^{2n+1}.

    pi = v[..., :2] and x (..., 4n) is the block solve of the module
    docstring, the same for every representative of v; x is
    coordinate-major in memory, like line_embed's output.
    OutsideChartsError if a row has v0 = v1 = 0.
    """
    v = np.asarray(v, dtype=complex)
    # .T puts the coordinates first (and the batch axes reversed, which
    # elementwise work does not mind); the second .T undoes it
    vt = v.T
    vc = np.conj(vt)
    den = np.add.reduce((vt[:2] * vc[:2]).real)
    if not den.all():
        raise OutsideChartsError("a point lies over the line at infinity "
                                 "(v0 = v1 = 0)")
    # den (a, b) = (c0 zeta_e + c1 conj(zeta_o), c0 zeta_o - c1 conj(zeta_e))
    # with (c0, c1) = (conj(pi0), pi1)
    cz = vc[0] * vt[2:]
    cw = vt[1] * vc[2:]
    a = cz[0::2] + cw[1::2]
    b = cz[1::2] - cw[0::2]
    # quat's order per quaternion: Re a, Im a, Im b, Re b
    x = np.empty((a.shape[0], 4) + a.shape[1:])
    x[:, 0] = a.real
    x[:, 1] = a.imag
    x[:, 2] = b.imag
    x[:, 3] = b.real
    x /= den
    return v[..., :2], x.reshape((-1,) + den.shape).T


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
    if n_t < 1 or n_theta < 1:
        raise ValueError("hopf_grid needs n_t, n_theta >= 1, not %d, %d"
                         % (n_t, n_theta))
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
    return quat.right_line(pt.x, pt.y)(qs)


def _fibre_points(q):
    """Unit fibre points pi (..., 2) with Hopf(pi) = q, for unit imaginary q.

    pi is (1 + u1, u2 - i u3) where u1 >= 0 and (u2 + i u3, 1 - u1)
    elsewhere, for q = u1 i + u2 j + u3 k, divided by its norm
    sqrt(2 (1 + |u1|)) >= sqrt(2).
    """
    q = np.asarray(q, dtype=float)
    u1, u2, u3 = q[..., 1], q[..., 2], q[..., 3]
    north = u1 >= 0.0
    c = 1.0 + np.abs(u1)
    pi = np.stack([np.where(north, c, u2 + 1j * u3),
                   np.where(north, u2 - 1j * u3, c)], axis=-1)
    pi /= np.sqrt(2.0 * c)[..., None]
    return pi


@functools.lru_cache(maxsize=32)
def _lattice_fibres(count):
    """_fibre_points of the nodes of ``hull._lattice(count)``, read-only."""
    pi = _fibre_points(_lattice(count)[0])
    pi.flags.writeable = False
    return pi


def hull_contains_via_lines(sigma, U, count=_DEFAULT_COUNT, return_query=False):
    """Hull membership through the real base points of sigma's twistor line.

    True iff every real base point of L_sigma lies in U.  The fibre is
    scanned at the unit fibre points over the nodes of the hull's
    Fibonacci lattice of count nodes (at least 12), and g(q) is
    ``U.ext_distance`` of ``eta_inverse(line_embed(S, pi(q)))`` (see
    _chart_line); the band and branch-and-bound are those of hull_contains
    on the same lattice tuple, and so is the verdict, True only when
    certified: an indeterminate query, whose line the search could not keep
    away from U's exterior, is False.  Each base point equals x + y q within
    32 eps max(1, ||sigma||_C): a forward count of the roundings in pi(q),
    S, line_embed and eta_inverse gives about 12 eps, and a Hypothesis
    property in tests/test_twistor.py checks 32 eps.  That is 140 times
    below the verdict threshold tau = 1e-12 max(1, ||sigma||_C), so g stays
    that close to the ||y||-Lipschitz ext_distance(x + y q) and the
    branch-and-bound's bounds stay certified.
    Returns the HullQuery when return_query is set, else the verdict.
    """
    count = _grid_count(count)
    pt = _as_point(sigma)
    query = _sweep(pt, U, _lattice(count), _chart_line(pt.x, pt.y, count))
    return query if return_query else query.verdict


def _chart_line(x, y, count):
    """The line map q (K, 4) -> eta_inverse(line_embed(S, pi(q))) (K, 4n).

    S is the matrix of sigma = (x, y) (flat (4n,) arrays).  The scan passes
    the node array of ``hull._lattice(count)`` itself, which maps through
    its cached fibre points; the branch-and-bound's midpoints map through
    _fibre_points as they come.
    """
    nodes = _lattice(count)[0]
    fibres = _lattice_fibres(count)
    S = quat.matrix_point(x, y)

    def line(q):
        pi = fibres if q is nodes else _fibre_points(q)
        return eta_inverse(line_embed(S, pi))[1]

    return line
