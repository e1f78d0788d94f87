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
{x + y q : q in S^2} that defines the monogenic hull.  Since
||M(w) pi|| = ||w|| ||pi||, a distance or a linear form along them is a
Hermitian form in pi, the 2x2 ``DomainSpec.line_form`` of a domain, and
``hull_contains_via_lines`` reads the base points over the forms' top
eigenvectors (``DomainSpec.line_argmin``) through the charts of L_sigma.
That is the exact readout of the hull's one query, ``hull._sweep``, which
answers the real slice and a domain without a line form as hull_contains.

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

import numpy as np

from . import quat
from .hull import _as_point, _sweep

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
    eta_inverse refuses it.
    """
    S = np.asarray(S, dtype=complex)
    pi = np.asarray(pi, dtype=complex)
    rows = S[..., 0] * pi[..., :1] + S[..., 1] * pi[..., 1:]
    if pi.shape[:-1] != rows.shape[:-1]:  # one pi over a batch of S
        pi = np.broadcast_to(pi, rows.shape[:-1] + (2,))
    return np.concatenate([pi, rows], axis=-1)


def eta_inverse(v):
    """Fibre and base points (pi, x) of points v (..., 2n+2) of CP^{2n+1}.

    pi = v[..., :2] and x (..., 4n) is the block solve of the module
    docstring, the same for every representative of v.
    OutsideChartsError if a row has v0 = v1 = 0.
    """
    v = np.asarray(v, dtype=complex)
    a, b, den = _chart_solve(v, np.conj(v))
    if not den.all():
        raise OutsideChartsError("a point lies over the line at infinity "
                                 "(v0 = v1 = 0)")
    # quat's order per quaternion: Re a, Im a, Im b, Re b
    x = np.empty(a.shape + (4,))
    x[..., 0] = a.real
    x[..., 1] = a.imag
    x[..., 2] = b.imag
    x[..., 3] = b.real
    x /= den[..., None]
    return v[..., :2], x.reshape(x.shape[:-2] + (4 * x.shape[-2],))


def _chart_solve(v, w):
    """(den a, den b, den) of the block solve at line points v (..., 2n+2)
    and their conjugate points w (conj(v), or formal conjugates): with
    zeta_e, zeta_o the rows 2i-1, 2i of v past the fibre and w_e, w_o those
    of w, den a = w0 zeta_e + v1 w_o, den b = w0 zeta_o - v1 w_e and
    den = Re(v0 w0 + v1 w1).  Swapped, it gives (conj a, conj b)."""
    p = (v[..., :2] * w[..., :2]).real
    den = p[..., :1] + p[..., 1:]
    cz = w[..., :1] * v[..., 2:]
    cw = v[..., 1:2] * w[..., 2:]
    return cz[..., 0::2] + cw[..., 1::2], cz[..., 1::2] - cw[..., 0::2], den


def line_base_points(sigma, zs):
    """Base matrices seen along the line of sigma at chart-0 fiber values zs.

    For each z the chart-0 line coordinates are zeta_A(z) = S_{A,0} + z*S_{A,1}
    and the conjugated chart slots are filled with the formal conjugates

        row 2i-1:  S_{2i,1}   - conj(z)*S_{2i,0}
        row 2i:   -S_{2i-1,1} + conj(z)*S_{2i-1,0},

    the line of the formal conjugate matrix at conj(z) (the honest
    conjugates when sigma is real).  eta_inverse's block solve, once for
    (a, b) and once for their conjugates, reconstructs, for every z, the
    full biquaternion matrix of the base point -- which collapses to sigma.
    Returned as an array (len(zs), 2n, 2) so the identity is testable.
    """
    S = _as_point(sigma).matrix
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    pi = np.stack([np.ones_like(zs), zs], axis=-1)
    Sc = np.empty_like(S)
    Sc[0::2] = S[1::2, ::-1] * [1, -1]
    Sc[1::2] = S[0::2, ::-1] * [-1, 1]
    v = line_embed(S, pi)
    w = line_embed(Sc, np.conj(pi))
    a, b, den = _chart_solve(v, w)
    ac, bc, _ = _chart_solve(w, v)
    out = np.empty((zs.size, S.shape[0], 2), dtype=complex)
    out[:, 0::2] = np.stack([a, -bc], axis=-1) / den[..., None]
    out[:, 1::2] = np.stack([b, ac], axis=-1) / den[..., None]
    return out


# ---------------------------------------------------------------------------
# quaternionic line sweeps
# ---------------------------------------------------------------------------

def hopf_grid(n_t=24, n_theta=24):
    """Complex pairs (a, b), |a|^2+|b|^2 = 1, covering the unit sphere fiber.

    ValueError unless n_t and n_theta are integers >= 1 (an integral float
    such as 3.0 counts): a fractional n_t would put a ring on a pole.
    """
    def whole(v):
        try:
            return int(v) == v >= 1
        except (OverflowError, TypeError, ValueError):   # inf, NaN, not a number
            return False

    if not (whole(n_t) and whole(n_theta)):
        raise ValueError("hopf_grid needs integers n_t, n_theta >= 1, "
                         "not %r, %r" % (n_t, n_theta))
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
    q = np.empty(c.shape + (4,))
    q[..., 0] = 0.0
    q[..., 1] = np.abs(a) ** 2 - np.abs(b) ** 2
    q[..., 2] = 2 * c.real
    q[..., 3] = -2 * c.imag
    return q


def line_sweep(sigma, pairs=None):
    """The swept base set {x + y*q(a,b)} of sigma over a fiber grid -> (K, 4n)."""
    pt = _as_point(sigma)
    if pairs is None:
        pairs = hopf_grid()
    qs = sweep_quaternions(pairs)
    return quat.right_line(pt.x, pt.y)(qs)


def hull_contains_via_lines(sigma, U, return_query=False):
    """Hull membership through the real base points of sigma's twistor line.

    True iff every real base point of L_sigma lies in U.  The query is
    ``hull._sweep``'s with this exact readout: inf_value is the least
    ``U.ext_distance`` at the base points eta_inverse(line_embed(S, pi)) of
    the candidates pi = ``U.line_argmin(S)``, the forms' top eigenvectors,
    and argmin_q is Hopf(pi*) of the least one; each base point is
    x + y Hopf(pi) within 32 eps max(1, ||sigma||_C) (tests/test_twistor.py),
    far below the verdict threshold.  The real slice, and a domain without
    ``line_form``, are answered as by hull_contains.
    Returns the HullQuery when return_query is set, else the verdict.
    """
    def spectrum(x, y):
        S = quat.matrix_point(x, y)
        pi = U.line_argmin(S)
        vals = U.ext_distance(eta_inverse(line_embed(S, pi))[1])
        i = vals.argmin()
        return vals[i], sweep_quaternions(pi[i])

    query = _sweep(sigma, U, spectrum)
    return query if return_query else query.verdict
