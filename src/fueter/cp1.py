r"""Line bundles Q_k over CP^1 and the plane quadrature used throughout.

The bundle Q_k glues chart functions by f1(1/z) = z^{-k} f0(z); its
(0,1)-forms (written h0 dconj(z) on chart 0, h1 dconj(w) on chart 1) glue by
h1(1/z) = -z^{-k} conj(z)^2 h0(z).  The clutching fixes h1 from h0, so a
form is held by h0 alone (Form01).  For k <= -2 the cohomology H^1 is
C^{-k-1}, computed by the moment integrals

    a_ell = (1/2 pi i) \int_C  z^ell h0(z) dconj(z)^dz,   ell = 0..-k-2,

which vanish on exact forms dbar(f).  Sections enter only as that f, so the
module keeps forms alone: exact_form builds dbar(f) for a bump-supported f
in closed form.  For k = -3 the harmonic representative

    h0(z) = (a0, a1) . b(z),   b(z) = (1, conj(z)) 2/(1+|z|^2)^3,

inverts the coefficient map exactly (the two moments of 2/(1+|z|^2)^3 and
2 z conj(z)/(1+|z|^2)^3 both equal 1, those of the cross terms 0); b is
harmonic_basis, also the fiber basis of the twistor transform (penrose).

A form may carry such a factorisation, coefficients (..., R) times a basis
b(z) -> (R,) + z.shape.  The map is linear, so its coefficients are the
coefficients times the basis's moment table T (R, -k-1), summed once per
basis and rule and cached (moment_table).  Every moment is one sum over
the rule's radial rows, a_ell = sum_i W_i r_i^ell S_i, of row i's angular
sum S_i = sum_j e^{i ell phi_j} h0(r_i e^{i phi_j}).  A form may declare
h0 = radial(|z|) z^a conj(z)^b (polar, set by exact_form): S_i is then
known in closed form, with no node array; otherwise it sums the row's
values of h0 against the rule's roots of unity.

The quadrature realizes (1/2 pi i) \int g dconj(z)^dz = (1/pi) \int g dA via
the compactified substitution z = (rho/(1-rho)) e^{i phi}: Gauss-Legendre in
rho in [0,1), uniform trapezoid in phi (spectrally accurate in the periodic
angle).  The Gauss-Legendre nodes come from Newton's method in the angle
theta = arccos(x), on Stieltjes' asymptotic series for P_n(cos theta)
(Szegő, Orthogonal Polynomials, Thm 8.21.5) and, for the few nodes next to
x = +-1 that the series cannot serve, on the Mehler-Dirichlet integral (DLMF
14.12.1), in O(n) work (Hale & Townsend, SIAM J. Sci. Comput. 35, A652,
2013).  The weights are 2 / (dP_n/dtheta)^2, within a few ulps even at the
edge nodes, and the radii rho/(1-rho) = cot^2(theta/2) take no difference
near rho = 1.  The default 96x64 rule is machine-precision for
integrands with rational (1+|z|^2)^-3-type profiles; the 1536-radial "bump
grade" handles the C-infinity-but-non-analytic exact forms, whose edge
behavior defeats Gauss-Legendre at low node counts (errors ~1e-5 at 768 nodes
drop below 1e-9 at 1536).  The form picks its rule: the bump grade when it
has a support annulus (exact_form's), the default otherwise.  Both rules are
fixed: a form with a support is summed over the rule's rows in that
annulus only: the sum loses only terms that are exactly zero.  Every
coefficient carries a bound on its rounding, of the row sum, or of the
table's and the product's (see _certified_moments); one the bound cannot
certify to the rule's target_tol is refused, not returned.
"""

import functools
import math

import numpy as np

__all__ = [
    "QuadratureConfig", "QuadratureError", "BUMP_GRADE",
    "quadrature_nodes", "quadrature_C", "Form01", "cohomology_coefficients",
    "harmonic_representative", "harmonic_basis", "moment_table",
    "h1_dimension", "exact_form",
]


class QuadratureError(RuntimeError):
    pass


def _integer(v, name):
    """v as an int; ValueError unless it is one (an int, a numpy integer, or
    an integral float such as 3.0), so that nothing is truncated."""
    try:
        whole = int(v) == v
    except (OverflowError, TypeError, ValueError):   # inf, NaN, not a number
        whole = False
    if not whole:
        raise ValueError("%s must be an integer, not %r" % (name, v))
    return int(v)


def _count(v, name):
    """v as an int; ValueError unless it is an integer >= 0."""
    v = _integer(v, name)
    if v < 0:
        raise ValueError("%s must be a nonnegative integer, not %r" % (name, v))
    return v


class QuadratureConfig:
    """Node counts for the compactified plane quadrature, and the rounding
    bound target_tol (finite and positive) every coefficient must meet."""

    def __init__(self, n_radial=96, n_angular=64, target_tol=1e-6):
        self.n_radial = _integer(n_radial, "n_radial")
        self.n_angular = _integer(n_angular, "n_angular")
        if self.n_radial < 8 or self.n_angular < 8:
            raise ValueError("need at least 8 nodes per direction")
        # NaN would refuse every coefficient and inf pass any
        if not 0.0 < target_tol < np.inf:
            raise ValueError("target_tol must be finite and positive, not %r"
                             % (target_tol,))
        self.target_tol = float(target_tol)

    def refined(self):
        return QuadratureConfig(2 * self.n_radial, 2 * self.n_angular,
                                self.target_tol)

    def __repr__(self):
        return "QuadratureConfig(%d, %d)" % (self.n_radial, self.n_angular)


# quadrature grade for bump-function fixtures; see module docstring.  An
# exact form reads its 1536 radii and row weights only (_radial_rule), not
# the 1536 x 96 node grid
BUMP_GRADE = QuadratureConfig(n_radial=1536, n_angular=96, target_tol=1e-5)

# Most fiber nodes h0 is evaluated at at once (see _node_moments): the
# default rule is one block of rows, BUMP_GRADE's whole plane nineteen.
_CHUNK_NODES = 1 << 13


def quadrature_nodes(cfg=None):
    """Complex nodes Z and real weights W with sum(W * g(Z)) ~ (1/pi) int g dA.

    The arrays are cached per node count and read-only.
    """
    cfg = cfg or QuadratureConfig()
    return _nodes(cfg.n_radial, cfg.n_angular)


def _support_rows(support, cfg):
    """The slice of cfg's radial rows in the annulus support, plus one each side.

    The radii of _radial_rule ascend, and _nodes lays the rule out
    radial-major, so row i holds the n_angular nodes of radius r_i (exactly:
    Z[i * n_angular] is r_i) and the rows strictly inside (r_in, r_out) are
    consecutive.  The extra row on each side keeps a node whose |Z| rounds
    across a support radius.  Only the radii are read, not the grid.
    """
    r, _ = _radial_rule(cfg.n_radial)
    lo = max(int(np.searchsorted(r, support[0], side="right")) - 1, 0)
    hi = min(int(np.searchsorted(r, support[1], side="left")) + 1, r.size)
    return slice(lo, hi)


# Terms of Stieltjes' series that _legendre_series sums.  _series_serves then
# leaves six or seven nodes at each end of a rule to the integral; 25 terms
# would serve about one node more per end, 15 about three fewer.
_SERIES_TERMS = 20

# floor(pi * 10^50): C_n below is then the correctly rounded value
_PI_E50 = 314159265358979323846264338327950288419716939937510

# a - sin(a) = a^3 sum_k (-a^2)^k / (2k+3)!, to double precision for a <= pi/4
_SIN_TAIL = tuple((-1) ** k / math.factorial(2 * k + 3) for k in range(9))


def _series_scale(n):
    """C_n = (4/pi) (2^n n!)^2 / (2n+1)! = (4/pi) 4^n / ((2n+1) binom(2n, n)),
    correctly rounded (int / int is)."""
    return (4 * 10 ** 50 << 2 * n) / (_PI_E50 * (2 * n + 1) * math.comb(2 * n, n))


def _legendre_series(n, theta):
    """P_n(cos theta) / C_n and its theta-derivative by Stieltjes' series.

    P_n(cos theta) = C_n sum_{m<M} h_m cos(a_m) / (2 sin theta)^(m+1/2), with
    a_m = (n+m+1/2) theta - (m+1/2) pi/2 and
    h_m = prod_{j<=m} (j-1/2)^2 / (j (n+j+1/2)) (Szegő, Orthogonal
    Polynomials, Thm 8.21.5); the derivative is the series differentiated
    term by term.  Each e^{i a_m} / (2 sin theta)^(m+1/2) is the one before
    it times e^{i(theta - pi/2)} / (2 sin theta) = (1 - i cot theta) / 2.
    """
    nu = n + 0.5
    j = np.arange(1, _SERIES_TERMS)
    h = np.cumprod(np.concatenate([[1.0], (j - 0.5) ** 2 / (j * (nu + j))]))
    s = np.sin(theta)
    cot = np.cos(theta) / s
    rot = 0.5 - 0.5j * cot
    f = np.empty((_SERIES_TERMS, theta.size), dtype=complex)
    f[0] = np.exp(1j * (nu * theta - np.pi / 4)) * np.sqrt(0.5 / s)
    for i in j:
        np.multiply(f[i - 1], rot, out=f[i])
    f *= h[:, None]
    # the terms fall off fast: summing the tail before adding the leading
    # term leaves one rounding at the scale of the sum
    re, im = f.real, f.imag
    return (re[0] + re[1:].sum(axis=0),
            -(nu * im[0] + (nu + j) @ im[1:])
            - cot * (0.5 * re[0] + (j + 0.5) @ re[1:]))


def _series_serves(n, theta):
    """Where Stieltjes' series gives Newton's root and its weight to rounding.

    The series' remainder after M terms is below C_n h_M 2 / (2 sin theta)^(M+1/2)
    (Szegő Thm 8.21.5).  At a root |dP_n/dtheta| is about
    C_n (n+1/2) / (2 sin theta)^(1/2), so Newton's root moves by at most
    dtheta = 2 h_M / ((n+1/2) (2 sin theta)^M); the derivative's terms carry a
    factor n+m+1/2 more, so dP_n/dtheta moves by (n+M+1/2) dtheta relative, a
    factor (n+1/2) theta more than the root does.  The series serves where
    that is below eps/4, so the weight 2/(dP_n/dtheta)^2 it sets is off by
    under half an ulp.  The bound depends on (n+1/2) theta alone to leading
    order: it leaves the roots below (n+1/2) theta = 20 to 23, six or seven
    at each end, to _legendre_integral, and every root for n <= 13.
    """
    nu = n + 0.5
    j = np.arange(1, _SERIES_TERMS + 1)
    h = np.prod((j - 0.5) ** 2 / (j * (nu + j)))
    change = (2.0 * h * (nu + _SERIES_TERMS)
              / (nu * (2.0 * np.sin(theta)) ** _SERIES_TERMS))
    return change <= np.finfo(float).eps / 4


def _legendre_integral(n, theta):
    """P_n(cos theta) and dP_n/dtheta by the Mehler-Dirichlet integral.

    With sin(phi/2) = sin(theta/2) sin(t), DLMF 14.12.1 reads
    P_n(cos theta) = (2/pi) int_0^{pi/2} cos((n+1/2) phi) / cos(phi/2) dt;
    dP_n/dtheta is the integral of the integrand's theta-derivative.  Both
    integrands extend to even, pi-periodic analytic functions of t, so the
    trapezoid rule on N intervals converges geometrically.  To leading order
    in sin(theta/2) the integrand is cos(A sin t), A <= (n+1/2) theta, whose
    cosine coefficients in 2t are 2 J_2k(A); the rule misses the one at
    k = 2N, below (A/2)^(4N) / (4N)! < 2^(-4N) once 4N >= e A.  The branch
    points of arcsin, at sin t = 1/sin(theta/2), lie at |Im t| >= 0.88 for
    theta <= pi/2, so their share falls as e^(-4N 0.88).  N >= 16 puts both
    below 2^-64.  Each term is rounded at the integrand's scale n+1/2, while
    dP_n/dtheta is about (n+1/2) (2 / pi A)^(1/2) at a root: averaged over
    N terms, the rounding's share grows as (A/N)^(1/2), and N >= 4A keeps it
    at its floor of a few ulps.  N is a power of two, so the weight 1/N is
    exact.
    """
    top = (n + 0.5) * float(np.max(theta, initial=0.0))
    intervals = 1 << max(4, math.ceil(math.log2(max(4.0 * top, 1.0))))
    t = np.linspace(0.0, np.pi / 2, intervals + 1)
    wt = np.full(intervals + 1, 1.0 / intervals)
    wt[[0, -1]] = 0.5 / intervals
    sin_t = np.sin(t)
    s = np.sin(theta / 2)[:, None] * sin_t          # sin(phi/2)
    c2 = 1.0 - s * s
    c = np.sqrt(c2)                                  # cos(phi/2)
    # the phase (n+1/2) phi = (2n+1) arcsin(s) to an ulp of 1, where rounding
    # arcsin and the product would leave a few ulps of A: arcsin's error is
    # (s - sin a) / cos a, with s - a exact (Sterbenz) and a - sin a by its
    # Taylor series, and a is split so that (2n+1) a_hi is exact
    a = np.arcsin(s)
    a2 = a * a
    tail = np.full_like(a, _SIN_TAIL[-1])
    for coefficient in _SIN_TAIL[-2::-1]:
        tail = tail * a2 + coefficient
    a_fix = (s - a + a * a2 * tail) / c
    scale = 2.0 ** (52 - math.frexp(max(top, 1.0))[1])
    a_hi = np.round(a * scale) / scale
    phase = (2 * n + 1) * a_hi
    phase_lo = (2 * n + 1) * (a_fix + (a - a_hi))
    cos_h, sin_h = np.cos(phase), np.sin(phase)
    cos_p, sin_p = cos_h - sin_h * phase_lo, sin_h + cos_h * phase_lo
    # d phi / d theta = cos(theta/2) sin(t) / cos(phi/2)
    dp = ((0.5 * cos_p * s / c - (n + 0.5) * sin_p) * (sin_t / c2)) @ wt
    return (cos_p / c) @ wt, np.cos(theta / 2) * dp


def _gauss_legendre_angles(n):
    """theta_k = arccos(x_k) of the nonnegative Gauss-Legendre nodes, ascending,
    and their weights.

    Newton's method runs in theta on P_n(cos theta), by Stieltjes' series
    where it serves and by the Mehler-Dirichlet integral at the ends (Hale &
    Townsend, SIAM J. Sci. Comput. 35, A652, 2013): each pass is a fixed
    number of array operations, O(n) work in all.  The weights are
    2 / (dP_n/dtheta)^2, since (1 - x^2) P_n'(x)^2 = (dP_n/dtheta)^2, with no
    1 - x to round.
    """
    nu = n + 0.5
    # start from theta ~ psi + (psi cot psi - 1) / (8 psi nu^2), psi = j_k / nu
    # with j_k the k-th zero of J_0 (Szegő Thm 8.21.6 to next order), by
    # McMahon's expansion (DLMF 10.21.19) but for the first zero, where that
    # is worst; the start is then within 2e-6 of the root, relative, for
    # n >= 4 (2.4e-4 at n = 2)
    b = (np.arange(1, (n + 1) // 2 + 1) - 0.25) * np.pi
    j0 = b + 1 / (8 * b) - 124 / (3 * (8 * b) ** 3) + 120928 / (15 * (8 * b) ** 5)
    j0[0] = 2.404825557695773
    psi = j0 / nu
    theta = psi + (psi / np.tan(psi) - 1.0) / (8.0 * psi * nu * nu)
    # for odd n the last root is pi/2 (x = 0), where Newton does not move it
    if n % 2:
        theta[-1] = np.pi / 2
    ends = int(np.count_nonzero(~_series_serves(n, theta)))
    # a relative step below 1e-9 leaves an error below 1e-18 (Newton's
    # constant in theta is cot(theta)/2 at a root), so the pass after it only
    # refreshes dP_n/dtheta for the weights; from this start that is the
    # third pass for n >= 4
    step = np.inf
    for _ in range(8):
        p0, dp0 = _legendre_integral(n, theta[:ends])
        p1, dp1 = _legendre_series(n, theta[ends:])
        if step < 1e-9:
            break
        d = np.concatenate([p0 / dp0, p1 / dp1])
        if n % 2:
            d[-1] = 0.0
        theta = theta - d
        step = np.max(np.abs(d) / theta)
    dp = np.concatenate([dp0, _series_scale(n) * dp1])
    return theta, 2.0 / (dp * dp)


def _gauss_legendre(n):
    """Ascending Gauss-Legendre nodes and weights on [-1, 1], any n >= 1.

    The nonnegative nodes are cos(theta) of _gauss_legendre_angles, built in
    O(n); the others mirror them, and for odd n the middle one is exactly 0.
    """
    theta, w = _gauss_legendre_angles(n)
    x = np.cos(theta)
    if n % 2:
        x[-1] = 0.0
    return (np.concatenate([-x[:n // 2], x[::-1]]),
            np.concatenate([w[:n // 2], w[::-1]]))


@functools.lru_cache(maxsize=8)
def _radial_rule(n_radial):
    """Ascending radii r of the rule's rows and their weights c (the
    Gauss-Legendre weight times dr/drho times r), with
    sum_ij c_i (2/n_angular) g(r_i e^{i phi_j}) ~ (1/pi) int g dA; read-only.

    A row's node weight W is c (2/n_angular), so a sum over whole rows (see
    _node_moments) needs these n_radial numbers, not the grid of _nodes.
    """
    theta, wt = _gauss_legendre_angles(n_radial)
    # rho = (1 + x) / 2 is cos^2(theta/2) at the node x = cos(theta) and
    # sin^2(theta/2) at its mirror -x, so r = rho / (1 - rho) is cot^2(theta/2)
    # or tan^2(theta/2), with no difference taken, and the Jacobian
    # dr/drho = 1 / (1 - rho)^2 is (1 + r)^2.  Radii ascend: the mirrors
    # first, then the nodes from x = 0 or the smallest x > 0
    half = n_radial // 2
    t = np.tan(theta / 2)
    if n_radial % 2:
        t[-1] = 1.0                       # x = 0: r = 1
    r = np.concatenate([t[:half], 1.0 / t[::-1]]) ** 2
    wr = np.concatenate([wt[:half], wt[::-1]]) / 2.0
    jac = (1.0 + r) ** 2                  # dr = jac * drho
    # (1/pi) * r dr dphi; the trapezoid weight 2*pi/n_angular, over pi, is
    # the 2/n_angular of each node
    c = wr * jac * r
    r.flags.writeable = False
    c.flags.writeable = False
    return r, c


def _roots(n_angular):
    """The roots of unity e^{i phi_j}, phi_j = 2 pi j / n_angular, as rounded."""
    return np.exp(1j * (2.0 * np.pi * np.arange(n_angular) / n_angular))


@functools.lru_cache(maxsize=8)
def _nodes(n_radial, n_angular):
    r, c = _radial_rule(n_radial)
    Z = (r[:, None] * _roots(n_angular)[None, :]).ravel()
    W = (c[:, None] * np.full(n_angular, 2.0 / n_angular)[None, :]).ravel()
    Z.flags.writeable = False
    W.flags.writeable = False
    return Z, W


def quadrature_C(g, cfg=None):
    r"""(1/2 pi i) \int_C g(z) dconj(z)^dz for decaying integrands.

    The one moment of the degree -2 form g dconj(z), the ell = 0 row sum
    (see _node_moments).  Unchecked; cohomology_coefficients of that form
    checks it against the doubled rule.
    """
    out, _ = _node_moments(Form01(-2, g), cfg or QuadratureConfig())
    return complex(out[..., 0])


# ---------------------------------------------------------------------------
# (0,1)-forms
# ---------------------------------------------------------------------------

class Form01:
    """A (0,1)-form h0 dconj(z) on Q_k, held by its chart-0 coefficient h0.

    The coefficient moments read h0 alone; the chart-1 coefficient is its
    clutching (see the module docstring) and is not stored.  k is an integer
    (ValueError otherwise).  support, when given, is an annulus
    (r_in, r_out), 0 <= r_in < r_out, outside which h0 is zero; the
    coefficient moments then sum the rule's rows inside it only.  coeffs and
    basis, when given, factor h0 as sum_r coeffs[..., r] basis(z)[r], with
    coeffs (..., R) and basis(z) -> (R,) + z.shape; the coefficient moments
    are then coeffs times the basis's moment table, and h0 is not evaluated
    at the nodes.  A factored form has no support and no polar declaration.
    polar, when given, is (radial, a, b) with integers a, b >= 0 and
    h0(z) = radial(|z|) z^a conj(z)^b, radial mapping radii to real values;
    the coefficient moments are then one sum over the rule's radial rows
    (see _node_moments), and h0 is not evaluated at the nodes.
    """

    def __init__(self, k, h0, *, support=None, coeffs=None, basis=None,
                 polar=None):
        self.k = _integer(k, "the degree k")
        self.h0 = h0
        self.support = None if support is None else _annulus(*support)
        if (coeffs is None) != (basis is None) or (basis is not None and (
                support is not None or polar is not None)):
            raise ValueError("a factored form takes coeffs and basis, and no "
                             "support or polar declaration")
        self.coeffs = None if coeffs is None else np.asarray(coeffs, dtype=complex)
        self.basis = basis
        if polar is not None:
            radial, a, b = polar
            polar = radial, _count(a, "a"), _count(b, "b")
        self.polar = polar


def _annulus(r_in, r_out):
    """(r_in, r_out) as floats; ValueError unless finite with 0 <= r_in < r_out."""
    if not 0.0 <= r_in < r_out < np.inf:
        raise ValueError("an annulus needs finite radii 0 <= r_in < r_out, "
                         "not r_in=%r, r_out=%r" % (r_in, r_out))
    return float(r_in), float(r_out)


def cohomology_coefficients(w, cfg=None, check=True):
    """The H^1 coefficients a_0..a_{-k-2} of a (0,1)-form on Q_k, k <= -2.

    Returns shape (-k-1,), or (..., -k-1) when w.h0 maps the nodes to a batch
    of forms of shape (..., nodes) (for a factored form, when w.coeffs is
    (..., R)).  cfg defaults to BUMP_GRADE for a form with a support, which
    sums over the rows in its annulus only, and to QuadratureConfig()
    otherwise.  A factored form's coefficients are w.coeffs times its
    basis's cached moment table on the rule (see _certified_moments).
    QuadratureError when a coefficient is not finite (z^ell overflows on the
    outer nodes when -k is large), when the rounding bound of a
    coefficient exceeds cfg.target_tol (the sum cancels terms too large to
    leave that accuracy; checked with or without check), or, with check,
    when the doubled rule disagrees.
    """
    if w.k > -2:
        raise ValueError("H^1(Q_k) vanishes for k > -2; no coefficients")
    cfg = cfg or (QuadratureConfig() if w.support is None else BUMP_GRADE)
    out, _ = _certified_moments(w, cfg)
    if check:
        out2, _ = _certified_moments(w, cfg.refined())
        if np.max(np.abs(out - out2)) > 10 * cfg.target_tol:
            raise QuadratureError("coefficient quadrature not converged: %s vs %s"
                                  % (out, out2))
        out = out2
    return out


_UNIT_ROUNDOFF = np.finfo(float).eps / 2.0   # u = 2^-53


def _gamma(m):
    """Higham's gamma_m = m u / (1 - m u) (m may be an array)."""
    mu = m * _UNIT_ROUNDOFF
    return mu / (1.0 - mu)


def _node_moments(w, cfg):
    """The coefficient moments of w summed over cfg's radial rows, and their
    rounding bounds (see _certified_moments); unchecked.

    a_ell = sum_i W_i r_i^ell S_i, with W_i r_i^ell by repeated products and
    S_i row i's angular sum of e^{i ell phi_j} h0(Z_ij).  For a polar form,
    h0 = radial(|z|) z^a conj(z)^b, S_i = radial(r_i) r_i^(a+b) A_k with
    A_k = sum_j e^{i k phi_j}, k = ell + a - b, n_angular when n_angular
    divides k and 0 otherwise: one radial value per row, no node array.
    Otherwise h0 is evaluated on blocks of whole rows of at most
    _CHUNK_NODES nodes, so no (..., nodes) array is held, and each row is
    summed against the roots of unity at index ell j mod n_angular.
    """
    rows = slice(None) if w.support is None else _support_rows(w.support, cfg)
    count = -w.k - 1
    ell = np.arange(count)
    n = cfg.n_angular
    r, c = _radial_rule(cfg.n_radial)
    r = r[rows]
    radial, a, b = w.polar or (None, 0, 0)
    # W_i r_i^(ell+a+b) by repeated products, W_i as _nodes rounds it
    P = np.empty((count, r.size))
    P[0] = c[rows] * (2.0 / n)
    for _ in range(a + b):
        P[0] *= r
    for i in range(1, count):
        np.multiply(P[i - 1], r, out=P[i])
    if radial is None:
        Z, _ = quadrature_nodes(cfg)
        phase = _roots(n)[np.outer(ell, np.arange(n)) % n]       # (count, n)
        lo, hi, _ = rows.indices(cfg.n_radial)
        step = max(_CHUNK_NODES // n, 1)
        S, size = [], []
        for i in range(lo, hi, step):
            h = np.asarray(w.h0(Z[i * n:min(i + step, hi) * n]), dtype=complex)
            h = h.reshape(h.shape[:-1] + (-1, n))                # (..., rows, n)
            S.append((h[..., None, :, :] * phase[:, None, :]).sum(axis=-1))
            size.append(np.abs(h).sum(axis=-1))
        out = (np.concatenate(S, axis=-1) * P).sum(axis=-1)
        mags = np.concatenate(size, axis=-1) @ P.T
        return out, _gamma(ell + 2.0 * (n + r.size) + 21) * mags
    terms = np.asarray(radial(r), dtype=float)[..., None, :] * P
    angular = np.where((ell + a - b) % n == 0, float(n), 0.0)
    # + 0.0 turns the -0.0 of 0 times a negative sum into 0
    out = (angular * terms.sum(axis=-1) + 0.0).astype(complex)
    mags = n * np.abs(terms).sum(axis=-1)
    return out, _gamma(ell + a + b + r.size + 1.0) * mags


@functools.lru_cache(maxsize=8)
def _basis_table(basis, k, n_radial, n_angular):
    """(T, B): the moments (R, -k-1) of the R forms basis_r dconj(z) on Q_k,
    summed over the rows of the rule with these counts (_node_moments), and
    their rounding bounds; read-only and unchecked.

    Cached per basis and node counts, not per config: refined() builds a new
    config on every call, and the target_tol is met where the table is used.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        table = _node_moments(Form01(k, basis),
                              QuadratureConfig(n_radial, n_angular))
    for a in table:
        a.flags.writeable = False
    return table


def _in_order(c, T):
    """sum_r c[..., r] T[r] (..., -k-1), added in the order r = 0, 1, ...

    Elementwise, so every row of a batch is summed alike and a batched
    result is the scalar one bit for bit, which a BLAS product does not
    promise.
    """
    out = c[..., 0, None] * T[0]
    for r in range(1, len(T)):
        out = out + c[..., r, None] * T[r]
    return out


@functools.lru_cache(maxsize=8)
def moment_table(basis, k):
    """The moment table T[r, ell] = sum_j W_j Z_j^ell basis(Z_j)[r] on the
    default rule: row r is the H^1 coefficients of basis_r dconj(z) on Q_k.

    The cached, read-only array that factored forms with this basis are
    multiplied by, certified once per basis; QuadratureError when its row
    sums are not finite or their rounding bounds exceed the rule's
    target_tol.
    """
    cfg = QuadratureConfig()
    table, bound = _basis_table(basis, k, cfg.n_radial, cfg.n_angular)
    _certify(table, bound, k, cfg)
    return table


def _certify(out, bound, k, cfg):
    """QuadratureError unless every moment is finite and every bound is at
    most cfg.target_tol."""
    if not np.isfinite(out).all():
        raise QuadratureError(
            "non-finite coefficients of the degree %d form on the %r rule"
            % (k, cfg))
    if not (bound <= cfg.target_tol).all():
        raise QuadratureError(
            "coefficients of the degree %d form on the %r rule not certified: "
            "rounding bound %.3g > target_tol %g"
            % (k, cfg, np.max(bound), cfg.target_tol))


def _certified_moments(w, cfg):
    """The coefficient moments of w on the rule cfg and their rounding bounds.

    QuadratureError unless every moment is finite (for large ell Z^ell
    overflows on the outer nodes, and a product with a table may overflow;
    that shows here, not as a floating-point warning) and every bound is at
    most cfg.target_tol.

    A form with neither a factorisation nor a polar declaration is summed
    by rows (see _node_moments): a_ell = sum_i P_i S_i over the R rows,
    P_i = W_i r_i^ell, S_i = sum_j w_j h0(Z_ij) over the row's n = n_angular
    nodes, w_j the rounded root of unity at index ell j mod n.  The bound on
    moment ell is B = gamma_m sum_i P_i sum_j |h0(Z_ij)|, gamma_m =
    m u / (1 - m u), u = 2^-53 (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 3-4).  m adds the relative errors of five steps,
    composed by Lemma 3.3:
      - the phase: w_j is e^{i t}, t = 2 pi (ell j mod n) / n rounded thrice
        (pi, the product, the quotient), so off by at most 2 pi gamma_3, and
        cos and sin each within an ulp: (6 pi + 2) u <= gamma_21;
      - the complex product with h0: sqrt(2) gamma_2 <= gamma_3 (Lemma 3.5);
      - the n-term complex angular sum, in any order: sqrt(2) gamma_{n-1}
        <= gamma_{2(n-1)}, the real and imaginary parts each a sum of n
        reals (Sec. 4.2);
      - the real weight product, ell products for P_i and one against S_i:
        gamma_{ell+1};
      - the R-term complex radial sum: gamma_{2(R-1)}.
    So m = ell + 2(n + R) + 21, 341 + ell on the default rule, against
    3(ell + 1) + 2(nR - 1), about 12 300, for a sum over single nodes.  B
    bounds the error against the exact sum of the same values at the exact
    angles, sum_ij P_i e^{2 pi i ell j / n} h0(Z_ij), to first order in u
    (the magnitudes are themselves computed).  Not in it: h0's rounding,
    that of the node Z_ij where h0 is evaluated, and the rule's truncation.

    A polar form, h0 = radial(|z|) z^a conj(z)^b, is summed by rows (see
    _node_moments): a_ell = A_k S with k = ell + a - b, A_k = n_angular or
    0, and S = sum_i W_i r_i^(ell+a+b) radial(r_i) over the R rows summed.
    Each of the R real terms takes ell + a + b + 1 products, relative error
    at most gamma_{ell+a+b+1}; their sum in any order adds gamma_{R-1}
    (Sec. 4.2), and the product with A_k one rounding more, so by Lemma 3.3
    m = ell + a + b + R + 1: a few hundred on the bump grade, under half
    the general row sum's m over the same support.  The bound takes
    n_angular for |A_k|, which makes B = gamma_m sum_j |W_j Z_j^ell h0(Z_j)|
    over the nodes, the general row sum's magnitudes: a moment is not
    certified by a closed-form zero alone, and terms too large to be summed
    to target_tol (z^ell h0 reaches 2^58 on the support at k = -60) are
    refused as by the general row sum.  The exact sum is again the rule's at
    the exact angles 2 pi j / n_angular; radial's rounding is not in it.

    A factored form's moments are c T, its coefficients c (..., R) times the
    basis's table T (R, -k-1) on the rule, with row-sum bounds B (see
    _basis_table).  The exact sums are c times T's exact sums, so T's
    rounding contributes |c| B; the product is an R-term complex dot
    product, whose R products and R - 1 additions compose, as above, to
    gamma_{2R+1} |c| |T|.  The bound is |c| B + gamma_{2R+1} |c| |T|, taken
    as |c| (B + gamma_{2R+1} |T|), to first order in u, with the basis's
    rounding and the rule's truncation again not in it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if w.basis is None:
            out, bound = _node_moments(w, cfg)
        else:
            table, table_bound = _basis_table(w.basis, w.k, cfg.n_radial,
                                              cfg.n_angular)
            out = _in_order(w.coeffs, table)
            bound = _in_order(np.abs(w.coeffs), table_bound
                              + _gamma(2 * len(table) + 1) * np.abs(table))
    _certify(out, bound, w.k, cfg)
    return out, bound


def harmonic_basis(z):
    """b(z) = (1, conj z) 2/(1+|z|^2)^3, shape (2,) + z.shape.

    The basis of the k = -3 forms whose moment table is the identity (see
    harmonic_representative); the fiber basis of every sharp lift (penrose).
    """
    z = np.asarray(z, dtype=complex)
    profile = 2.0 / (1.0 + (z.real ** 2 + z.imag ** 2)) ** 3
    return np.stack([profile, np.conj(z) * profile])


def harmonic_representative(a0, a1):
    """The k = -3 form with h0 = (a0 + a1 conj z) 2/(1+|z|^2)^3; inverts the coefficients.

    The form is factored: coeffs (a0, a1) times harmonic_basis, so its
    coefficients are one product with that basis's moment table.  a0 and a1
    are scalars or equal-shape arrays of pairs; h0 then maps z to
    a0.shape + z.shape.
    """
    a0 = np.asarray(a0, dtype=complex)
    a1 = np.asarray(a1, dtype=complex)
    if a0.shape != a1.shape:
        raise ValueError("a0 and a1 differ in shape: %s vs %s"
                         % (a0.shape, a1.shape))
    coeffs = np.stack([a0, a1], axis=-1)
    return Form01(-3, lambda z: np.tensordot(coeffs, harmonic_basis(z),
                                             axes=(-1, 0)),
                  coeffs=coeffs, basis=harmonic_basis)


def h1_dimension(k):
    """dim H^1(CP^1, Q_k) = max(0, -k-1); ValueError unless k is an integer."""
    return max(0, -_integer(k, "the degree k") - 1)


def _monomial(z, p, q):
    """z^p conj(z)^q by repeated products from z (or conj(z)); 1.0 when p = q = 0.

    numpy's complex ** takes its general complex-power path even for small
    integer exponents.
    """
    factors = [z] * p + ([np.conj(z)] * q if q else [])
    return functools.reduce(np.multiply, factors) if factors else 1.0


def exact_form(k, p=0, q=0, r_in=0.5, r_out=2.0):
    """The exact (0,1)-form dbar(f) on Q_k; its H^1 class is zero.

    f(z) = phi(|z|) z^p conj(z)^q on chart 0, with phi the annulus bump
    exp(-1/(1-t^2)), t = (|z| - mid)/half, supported in r_in < |z| < r_out,
    is a global smooth section; h0 is its dconj(z)-derivative.  The form's
    support is that annulus, and h0 = radial(|z|) z^a conj(z)^b is declared
    polar (see Form01), so its coefficients are row sums of radial.  radial
    evaluates its closed form at every given radius, with no gather or
    scatter, and one np.where sets it to zero off the support, where the
    closed form overflows or divides by zero; the floating-point warnings of
    those thrown-away radii are silenced, and h0 is radial times the
    monomial.
    ValueError unless p and q are integers >= 0 and the radii are finite
    with 0 <= r_in < r_out.
    """
    r_in, r_out = _annulus(r_in, r_out)
    p, q = _count(p, "p"), _count(q, "q")
    mid = (r_out + r_in) / 2.0
    half = (r_out - r_in) / 2.0
    # d/dconj(z) of f: phi'(|z|) * z/(2|z|) * z^p conj(z)^q
    #                  + q * phi * z^p conj(z)^{q-1},
    # phi(r) = exp(-1/s) with s = 1 - t^2, so phi' = exp(-1/s) *
    # (-2t/s^2)/half; with z conj(z) = |z|^2 both terms are one exp times a
    # real factor of |z| times one monomial z^a conj(z)^b
    a, b = (p, q - 1) if q else (p + 1, 0)

    def radial(r):
        # both terms vanish off the bump's support |r - mid| < half, which is
        # where s > 0: t rounds below 1 in magnitude exactly there, and then
        # s >= 2^-52.  Off it s <= 0 (or NaN) and, for q = 0, r may be 0
        # (mid >= half keeps r = 0 off the support).  The closed form is
        # evaluated at every radius and set to zero off the support, and the
        # divisions by zero and overflows of those thrown-away radii are
        # silenced; on the support r > 0 and s >= 2^-52, so its divisions
        # and its exponent stay finite
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            t = (r - mid) / half
            s = 1.0 - t * t
            e = np.exp(-1.0 / s)
            if q:
                val = e * (q - t * r / (s * s * half))
            else:
                val = e * (-t / (s * s * half * r))
        return np.where(s > 0, val, 0.0)

    def h0(z):
        z = np.asarray(z, dtype=complex)
        rho = radial(np.abs(z))
        # off the support rho is 0 and the monomial may overflow
        with np.errstate(over="ignore", invalid="ignore"):
            val = rho * _monomial(z, a, b)
        return np.where(rho != 0, val, 0j)

    return Form01(k, h0, support=(r_in, r_out), polar=(radial, a, b))
