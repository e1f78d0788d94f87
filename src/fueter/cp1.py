r"""Line bundles Q_k over CP^1 and the plane quadrature used throughout.

The bundle Q_k glues chart functions by f1(1/z) = z^{-k} f0(z); its
(0,1)-forms (written h0 dconj(z) on chart 0, h1 dconj(w) on chart 1) glue by
h1(1/z) = -z^{-k} conj(z)^2 h0(z).  For k <= -2 the cohomology H^1 is
C^{-k-1}, computed by the moment integrals

    a_ell = (1/2 pi i) \int_C  z^ell h0(z) dconj(z)^dz,   ell = 0..-k-2,

which vanish on exact forms dbar(f).  Sections enter only as that f, so the
module keeps forms alone: exact_form builds dbar(f) for a bump-supported f
in closed form.  For k = -3 the harmonic representative

    h0(z) = 2 (a0 + a1 conj(z)) / (1+|z|^2)^3

inverts the coefficient map exactly (the two moments of 2/(1+|z|^2)^3 and
2 z conj(z)/(1+|z|^2)^3 both equal 1); its h0 at a0, a1 = [1, 0], [0, 1]
is the fiber basis of the twistor transform (penrose).

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
fixed: a form with a support is summed over the rule's nodes in that
annulus only: the sum loses only terms that are exactly zero.  Every
coefficient carries a bound on the rounding of its sum (see
_certified_moments); one the bound cannot certify to the rule's target_tol
is refused, not returned.
"""

import functools
import math

import numpy as np

__all__ = [
    "QuadratureConfig", "QuadratureError", "BUMP_GRADE",
    "quadrature_nodes", "quadrature_C", "Form01", "validate_form",
    "decay_check", "cohomology_coefficients", "harmonic_representative",
    "h1_dimension", "bump", "exact_form",
]


class QuadratureError(RuntimeError):
    pass


class QuadratureConfig:
    """Node counts for the compactified plane quadrature."""

    def __init__(self, n_radial=96, n_angular=64, target_tol=1e-6):
        if n_radial < 8 or n_angular < 8:
            raise ValueError("need at least 8 nodes per direction")
        self.n_radial = int(n_radial)
        self.n_angular = int(n_angular)
        self.target_tol = float(target_tol)

    def refined(self):
        return QuadratureConfig(2 * self.n_radial, 2 * self.n_angular,
                                self.target_tol)

    def __repr__(self):
        return "QuadratureConfig(%d, %d)" % (self.n_radial, self.n_angular)


# quadrature node/weight grade for bump-function fixtures; see module docstring
BUMP_GRADE = QuadratureConfig(n_radial=1536, n_angular=96, target_tol=1e-5)

# Most fiber nodes one moment sum evaluates at once (see _moments); the
# default rule fits in one slice, BUMP_GRADE's whole plane takes nineteen.
_CHUNK_NODES = 1 << 13


def quadrature_nodes(cfg=None):
    """Complex nodes Z and real weights W with sum(W * g(Z)) ~ (1/pi) int g dA.

    The arrays are cached per node count and read-only.
    """
    cfg = cfg or QuadratureConfig()
    return _nodes(cfg.n_radial, cfg.n_angular)


def _moments(h, count, cfg=None, rows=slice(None)):
    """The moments sum_j W_j Z_j^ell h(Z_j), ell < count, over h's last axis.

    Returns them and the sums of their terms' magnitudes,
    sum_j |W_j Z_j^ell h(Z_j)|, both (..., count).  h maps fiber points to
    (..., points); the sums run over the nodes of the rule's radial rows
    [rows] only, in consecutive slices of whole rows and at most
    _CHUNK_NODES nodes, so a batch of forms or a fine rule never holds a
    (..., nodes) array for all nodes at once.  V = W Z^ell is built once for
    the summed nodes and then sliced.  W and |Z| are constant along a row
    (see _nodes), so the magnitudes take one row sum of |h| per row against
    W |Z|^ell of the row.
    """
    cfg = cfg or QuadratureConfig()
    n = cfg.n_angular
    lo, hi, _ = rows.indices(cfg.n_radial)
    Z, W = quadrature_nodes(cfg)
    Z, W = Z[lo * n:hi * n], W[lo * n:hi * n]
    V = np.empty((count, Z.size), dtype=complex)
    V[0] = W
    for ell in range(1, count):
        np.multiply(V[ell - 1], Z, out=V[ell])
    # a row's first node lies on the positive real axis: its real part is |Z|
    A = np.empty((count, hi - lo))
    A[0] = W[::n]
    for ell in range(1, count):
        np.multiply(A[ell - 1], Z[::n].real, out=A[ell])
    V, A = V.T, A.T
    total = mags = 0.0
    m = max(_CHUNK_NODES // n, 1)
    for i in range(0, hi - lo, m):
        hs = np.asarray(h(Z[i * n:(i + m) * n]), dtype=complex)
        total = total + hs @ V[i * n:(i + m) * n]
        a = np.abs(hs)
        mags = mags + a.reshape(a.shape[:-1] + (-1, n)).sum(axis=-1) @ A[i:i + m]
    return total, mags


def _support_rows(support, cfg):
    """The slice of cfg's radial rows in the annulus support, plus one each side.

    _nodes lays the rule out radial-major with ascending radii, so row i
    holds the n_angular nodes of radius Z[i * n_angular].real and the rows
    strictly inside (r_in, r_out) are consecutive.  The extra row on each
    side keeps a node whose |Z| rounds across a support radius.
    """
    Z, _ = quadrature_nodes(cfg)
    r = Z[::cfg.n_angular].real
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
def _nodes(n_radial, n_angular):
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
    phi = 2.0 * np.pi * np.arange(n_angular) / n_angular
    Z = (r[:, None] * np.exp(1j * phi)[None, :]).ravel()
    # (1/pi) * r dr dphi; trapezoid weight 2*pi/n_angular, over pi -> 2/n
    W = ((wr * jac * r)[:, None]
         * np.full(n_angular, 2.0 / n_angular)[None, :]).ravel()
    Z.flags.writeable = False
    W.flags.writeable = False
    return Z, W


def quadrature_C(g, cfg=None):
    r"""(1/2 pi i) \int_C g(z) dconj(z)^dz for decaying integrands.

    Unchecked; cohomology_coefficients of a degree -2 form, whose one moment
    is this integral, checks it against the doubled rule.
    """
    Z, W = quadrature_nodes(cfg)
    return complex(np.sum(W * np.asarray(g(Z), dtype=complex)))


# ---------------------------------------------------------------------------
# (0,1)-forms
# ---------------------------------------------------------------------------

class Form01:
    """A (0,1)-form on Q_k: coefficients h0, h1 with h1(1/z) = -z^{-k} conj(z)^2 h0(z).

    support, when given, is an annulus (r_in, r_out), 0 <= r_in < r_out,
    outside which h0 is zero; the coefficient moments then sum over the
    nodes inside it only.
    """

    def __init__(self, k, h0, h1, support=None):
        self.k = int(k)
        self.h0 = h0
        self.h1 = h1
        self.support = None if support is None else _annulus(*support)


def _annulus(r_in, r_out):
    """(r_in, r_out) as floats; ValueError unless finite with 0 <= r_in < r_out."""
    if not 0.0 <= r_in < r_out < np.inf:
        raise ValueError("an annulus needs finite radii 0 <= r_in < r_out, "
                         "not r_in=%r, r_out=%r" % (r_in, r_out))
    return float(r_in), float(r_out)


def _annulus_samples():
    rng = np.random.default_rng(23)
    r = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=200))
    th = rng.uniform(0, 2 * np.pi, size=200)
    return r * np.exp(1j * th)


def validate_form(w):
    """Clutching violation of a (0,1)-form on an annulus sample; ok <= 1e-9."""
    z = _annulus_samples()
    lhs = np.asarray(w.h1(1.0 / z), dtype=complex)
    rhs = -z ** (-w.k) * np.conj(z) ** 2 * np.asarray(w.h0(z), dtype=complex)
    viol = float(np.max(np.abs(lhs - rhs)))
    return {"kind": "form", "k": w.k, "samples": int(np.size(z)),
            "max_violation": viol, "ok": bool(viol <= 1e-9)}


def decay_check(w, ell):
    """Check, by sampling, the chart-boundary limit of z^ell h0 on Q_k.

    z^ell h0(z) tends to 0 for ell < -k + 2 and stays bounded at ell = -k + 2.
    A heuristic, not a certificate: max |z^ell h0| at |z| = 1e2, 1e3, 1e4 over
    12 angles, and a log-slope fit over those radii; False when that shows
    growth (a tail level at or below 1e-6 counts as decayed).
    """
    strict = ell < -w.k + 2
    th = np.linspace(0, 2 * np.pi, 13)[:-1]
    levels = []
    for R in (1e2, 1e3, 1e4):
        z = R * np.exp(1j * th)
        v = z ** ell * np.asarray(w.h0(z), dtype=complex)
        if not np.all(np.isfinite(v)):
            raise QuadratureError("non-finite values at |z| = %g" % R)
        levels.append(float(np.max(np.abs(v))))
    # log-slope over the two sampled decades: the power of |z| in the tail
    slope = (np.log(levels[2] + 1e-300) - np.log(levels[0] + 1e-300)) / np.log(1e2)
    return bool(levels[2] <= 1e-6 or slope < (-0.1 if strict else 0.1))


def cohomology_coefficients(w, cfg=None, check=True):
    """The H^1 coefficients a_0..a_{-k-2} of a (0,1)-form on Q_k, k <= -2.

    Returns shape (-k-1,), or (..., -k-1) when w.h0 maps the nodes to a batch
    of forms of shape (..., nodes).  cfg defaults to BUMP_GRADE for a form
    with a support, which sums over the nodes in its annulus only, and to
    QuadratureConfig() otherwise.  QuadratureError when a coefficient is not
    finite (z^ell overflows on the outer nodes when -k is large), when the
    rounding bound of a coefficient's sum exceeds cfg.target_tol (the sum
    cancels terms too large to leave that accuracy; checked with or without
    check), or, with check, when the doubled rule disagrees.
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


def _certified_moments(w, cfg):
    """The coefficient moments of w on the rule cfg and their rounding bounds.

    QuadratureError unless every moment is finite (for large ell Z^ell
    overflows on the outer nodes; that shows here, not as a floating-point
    warning) and every bound is at most cfg.target_tol.

    The bound on moment ell is B = gamma_m * sum_j |W_j Z_j^ell h0(Z_j)|,
    gamma_m = m u / (1 - m u), u = 2^-53, for the N nodes summed (Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 3-4).  Each term
    takes ell + 1 complex products (ell for W Z^ell, one against h0), each
    with relative error at most sqrt(2) gamma_2 <= gamma_3 (Lemma 3.5); the
    N terms are summed in some order, which adds at most sqrt(2) gamma_{N-1}
    <= gamma_{2N-2} times the sum of their magnitudes (the real and
    imaginary parts are sums of N reals, Sec. 4.2).  By Lemma 3.3 the two
    compose to m = 3(ell + 1) + 2(N - 1).  B bounds the error of the
    computed moment against the exact sum of the same terms, to first order
    in u (the magnitudes are themselves computed); h0's own rounding and the
    rule's truncation are not in it.
    """
    rows = slice(None) if w.support is None else _support_rows(w.support, cfg)
    count = -w.k - 1
    with np.errstate(over="ignore", invalid="ignore"):
        out, mags = _moments(w.h0, count, cfg, rows)
    if not np.isfinite(out).all():
        raise QuadratureError(
            "non-finite coefficients of the degree %d form on the %r rule"
            % (w.k, cfg))
    n_terms = len(range(*rows.indices(cfg.n_radial))) * cfg.n_angular
    mu = (3.0 * np.arange(1, count + 1) + 2.0 * (n_terms - 1)) \
        * np.finfo(float).eps / 2.0
    bound = mu / (1.0 - mu) * mags
    if not np.all(bound <= cfg.target_tol):
        raise QuadratureError(
            "coefficients of the degree %d form on the %r rule not certified: "
            "rounding bound %.3g > target_tol %g"
            % (w.k, cfg, np.max(bound), cfg.target_tol))
    return out, bound


def harmonic_representative(a0, a1):
    """The k = -3 form with h0 = (a0 + a1 conj z) 2/(1+|z|^2)^3; inverts the coefficients.

    Its clutching h1 is the same profile at (-a1, -a0).  a0 and a1 are
    scalars or equal-shape arrays of pairs; h0 and h1 then map z to
    a0.shape + z.shape.
    """
    a0 = np.asarray(a0, dtype=complex)
    a1 = np.asarray(a1, dtype=complex)
    if a0.shape != a1.shape:
        raise ValueError("a0 and a1 differ in shape: %s vs %s"
                         % (a0.shape, a1.shape))

    def profile(c0, c1):
        def h(z):
            z = np.asarray(z, dtype=complex)
            lift = a0.shape + (1,) * z.ndim
            return (c0.reshape(lift) + c1.reshape(lift) * np.conj(z)) \
                * (2.0 / (1.0 + (z.real ** 2 + z.imag ** 2)) ** 3)
        return h

    return Form01(-3, profile(a0, a1), profile(-a1, -a0))


def h1_dimension(k):
    """dim H^1(CP^1, Q_k) = max(0, -k-1)."""
    return max(0, -int(k) - 1)


# ---------------------------------------------------------------------------
# bump fixtures (C-infinity, compactly supported in an annulus)
# ---------------------------------------------------------------------------

def bump(t):
    """exp(-1/(1-t^2)) on |t| < 1, zero outside; C-infinity on R."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = np.exp(-1.0 / (1.0 - ti * ti))
    return out


def _monomial(z, p, q):
    """z^p conj(z)^q by repeated products from z (or conj(z)); 1.0 when p = q = 0.

    numpy's complex ** takes its general complex-power path even for small
    integer exponents.
    """
    factors = [z] * p + ([np.conj(z)] * q if q else [])
    return functools.reduce(np.multiply, factors) if factors else 1.0


def exact_form(k, p=0, q=0, r_in=0.5, r_out=2.0):
    """The exact (0,1)-form dbar(f) on Q_k; its H^1 class is zero.

    f(z) = phi(|z|) z^p conj(z)^q on chart 0, with phi an annulus bump
    supported in r_in < |z| < r_out, is a global smooth section; h0 is its
    dconj(z)-derivative and h1 the clutching of h0.  The form's support is
    that annulus.  h0 evaluates its closed form at every given node, with
    no gather or scatter, and one np.where sets it to zero off the support,
    where the closed form overflows or divides by zero; the floating-point
    warnings of those thrown-away nodes are silenced.  ValueError unless the
    radii are finite with 0 <= r_in < r_out.
    """
    r_in, r_out = _annulus(r_in, r_out)
    mid = (r_out + r_in) / 2.0
    half = (r_out - r_in) / 2.0

    def h0(z):
        # d/dconj(z) of f: phi'(|z|) * z/(2|z|) * z^p conj(z)^q
        #                  + q * phi * z^p conj(z)^{q-1},
        # phi(r) = bump(t) with t = (r - mid)/half, so phi' = bump(t) *
        # (-2t/s^2)/half with s = 1 - t^2; with z conj(z) = |z|^2 both terms
        # are one exp times a real factor times one monomial
        z = np.asarray(z, dtype=complex)
        r = np.abs(z)
        # both terms vanish off the bump's support |r - mid| < half, which is
        # where s > 0: t rounds below 1 in magnitude exactly there, and then
        # s >= 2^-52.  Off it s <= 0 (or NaN) and, for q = 0, |z| may be 0
        # (mid >= half keeps |z| = 0 off the support).  The closed form is
        # evaluated at every node and set to zero off the support, and the
        # divisions by zero and overflows of those thrown-away nodes are
        # silenced; on the support |z| > 0 and s >= 2^-52, so its divisions
        # and its exponent stay finite
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            t = (r - mid) / half
            s = 1.0 - t * t
            e = np.exp(-1.0 / s)
            if q:
                val = e * (q - t * r / (s * s * half)) * _monomial(z, p, q - 1)
            else:
                val = e * (-t / (s * s * half * r)) * _monomial(z, p + 1, 0)
        return np.where(s > 0, val, 0j)

    def h1(w):
        w = np.asarray(w, dtype=complex)
        out = np.zeros_like(w)
        nz = w != 0
        zz = 1.0 / w[nz]
        out[nz] = -zz ** (-k) * np.conj(zz) ** 2 * h0(zz)
        return out

    return Form01(k, h0, h1, support=(r_in, r_out))
