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
angle).  The Gauss-Legendre nodes come from Newton's method on the
three-term Legendre recurrence, started from Tricomi's asymptotic guess, in
O(n^2) work and with weights accurate to a few ulps (Glaser, Liu & Rokhlin
2007; Hale & Townsend 2013).  The default 96x64 rule is machine-precision for
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


def _legendre(n, x):
    """P_n(x) and P_n'(x) by the three-term recurrence, elementwise."""
    p0, p1 = np.ones_like(x), x
    for k in range(1, n):
        p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
    return p1, n * (x * p1 - p0) / (x * x - 1.0)


def _gauss_legendre(n):
    """Ascending Gauss-Legendre nodes and weights on [-1, 1], any n >= 1."""
    # Tricomi's guess for the nonnegative nodes, largest first; for odd n the
    # last one is exactly 0, where P_n vanishes exactly and Newton stays put
    k = np.arange(1, (n + 1) // 2 + 1)
    x = (1.0 - (1.0 - 1.0 / n) / (8.0 * n * n)) \
        * np.sin(np.pi * (n + 1 - 2 * k) / (2 * n + 1))
    # a step below 1e-12 leaves an error below C * 1e-24 (C = P_n''/2P_n' is
    # at most ~n^2), so the next pass only refreshes P_n' for the weights;
    # from n = 8 to 6144 that takes three steps or fewer
    step = np.inf
    for _ in range(10):
        p, dp = _legendre(n, x)
        if step < 1e-12:
            break
        dx = p / dp
        x = x - dx
        step = np.abs(dx).max()
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    return (np.concatenate([-x[:n // 2], x[::-1]]),
            np.concatenate([w[:n // 2], w[::-1]]))


@functools.lru_cache(maxsize=8)
def _nodes(n_radial, n_angular):
    t, wt = _gauss_legendre(n_radial)
    rho = (t + 1.0) / 2.0
    wr = wt / 2.0
    r = rho / (1.0 - rho)
    jac = 1.0 / (1.0 - rho) ** 2          # dr = jac * drho
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
    """z^p conj(z)^q by repeated products.

    numpy's complex ** takes its general complex-power path even for small
    integer exponents.
    """
    out = np.ones_like(z)
    for _ in range(p):
        out = out * z
    zc = np.conj(z)
    for _ in range(q):
        out = out * zc
    return out


def exact_form(k, p=0, q=0, r_in=0.5, r_out=2.0):
    """The exact (0,1)-form dbar(f) on Q_k; its H^1 class is zero.

    f(z) = phi(|z|) z^p conj(z)^q on chart 0, with phi an annulus bump
    supported in r_in < |z| < r_out, is a global smooth section; h0 is its
    dconj(z)-derivative and h1 the clutching of h0.  The form's support is
    that annulus.  ValueError unless the radii are finite with
    0 <= r_in < r_out.
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
        out = np.zeros_like(z)
        # both terms vanish off the bump's support r_in < |z| < r_out, so
        # only the support is evaluated
        nz = (r > 0) & (np.abs(r - mid) < half)
        zz = z[nz]
        rr = r[nz]
        t = (rr - mid) / half
        s = 1.0 - t * t
        e = np.exp(-1.0 / s)
        if q:
            out[nz] = e * (q - t * rr / (s * s * half)) * _monomial(zz, p, q - 1)
        else:
            out[nz] = e * (-t / (s * s * half * rr)) * _monomial(zz, p + 1, 0)
        return out

    def h1(w):
        w = np.asarray(w, dtype=complex)
        out = np.zeros_like(w)
        nz = w != 0
        zz = 1.0 / w[nz]
        out[nz] = -zz ** (-k) * np.conj(zz) ** 2 * h0(zz)
        return out

    return Form01(k, h0, h1, support=(r_in, r_out))
