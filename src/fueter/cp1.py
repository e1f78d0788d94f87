r"""Line bundles Q_k over CP^1 and the plane quadrature used throughout.

The bundle Q_k glues chart functions by f1(1/z) = z^{-k} f0(z); its
(0,1)-forms (written h0 dconj(z) on chart 0, h1 dconj(w) on chart 1) glue by
h1(1/z) = -z^{-k} conj(z)^2 h0(z).  For k <= -2 the cohomology H^1 is
C^{-k-1}, computed by the moment integrals

    a_ell = (1/2 pi i) \int_C  z^ell h0(z) dconj(z)^dz,   ell = 0..-k-2,

which vanish on exact forms.  For k = -3 the harmonic representative

    h0(z) = 2 (a0 + a1 conj(z)) / (1+|z|^2)^3

inverts the coefficient map exactly (the two moments of 2/(1+|z|^2)^3 and
2 z conj(z)/(1+|z|^2)^3 both equal 1).

The quadrature realizes (1/2 pi i) \int g dconj(z)^dz = (1/pi) \int g dA via
the compactified substitution z = (rho/(1-rho)) e^{i phi}: Gauss-Legendre in
rho in [0,1), uniform trapezoid in phi (spectrally accurate in the periodic
angle).  The default 96x64 rule is machine-precision for integrands with
rational (1+|z|^2)^-3-type profiles; the 1536-radial "bump grade" handles the
C-infinity-but-non-analytic bump fixtures, whose edge behavior defeats
Gauss-Legendre at low node counts (errors ~1e-5 at 768 nodes drop below 1e-9
at 1536).  Do not lower these node counts without rechecking the exactness
tests.
"""

import functools

import numpy as np

__all__ = [
    "QuadratureConfig", "QuadratureError", "BUMP_GRADE",
    "quadrature_nodes", "quadrature_C",
    "BundleSection", "Form01", "validate_section", "validate_form",
    "decay_check", "cohomology_coefficients", "harmonic_representative",
    "h1_dimension", "bump", "bump_section", "exact_form",
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

    def refined(self, factor=2):
        return QuadratureConfig(self.n_radial * factor, self.n_angular * factor,
                                self.target_tol)

    def __repr__(self):
        return "QuadratureConfig(%d, %d)" % (self.n_radial, self.n_angular)


# quadrature node/weight grade for bump-function fixtures; see module docstring
BUMP_GRADE = QuadratureConfig(n_radial=1536, n_angular=96, target_tol=1e-5)


def quadrature_nodes(cfg=None):
    """Complex nodes Z and real weights W with sum(W * g(Z)) ~ (1/pi) int g dA.

    The arrays are cached per node count and read-only.
    """
    cfg = cfg or QuadratureConfig()
    return _nodes(cfg.n_radial, cfg.n_angular)


@functools.lru_cache(maxsize=8)
def _nodes(n_radial, n_angular):
    t, wt = np.polynomial.legendre.leggauss(n_radial)
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


def quadrature_C(g, cfg=None, check=False):
    r"""(1/2 pi i) \int_C g(z) dconj(z)^dz for decaying integrands.

    check=True re-evaluates on a doubled rule and raises QuadratureError if
    the two disagree by more than 10x the configured target tolerance.
    """
    cfg = cfg or QuadratureConfig()
    Z, W = quadrature_nodes(cfg)
    val = np.sum(W * np.asarray(g(Z), dtype=complex))
    if check:
        Z2, W2 = quadrature_nodes(cfg.refined())
        val2 = np.sum(W2 * np.asarray(g(Z2), dtype=complex))
        if abs(val - val2) > 10 * cfg.target_tol * max(1.0, abs(val2)):
            raise QuadratureError(
                "quadrature not converged: %r vs %r on refinement" % (val, val2))
        val = val2
    return complex(val)


# ---------------------------------------------------------------------------
# bundles
# ---------------------------------------------------------------------------

class BundleSection:
    """A section of Q_k: chart functions f0, f1 with f1(1/z) = z^{-k} f0(z)."""

    def __init__(self, k, f0, f1):
        self.k = int(k)
        self.f0 = f0
        self.f1 = f1


class Form01:
    """A (0,1)-form on Q_k: coefficients h0, h1 with h1(1/z) = -z^{-k} conj(z)^2 h0(z)."""

    def __init__(self, k, h0, h1):
        self.k = int(k)
        self.h0 = h0
        self.h1 = h1


def _annulus_samples(count=200, rmin=0.1, rmax=10.0, seed=23):
    rng = np.random.default_rng(seed)
    r = np.exp(rng.uniform(np.log(rmin), np.log(rmax), size=count))
    th = rng.uniform(0, 2 * np.pi, size=count)
    return r * np.exp(1j * th)


def validate_section(s, samples=None, tol=1e-9):
    """Max clutching violation of a section over an annulus sample."""
    z = samples if samples is not None else _annulus_samples()
    lhs = np.asarray(s.f1(1.0 / z), dtype=complex)
    rhs = z ** (-s.k) * np.asarray(s.f0(z), dtype=complex)
    viol = float(np.max(np.abs(lhs - rhs)))
    return {"kind": "section", "k": s.k, "samples": int(np.size(z)),
            "max_violation": viol, "ok": bool(viol <= tol)}


def validate_form(w, samples=None, tol=1e-9):
    """Max clutching violation of a (0,1)-form over an annulus sample."""
    z = samples if samples is not None else _annulus_samples()
    lhs = np.asarray(w.h1(1.0 / z), dtype=complex)
    rhs = -z ** (-w.k) * np.conj(z) ** 2 * np.asarray(w.h0(z), dtype=complex)
    viol = float(np.max(np.abs(lhs - rhs)))
    return {"kind": "form", "k": w.k, "samples": int(np.size(z)),
            "max_violation": viol, "ok": bool(viol <= tol)}


def decay_check(obj, ell, n_exp=0, tol=1e-6):
    """Certify the chart-boundary limit of z^ell [conj(z)^n_exp] f0 or h0.

    Sections of Q_k: z^ell f0(z) tends to 0 for ell < -k and stays finite at
    ell = -k.  Forms: z^ell conj(z)^n_exp h0(z) tends to 0 for
    ell + n_exp < -k + 2.  Sampled at |z| = 1e2, 1e3, 1e4 over angles;
    returns False when growth is detected.
    """
    fn = obj.f0 if isinstance(obj, BundleSection) else obj.h0
    strict = (ell < -obj.k) if isinstance(obj, BundleSection) \
        else (ell + n_exp < -obj.k + 2)
    th = np.linspace(0, 2 * np.pi, 13)[:-1]
    levels = []
    for R in (1e2, 1e3, 1e4):
        z = R * np.exp(1j * th)
        v = z ** ell * np.conj(z) ** n_exp * np.asarray(fn(z), dtype=complex)
        if not np.all(np.isfinite(v)):
            raise QuadratureError("non-finite values at |z| = %g" % R)
        levels.append(float(np.max(np.abs(v))))
    # log-slope over the two sampled decades: the power of |z| in the tail
    slope = (np.log(levels[2] + 1e-300) - np.log(levels[0] + 1e-300)) / np.log(1e2)
    if strict:
        return bool(levels[2] <= tol or slope < -0.1)
    return bool(levels[2] <= tol or slope < 0.1)


def cohomology_coefficients(w, cfg=None, check=True):
    """The H^1 coefficients a_0..a_{-k-2} of a (0,1)-form on Q_k, k <= -2."""
    if w.k > -2:
        raise ValueError("H^1(Q_k) vanishes for k > -2; no coefficients")
    cfg = cfg or QuadratureConfig()
    Z, W = quadrature_nodes(cfg)
    h = np.asarray(w.h0(Z), dtype=complex)
    out = np.array([np.sum(W * Z ** ell * h) for ell in range(-w.k - 1)])
    if check:
        Z2, W2 = quadrature_nodes(cfg.refined())
        h2 = np.asarray(w.h0(Z2), dtype=complex)
        out2 = np.array([np.sum(W2 * Z2 ** ell * h2) for ell in range(-w.k - 1)])
        if np.max(np.abs(out - out2)) > 10 * cfg.target_tol:
            raise QuadratureError("coefficient quadrature not converged: %s vs %s"
                                  % (out, out2))
        out = out2
    return out


def harmonic_representative(a0, a1):
    """The k = -3 form with h0 = 2(a0 + a1 conj z)/(1+|z|^2)^3; inverts the coefficients."""
    a0 = complex(a0)
    a1 = complex(a1)

    def h0(z):
        z = np.asarray(z, dtype=complex)
        return 2.0 * (a0 + a1 * np.conj(z)) / (1.0 + z * np.conj(z)) ** 3

    def h1(w):
        w = np.asarray(w, dtype=complex)
        return 2.0 * (-a0 * np.conj(w) - a1) / (1.0 + w * np.conj(w)) ** 3

    return Form01(-3, h0, h1)


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


def _dbump(t):
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = np.exp(-1.0 / (1.0 - ti * ti)) * (-2.0 * ti) / (1.0 - ti * ti) ** 2
    return out


def bump_section(k, p=0, q=0, r_in=0.5, r_out=2.0):
    """A global smooth section of Q_k supported in the annulus r_in < |z| < r_out.

    Chart 0: f0(z) = phi(|z|) z^p conj(z)^q with phi an annulus bump; f1 is
    defined by clutching (smooth on chart 1 because f0 vanishes near infinity).
    """
    mid = (r_out + r_in) / 2.0
    half = (r_out - r_in) / 2.0

    def phi(r):
        return bump((r - mid) / half)

    def f0(z):
        z = np.asarray(z, dtype=complex)
        return phi(np.abs(z)) * z ** p * np.conj(z) ** q

    def f1(w):
        w = np.asarray(w, dtype=complex)
        out = np.zeros_like(w)
        nz = w != 0
        zz = 1.0 / w[nz]
        out[nz] = zz ** (-k) * f0(zz)
        return out

    sec = BundleSection(k, f0, f1)
    sec.p, sec.q, sec.r_in, sec.r_out = p, q, r_in, r_out

    def dbar_h0(z):
        # d/dconj(z) of f0: phi'(|z|) * z/(2|z|) * z^p conj(z)^q + q * phi * z^p conj(z)^{q-1}
        z = np.asarray(z, dtype=complex)
        r = np.abs(z)
        out = np.zeros_like(z)
        nz = r > 0
        zz = z[nz]
        rr = r[nz]
        term = _dbump((rr - mid) / half) / half * zz / (2.0 * rr) \
            * zz ** p * np.conj(zz) ** q
        if q:
            term = term + q * phi(rr) * zz ** p * np.conj(zz) ** (q - 1)
        out[nz] = term
        return out

    sec.dbar_h0 = dbar_h0
    return sec


def exact_form(k, p=0, q=0, r_in=0.5, r_out=2.0):
    """The exact (0,1)-form dbar(f) of a bump section of Q_k; H^1 class zero."""
    sec = bump_section(k, p, q, r_in, r_out)

    def h1(w):
        w = np.asarray(w, dtype=complex)
        out = np.zeros_like(w)
        nz = w != 0
        zz = 1.0 / w[nz]
        out[nz] = -zz ** (-k) * np.conj(zz) ** 2 * sec.dbar_h0(zz)
        return out

    return Form01(k, sec.dbar_h0, h1)
