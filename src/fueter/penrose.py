r"""The twistor integral transform and its contour back to the operator.

Pipeline, all in the chart-0 trivialization over a base domain U in H^n:

  * ``sharp`` lifts a pair (psi0, psi1) on U to a (0,1)-form on the twistor
    space over U with values in the degree -3 fiber bundle, with vanishing
    base-direction (K) components.  Its fiber profile is the harmonic
    representative of ``cp1`` with (a0, a1) = (psi0(x), psi1(x)).
  * ``tau_push_01`` pushes a form down to a pair by the fiber moment
    integrals a_A(x) = (1/2 pi i) \int z^A wz(z, x) dconj(z)^dz, A = 0, 1.
    Because both moments of the harmonic profile are exactly 1, the
    composition with ``sharp`` is the identity (a genuine splitting).
  * ``dbar_chart0`` evaluates the antiholomorphic exterior derivative in the
    commuting frame (d/dconj(z), X^1..X^{2n}), where
    X^{2i-1} = z d/d(beta_i) - d/d(conj alpha_i) and
    X^{2i}   = z d/d(alpha_i) + d/d(conj beta_i); base derivatives are
    finite differences through the Wirtinger combinations of ``cf``.
  * ``tau_push_02`` pushes the mixed fiber/base (0,2)-components down by a
    single moment each (they live at degree -2, one coefficient per
    direction).  On ``sharp`` lifts this reproduces the Cauchy-Fueter
    residual up to the frozen constant ``KAPPA = -1``: component 2i-2 is
    minus the first residual of block i, component 2i-1 minus the second
    (``calibrate_kappa`` re-derives this numerically).
  * ``penrose_transform`` certifies tau-level closedness (the moments of the
    (0,2)-part vanish; the pointwise components need not) and then returns
    the pushed-down pair, which the diagram guarantees to be monogenic.  Its
    monogenic check differences the quadrature-backed output pair once per
    stencil point, both components from one fiber pass.
  * ``penrose_transform_complex`` evaluates the same moments at a matrix
    point of the monogenic hull.  The integrand is the form's holomorphic
    matrix extension: the line over a hull point has constant base-point
    matrix equal to the point itself (see ``twistor.line_base_points``), so
    the fiber integral simply carries the extended coefficients.  On the
    real slice (y = 0) it delegates to ``tau_push_01`` — the identical code
    path, not merely an equal value.

Batches: every fiber profile takes a whole batch of base points at once.
``wz(z, x)`` with x of shape (..., 4n) returns x.shape[:-1] + z.shape; a
profile that ignores x and returns z.shape is broadcast over the batch.  The
pushforwards, ``penrose_transform`` and ``diagram_check`` evaluate one node
set for all their base points, in chunks of at most ``_CHUNK_ELEMENTS``
profile values so memory stays bounded for large batches.

Numerical notes: there are no settings.  Output values are quadrature sums
over the default nodes of ``cp1.quadrature_nodes``; derivatives use the
finite-difference core of ``cf`` at ``_FD``, whose error (~1e-8) closedness
certificates and diagram residuals inherit, far below the 1e-4 tolerances.
"""

import numpy as np

from . import quat
from .cf import (FDConfig, _extrapolate, _partials, _wirtinger,
                 cf_residual_complex, _residual_of_pair)
from .cp1 import quadrature_nodes, validate_form, Form01, decay_check
from .domains import WholeSpace
from .fields import get_field
from .hull import hull_contains, NotInHullError, _as_point

__all__ = [
    "KAPPA", "ClosednessError", "TwistorFormL", "sharp",
    "tau_push_01", "tau_push_02", "dbar_chart0", "frame_apply",
    "penrose_transform", "penrose_transform_complex", "PenroseResult",
    "diagram_check", "calibrate_kappa",
]

# Normalization tying the (0,2)-pushforward of a lifted pair to the
# Cauchy-Fueter residual (interleaved order of cf_residual_complex).
# Frozen from calibrate_kappa(); the diagram tests re-derive it.
KAPPA = -1.0

# Most fiber-profile values (complex) evaluated in one pass over a chunk of
# base points; keeps batched transforms at the memory of small ones.
_CHUNK_ELEMENTS = 1 << 15

# penrose_transform's closedness certificate: tau_push_02 at up to
# _CERT_POINTS of the given points must stay below _CLOSED_TOL * max(1, scale).
_CLOSED_TOL = 1e-4
_CERT_POINTS = 8
_FD = FDConfig()  # every base and fiber derivative of the transform


class ClosednessError(RuntimeError):
    """The tau-level closedness certificate failed."""


class TwistorFormL:
    """A (0,1)-form on the twistor space over U, valued in the degree-k bundle.

    Chart-0 data:
      wz(z, x)        coefficient of dconj(z); z a complex array of fiber
                      points, x flat real base points (..., 4n); returns
                      x.shape[:-1] + z.shape
      K_parts         list of 2n callables (z, x) -> complex for the base
                      coframe directions, same shapes as wz, or None for
                      identically zero
    A callable that ignores x and returns z.shape (a base-independent
    profile) is broadcast over the base batch.  Optional chart-1 data (used
    by validate): wz_chart1(w, x), and K_parts_chart1.  Optional holomorphic
    extension wz_matrix(z, sigma) with sigma complex matrices (..., 2n, 2),
    returning sigma.shape[:-2] + z.shape, required by the complexified
    transform off the real slice.
    """

    def __init__(self, n, wz, K_parts=None, k=-3, wz_chart1=None,
                 K_parts_chart1=None, wz_matrix=None, domain=None, name=None):
        self.n = int(n)
        self.k = int(k)
        self.wz = wz
        if K_parts is not None and len(K_parts) != 2 * self.n:
            raise ValueError("need 2n K-part callables (or None)")
        self.K_parts = K_parts
        self.wz_chart1 = wz_chart1
        self.K_parts_chart1 = K_parts_chart1
        self.wz_matrix = wz_matrix
        self.domain = domain
        self.name = name or "form"

    @property
    def has_K(self):
        return self.K_parts is not None and any(f is not None for f in self.K_parts)

    def as_fiber_form(self, x):
        """The fixed-x fiber profile as a cp1.Form01 (chart 1 by clutching)."""
        x = np.asarray(x, dtype=float)
        if self.wz_chart1 is not None:
            return Form01(self.k, lambda z: self.wz(z, x),
                          lambda w: self.wz_chart1(w, x))

        def h1(w):
            w = np.asarray(w, dtype=complex)
            out = np.zeros_like(w)
            nz = w != 0
            zz = 1.0 / w[nz]
            out[nz] = -zz ** (-self.k) * np.conj(zz) ** 2 \
                * np.asarray(self.wz(zz, x), dtype=complex)
            return out

        return Form01(self.k, lambda z: self.wz(z, x), h1)

    def validate(self, x, tol=1e-9, seed=71):
        """Clutching + decay report for the dconj(z)-part at base point x."""
        x = np.asarray(x, dtype=float)
        report = {"n": self.n, "k": self.k}
        fiber = self.as_fiber_form(x)
        if self.wz_chart1 is not None:
            report["clutching"] = validate_form(fiber, tol=tol)
        mref = -self.k - 2  # highest moment order used by the pushforward
        report["decay"] = all(decay_check(fiber, ell) for ell in range(mref + 1))
        if self.K_parts_chart1 is not None and self.K_parts is not None:
            # coefficient transition for the base coframe: factor z^{-(k+1)}
            rng = np.random.default_rng(seed)
            z = np.exp(rng.uniform(np.log(0.2), np.log(5.0), 40)) \
                * np.exp(1j * rng.uniform(0, 2 * np.pi, 40))
            worst = 0.0
            for f0, f1 in zip(self.K_parts, self.K_parts_chart1):
                v0 = 0.0 if f0 is None else np.asarray(f0(z, x), dtype=complex)
                v1 = 0.0 if f1 is None else np.asarray(f1(1.0 / z, x), dtype=complex)
                worst = max(worst, float(np.max(np.abs(
                    v1 - z ** (-(self.k + 1)) * v0))))
            report["K_transition_violation"] = worst
        return report


def sharp(field):
    """Lift a ScalarField to a twistor form of degree -3 with zero K parts.

    When the field carries a holomorphic matrix extension the lift also
    carries ``wz_matrix`` for the complexified transform.
    """
    n = field.n

    def profile(p0, p1, z):
        # the harmonic representative 2 (p0 + p1 conj(z)) / (1+|z|^2)^3 at
        # every base point; the real weight is shared by the whole batch
        z = np.asarray(z, dtype=complex)
        weight = 2.0 / (1.0 + (z.real ** 2 + z.imag ** 2)) ** 3
        tail = (1,) * z.ndim
        p0 = np.asarray(p0, dtype=complex).reshape(np.shape(p0) + tail)
        p1 = np.asarray(p1, dtype=complex).reshape(np.shape(p1) + tail)
        return (p0 + p1 * np.conj(z)) * weight

    def wz(z, x):
        return profile(*field.pair(x), z)

    def wz_chart1(w, x):
        # 2 (-p0 conj(w) - p1) / (1+|w|^2)^3 is the profile of (-p1, -p0)
        p0, p1 = field.pair(x)
        return profile(-np.asarray(p1), -np.asarray(p0), w)

    wz_matrix = None
    ext = getattr(field, "extension", None)
    if ext is not None:
        def wz_matrix(z, sigma):
            return profile(*ext.pair(np.asarray(sigma, dtype=complex)), z)

    form = TwistorFormL(n, wz, K_parts=None, k=-3, wz_chart1=wz_chart1,
                        wz_matrix=wz_matrix, domain=field.domain,
                        name="sharp(%s)" % field.name)
    return form


# ---------------------------------------------------------------------------
# pushforwards
# ---------------------------------------------------------------------------

def _on_batch(fn, z, base, point_ndim=1):
    """fn(z, base) as base.shape[:-point_ndim] + z.shape.

    A base-independent profile returning z.shape is broadcast over the batch.
    """
    z = np.asarray(z, dtype=complex)
    out = np.asarray(fn(z, base), dtype=complex)
    return np.broadcast_to(out, base.shape[:base.ndim - point_ndim] + z.shape)


def _chunked(fn, base, per_point, point_ndim=1):
    """fn over consecutive slices of the flattened base batch, restacked.

    Each slice holds at most _CHUNK_ELEMENTS // per_point base points (at
    least one); fn maps a slice (m,) + point shape to (m, ...).
    """
    lead = base.shape[:base.ndim - point_ndim]
    flat = base.reshape((-1,) + base.shape[base.ndim - point_ndim:])
    step = max(1, _CHUNK_ELEMENTS // per_point)
    out = np.concatenate([fn(flat[s:s + step])
                          for s in range(0, max(1, len(flat)), step)])
    return out.reshape(lead + out.shape[1:])


def _fiber_moments(fn, base, count, point_ndim=1):
    """Moments sum_j W_j Z_j^ell fn(Z_j, b) for ell < count at every base point b.

    base is (..., 4n) real points, or (..., 2n, 2) matrices with
    point_ndim=2; returns base.shape[:-point_ndim] + (count,).
    """
    Z, W = quadrature_nodes()
    V = (W * Z ** np.arange(count)[:, None]).T  # (nodes, count)
    return _chunked(lambda b: _on_batch(fn, Z, b, point_ndim) @ V,
                    base, Z.size, point_ndim)


def tau_push_01(form, x):
    """Push a form down to the pair: A-th moment of the dconj(z)-part.

    x (..., 4n) -> (..., -k-1), one fiber quadrature for the whole batch.
    """
    if form.k > -2:
        raise ValueError("degree %d has no pushforward coefficients" % form.k)
    x = np.asarray(x, dtype=float)
    return _fiber_moments(form.wz, x, -form.k - 1)


def frame_apply(fn, z, x, domain=None):
    """Apply the 2n antiholomorphic base frame fields to fn(z, x) at fixed z.

    x is (..., 4n).  Returns an array of shape (2n,) + x.shape[:-1] +
    shape(z): row 2i-2 is (z d_beta_i - d_conj(alpha_i)) fn, row 2i-1 is
    (z d_alpha_i + d_conj(beta_i)) fn.  With a domain the base stencil is
    checked first (cf.DomainError).
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=complex)
    d = _partials(lambda pts: _on_batch(fn, z, pts), x, _FD, domain)
    da, dab, db, dbb = _wirtinger(np.moveaxis(d, x.ndim - 1, -1))
    n = x.shape[-1] // 4
    out = np.empty((2 * n,) + x.shape[:-1] + z.shape, dtype=complex)
    for i in range(n):
        out[2 * i] = z * db[..., i] - dab[..., i]
        out[2 * i + 1] = z * da[..., i] + dbb[..., i]
    return out


def _dbar_fiber(fn, z, x):
    """d/dconj(z) of fn(z, x) at fixed x by central differences in the fiber."""
    z = np.asarray(z, dtype=complex)

    def deriv(step):
        du = (_on_batch(fn, z + step, x)
              - _on_batch(fn, z - step, x)) / (2.0 * step)
        dv = (_on_batch(fn, z + 1j * step, x)
              - _on_batch(fn, z - 1j * step, x)) / (2.0 * step)
        return (du + 1j * dv) / 2.0

    return _extrapolate(deriv, _FD.resolve_step(np.maximum(1.0, np.abs(z))),
                        _FD.scheme)


def dbar_chart0(form, z, x):
    """(0,2)-components of the antiholomorphic derivative at (z, x).

    Returns {"C_zi": (2n,) + B + shape(z), "C_ij": (2n, 2n) + B + shape(z)}
    for base points x of shape B + (4n,), with C_zi[A] = d_conj(z) K_A -
    X^{A+1} wz and C_ij[A, B] = X^{A+1} K_B - X^{B+1} K_A (antisymmetric).
    Vectorized over fiber points and base points; cf.DomainError, before
    any evaluation, if the base stencil leaves the form's domain.
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=complex)
    m = 2 * form.n
    Xw = frame_apply(form.wz, z, x, form.domain)
    C_zi = -Xw
    C_ij = np.zeros((m,) + Xw.shape, dtype=complex)
    if form.has_K:
        XK = np.zeros((m,) + Xw.shape, dtype=complex)  # XK[A, B] = X^{A+1} K_B
        for B, kb in enumerate(form.K_parts):
            if kb is None:
                continue
            C_zi[B] = C_zi[B] + _dbar_fiber(kb, z, x)
            XK[:, B] = frame_apply(kb, z, x)
        C_ij = XK - np.swapaxes(XK, 0, 1)
    return {"C_zi": C_zi, "C_ij": C_ij}


def tau_push_02(form, x):
    """Push the (0,2)-part down: one moment per base direction.

    x (..., 4n) -> (..., 2n).  This is the tau-level closedness obstruction;
    on lifts of pairs it equals KAPPA times the interleaved Cauchy-Fueter
    residual.
    """
    Z, W = quadrature_nodes()
    W = W.astype(complex)
    x = np.asarray(x, dtype=float)
    # one stencil pass evaluates the profile at 2 * 4n points per base point
    return _chunked(lambda b: (dbar_chart0(form, Z, b)["C_zi"] @ W).T,
                    x, Z.size * 2 * x.shape[-1])


# ---------------------------------------------------------------------------
# the transform
# ---------------------------------------------------------------------------

class PenroseResult:
    """Transform output: pair values plus the certificates that license them."""

    def __init__(self, points, values, closedness, closed_tol, cf_residual_max):
        self.points = points
        self.values = values
        self.closedness = closedness
        self.closed_tol = closed_tol
        self.cf_residual_max = cf_residual_max

    def to_json(self):
        return {
            "points": np.asarray(self.points).tolist(),
            "psi0": [[v[0].real, v[0].imag] for v in self.values],
            "psi1": [[v[1].real, v[1].imag] for v in self.values],
            "closedness": self.closedness,
            "closed_tol": self.closed_tol,
            "cf_residual_max": self.cf_residual_max,
        }


def penrose_transform(form, points):
    """Evaluate the transform at base points, certifying closedness first.

    The certificate computes tau_push_02 at up to ``_CERT_POINTS`` of the
    given points and requires every component below
    ``_CLOSED_TOL`` * max(1, output scale); otherwise ClosednessError.  The
    Cauchy-Fueter residual of the quadrature-backed output is then
    differenced at every point and the maximum reported; each stencil point
    costs one fiber pass for both components.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    values = tau_push_01(form, points)
    scale = max(1.0, float(np.max(np.abs(values))))

    stride = max(1, len(points) // _CERT_POINTS)
    cert_pts = points[::stride][:_CERT_POINTS]
    cert = float(np.max(np.abs(tau_push_02(form, cert_pts))))
    if cert > _CLOSED_TOL * scale:
        raise ClosednessError(
            "tau-level closedness certificate %.3e exceeds %.3e"
            % (cert, _CLOSED_TOL * scale))

    res = _residual_of_pair(lambda pts: tau_push_01(form, pts)[..., :2],
                            points, _FD, form.domain)
    return PenroseResult(points, values, cert, _CLOSED_TOL,
                         float(np.max(np.abs(res))))


def penrose_transform_complex(form, sigma):
    """The transform at a matrix point of the monogenic hull.

    On the real slice (sigma exactly of the form embed_M(x)) this delegates
    to tau_push_01 at x — the same code path as the real transform.  Off the
    slice the form must carry a holomorphic matrix extension ``wz_matrix``;
    the fiber moments are then taken of wz_matrix(z, sigma), the line over
    sigma having constant base matrix sigma.  The point is first certified
    to lie in the hull of the form's domain (NotInHullError otherwise).
    """
    pt = _as_point(sigma, n=form.n)
    if form.domain is not None and not isinstance(form.domain, WholeSpace):
        q = hull_contains(pt, form.domain)
        if not q.verdict:
            raise NotInHullError(
                "point is not in the monogenic hull of %r (clearance %.3e)"
                % (form.domain, q.inf_value))
    mat = pt.matrix
    x = quat.decompose_matrix(mat)[0]
    if np.array_equal(quat.embed_M(x), mat):
        return tau_push_01(form, x)
    if form.wz_matrix is None:
        raise ValueError(
            "form has no holomorphic matrix extension; the complexified "
            "transform off the real slice requires wz_matrix")
    return _fiber_moments(form.wz_matrix, mat, -form.k - 1, point_ndim=2)


# ---------------------------------------------------------------------------
# the commutative diagram
# ---------------------------------------------------------------------------

def diagram_check(field, points):
    """Compare tau_push_02 of the lifted pair against KAPPA * CF residual.

    Returns a report with the two sides' magnitudes and the maximum
    componentwise discrepancy over the sample points.
    """
    form = sharp(field)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    lhs = tau_push_02(form, points)
    rhs = cf_residual_complex(field.pair0, field.pair1, points, _FD,
                              field.domain)
    disc = np.abs(lhs - KAPPA * rhs)
    return {
        "field": field.name,
        "n": field.n,
        "kappa": KAPPA,
        "points": len(points),
        "max_discrepancy": float(np.max(disc)),
        "lhs_max": float(np.max(np.abs(lhs))),
        "rhs_max": float(np.max(np.abs(rhs))),
    }


def calibrate_kappa():
    """Re-derive the diagram constant from the quadratic non-monogenic fixture.

    Fits the single scalar kappa minimizing ||tau02 - kappa * residual|| over
    5 seeded normal points at n = 1, and reports the relative misfit and the
    spread of the componentwise ratios (which certifies that the component
    mapping is the identity interleaving, with no permutation or extra signs).
    """
    field = get_field("nonmonogenic_quadratic", 1)
    points = np.random.default_rng(11).normal(size=(5, 4))
    form = sharp(field)
    lhs = tau_push_02(form, points)
    rhs = cf_residual_complex(field.pair0, field.pair1, points, _FD,
                              field.domain)
    denom = np.sum(np.abs(rhs) ** 2)
    if denom == 0:
        raise ValueError("calibration fixture has vanishing residual")
    kappa = np.sum(lhs * np.conj(rhs)) / denom
    misfit = float(np.max(np.abs(lhs - kappa * rhs))
                   / max(1e-30, np.max(np.abs(lhs))))
    big = np.abs(rhs) > 1e-6 * np.max(np.abs(rhs))
    ratios = lhs[big] / rhs[big]
    spread = float(np.max(np.abs(ratios - kappa))) if ratios.size else 0.0
    return {
        "kappa_real": float(kappa.real),
        "kappa_imag": float(kappa.imag),
        "max_rel_misfit": misfit,
        "ratio_spread": spread,
        "points": len(points),
        "pattern": "identity-interleaved",
    }
