"""The n-Cauchy-Fueter operator by finite differences.

Per quaternionic variable block ell the operator is

    dbar_{q_ell} psi = d/dx0 psi + i d/dx1 psi + j d/dx2 psi + k d/dx3 psi

with the units multiplying the derivative values from the LEFT.  D psi is the
n-tuple of these.  In the complex pair picture psi = psi0 + k*psi1 the same
system reads, per block,

    r1_ell = d_{beta_ell} psi1 - d_{conj(alpha_ell)} psi0
    r2_ell = d_{alpha_ell} psi1 + d_{conj(beta_ell)} psi0

and the exact dictionary between the two forms is

    dbar_{q_ell} psi = -2*r1_ell + 2*k*r2_ell,

equivalently dbar_q = 2(d_conj(alpha) + k d_conj(beta)).  Wirtinger
derivatives follow alpha = x0 + i x1, beta = x3 + i x2:

    d_alpha = (d_x0 - i d_x1)/2        d_conj(alpha) = (d_x0 + i d_x1)/2
    d_beta  = (d_x3 - i d_x2)/2        d_conj(beta)  = (d_x3 + i d_x2)/2

The holomorphic operator D^C acts on matrix fields: component A is
d_{z_{A 0'}} psi1^C - d_{z_{A 1'}} psi0^C, differenced along the complex
coordinate axes.

Every finite difference here and in ``penrose`` goes through ``_central``
(along the 4n real axes, or one column's matrix units for D^C) and the
scheme of ``_extrapolate``; all vectorize over a leading batch of points.
"""

import numpy as np

from . import quat
from .domains import WholeSpace

__all__ = [
    "FDConfig", "DomainError", "cf_apply", "cf_residual_complex",
    "dC_apply", "is_monogenic", "residual_norm",
]

_UNITS = np.eye(4)  # quaternion units 1, i, j, k as real 4-vectors


class DomainError(ValueError):
    """An FD stencil point left the field's domain."""

    def __init__(self, point):
        self.point = np.asarray(point, dtype=float)
        super().__init__("FD stencil exits the domain at %s" % (self.point.tolist(),))


class FDConfig:
    """Finite-difference configuration.

    step: absolute step h, or None for the scale-aware default
          h = factor * max(1, ||p||) with factor 1e-5 for real-coordinate
          derivatives and 1e-4 for complex-coordinate (matrix) derivatives.
    scheme: "central" (2nd order) or "richardson" (two central stencils,
          h and h/2, extrapolated to 4th order).
    """

    def __init__(self, step=None, scheme="central"):
        if step is not None and not step > 0:
            raise ValueError("step must be positive")
        if scheme not in ("central", "richardson"):
            raise ValueError("scheme must be 'central' or 'richardson'")
        self.step = step
        self.scheme = scheme

    def resolve_step(self, scale, factor=1e-5):
        if self.step is not None:
            return self.step
        return factor * np.maximum(1.0, scale)

    def __repr__(self):
        return "FDConfig(step=%r, scheme=%r)" % (self.step, self.scheme)


def _shifted(p, dirs, h):
    """(p + h d, p - h d) for every direction d of dirs, each (..., k) + point."""
    off = np.reshape(h, np.shape(h) + (1,) * dirs.ndim) * dirs
    centre = np.expand_dims(p, -dirs.ndim)
    return centre + off, centre - off


def _central(fn, p, dirs, h):
    """(fn(p + h d) - fn(p - h d)) / 2h for every direction d of dirs.

    p: (...,) + point; dirs: (k,) + point; h: (...) or a scalar.  fn maps
    (..., k) + point to (..., k[, extra]), which is the result's shape.
    """
    plus, minus = _shifted(p, dirs, h)
    fp = fn(plus)
    fm = fn(minus)
    denom = 2.0 * np.asarray(h)
    return (fp - fm) / denom.reshape(denom.shape + (1,) * (fp.ndim - denom.ndim))


def _extrapolate(diff, h, scheme):
    """diff(h), or for "richardson" (4 diff(h/2) - diff(h)) / 3."""
    if scheme == "central":
        return diff(h)
    return (4.0 * diff(h / 2) - diff(h)) / 3.0


def _partials(fn, p, cfg, domain=None):
    """All 4n real partials of fn at p, (..., 4n[, extra]), by the cfg scheme.

    With a domain, all stencil points are checked before fn runs; DomainError
    names the first outside (batch-major; centre, +h, -h, +h/2, -h/2).
    """
    p = np.asarray(p, dtype=float)
    h = cfg.resolve_step(quat.qnorm(p))
    axes = np.eye(p.shape[-1])
    if domain is not None and not isinstance(domain, WholeSpace):
        pts = [p[..., None, :]]
        for s in ([h, h / 2] if cfg.scheme == "richardson" else [h]):
            pts.extend(_shifted(p, axes, s))
        pts = np.concatenate(pts, axis=-2)
        inside = domain.contains(pts)
        if not np.all(inside):
            raise DomainError(pts[~inside][0])
    return _extrapolate(lambda s: _central(fn, p, axes, s), h, cfg.scheme)


# ---------------------------------------------------------------------------
# quaternionic form
# ---------------------------------------------------------------------------

def cf_apply(psi, p, cfg=None):
    """D psi at p: returns (..., n, 4) quaternion components per block.

    psi is a ScalarField; p is flat real (..., 4n).
    """
    p = np.asarray(p, dtype=float)
    dq = _partials(psi.eval_quat, p, cfg or FDConfig(), psi.domain)  # (..., 4n, 4)
    n = p.shape[-1] // 4
    blocks = dq.reshape(dq.shape[:-2] + (n, 4, 4))  # (..., n, coord u, quat comp)
    out = np.zeros_like(blocks[..., 0, :])
    for u in range(4):
        out = out + quat.qmul(_UNITS[u], blocks[..., u, :])
    return out


def residual_norm(res):
    """Flat Euclidean norm of a (..., n, 4) residual -> (...)."""
    res = np.asarray(res)
    return np.sqrt(np.sum(res ** 2, axis=(-2, -1)))


# ---------------------------------------------------------------------------
# complex pair form
# ---------------------------------------------------------------------------

def _wirtinger(d):
    """From real partials (..., 4n, ...) to the four Wirtinger combos per block.

    Returns (d_alpha, d_alphabar, d_beta, d_betabar), each (..., n, ...).
    """
    d0 = d[..., 0::4]
    d1 = d[..., 1::4]
    d2 = d[..., 2::4]
    d3 = d[..., 3::4]
    da = (d0 - 1j * d1) / 2
    dab = (d0 + 1j * d1) / 2
    db = (d3 - 1j * d2) / 2
    dbb = (d3 + 1j * d2) / 2
    return da, dab, db, dbb


def cf_residual_complex(psi0, psi1, p, cfg=None, domain=None):
    """Interleaved residual pairs (r1_1, r2_1, ..., r1_n, r2_n) at p.

    psi0, psi1: callables on interleaved complex points (..., 2n), or pass a
    ScalarField's pair0/pair1.  p is flat real (..., 4n).
    """
    def pair(pts):
        v = quat.real_to_ab(pts)
        return np.stack([np.asarray(psi0(v), dtype=complex),
                         np.asarray(psi1(v), dtype=complex)], axis=-1)

    return _residual_of_pair(pair, p, cfg, domain)


def _residual_of_pair(pair, p, cfg=None, domain=None):
    """cf_residual_complex for one callable giving the stacked pair.

    pair maps flat real points (..., 4n) to (psi0, psi1) stacked as (..., 2),
    so each stencil point is evaluated once for both components.
    """
    d = _partials(pair, p, cfg or FDConfig(), domain)  # (..., 4n, 2)
    da, dab, db, dbb = _wirtinger(np.moveaxis(d, -1, 0))  # each (2, ..., n)
    r1 = db[1] - dab[0]
    r2 = da[1] + dbb[0]
    out = np.empty(r1.shape[:-1] + (2 * r1.shape[-1],), dtype=complex)
    out[..., 0::2] = r1
    out[..., 1::2] = r2
    return out


# ---------------------------------------------------------------------------
# holomorphic operator
# ---------------------------------------------------------------------------

def dC_apply(psiC, sigma, cfg=None):
    """D^C residual of a ComplexField at matrix points sigma (..., 2n, 2).

    Component A is d_{z_{A0'}} psi1^C - d_{z_{A1'}} psi0^C, each derivative by
    differencing along the complex coordinate.  Defaults to Richardson
    extrapolation with h = 1e-4 * max(1, ||sigma||_F): the criterion-grade
    tolerance (1e-6 down to |det| = 0.1) needs the 4th-order scheme.
    """
    cfg = cfg or FDConfig(scheme="richardson")
    z = np.asarray(getattr(sigma, "matrix", sigma), dtype=complex)
    rows = 2 * psiC.n
    if z.shape[-2:] != (rows, 2):
        raise ValueError("sigma must be a (..., %d, 2) matrix" % rows)
    h = cfg.resolve_step(np.sqrt(np.sum(np.abs(z) ** 2, axis=(-2, -1))), 1e-4)
    # the matrix units e_{A,col}, A = 0..2n-1, of each column
    units = np.eye(2 * rows).reshape(2 * rows, rows, 2)
    return _extrapolate(lambda s: _central(psiC.pair1, z, units[0::2], s)
                        - _central(psiC.pair0, z, units[1::2], s),
                        h, cfg.scheme)


# ---------------------------------------------------------------------------
# monogenicity report
# ---------------------------------------------------------------------------

def is_monogenic(psi, points, tol=1e-5, cfg=None):
    """Max-residual certification of D psi = 0 over sample points.

    points: (N, 4n) interior samples with stencil margin.  Returns the report
    dict {field, n, samples, tol, max_residual, worst_point, verdict}.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[0] == 0:
        raise ValueError("empty sample set")
    res = residual_norm(cf_apply(psi, points, cfg))
    i = int(np.argmax(res))
    max_res = float(res[i])
    return {
        "field": psi.name,
        "n": psi.n,
        "samples": int(points.shape[0]),
        "tol": float(tol),
        "max_residual": max_res,
        "worst_point": points[i].tolist(),
        "verdict": bool(max_res <= tol),
    }
