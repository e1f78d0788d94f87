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

All derivative routines vectorize over a leading batch of points.
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
            return np.broadcast_to(np.float64(self.step), np.shape(scale)).copy() \
                if np.ndim(scale) else float(self.step)
        return factor * np.maximum(1.0, scale)

    def __repr__(self):
        return "FDConfig(step=%r, scheme=%r)" % (self.step, self.scheme)


def _central(fn, p, h):
    """All 4n real partial derivatives of fn at p.

    p: (..., 4n); h: (...) broadcastable step; fn maps (..., 4n) to a complex
    array with the same leading shape (possibly with extra trailing axes).
    Returns partials stacked on a new axis: (..., 4n[, extra]).
    """
    p = np.asarray(p, dtype=float)
    dim = p.shape[-1]
    hcol = np.asarray(h)[..., None]
    plus = p[..., None, :] + hcol[..., None] * np.eye(dim)
    minus = p[..., None, :] - hcol[..., None] * np.eye(dim)
    fp = fn(plus)
    fm = fn(minus)
    denom = 2.0 * np.asarray(h)
    extra = fp.ndim - plus.ndim + 1
    denom = denom.reshape(denom.shape + (1,) * (extra + 1)) if np.ndim(denom) else denom
    return (fp - fm) / denom


def _partials(fn, p, cfg, factor=1e-5):
    p = np.asarray(p, dtype=float)
    h = cfg.resolve_step(quat.qnorm(p), factor=factor)
    if cfg.scheme == "central":
        return _central(fn, p, h)
    d1 = _central(fn, p, h)
    d2 = _central(fn, p, h / 2)
    return (4.0 * d2 - d1) / 3.0


def _stencil_points(p, cfg, factor=1e-5):
    """Every point an FD call will evaluate, for domain checking."""
    p = np.asarray(p, dtype=float)
    dim = p.shape[-1]
    h = np.asarray(cfg.resolve_step(quat.qnorm(p), factor=factor))
    steps = [h, h / 2] if cfg.scheme == "richardson" else [h]
    pts = [p[..., None, :]]
    for s in steps:
        offs = s[..., None, None] * np.eye(dim)
        pts.append(p[..., None, :] + offs)
        pts.append(p[..., None, :] - offs)
    return np.concatenate(pts, axis=-2)


def _check_domain(domain, p, cfg, factor=1e-5):
    if domain is None or isinstance(domain, WholeSpace):
        return
    pts = _stencil_points(p, cfg, factor=factor)
    inside = domain.contains(pts)
    if not np.all(inside):
        bad = pts[~inside]
        raise DomainError(bad.reshape(-1, pts.shape[-1])[0])


# ---------------------------------------------------------------------------
# quaternionic form
# ---------------------------------------------------------------------------

def cf_apply(psi, p, cfg=None):
    """D psi at p: returns (..., n, 4) quaternion components per block.

    psi is a ScalarField; p is flat real (..., 4n).
    """
    cfg = cfg or FDConfig()
    p = np.asarray(p, dtype=float)
    _check_domain(psi.domain, p, cfg)
    dq = _partials(psi.eval_quat, p, cfg)  # (..., 4n, 4)
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
    cfg = cfg or FDConfig()
    p = np.asarray(p, dtype=float)
    _check_domain(domain, p, cfg)
    d = _partials(pair, p, cfg)  # (..., 4n, 2)
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
    scale = np.sqrt(np.sum(np.abs(z) ** 2, axis=(-2, -1)))
    h = cfg.resolve_step(scale, factor=1e-4)

    def partial(component, A, col, step):
        e = np.zeros((rows, 2))
        e[A, col] = 1.0
        sp = step[..., None, None] * e if np.ndim(step) else step * e
        return (component(z + sp) - component(z - sp)) / (2.0 * step)

    def all_components(step):
        out = np.empty(z.shape[:-2] + (rows,), dtype=complex)
        for A in range(rows):
            out[..., A] = (partial(psiC.pair1, A, 0, step)
                           - partial(psiC.pair0, A, 1, step))
        return out

    if cfg.scheme == "central":
        return all_components(h)
    return (4.0 * all_components(h / 2) - all_components(h)) / 3.0


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
