"""The n-Cauchy-Fueter operator by finite differences.

Per quaternionic variable block ell the operator is

    dbar_{q_ell} psi = d/dx0 psi + i d/dx1 psi + j d/dx2 psi + k d/dx3 psi

with the units multiplying the derivative values from the LEFT.  D psi is the
n-tuple of these.  It is computed one way, by this definition
(``_unit_products``): the signed terms of the Hamilton products e_u d_u psi,
gathered from the partials of one evaluation of the field, the float view
of its stacked pair (``fields``), whose slots (Re psi0, Im psi0, Re psi1,
Im psi1) are the quaternion components (x0, x1, x3, x2).

In the complex pair picture psi = psi0 + k*psi1 the same system reads, per
block,

    r1_ell = d_{beta_ell} psi1 - d_{conj(alpha_ell)} psi0
    r2_ell = d_{alpha_ell} psi1 + d_{conj(beta_ell)} psi0

with Wirtinger derivatives along alpha = x0 + i x1, beta = x3 + i x2, and
the exact dictionary between the two forms is

    dbar_{q_ell} psi = -2*r1_ell + 2*k*r2_ell.

So the pair residual (``cf_residual_complex``) is (-1/2, 1/2) times the
(alpha, beta) of D psi: exact scalings of the same sums, not a second
algebra.

The holomorphic operator D^C acts on matrix fields: component A is
d_{z_{A 0'}} psi1^C - d_{z_{A 1'}} psi0^C, differenced along the complex
coordinate axes.

Every finite difference here goes through ``_central`` (along the 4n real
axes, or one column's matrix units for D^C) and the scheme of
``_extrapolate``; all vectorize over a leading batch of points.  ``penrose``
differences its base coefficients through ``_partials`` too.  The stencil
(``_shifted``) repeats the centre once per direction into a contiguous
array and adds and subtracts the offsets h d cast to the operand's dtype,
so no add broadcasts along the short direction axis or casts a real offset
into a complex one; the quotient divides by 2h in the difference's dtype.
Both give the bits of the broadcast forms.
"""

import functools

import numpy as np

from . import quat
from .domains import WholeSpace
from .fields import ScalarField

__all__ = [
    "FDConfig", "DomainError", "cf_apply", "cf_residual_complex",
    "dC_apply", "is_monogenic", "residual_norm",
]

class DomainError(ValueError):
    """An FD stencil leaves the domain; ``point`` says where (``_partials``)."""

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
        if step is not None and not 0 < step < np.inf:
            raise ValueError("step must be positive and finite, not %r" % (step,))
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


@functools.lru_cache(maxsize=None)
def _axes(dim):
    """The dim real coordinate axes, (dim, dim): cached and read-only."""
    axes = np.eye(dim)
    axes.flags.writeable = False
    return axes


def _shifted(p, dirs, h):
    """(p + h d, p - h d) for every direction d of dirs, each (..., k) + point.

    The centre repeated along k, and h d in p's dtype: both shifts are adds
    of equal dtypes without a broadcast along k, and the minus stencil
    takes the repeated centre's buffer.
    """
    centre = np.repeat(np.expand_dims(p, -dirs.ndim), len(dirs), axis=-dirs.ndim)
    off = np.multiply.outer(h, dirs).astype(p.dtype, copy=False)
    plus = centre + off
    return plus, np.subtract(centre, off, out=centre)


def _central(fn, p, dirs, h):
    """(fn(p + h d) - fn(p - h d)) / 2h for every direction d of dirs.

    p: (...,) + point; dirs: (k,) + point; h: (...) or a scalar.  fn maps
    (..., k) + point to (..., k[, extra]), which is the result's shape.
    fp - fm is divided in place by 2h cast to the quotient's dtype.
    """
    plus, minus = _shifted(p, dirs, h)
    fp = fn(plus)
    fm = fn(minus)
    diff = fp - fm
    denom = 2.0 * np.asarray(h)
    denom = denom.astype(np.result_type(diff, denom), copy=False).reshape(
        denom.shape + (1,) * (diff.ndim - denom.ndim))
    return np.divide(diff, denom, out=diff if diff.dtype == denom.dtype else None)


def _extrapolate(diff, h, scheme):
    """diff(h), or for "richardson" (4 diff(h/2) - diff(h)) / 3."""
    if scheme == "central":
        return diff(h)
    return (4.0 * diff(h / 2) - diff(h)) / 3.0


def _partials(fn, p, cfg, domain=None):
    """All 4n real partials of fn at p, (..., 4n[, extra]), by the cfg scheme.

    DomainError is raised before fn runs when a centre is not finite, on
    every domain including the whole space (it names the first such centre),
    and, on a domain other than the whole space, unless each stencil stays
    inside.  Centres with c = ext_distance(p) > 2h (h the largest step)
    need that one read: a stencil point lies within h plus the rounding
    u(|p_i| + h) of p_i +- h of its centre, so (1-Lipschitz) its clearance
    exceeds h - u(|p_i| + h), over 1e10 roundings at the default step.  Other
    batches are swept: DomainError names the first point outside (batch-major;
    centre, +h, -h, +h/2, -h/2), else the first centre with c <= h.
    """
    p = np.asarray(p, dtype=float)
    if not np.isfinite(p).all():
        raise DomainError(p[~np.isfinite(p).all(axis=-1)][0])
    h = cfg.step if cfg.step is not None else cfg.resolve_step(quat.qnorm(p))
    axes = _axes(p.shape[-1])
    if domain is not None and not isinstance(domain, WholeSpace):
        clearance = domain.ext_distance(p)
        if not np.all(clearance > 2 * h):
            pts = [p[..., None, :]]
            for s in ([h, h / 2] if cfg.scheme == "richardson" else [h]):
                pts.extend(_shifted(p, axes, s))
            pts = np.concatenate(pts, axis=-2)
            inside = domain.contains(pts)
            if not np.all(inside):
                raise DomainError(pts[~inside][0])
            clear = np.broadcast_to(clearance > h, p.shape[:-1])
            if not np.all(clear):
                raise DomainError(p[~clear][0])
    return _extrapolate(lambda s: _central(fn, p, axes, s), h, cfg.scheme)


# ---------------------------------------------------------------------------
# quaternionic form
# ---------------------------------------------------------------------------

# quaternion component c of a stacked pair's float view sits in slot
# _SLOT[c]: real_to_ab on the units, read as floats, places each unit once;
# _GATHER[u, k] is the slot of component u xor k, the factor of term u of
# component k of a Hamilton product (see quat._SIGN)
_SLOT = np.argmax(quat.real_to_ab(np.eye(4)).view(float), axis=-1)
_GATHER = _SLOT[quat._XOR[:, 0]]


def _unit_products(dv):
    """D psi (..., n, 4) from the partials dv (..., 4n, 4) of the float view
    of psi's stacked pair: component k of block ell sums the terms
    _SIGN[u, 0, k] d_u psi_(u xor k) of e_u d_u psi in u order, as qmul
    writes them."""
    blocks = dv.reshape(dv.shape[:-2] + (dv.shape[-2] // 4, 4, 4))
    terms = blocks[..., np.arange(4)[:, None], _GATHER] * quat._SIGN[:, 0]
    return terms[..., 0, :] + terms[..., 1, :] + terms[..., 2, :] + terms[..., 3, :]


def cf_apply(psi, p, cfg=None):
    """D psi at p: returns (..., n, 4) quaternion components per block.

    psi is a ScalarField; p is flat real (..., 4n).
    """
    return _unit_products(_partials(lambda q: psi.stacked(q).view(float),
                                    p, cfg or FDConfig(), psi.domain))


def residual_norm(res):
    """Flat Euclidean norm of a (..., n, 4) residual -> (...)."""
    res = np.asarray(res)
    return np.sqrt(np.sum(res ** 2, axis=(-2, -1)))


# ---------------------------------------------------------------------------
# complex pair form
# ---------------------------------------------------------------------------

def cf_residual_complex(psi0, psi1, p, cfg=None, domain=None):
    """Interleaved residual pairs (r1_1, r2_1, ..., r1_n, r2_n) at p.

    psi0, psi1: callables on interleaved complex points (..., 2n), or pass a
    ScalarField's pair0/pair1.  p is flat real (..., 4n).
    """
    field = ScalarField(psi0, psi1, n=np.shape(p)[-1] // 4, domain=domain)
    # each stencil point is evaluated once for both components
    return _pair_residual(_partials(field.stacked, p, cfg or FDConfig(),
                                    field.domain))


# D psi = -2 r1 + 2 k r2 per block: r1 is -1/2 times D psi's alpha
# components (x0, x1), r2 is 1/2 times its beta components (x3, x2)
_PAIR_SCALE = np.array([-0.5, -0.5, 0.5, 0.5])


def _pair_residual(d):
    """The interleaved residual pairs (..., 2n) from the partials
    (..., 4n, 2) of the stacked pair (psi0, psi1): (-1/2, 1/2) times the
    (alpha, beta) of D psi, both scalings exact."""
    dq = _unit_products(d.view(float)) * _PAIR_SCALE
    return quat.real_to_ab(dq.reshape(dq.shape[:-2] + (4 * dq.shape[-2],)))


# ---------------------------------------------------------------------------
# holomorphic operator
# ---------------------------------------------------------------------------

def dC_apply(psiC, sigma, cfg=None):
    """D^C residual of a ComplexField at matrix points sigma (..., 2n, 2).

    Component A is d_{z_{A0'}} psi1^C - d_{z_{A1'}} psi0^C, each derivative by
    differencing along the complex coordinate.  Defaults to Richardson
    extrapolation with h = 1e-4 * max(1, ||sigma||_F): the criterion-grade
    tolerance (1e-6 down to |det| = 0.1) needs the 4th-order scheme.
    ValueError for a matrix shape other than (..., 2n, 2), and for a
    non-finite entry (naming the first such matrix) before any difference.
    """
    cfg = cfg or FDConfig(scheme="richardson")
    z = np.asarray(getattr(sigma, "matrix", sigma), dtype=complex)
    rows = 2 * psiC.n
    if z.shape[-2:] != (rows, 2):
        raise ValueError("sigma must be a (..., %d, 2) matrix" % rows)
    if not np.isfinite(z).all():
        bad = ~np.isfinite(z).all(axis=(-2, -1))
        raise ValueError("sigma holds a non-finite matrix %s"
                         % (z[bad][0].tolist(),))
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

    points: (..., 4n) interior samples with stencil margin, read as the
    flat batch of their lead shape.  Returns the report dict {field, n,
    samples, tol, max_residual, worst_point, verdict}: ``samples`` is the
    product of the lead shape and ``worst_point`` one flat point.
    ValueError for an empty batch, and for a tol that is not positive and
    finite, before any evaluation.
    """
    if not 0 < tol < np.inf:
        raise ValueError("tol must be positive and finite, not %r" % (tol,))
    points = psi.check_points(np.atleast_2d(points))
    points = points.reshape(-1, points.shape[-1])
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
