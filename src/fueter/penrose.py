r"""The twistor integral transform and its contour back to the operator.

Pipeline, all in the chart-0 trivialization over a base domain U in H^n:

  * ``sharp`` lifts a pair (psi0, psi1) on U to a (0,1)-form on the twistor
    space over U with values in the degree -3 fiber bundle.  Only its
    dconj(z)-part is stored: the pushforwards read a form through fiber
    moments alone, and a base-direction (K) part has none (see
    ``tau_push_02``).  Its fiber profile is the harmonic representative of
    ``cp1`` with (a0, a1) = (psi0(x), psi1(x)): the base coefficients
    c(x) = (psi0(x), psi1(x)) times ``cp1.harmonic_basis``,
    b(z) = (1, conj(z)) 2/(1+|z|^2)^3.
  * ``tau_push_01`` pushes a form down to a pair by the fiber moment
    integrals a_A(x) = (1/2 pi i) \int z^A wz(z, x) dconj(z)^dz, A = 0, 1,
    where wz(z, x) = c(x) b(z) is the dconj(z)-part.
    The integrals are linear, so they are c(x) times the form's moment table
    M[r, A] = sum_j W_j Z_j^A b_r(Z_j).  Because both moments of the harmonic
    profile are exactly 1, the composition with ``sharp`` is the identity
    (a genuine splitting).
  * The antiholomorphic exterior derivative is taken in the commuting frame
    (d/dconj(z), X^1..X^{2n}), where
    X^{2i-1} = z d/d(beta_i) - d/d(conj alpha_i) and
    X^{2i}   = z d/d(alpha_i) + d/d(conj beta_i).  The frame fields act on
    the coefficients alone, X^{A+1}(c b) = (z P_A + Q_A) b, with P_A and Q_A
    the Wirtinger combinations (``_wirtinger``) of the finite differences
    of c (``_frame_rows``).  They are this module's own: ``cf`` computes
    the operator from its definition alone.
  * ``tau_push_02`` pushes the mixed fiber/base (0,2)-components down by a
    single moment each (they live at degree -2, one coefficient per
    direction): the frame step, contracted with the columns of M.  On
    ``sharp`` lifts this reproduces the Cauchy-Fueter residual up to the
    frozen constant ``KAPPA = -1``: component 2i-2 is minus the first
    residual of block i, component 2i-1 minus the second
    (``calibrate_kappa`` re-derives this numerically).
  * ``penrose_transform`` certifies tau-level closedness (the moments of the
    (0,2)-part vanish; the pointwise components need not) at every given
    point and returns the pushed-down pair.  Differencing is linear, so the
    one ``tau_push_02`` array is also minus the Cauchy-Fueter residual of
    that pair.
  * ``diagram_check`` compares the two sides of the commutative square from
    one finite-difference pass: a lift's coefficients are the field's
    stacked pair (``fields``), so their partials are the pair's, bit for
    bit.  What is independent is the algebra read from them: the frame rows
    contracted with the moment table (``tau_push_02``) on one side, the
    operator's definition, the unit products of ``cf`` read as the pair
    residual of ``cf.cf_residual_complex``, on the other.
  * ``penrose_transform_complex`` evaluates the same moments at a matrix
    point of the monogenic hull.  The integrand is the form's holomorphic
    matrix extension: the line over a hull point has constant base-point
    matrix equal to the point itself (see ``twistor.line_base_points``), so
    the fiber integral simply carries the extended coefficients, c(sigma)
    times M.  On the real slice (y = 0) it delegates to ``tau_push_01`` —
    the identical code path, not merely an equal value.

Batches: a form's coefficients take a whole batch of base points at once,
x (..., 4n) -> (..., R), and its moment table is cp1's: ``cp1.moment_table``
builds it once per fiber basis, the very table a factored ``cp1`` form
with that basis is multiplied by.  The pushforwards,
``penrose_transform`` and ``diagram_check`` are then products of (..., R)
coefficient arrays with the (R, moments) table; no array over base points
and fiber nodes together is formed.

Numerical notes: there are no settings.  Output values are quadrature sums
over the default nodes of ``cp1.quadrature_nodes``; derivatives use the
finite-difference core of ``cf`` at ``_FD``, whose error (~1e-8) closedness
certificates and diagram residuals inherit, far below the 1e-4 tolerances;
``penrose_transform`` and ``diagram_check`` each take one finite-difference
pass per call.
"""

import math

import numpy as np

from .cf import DomainError, FDConfig, _pair_residual, _partials
from .cp1 import harmonic_basis, moment_table
from .domains import WholeSpace
from .fields import get_field
from .hull import hull_contains, NotInHullError, _as_point

__all__ = [
    "KAPPA", "ClosednessError", "NoExtensionError", "TwistorFormL", "sharp",
    "tau_push_01", "tau_push_02",
    "penrose_transform", "penrose_transform_complex", "PenroseResult",
    "diagram_check", "calibrate_kappa",
]

# Normalization tying the (0,2)-pushforward of a lifted pair to the
# Cauchy-Fueter residual (interleaved order of cf_residual_complex).
# Frozen from calibrate_kappa(); the diagram tests re-derive it.
KAPPA = -1.0

# penrose_transform's closedness certificate: tau_push_02 at every given
# point must stay below _CLOSED_TOL * max(1, scale).
_CLOSED_TOL = 1e-4
_FD = FDConfig()  # every base and fiber derivative of the transform


class ClosednessError(RuntimeError):
    """The tau-level closedness certificate failed."""


class NoExtensionError(ValueError):
    """The form has no holomorphic matrix extension to evaluate off the slice."""


class TwistorFormL:
    """A (0,1)-form on the twistor space over U, in the degree -3 bundle.

    Only the dconj(z)-part is stored, factored as base coefficients times a
    fixed fiber basis in chart 0:
      coeffs(x)       coefficients c at flat real base points x (..., 4n);
                      returns x.shape[:-1] + (R,)
      basis(z)        the fiber basis b at complex fiber points z; returns
                      (R,) + z.shape.  The dconj(z)-part is
                      wz(z, x) = sum_r c_r(x) b_r(z).
    Optional holomorphic extension coeffs_matrix(sigma) of the coefficients
    to complex matrices sigma (..., 2n, 2), returning sigma.shape[:-2] +
    (R,), required by the complexified transform off the real slice; and
    the base domain, whose stencils the frame fields check.

    ``moments`` is the table M[r, a] = sum_j W_j Z_j^a b_r(Z_j), a = 0, 1,
    on the default nodes: every pushforward of the form is a product with
    it.  Row r is the H^1 coefficients of the form b_r dconj(z) on Q_-3.  It
    is ``cp1.moment_table`` of the basis, which certifies its rounding
    (QuadratureError if it cannot), builds it once per basis callable, and
    shares it, read-only, with the forms with that basis (all ``sharp``
    lifts) and with cp1's factored forms (``harmonic_representative``).
    """

    def __init__(self, n, coeffs, basis, coeffs_matrix=None, domain=None):
        self.n = int(n)
        self.coeffs = coeffs
        self.basis = basis
        self.coeffs_matrix = coeffs_matrix
        self.domain = domain

    @property
    def moments(self):
        return moment_table(self.basis, -3)


def sharp(field):
    """Lift a ScalarField to a twistor form of degree -3.

    The coefficients are the field's stacked pair; when the field carries a
    holomorphic matrix extension the lift also carries ``coeffs_matrix``,
    the extension's stacked pair, for the complexified transform.
    """
    ext = getattr(field, "extension", None)
    return TwistorFormL(field.n, field.stacked, harmonic_basis,
                        None if ext is None else ext.stacked, field.domain)


# ---------------------------------------------------------------------------
# pushforwards
# ---------------------------------------------------------------------------

def tau_push_01(form, x):
    """Push a form down to the pair: A-th moment of the dconj(z)-part.

    x (..., 4n) -> (..., 2): the coefficients at x times the moment table.
    """
    x = np.asarray(x, dtype=float)
    return form.coeffs(x) @ form.moments


def _wirtinger(d):
    """From real partials (..., 4n) to the four Wirtinger combinations per
    block, (d_alpha, d_conj(alpha), d_beta, d_conj(beta)), each (..., n)."""
    d0, d1, d2, d3 = d[..., 0::4], d[..., 1::4], d[..., 2::4], d[..., 3::4]
    return ((d0 - 1j * d1) / 2, (d0 + 1j * d1) / 2,
            (d3 - 1j * d2) / 2, (d3 + 1j * d2) / 2)


def _frame_rows(d):
    """The base frame fields on a factored part c(x) b(z), as coefficients.

    X^{A+1}(c b) = (z P_A + Q_A) b, where row 2i-2 of (P, Q) is
    (d_beta_i c, -d_conj(alpha_i) c) and row 2i-1 is
    (d_alpha_i c, d_conj(beta_i) c).  From the real partials d (..., 4n, R)
    of c (``cf._partials``) returns (P, Q), each (..., 2n, R).
    """
    da, dab, db, dbb = _wirtinger(np.swapaxes(d, -1, -2))  # each (..., R, n)
    P = np.empty(da.shape[:-1] + (2 * da.shape[-1],), dtype=complex)
    Q = np.empty_like(P)
    P[..., 0::2], P[..., 1::2] = db, da
    Q[..., 0::2], Q[..., 1::2] = -dab, dbb
    return np.swapaxes(P, -1, -2), np.swapaxes(Q, -1, -2)


def tau_push_02(form, x):
    """Push the (0,2)-part down: one moment per base direction.

    x (..., 4n) -> (..., 2n).  This is the tau-level closedness obstruction;
    on lifts of pairs it equals KAPPA times the interleaved Cauchy-Fueter
    residual.  Of C_zi[A] = d_conj(z) K_A - X^{A+1} wz only the second term
    has a moment: a base-direction part K_A is a section of the degree -2
    bundle, so d_conj(z) K_A is exact on the fiber and its moment vanishes
    (which is why a TwistorFormL carries no K parts).  The moment of
    -X^{A+1} wz is -(P_A M[:, 1] + Q_A M[:, 0]).
    """
    M = form.moments
    return _push02(_partials(form.coeffs, np.asarray(x, dtype=float), _FD,
                             form.domain), M)


def _push02(d, M):
    """tau_push_02 from the real partials d (..., 4n, R) of the coefficients
    and the moment table M (R, 2): the frame rows contracted with M."""
    P, Q = _frame_rows(d)
    return -(P @ M[:, 1] + Q @ M[:, 0])


# ---------------------------------------------------------------------------
# the transform
# ---------------------------------------------------------------------------

def _point_set(points):
    """points as a float array (..., 4n); ValueError when it holds none, and
    cf.DomainError naming the first point with a non-finite coordinate, both
    before anything is evaluated there."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if 0 in points.shape[:-1]:
        raise ValueError("empty point set of shape %s" % (points.shape,))
    if not np.isfinite(points).all():
        raise DomainError(points[~np.isfinite(points).all(axis=-1)][0])
    return points


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
    """Evaluate the transform at base points, certifying closedness at each.

    Every component of tau_push_02 at every point must stay below
    ``_CLOSED_TOL`` * max(1, output scale), else ClosednessError.  That array
    is also minus the Cauchy-Fueter residual of the output pair (the frame
    rows difference the coefficients the moment table maps to the output),
    so its maximum is both ``closedness`` and ``cf_residual_max``.
    ValueError for an empty point set, and cf.DomainError for a point with
    a non-finite coordinate, both before the form is evaluated.
    """
    points = _point_set(points)
    values = tau_push_01(form, points)
    scale = max(1.0, float(np.max(np.abs(values))))
    cert = float(np.max(np.abs(tau_push_02(form, points))))
    if cert > _CLOSED_TOL * scale:
        raise ClosednessError(
            "tau-level closedness certificate %.3e exceeds %.3e"
            % (cert, _CLOSED_TOL * scale))
    return PenroseResult(points, values, cert, _CLOSED_TOL, cert)


def penrose_transform_complex(form, sigma):
    """The transform at a matrix point of the monogenic hull.

    On the real slice (sigma exactly of the form embed_M(x)) this delegates
    to tau_push_01 at x — the same code path as the real transform.  Off the
    slice the form must carry the holomorphic matrix extension
    ``coeffs_matrix`` of its coefficients; the fiber moments are then
    coeffs_matrix(sigma) times the form's moment table, the line over sigma
    having constant base matrix sigma (NoExtensionError without it).  The
    point is first certified to lie in the hull of the form's domain
    (NotInHullError otherwise).
    """
    pt = _as_point(sigma, n=form.n)
    if form.domain is not None and not isinstance(form.domain, WholeSpace):
        q = hull_contains(pt, form.domain)
        if not q.verdict:
            raise NotInHullError(
                "point is not in the monogenic hull of %r (clearance %.3e)"
                % (form.domain, q.inf_value))
    if not pt.y.any():
        return tau_push_01(form, pt.x)
    if form.coeffs_matrix is None:
        raise NoExtensionError(
            "form has no holomorphic matrix extension; the complexified "
            "transform off the real slice requires coeffs_matrix")
    return form.coeffs_matrix(pt.matrix) @ form.moments


# ---------------------------------------------------------------------------
# the commutative diagram
# ---------------------------------------------------------------------------

def _diagram_sides(field, points):
    """The two sides from one differencing pass of the lift's coefficients.

    The lift's coefficients are the stacked pair, so their partials are the
    pair's: lhs is tau_push_02 of the lift (the frame rows contracted with
    the moment table), rhs the interleaved Cauchy-Fueter residual of the
    pair (the operator's unit products, ``cf._pair_residual``), each bit
    for bit.
    """
    form = sharp(field)
    M = form.moments
    d = _partials(form.coeffs, points, _FD, form.domain)  # (..., 4n, 2)
    return _push02(d, M), _pair_residual(d)


def diagram_check(field, points):
    """Compare tau_push_02 of the lifted pair against KAPPA * CF residual.

    Returns a report with the two sides' magnitudes, the maximum
    componentwise discrepancy over the sample points and their number, the
    product of the lead shape of points (..., 4n); ValueError for an empty
    point set and cf.DomainError for a non-finite point, as
    ``penrose_transform`` refuses them.
    """
    points = field.check_points(_point_set(points))
    lhs, rhs = _diagram_sides(field, points)
    disc = np.abs(lhs - KAPPA * rhs)
    return {
        "field": field.name,
        "n": field.n,
        "kappa": KAPPA,
        "points": math.prod(points.shape[:-1]),
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
    lhs, rhs = _diagram_sides(field, points)
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
