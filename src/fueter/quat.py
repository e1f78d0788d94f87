"""Linear algebra of quaternions and biquaternions.

Conventions used throughout the package:

* a quaternion q = x0 + i*x1 + j*x2 + k*x3 is stored as the real 4-vector
  (x0, x1, x2, x3);
* the complex split is q = alpha + k*beta with alpha = x0 + i*x1 and
  beta = x3 + i*x2 (note the order: beta's real part is x3);
* a vector of n quaternions maps to the interleaved complex 2n-vector
  (alpha_1, beta_1, ..., alpha_n, beta_n);
* the right-multiplication-by-k map kappa acts pairwise by
  (alpha, beta) -> (-conj(beta), conj(alpha));
* embed_M(x) is the 2n x 2 complex matrix with columns (x | kappa(x)), and a
  "biquaternion point" (x, y) is the matrix embed_M(x) + 1j*embed_M(y).

Array functions operate on trailing axes and broadcast over leading ones, so
the same code serves scalar points and large sample batches.  A point of H^n
is a flat (..., 4n) real array; BiquaternionPoint only pairs the two flat
arrays x and y of a point Sigma and checks their shapes.

The hull evaluates the twistor line map q -> x + y*q of one point many times
(scan, search, polish).  ``right_line(x, y)`` builds that map once: it
gathers y's signed coefficients, so that each call is one gather of q, one
product and three sums.  Component k of a Hamilton product p*q is the sum
over t of +-p_t q_(k xor t); the map adds those four terms in the order
``qmul`` writes them, and a difference a - b is the sum a + (-b) exactly,
so it equals x + qmul_right(y, q) bit for bit, signed zeros included.  Every
row is computed alike whatever the batch, and the result has qmul_right's C
layout, so an oracle that rounds by layout (a BLAS product) sees the same
array.

``qmul`` and ``embed_M`` are the definitions; each table that restates
them is read off them on the units: ``_SIGN`` (the +- above, which
``domains`` and ``cf`` reuse) from qmul, and ``_POINT_MAP``, the real 8 x 8
map of one entry's block that matrix_point and decompose_matrix use, from
embed_M.
"""

import numpy as np

__all__ = [
    "qmul", "qmul_right", "qconj", "qnorm",
    "real_to_ab", "ab_to_real", "kappa", "embed_M", "matrix_point",
    "decompose_matrix", "det_biquat", "norm_C", "BiquaternionPoint",
]


# ---------------------------------------------------------------------------
# array kernels
# ---------------------------------------------------------------------------

def qmul(p, q):
    """Hamilton product of quaternions stored as (..., 4) real arrays."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    p0, p1, p2, p3 = p[..., 0], p[..., 1], p[..., 2], p[..., 3]
    q0, q1, q2, q3 = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    return np.stack([
        p0 * q0 - p1 * q1 - p2 * q2 - p3 * q3,
        p0 * q1 + p1 * q0 + p2 * q3 - p3 * q2,
        p0 * q2 - p1 * q3 + p2 * q0 + p3 * q1,
        p0 * q3 + p1 * q2 - p2 * q1 + p3 * q0,
    ], axis=-1)


def qmul_right(x, q):
    """x*q for flat points x (..., 4n) and quaternions q (..., 4) -> (..., 4n)."""
    x = np.asarray(x, dtype=float)
    xq = qmul(x.reshape(x.shape[:-1] + (-1, 4)), np.asarray(q)[..., None, :])
    return xq.reshape(xq.shape[:-2] + (-1,))


# term t of component k of p*q is _SIGN[t, 0, k] * p_t * q_(_XOR[t, 0, k]),
# its sign read off qmul on the units: e_t * e_(t xor k) = _SIGN[t, 0, k] e_k;
# the middle axis broadcasts over the n entries of a flat point
_XOR = (np.arange(4)[:, None] ^ np.arange(4))[:, None, :]
_SIGN = np.sum(qmul(np.eye(4)[:, None, None], np.eye(4)[_XOR]) * np.eye(4), axis=-1)


def right_line(x, y):
    """The line map q (..., 4) -> x + y*q (..., 4n) of flat x, y (..., 4n).

    Equal to x + qmul_right(y, q) bit for bit (see the module docstring);
    y's coefficients are gathered once, here, not per call.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    # c[..., t, l, k] = _SIGN[t, k] * y_(l, t)
    c = np.swapaxes(y.reshape(y.shape[:-1] + (-1, 4)), -1, -2)[..., None]
    c = c * _SIGN

    def line(q):
        terms = np.asarray(q, dtype=float)[..., _XOR] * c
        yq = (terms[..., 0, :, :] + terms[..., 1, :, :]
              + terms[..., 2, :, :] + terms[..., 3, :, :])
        # the gather leaves the batch axis innermost; order="C" restores
        # qmul_right's layout (see the module docstring)
        return np.add(x, yq.reshape(yq.shape[:-2] + (-1,)), order="C")

    return line


CONJ_SIGNS = np.array([1.0, -1.0, -1.0, -1.0])  # qconj's, on (x0, .., x3)


def qconj(q):
    """The quaternion conjugate on (..., 4) arrays."""
    q = np.asarray(q, dtype=float)
    return q * CONJ_SIGNS


_NORMAL = np.finfo(float).tiny


def qnorm(x):
    """Euclidean norm of a flat real point (..., 4n) -> (...).

    sqrt(sum of squares), bit for bit where that sum is normal.  A row whose
    sum is below 2^-1022 is first scaled by the power of two that brings its
    largest entry into [1/2, 1) (Blue, ACM TOMS 4, 1978), so its norm is
    true down to subnormal entries.  A norm past ~1.3e154 reads inf.
    """
    x = np.asarray(x, dtype=float)
    s = np.add.reduce(x * x, axis=-1)
    # the least sum; argmin finds it at half a min reduction's cost
    least = (s.flat[s.argmin()] if s.size else np.inf) if s.ndim else s
    if least < _NORMAL and x.any():  # zero rows need no scaling
        low = s < _NORMAL
        e = np.frexp(np.where(low, np.abs(x).max(axis=-1), 1.0))[1]
        z = np.ldexp(x, -e[..., None])
        return np.where(low, np.ldexp(np.sqrt(np.add.reduce(z * z, axis=-1)),
                                      e), np.sqrt(s))[()]
    return np.sqrt(s)


def real_to_ab(x):
    """Flat real (..., 4n) -> interleaved complex (..., 2n).

    Component 2l is alpha_l = x0 + i*x1, component 2l+1 is beta_l = x3 + i*x2
    of the l-th quaternion entry.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] % 4:
        raise ValueError("last axis must have length 4n")
    out = np.empty(x.shape[:-1] + (x.shape[-1] // 2,), dtype=complex)
    out[..., 0::2] = x[..., 0::4] + 1j * x[..., 1::4]
    out[..., 1::2] = x[..., 3::4] + 1j * x[..., 2::4]
    return out


def ab_to_real(v):
    """Interleaved complex (..., 2n) -> flat real (..., 4n); inverse of real_to_ab."""
    v = np.asarray(v, dtype=complex)
    if v.shape[-1] % 2:
        raise ValueError("last axis must have length 2n")
    out = np.empty(v.shape[:-1] + (2 * v.shape[-1],), dtype=float)
    a = v[..., 0::2]
    b = v[..., 1::2]
    out[..., 0::4] = a.real
    out[..., 1::4] = a.imag
    out[..., 2::4] = b.imag
    out[..., 3::4] = b.real
    return out


def kappa(v):
    """Pairwise (alpha, beta) -> (-conj(beta), conj(alpha)) on (..., 2n) arrays.

    Realizes right multiplication by k under the complex identification;
    kappa(kappa(v)) = -v.
    """
    v = np.asarray(v, dtype=complex)
    out = np.empty_like(v)
    out[..., 0::2] = -np.conj(v[..., 1::2])
    out[..., 1::2] = np.conj(v[..., 0::2])
    return out


def embed_M(x):
    """Embed a flat real point (..., 4n) as the (..., 2n, 2) matrix (x | kappa(x))."""
    col0 = real_to_ab(x)
    col1 = kappa(col0)
    return np.stack([col0, col1], axis=-1)


# the 2x2 block of one quaternion entry of matrix_point, as the real view
# (Re S00, Im S00, Re S01, Im S01, Re S10, Im S10, Re S11, Im S11)
# = (x0, x1, x2, x3, y0, y1, y2, y3) @ _POINT_MAP: row c is the real view of
# embed_M(e_c), row 4 + c that of 1j * embed_M(e_c) (+ 0.0 makes every zero
# entry 0.0, not -0.0), so that
#   S00 = (x0 - y1) + i (x1 + y0)     S01 = (-x3 - y2) + i (x2 - y3)
#   S10 = (x3 - y2) + i (x2 + y3)     S11 = (x0 + y1) + i (y0 - x1)
_POINT_MAP = np.concatenate([embed_M(np.eye(4)), 1j * embed_M(np.eye(4))]
                            ).reshape(8, 4).view(float) + 0.0


def matrix_point(x, y):
    """Matrix form embed_M(x) + 1j*embed_M(y) of a biquaternion point (x, y).

    One product with _POINT_MAP, whose entries are 0 and +-1, so each entry
    is the one rounded sum the definition gives, up to the sign of a zero.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        x, y = np.broadcast_arrays(x, y)
    if x.shape[-1] % 4:
        raise ValueError("last axis must have length 4n")
    blocks = np.concatenate([x.reshape(x.shape[:-1] + (-1, 4)),
                             y.reshape(y.shape[:-1] + (-1, 4))], axis=-1)
    return (blocks @ _POINT_MAP).view(complex).reshape(x.shape[:-1] + (-1, 2))


def decompose_matrix(z):
    """Split a (..., 2n, 2) complex matrix as M(x) + i*M(y); returns (x, y) flat real.

    Inverse of matrix_point on all of M_{2n x 2}(C): per 2-row block
    [[z00, z01], [z10, z11]], the unique solution is

        alpha = (z00 + conj(z11))/2      gamma = (z00 - conj(z11))/(2i)
        beta  = (z10 - conj(z01))/2      delta = (z10 + conj(z01))/(2i)

    with x built from (alpha, beta) and y from (gamma, delta): one product
    of each block's real view with _POINT_MAP.T / 2, _POINT_MAP's inverse.
    Each entry sums two exact halves, rounded once like the formulas.
    """
    z = np.asarray(z, dtype=complex)
    if z.ndim < 2 or z.shape[-1] != 2 or z.shape[-2] % 2:
        raise ValueError("expected a (..., 2n, 2) matrix")
    blocks = np.ascontiguousarray(z).reshape(z.shape[:-2] + (-1, 4)).view(float)
    xy = blocks @ (_POINT_MAP.T / 2)
    lead = z.shape[:-2] + (-1,)
    return xy[..., :4].reshape(lead), xy[..., 4:].reshape(lead)


def det_biquat(z):
    """Determinant of a (..., 2, 2) biquaternion matrix (n = 1 only).

    For z = M(x) + i*M(y) this equals ||x||^2 - ||y||^2 + 2i*(x, y).
    """
    z = np.asarray(z, dtype=complex)
    if z.shape[-2:] != (2, 2):
        raise ValueError("det_biquat needs n = 1, i.e. a (..., 2, 2) matrix")
    return z[..., 0, 0] * z[..., 1, 1] - z[..., 0, 1] * z[..., 1, 0]


def norm_C(x, y):
    """Norm sqrt(||x||^2 + ||y||^2) of a biquaternion point given as flat reals."""
    return np.sqrt(qnorm(x) ** 2 + qnorm(y) ** 2)


# ---------------------------------------------------------------------------
# points of M_{2n x 2}(C)
# ---------------------------------------------------------------------------

def _flat(a):
    """A read-only float copy of a (4n,) point; ValueError unless finite."""
    a = np.array(a, dtype=float)
    if a.ndim != 1:  # a nested list is refused, never flattened
        raise ValueError("point coordinates must be flat, got shape %s"
                         % (a.shape,))
    if a.size % 4:
        raise ValueError("flat length must be 4n")
    if not np.isfinite(a).all():
        raise ValueError("non-finite point coordinates %s" % a.tolist())
    a.flags.writeable = False
    return a


class BiquaternionPoint:
    """A point Sigma = (x, y) of M_{2n x 2}(C), the ambient space of hulls.

    x and y are read-only finite flat (4n,) float copies of the inputs, and
    the squared C-norm sum(x^2) + sum(y^2) is finite, so no norm overflows.
    """

    __slots__ = ("x", "y")

    def __init__(self, x, y=None):
        self.x = _flat(x)
        self.y = _flat(np.zeros_like(self.x) if y is None else y)
        if self.y.size != self.x.size:
            raise ValueError("x and y must have the same number of entries")
        # in Python floats, which overflow to inf without a warning
        squares = sum(v * v for v in self.x.tolist() + self.y.tolist())
        if squares == np.inf:
            raise ValueError("squared C-norm overflows at %s" % self.tolist())

    @classmethod
    def from_matrix(cls, z):
        z = np.asarray(z, dtype=complex)
        if not np.all(np.isfinite(z)):  # decomposing inf warns, then gives NaN
            raise ValueError("non-finite point coordinates in the matrix %s"
                             % z.tolist())
        return cls(*decompose_matrix(z))

    @property
    def n(self):
        return self.x.size // 4

    @property
    def matrix(self):
        return matrix_point(self.x, self.y)

    def det(self):
        if self.n != 1:
            raise ValueError("det is defined for n = 1 only")
        return complex(det_biquat(self.matrix))

    def norm_C(self):
        return float(norm_C(self.x, self.y))

    def __sub__(self, other):
        return BiquaternionPoint(self.x - other.x, self.y - other.y)

    def __repr__(self):
        return "BiquaternionPoint(x=%r, y=%r)" % (self.x.tolist(), self.y.tolist())

    def tolist(self):
        return {"x": self.x.tolist(), "y": self.y.tolist()}
