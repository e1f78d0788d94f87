"""Quaternion and biquaternion linear algebra.

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
the same code serves scalar points and large sample batches.  The thin
Quaternion / QuaternionVector / BiquaternionPoint classes wrap these functions
for API and CLI use.
"""

import numpy as np

__all__ = [
    "qmul", "qmul_right", "qconj", "qnorm", "qinner",
    "real_to_ab", "ab_to_real", "kappa", "embed_M", "matrix_point",
    "decompose_matrix", "det_biquat", "norm_C",
    "Quaternion", "QuaternionVector", "BiquaternionPoint",
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


def qconj(q):
    """Quaternion conjugate on (..., 4) arrays."""
    q = np.asarray(q, dtype=float)
    return q * np.array([1.0, -1.0, -1.0, -1.0])


def qnorm(x):
    """Euclidean norm of a flat real point (..., 4n) -> (...)."""
    x = np.asarray(x, dtype=float)
    return np.sqrt(np.sum(x * x, axis=-1))


def qinner(x, y):
    """Real inner product Re(sum_l conj(x_l) y_l) of two (..., 4n) points.

    For quaternion vectors this equals the plain Euclidean dot product of the
    flat coordinate arrays.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.sum(x * y, axis=-1)


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


def matrix_point(x, y):
    """Matrix form embed_M(x) + 1j*embed_M(y) of a biquaternion point (x, y)."""
    return embed_M(x) + 1j * embed_M(y)


def decompose_matrix(z):
    """Split a (..., 2n, 2) complex matrix as M(x) + i*M(y); returns (x, y) flat real.

    Inverse of matrix_point on all of M_{2n x 2}(C): per 2-row block
    [[z00, z01], [z10, z11]], the unique solution is

        alpha = (z00 + conj(z11))/2      gamma = (z00 - conj(z11))/(2i)
        beta  = (z10 - conj(z01))/2      delta = (z10 + conj(z01))/(2i)

    with x built from (alpha, beta) and y from (gamma, delta).
    """
    z = np.asarray(z, dtype=complex)
    if z.ndim < 2 or z.shape[-1] != 2 or z.shape[-2] % 2:
        raise ValueError("expected a (..., 2n, 2) matrix")
    z00 = z[..., 0::2, 0]
    z10 = z[..., 1::2, 0]
    z01 = z[..., 0::2, 1]
    z11 = z[..., 1::2, 1]
    xa = (z00 + np.conj(z11)) / 2
    ya = (z00 - np.conj(z11)) / 2j
    xb = (z10 - np.conj(z01)) / 2
    yb = (z10 + np.conj(z01)) / 2j
    xab = np.empty(z.shape[:-2] + (z.shape[-2],), dtype=complex)
    yab = np.empty_like(xab)
    xab[..., 0::2] = xa
    xab[..., 1::2] = xb
    yab[..., 0::2] = ya
    yab[..., 1::2] = yb
    return ab_to_real(xab), ab_to_real(yab)


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
# wrapper classes
# ---------------------------------------------------------------------------

class Quaternion:
    """A single quaternion x0 + i*x1 + j*x2 + k*x3."""

    __slots__ = ("arr",)

    def __init__(self, x0=0.0, x1=0.0, x2=0.0, x3=0.0):
        self.arr = np.array([x0, x1, x2, x3], dtype=float)

    @classmethod
    def from_array(cls, a):
        q = cls.__new__(cls)
        q.arr = np.asarray(a, dtype=float).reshape(4).copy()
        return q

    @classmethod
    def from_complex_pair(cls, alpha, beta=0.0):
        """Build alpha + k*beta from the complex pair."""
        alpha = complex(alpha)
        beta = complex(beta)
        return cls(alpha.real, alpha.imag, beta.imag, beta.real)

    @property
    def x0(self):
        return float(self.arr[0])

    @property
    def x1(self):
        return float(self.arr[1])

    @property
    def x2(self):
        return float(self.arr[2])

    @property
    def x3(self):
        return float(self.arr[3])

    @property
    def alpha(self):
        return complex(self.arr[0], self.arr[1])

    @property
    def beta(self):
        return complex(self.arr[3], self.arr[2])

    def conj(self):
        return Quaternion.from_array(qconj(self.arr))

    def __abs__(self):
        return float(qnorm(self.arr))

    def __add__(self, other):
        other = _as_quat(other)
        return Quaternion.from_array(self.arr + other.arr)

    __radd__ = __add__

    def __neg__(self):
        return Quaternion.from_array(-self.arr)

    def __sub__(self, other):
        other = _as_quat(other)
        return Quaternion.from_array(self.arr - other.arr)

    def __rsub__(self, other):
        return _as_quat(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Quaternion.from_array(self.arr * other)
        other = _as_quat(other)
        return Quaternion.from_array(qmul(self.arr, other.arr))

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return Quaternion.from_array(self.arr * other)
        return _as_quat(other) * self

    def __truediv__(self, s):
        return Quaternion.from_array(self.arr / float(s))

    def __eq__(self, other):
        try:
            other = _as_quat(other)
        except TypeError:
            return NotImplemented
        return bool(np.array_equal(self.arr, other.arr))

    def isclose(self, other, tol=1e-10):
        return bool(np.max(np.abs(self.arr - _as_quat(other).arr)) <= tol)

    def __repr__(self):
        return "Quaternion(%g, %g, %g, %g)" % tuple(self.arr)

    def tolist(self):
        return self.arr.tolist()


def _as_quat(value):
    if isinstance(value, Quaternion):
        return value
    if isinstance(value, (int, float)):
        return Quaternion(value)
    if isinstance(value, complex):
        return Quaternion(value.real, value.imag)
    raise TypeError("cannot interpret %r as a quaternion" % (value,))


class QuaternionVector:
    """A point of H^n stored as the flat real vector (x0, x1, x2, x3) per entry."""

    __slots__ = ("arr",)

    def __init__(self, entries):
        if isinstance(entries, QuaternionVector):
            self.arr = entries.arr.copy()
            return
        entries = list(entries) if not isinstance(entries, np.ndarray) else entries
        if isinstance(entries, list) and entries and isinstance(entries[0], Quaternion):
            self.arr = np.concatenate([q.arr for q in entries])
        else:
            a = np.asarray(entries, dtype=float).ravel()
            if a.size % 4:
                raise ValueError("flat length must be 4n")
            self.arr = a.copy()

    @property
    def n(self):
        return self.arr.size // 4

    def entry(self, ell):
        return Quaternion.from_array(self.arr[4 * ell:4 * ell + 4])

    @property
    def entries(self):
        return [self.entry(ell) for ell in range(self.n)]

    def to_ab(self):
        return real_to_ab(self.arr)

    @classmethod
    def from_ab(cls, v):
        return cls(ab_to_real(v))

    def norm(self):
        return float(qnorm(self.arr))

    def inner(self, other):
        return float(qinner(self.arr, QuaternionVector(other).arr))

    def right_mul(self, q):
        """Right module action (x * q)_l = x_l * q."""
        q = _as_quat(q)
        blocks = self.arr.reshape(self.n, 4)
        return QuaternionVector(qmul(blocks, q.arr).ravel())

    def __add__(self, other):
        return QuaternionVector(self.arr + QuaternionVector(other).arr)

    def __sub__(self, other):
        return QuaternionVector(self.arr - QuaternionVector(other).arr)

    def __mul__(self, s):
        return QuaternionVector(self.arr * float(s))

    __rmul__ = __mul__

    def __repr__(self):
        return "QuaternionVector(%r)" % (self.arr.tolist(),)

    def tolist(self):
        return self.arr.tolist()


class BiquaternionPoint:
    """A point Sigma = (x, y) of M_{2n x 2}(C), the ambient space of hulls."""

    __slots__ = ("x", "y")

    def __init__(self, x, y=None):
        self.x = QuaternionVector(x)
        if y is None:
            y = np.zeros_like(self.x.arr)
        self.y = QuaternionVector(y)
        if self.y.n != self.x.n:
            raise ValueError("x and y must have the same number of entries")

    @classmethod
    def from_matrix(cls, z):
        x, y = decompose_matrix(np.asarray(z, dtype=complex))
        return cls(x, y)

    @property
    def n(self):
        return self.x.n

    @property
    def matrix(self):
        return matrix_point(self.x.arr, self.y.arr)

    def det(self):
        if self.n != 1:
            raise ValueError("det is defined for n = 1 only")
        return complex(det_biquat(self.matrix))

    def norm_C(self):
        return float(norm_C(self.x.arr, self.y.arr))

    def __sub__(self, other):
        return BiquaternionPoint(self.x - other.x, self.y - other.y)

    def __repr__(self):
        return "BiquaternionPoint(x=%r, y=%r)" % (self.x.arr.tolist(), self.y.arr.tolist())

    def tolist(self):
        return {"x": self.x.arr.tolist(), "y": self.y.arr.tolist()}
