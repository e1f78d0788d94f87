"""Field oracles: H-valued fields on U as complex pairs, and their extensions.

A quaternion-valued field psi on U decomposes uniquely as

    psi = psi0 + k * psi1

with complex-valued psi0, psi1 (written psi_{0'}, psi_{1'} in index notation).
ScalarField stores the pair as callables over the interleaved complex
coordinates (alpha_1, beta_1, ..., alpha_n, beta_n) of shape (..., 2n).

ComplexField is the holomorphic counterpart: a pair of callables over full
biquaternion matrices of shape (..., 2n, 2), holomorphic in the matrix entries
by contract.  A ScalarField may carry such an extension; this is what allows
the transform over the hull to be evaluated (see the penrose module).

Both evaluate the pair one way, ``stacked``: one complex array (..., 2)
holding (psi0, psi1).  It is the only place a pair is stacked.  The
operator of ``cf`` differences its float view, whose four slots
(Re psi0, Im psi0, Re psi1, Im psi1) are the quaternion components
(x0, x1, x3, x2) of psi; a ``penrose`` lift's coefficients are the stacked
pair itself.

The registry provides the named built-in fields used by tests and the CLI,
each a ScalarField; a known extension is reached through its .extension.
``_shell_points`` draws the shell samples that the acceptance criteria and
the CLI evaluate fields on.
"""

import numpy as np

from . import quat
from .domains import PointComplement, WholeSpace

__all__ = ["ScalarField", "ComplexField", "get_field", "field_names"]


def _stack(pair, lead):
    """The pair (p0, p1) as one complex array lead + (2,)."""
    out = np.empty(lead + (2,), dtype=complex)
    out[..., 0], out[..., 1] = pair
    return out


class ScalarField:
    """A field psi = psi0 + k*psi1 given by vectorized pair callables.

    pair0/pair1 map interleaved complex points (..., 2n) -> (...).  ``pair``
    and ``stacked`` evaluate them on flat real points (..., 4n).  domain is
    a DomainSpec, or None for the whole space.
    """

    def __init__(self, pair0, pair1, n=1, domain=None, name=None, extension=None):
        self.pair0 = pair0
        self.pair1 = pair1
        self.n = int(n)
        self.domain = WholeSpace(n) if domain is None else domain
        self.name = name or "custom"
        self.extension = extension  # optional ComplexField

    def check_points(self, p):
        """p as a float array of flat real points (..., 4n); ValueError otherwise."""
        p = np.asarray(p, dtype=float)
        if p.shape[-1:] != (4 * self.n,):
            raise ValueError("expected points of shape (..., %d), not %s"
                             % (4 * self.n, p.shape))
        return p

    def pair(self, p):
        """Evaluate the pair on flat real points (..., 4n); ValueError otherwise."""
        v = quat.real_to_ab(self.check_points(p))
        return self.pair0(v), self.pair1(v)

    def stacked(self, p):
        """The pair on flat real points (..., 4n) as one array (..., 2)."""
        return _stack(self.pair(p), np.shape(p)[:-1])

    def __repr__(self):
        return "ScalarField(%s, n=%d)" % (self.name, self.n)


class ComplexField:
    """A holomorphic pair on biquaternion matrices (..., 2n, 2) -> two (...)."""

    def __init__(self, pair0, pair1, n=1, name=None):
        self.pair0 = pair0
        self.pair1 = pair1
        self.n = int(n)
        self.name = name or "custom"

    def pair(self, z):
        z = np.asarray(z, dtype=complex)
        if z.shape[-2:] != (2 * self.n, 2):
            raise ValueError("expected matrices of shape (..., %d, 2)" % (2 * self.n,))
        return self.pair0(z), self.pair1(z)

    def stacked(self, z):
        """The pair on matrices (..., 2n, 2) as one array (..., 2)."""
        return _stack(self.pair(z), np.shape(z)[:-2])

    def __repr__(self):
        return "ComplexField(%s, n=%d)" % (self.name, self.n)


# ---------------------------------------------------------------------------
# built-in fields
# ---------------------------------------------------------------------------

def _const(c):
    def f(v):
        return np.full(v.shape[:-1], c, dtype=complex)
    return f


def _zeros(v):
    return np.zeros(v.shape[:-1], dtype=complex)


def _rho2(v):
    """|alpha_1|^2 + |beta_1|^2 on interleaved points."""
    return (np.abs(v[..., 0]) ** 2 + np.abs(v[..., 1]) ** 2)


def _field_constant(n):
    ext = ComplexField(lambda z: np.ones(z.shape[:-2], dtype=complex),
                       lambda z: np.zeros(z.shape[:-2], dtype=complex),
                       n=n, name="constant")
    return ScalarField(_const(1.0), _zeros, n=n, name="constant", extension=ext)


def _field_identity_q(n):
    # psi(q) = q_1, i.e. the pair (alpha_1, beta_1); extension reads column 0
    ext = ComplexField(lambda z: z[..., 0, 0], lambda z: z[..., 1, 0],
                       n=n, name="identity_q")
    return ScalarField(lambda v: v[..., 0], lambda v: v[..., 1],
                       n=n, name="identity_q", extension=ext)


def _field_conj_q(n):
    # conj(q_1) = conj(alpha_1) - k beta_1; conjugate slots live in column 1
    ext = ComplexField(lambda z: z[..., 1, 1], lambda z: -z[..., 1, 0],
                       n=n, name="conj_q")
    return ScalarField(lambda v: np.conj(v[..., 0]), lambda v: -v[..., 1],
                       n=n, name="conj_q", extension=ext)


def _field_linear_monogenic(n):
    # the pair (conj(alpha_1), beta_1); solves the CF system identically
    ext = ComplexField(lambda z: z[..., 1, 1], lambda z: z[..., 1, 0],
                       n=n, name="linear_monogenic")
    return ScalarField(lambda v: np.conj(v[..., 0]), lambda v: v[..., 1],
                       n=n, name="linear_monogenic", extension=ext)


def _field_E(n):
    if n != 1:
        raise ValueError("the fundamental solution E is an n = 1 field")
    ext = ComplexField(lambda z: z[..., 1, 1] / quat.det_biquat(z) ** 2,
                       lambda z: -z[..., 1, 0] / quat.det_biquat(z) ** 2,
                       n=1, name="E_ext")
    return ScalarField(lambda v: np.conj(v[..., 0]) / _rho2(v) ** 2,
                       lambda v: -v[..., 1] / _rho2(v) ** 2,
                       n=1, domain=PointComplement(1), name="E",
                       extension=ext)


def _field_nonmonogenic_quadratic(n):
    return ScalarField(lambda v: np.conj(v[..., 0]) ** 2, _zeros,
                       n=n, name="nonmonogenic_quadratic")


def _field_nonmonogenic_linear(n):
    return ScalarField(lambda v: np.conj(v[..., 1]), _zeros,
                       n=n, name="nonmonogenic_linear")


def _field_nonmonogenic_absquare(n):
    return ScalarField(lambda v: (v[..., 0] * np.conj(v[..., 0])).astype(complex),
                       _zeros, n=n, name="nonmonogenic_absquare")


_REGISTRY = {
    "constant": _field_constant,
    "identity_q": _field_identity_q,
    "conj_q": _field_conj_q,
    "E": _field_E,
    "linear_monogenic": _field_linear_monogenic,
    "nonmonogenic_quadratic": _field_nonmonogenic_quadratic,
    "nonmonogenic_linear": _field_nonmonogenic_linear,
    "nonmonogenic_absquare": _field_nonmonogenic_absquare,
}


def field_names():
    return sorted(_REGISTRY)


def get_field(name, n=1):
    """Look up a built-in field by registry name.

    Every name gives a ScalarField, with .extension attached where a
    holomorphic extension is known in closed form (E's is
    ``get_field("E").extension``).
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise KeyError("unknown field %r; known: %s" % (name, ", ".join(field_names())))
    return factory(n)


def _shell_points(rng, count, rmin, rmax, n=1):
    """Volume-uniform sample of the shell rmin < |p| < rmax in R^{4n}.

    ValueError, before any draw, unless count >= 1 and 0 <= rmin < rmax.
    """
    if count < 1:
        raise ValueError("points must be >= 1, not %d" % count)
    if not 0 <= rmin < rmax:
        raise ValueError("the shell needs 0 <= rmin < rmax, not rmin = %r, "
                         "rmax = %r" % (rmin, rmax))
    dim = 4 * n
    d = rng.normal(size=(count, dim))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    u = rng.uniform(size=(count, 1))
    r = (rmin ** dim + u * (rmax ** dim - rmin ** dim)) ** (1.0 / dim)
    return r * d
