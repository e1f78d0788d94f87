"""The ``hull`` workload: membership by both paths, and distance + witness.

A membership op decides one sigma with ``hull_contains`` and with
``hull_contains_via_lines(..., return_query=True)``.  A distance op runs
``hull_distance`` then ``hull_witness`` on one sigma per distance domain,
each in the hull by construction.  Importing this module imports ``fueter``.
"""

import numpy as np

import fueter
from fueter.domains import DomainSpec

import inputs


class BallExterior(DomainSpec):
    """The exterior of a closed ball, a domain the library does not ship.

    Its oracles are exact, so it keeps the generic lattice-plus-refine path
    of the hull measured once the built-in domains have closed forms.
    """

    def __init__(self, n, radius, center=None):
        super().__init__(n)
        self.radius = float(radius)
        self.center = (np.zeros(self.dim) if center is None
                       else np.asarray(center, dtype=float).reshape(self.dim))

    def ext_distance(self, p):
        p = self._check(p)
        return np.maximum(0.0, np.linalg.norm(p - self.center, axis=-1) - self.radius)

    def nearest_boundary(self, p):
        p = self._check(p)
        d = p - self.center
        return self.center + d * (self.radius / np.linalg.norm(d, axis=-1))[..., None]


def undecided(q):
    """0 < inf_value <= band: the grid could not settle the verdict."""
    return 0.0 < q.inf_value <= q.band


class Workload:
    name = "hull"

    def __init__(self):
        ball1 = fueter.Ball(1, 1.0)
        ball2 = fueter.Ball(2, 1.0)
        hstar1 = fueter.PointComplement(1)
        int1 = fueter.Intersection([fueter.Ball(1, 1.0),
                                    fueter.HalfSpace(1, [1.0, 0.0, 0.0, 0.0],
                                                     inputs.INT_OFFSET)])
        user1 = BallExterior(1, inputs.USER_RADIUS)
        self.domains = {"ball1": ball1, "ball2": ball2, "hstar1": hstar1,
                        "hstar2": fueter.PointComplement(2), "int1": int1,
                        "user1": user1, "ball1_slice": ball1}
        self.checked_members = 0
        self.undecided_members = 0

    @staticmethod
    def sigma_scale(op):
        """max(1, |sigma|) of a membership op (1 for a distance op)."""
        if op[0] != "member":
            return 1.0
        return max(1.0, float(np.sqrt(op[2] @ op[2] + op[3] @ op[3])))

    def run(self, op):
        if op[0] == "member":
            _, label, x, y = op
            U = self.domains[label]
            return (fueter.hull_contains((x, y), U),
                    fueter.hull_contains_via_lines((x, y), U, return_query=True))
        return [(fueter.hull_distance((x, y), self.domains[label]),
                 fueter.hull_witness((x, y), self.domains[label]))
                for label, x, y in op[1]]

    def check(self, op, out):
        if op[0] != "member":
            for (label, x, y), (d, (w, _)) in zip(op[1], out):
                problem = self._check_distance(label, x, y, d, w)
                if problem is not None:
                    return "%s: %s" % (label, problem)
            return None
        _, label, x, y = op
        qd, ql = out
        self.checked_members += 1
        self.undecided_members += undecided(qd) or undecided(ql)
        if qd.verdict != ql.verdict and not (undecided(qd) or undecided(ql)):
            return "paths disagree outside the band: %s vs %s" % (qd, ql)
        if label == "hstar1" and abs(inputs.biquat_det(x, y)) > 1e-3 \
                and not (qd.verdict and ql.verdict):
            return "H* verdicts %s/%s with |det| > 1e-3" % (qd.verdict, ql.verdict)
        return None

    def _check_distance(self, label, x, y, d, w):
        U = self.domains[label]
        if label == "ball1_slice":
            law = (U.radius - np.linalg.norm(x)) / np.sqrt(2.0)
            if not abs(d - law) < 1e-6:
                return "distance %.17g breaks the law (r - |c|)/sqrt(2) = %.17g" % (d, law)
        pt = fueter.BiquaternionPoint(x, y)
        rel = abs((pt - w).norm_C() - d) / d
        if not rel < 1e-3:
            return "witness misses the distance by %.3e relative" % rel
        qw = fueter.hull_contains(w, U)
        if qw.verdict and not qw.inf_value <= qw.band:
            return "witness is certified inside the hull"
        return None

    def summary(self):
        """undecided_frac over the checked membership ops."""
        if not self.checked_members:
            return {}
        return {"undecided_frac": {"value": self.undecided_members / self.checked_members,
                                   "unit": "ratio", "better": "lower"}}
