"""The ``transform`` workload: the fibre-integral transform and its checks.

Ops, all at n = 1 unless noted: ``penrose_transform`` on 20 shell points
(E, linear_monogenic, constant; and the last two at n = 2), ``diagram_check``
on 10 points per non-monogenic fixture, ``penrose_transform_complex`` at one
matrix, ``cohomology_coefficients`` of a harmonic form (default grade, check
on) and of an exact bump form (``BUMP_GRADE``), ``is_monogenic(E)`` on the
1000 shell points of criterion 1 and ``dC_apply(E_ext)`` on the 1000 matrices
of criterion 2.  Each check applies the tolerance of the acceptance criterion
the op comes from.  ``known_defects`` reports, ungated, the same two residuals
on fresh seeded draws.  Importing this module imports ``fueter``.
"""

import numpy as np

import fueter

import inputs


class Workload:
    name = "transform"

    def __init__(self):
        self.fields = {(name, n): fueter.get_field(name, n)
                       for name, n in inputs.TRANSFORM_PENROSE}
        for name in inputs.TRANSFORM_DIAGRAM:
            self.fields[(name, 1)] = fueter.get_field(name, 1)
        self.E = self.fields[("E", 1)]
        self.E_ext = self.E.extension
        self.mono_cfg = fueter.FDConfig(step=1e-5, scheme="central")

    def run(self, op):
        kind = op[0]
        if kind == "penrose":
            return fueter.penrose_transform(fueter.sharp(self.fields[op[1:3]]), op[3])
        if kind == "diagram":
            return fueter.diagram_check(self.fields[(op[1], 1)], op[2])
        if kind == "complex":
            return fueter.penrose_transform_complex(fueter.sharp(self.E), op[1])
        if kind == "harmonic":
            return fueter.cohomology_coefficients(
                fueter.harmonic_representative(op[1], op[2]))
        if kind == "exact":
            form = fueter.exact_form(-3, p=op[1], q=op[2], r_in=op[3], r_out=op[4])
            return fueter.cohomology_coefficients(form, fueter.BUMP_GRADE, check=False)
        if kind == "monogenic":
            return fueter.is_monogenic(self.E, op[1], tol=1e-6, cfg=self.mono_cfg)
        if kind == "dC":
            return fueter.dC_apply(self.E_ext, op[1])
        raise ValueError("unknown transform op %r" % kind)

    def check(self, op, out):
        kind = op[0]
        if kind == "penrose":  # criterion 6
            field = self.fields[op[1:3]]
            v = fueter.real_to_ab(op[3])
            exact = np.stack([np.asarray(field.pair0(v), dtype=complex),
                              np.asarray(field.pair1(v), dtype=complex)], axis=-1)
            err = float(np.max(np.abs(out.values - exact)))
            return None if err < 1e-4 else "round-trip error %.3e >= 1e-4" % err
        if kind == "diagram":  # criterion 7
            disc = out["max_discrepancy"]
            return None if disc < 1e-4 else "diagram discrepancy %.3e >= 1e-4" % disc
        if kind == "complex":  # criterion 8
            p0, p1 = self.E_ext.pair(op[1])
            err = max(abs(out[0] - p0), abs(out[1] - p1))
            return None if err < 1e-4 else "extension mismatch %.3e >= 1e-4" % err
        if kind == "harmonic":  # criterion 5
            err = max(abs(out[0] - op[1]), abs(out[1] - op[2]))
            return None if err < 1e-6 else "harmonic round trip %.3e >= 1e-6" % err
        if kind == "exact":  # criterion 5
            err = float(np.max(np.abs(out)))
            return None if err < 1e-5 else "exact-form coefficient %.3e >= 1e-5" % err
        if kind == "monogenic":  # criterion 1
            res = out["max_residual"]
            return None if res < 1e-6 else (
                "max residual %.3e >= 1e-6 at |q| = %.4f"
                % (res, float(np.linalg.norm(out["worst_point"]))))
        if kind == "dC":  # criterion 2
            res = np.max(np.abs(out), axis=-1)
            i = int(np.argmax(res))
            return None if res[i] < 1e-6 else (
                "dC residual %.3e >= 1e-6 at |det| = %.4f, |sigma| = %.3f"
                % (res[i], abs(np.linalg.det(op[1][i])), np.linalg.norm(op[1][i])))
        return "unknown op"

    def known_defects(self, seed):
        """Criterion 1 and 2 residuals on fresh draws of their distributions.

        Reported, not checked: the library misses the 1e-6 tolerance on some
        of these draws (NOTES.md, finding 6).  A margin below 1 shows it.
        """
        pts, mats = inputs.fresh_fd_samples(seed)
        mono = self.run(("monogenic", pts))
        dC = np.max(np.abs(self.run(("dC", mats))), axis=-1)
        i = int(np.argmax(dC))
        return {
            "criterion_1_fresh": {
                "max_residual": mono["max_residual"], "tol": 1e-6,
                "margin": 1e-6 / mono["max_residual"],
                "worst_radius": float(np.linalg.norm(mono["worst_point"]))},
            "criterion_2_fresh": {
                "max_residual": float(dC[i]), "tol": 1e-6,
                "margin": 1e-6 / float(dC[i]),
                "worst_abs_det": float(abs(np.linalg.det(mats[i]))),
                "worst_norm": float(np.linalg.norm(mats[i]))},
        }
