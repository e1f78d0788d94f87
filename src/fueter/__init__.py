"""Numerics for the n-Cauchy-Fueter operator and its twistor transform.

Layers, bottom up:

* quat      -- array kernels on flat (..., 4n) points and matrix embeddings
* domains   -- open subsets of H^n with exact exit distances
* cf        -- the finite-difference operator, residuals, and verdicts
* fields    -- named field fixtures and their holomorphic extensions
* hull      -- swept-line membership, distance, and witnesses for the hull
* twistor   -- the double fibration: charts, lines, and sweeps
* cp1       -- line bundles on the sphere: quadrature and cohomology
* penrose   -- the integral transform and its commuting square
* acceptance-- the end-to-end criteria behind `fueter verify all`
* cli       -- the `fueter` command-line entry point

``import fueter`` loads none of them.  A public name (``fueter.Ball``) or a
layer (``fueter.hull``) imports its submodule on first use (PEP 562), and
the name is then stored here, so later lookups are plain attribute hits.
"""

import importlib

__version__ = "0.1.0"

# each public name, by the submodule that defines it
_EXPORTS = {
    "quat": (
        "BiquaternionPoint", "ab_to_real", "decompose_matrix", "det_biquat",
        "embed_M", "kappa", "matrix_point", "norm_C", "qconj", "qmul",
        "qnorm", "real_to_ab",
    ),
    "domains": (
        "Ball", "DomainSpec", "EmptySet", "HalfSpace", "Intersection",
        "PointComplement", "WholeSpace", "parse_domain",
    ),
    "cf": (
        "DomainError", "FDConfig", "cf_apply", "cf_residual_complex",
        "dC_apply", "is_monogenic", "residual_norm",
    ),
    "fields": ("ComplexField", "ScalarField", "field_names", "get_field"),
    "hull": (
        "HullQuery", "NotInHullError", "hull_contains", "hull_distance",
        "hull_witness",
    ),
    "twistor": (
        "OutsideChartsError", "eta", "eta_inverse", "hopf_grid",
        "hull_contains_via_lines", "line_base_points", "line_embed",
        "line_sweep", "sweep_quaternions",
    ),
    "cp1": (
        "BUMP_GRADE", "Form01", "QuadratureConfig", "QuadratureError",
        "cohomology_coefficients", "exact_form", "h1_dimension",
        "harmonic_representative", "quadrature_C",
    ),
    "penrose": (
        "KAPPA", "ClosednessError", "NoExtensionError", "PenroseResult",
        "TwistorFormL", "calibrate_kappa", "diagram_check",
        "penrose_transform", "penrose_transform_complex", "sharp",
        "tau_push_01", "tau_push_02",
    ),
    "acceptance": ("CRITERIA", "format_line", "run_all"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module("." + name, __name__)
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + _HOME[name], __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
