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
"""

from .quat import (
    BiquaternionPoint,
    ab_to_real,
    decompose_matrix,
    det_biquat,
    embed_M,
    kappa,
    matrix_point,
    norm_C,
    qconj,
    qmul,
    qnorm,
    real_to_ab,
)
from .domains import (
    Ball,
    DomainSpec,
    EmptySet,
    HalfSpace,
    Intersection,
    PointComplement,
    WholeSpace,
    parse_domain,
)
from .cf import (
    DomainError,
    FDConfig,
    cf_apply,
    cf_residual_complex,
    dC_apply,
    is_monogenic,
    residual_norm,
)
from .fields import ComplexField, ScalarField, field_names, get_field
from .hull import (
    HullQuery,
    NotInHullError,
    hull_contains,
    hull_distance,
    hull_witness,
)
from .twistor import (
    OutsideChartsError,
    eta,
    eta_inverse,
    hopf_grid,
    hull_contains_via_lines,
    line_base_points,
    line_embed,
    line_sweep,
    sweep_quaternions,
)
from .cp1 import (
    BUMP_GRADE,
    Form01,
    QuadratureConfig,
    QuadratureError,
    cohomology_coefficients,
    decay_check,
    exact_form,
    h1_dimension,
    harmonic_representative,
    quadrature_C,
    validate_form,
)
from .penrose import (
    KAPPA,
    ClosednessError,
    NoExtensionError,
    PenroseResult,
    TwistorFormL,
    calibrate_kappa,
    diagram_check,
    penrose_transform,
    penrose_transform_complex,
    sharp,
    tau_push_01,
    tau_push_02,
)
from .acceptance import CRITERIA, format_line, run_all

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # quat
    "BiquaternionPoint", "ab_to_real", "decompose_matrix", "det_biquat",
    "embed_M", "kappa", "matrix_point", "norm_C", "qconj", "qmul", "qnorm",
    "real_to_ab",
    # domains
    "Ball", "DomainSpec", "EmptySet", "HalfSpace", "Intersection",
    "PointComplement", "WholeSpace", "parse_domain",
    # cf
    "DomainError", "FDConfig", "cf_apply", "cf_residual_complex",
    "dC_apply", "is_monogenic", "residual_norm",
    # fields
    "ComplexField", "ScalarField", "field_names", "get_field",
    # hull
    "HullQuery", "NotInHullError", "hull_contains", "hull_distance",
    "hull_witness",
    # twistor
    "OutsideChartsError", "eta", "eta_inverse", "hopf_grid",
    "hull_contains_via_lines",
    "line_base_points", "line_embed", "line_sweep", "sweep_quaternions",
    # cp1
    "BUMP_GRADE", "Form01", "QuadratureConfig", "QuadratureError",
    "cohomology_coefficients", "decay_check", "exact_form", "h1_dimension",
    "harmonic_representative", "quadrature_C", "validate_form",
    # penrose
    "KAPPA", "ClosednessError", "NoExtensionError", "PenroseResult",
    "TwistorFormL", "calibrate_kappa", "diagram_check",
    "penrose_transform", "penrose_transform_complex", "sharp",
    "tau_push_01", "tau_push_02",
    # acceptance
    "CRITERIA", "format_line", "run_all",
]
