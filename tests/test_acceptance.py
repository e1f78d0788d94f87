"""Acceptance suite: every criterion at its pinned tolerance.

Each test runs one criterion with the same seeds as `fueter verify all`,
prints its PASS/FAIL line outside pytest's capture so the per-criterion
outcome is always visible in the console log, and asserts the verdict.
"""

import numpy as np
import pytest

from fueter import acceptance


def _run(criterion, capsys):
    record = criterion()
    line = acceptance.format_line(record)
    with capsys.disabled():
        print("\n" + line)
    assert record["passed"], line
    return record


def test_criterion_1_fundamental_solution(capsys):
    record = _run(acceptance.criterion_1_fundamental_solution, capsys)
    assert record["details"]["max_residual"] < 1e-5


def test_criterion_2_holomorphic_extension(capsys):
    record = _run(acceptance.criterion_2_holomorphic_extension, capsys)
    assert record["details"]["max_residual"] < 1e-6
    assert record["details"]["restriction_error"] < 1e-12


def test_criterion_3_hull_equivalence(capsys):
    record = _run(acceptance.criterion_3_hull_equivalence, capsys)
    for block in record["details"]["per_domain"]:
        assert block["agreement"] >= 0.995


def test_criterion_4_distance_law(capsys):
    record = _run(acceptance.criterion_4_distance_law, capsys)
    assert record["details"]["law_error"] < 1e-6


def test_criterion_5_cp1_cohomology(capsys):
    record = _run(acceptance.criterion_5_cp1_cohomology, capsys)
    assert record["details"]["roundtrip_error"] < 1e-6
    assert record["details"]["exact_form_error"] < 1e-5


def test_criterion_6_roundtrip(capsys):
    record = _run(acceptance.criterion_6_roundtrip, capsys)
    for block in record["details"]["per_field"]:
        assert block["max_error"] < 1e-4


def test_criterion_7_diagram(capsys):
    record = _run(acceptance.criterion_7_diagram, capsys)
    calibration = record["details"]["calibration"]
    assert abs(calibration["kappa_real"] - (-1.0)) < 1e-6


def test_criterion_8_complex_transform(capsys):
    record = _run(acceptance.criterion_8_complex_transform, capsys)
    assert record["details"]["value_error"] < 1e-4
    assert record["details"]["real_slice_bitwise"] is True


def test_shell_points_reject_an_empty_or_inverted_shell():
    rng = np.random.default_rng(0)
    for count, rmin, rmax in ((0, 0.2, 5.0), (-3, 0.2, 5.0), (5, -1.0, 5.0),
                              (5, 3.0, 1.0), (5, 2.0, 2.0)):
        with pytest.raises(ValueError):
            acceptance._shell_points(rng, count, rmin, rmax)
    # nothing was drawn by the rejected calls
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state
    radii = np.linalg.norm(acceptance._shell_points(rng, 200, 0.0, 1.0), axis=1)
    assert radii.min() >= 0.0 and radii.max() <= 1.0
