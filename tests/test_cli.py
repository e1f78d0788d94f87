"""Command-line interface: envelopes, exit codes, and determinism."""

import hashlib
import json
import os
import subprocess
import sys

import jsonschema
import pytest

from fueter import cli, cp1

SCHEMA_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                           "schemas", "report.json")


def _schema():
    with open(SCHEMA_PATH) as fh:
        return json.load(fh)


def _run_json(args, tmp_path, name="report.json"):
    path = tmp_path / name
    code = cli.main(list(args) + ["--report", str(path)])
    with open(path) as fh:
        return code, json.load(fh)


def test_cohomology_dimension_emits_its_envelope(capsys):
    # like every subcommand: one envelope on stdout, nothing else
    assert cli.main(["cp1", "dim", "--k", "-3"]) == 0
    blob = json.loads(capsys.readouterr().out)
    jsonschema.validate(blob, _schema())
    assert blob["command"] == "cp1 dim"
    assert blob["results"]["dimension"] == 2
    assert cli.main(["cp1", "dim", "--k", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["dimension"] == 0


def test_hull_contains_reports_verdicts(tmp_path):
    code, blob = _run_json(
        ["hull", "contains", "--domain", "H*",
         "--sigma", '{"x": [1, 0, 0, 0], "y": [0, 1, 0, 0]}'],
        tmp_path)
    assert code == 0  # a query that answers "no" is still a success
    assert blob["results"]["verdict"] is False
    jsonschema.validate(blob, _schema())

    code, blob = _run_json(
        ["hull", "contains", "--domain", "H*",
         "--sigma", '{"x": [1, 0, 0, 0], "y": [0, 0.3, 0, 0]}'],
        tmp_path)
    assert code == 0
    assert blob["results"]["verdict"] is True


def test_hull_distance_failure_exit_code(tmp_path, capsys):
    code = cli.main(
        ["hull", "distance", "--domain", "ball:r=1",
         "--sigma", '{"x": [2.5, 0, 0, 0], "y": [0.1, 0, 0, 0]}',
         "--report", str(tmp_path / "d.json")])
    assert code == 1
    assert "hull" in capsys.readouterr().err.lower()


def test_config_errors_exit_with_two(capsys):
    assert cli.main(["hull", "contains", "--domain", "torus:r=1",
                     "--sigma", '{"x": [0, 0, 0, 0], "y": [0, 0, 0, 0]}']) == 2
    err = capsys.readouterr().err
    assert "config error" in err


@pytest.mark.parametrize("command", [["hull", "contains"], ["hull", "distance"],
                                     ["hull", "witness"],
                                     ["twistor", "hull-lines"]],
                         ids=lambda command: command[-1])
def test_hull_queries_take_no_count(command, capsys):
    # every domain the CLI parses has closed forms for both membership
    # tests, so no lattice count would be read
    with pytest.raises(SystemExit) as exc:
        cli.main(command + ["--domain", "H*", "--count", "64",
                            "--sigma", '{"x": [1, 0, 0, 0], "y": [0, 0.3, 0, 0]}'])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--count" in captured.err


def test_penrose_complex_rejects_a_point_of_another_n(capsys):
    assert cli.main(["penrose", "complex", "--field", "nonmonogenic_linear",
                     "--n", "1", "--sigma",
                     "[[1,0],[0,1],[0.5,0],[0,0.5]]"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: sigma has n=2")


def test_penrose_complex_takes_no_seed(capsys):
    # complex evaluates one given sigma and samples nothing
    with pytest.raises(SystemExit) as exc:
        cli.main(["penrose", "complex", "--field", "E", "--sigma",
                  '{"x": [0.8, 0.1, 0, 0], "y": [0, 0.1, 0, 0]}',
                  "--seed", "3"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("domain", ["ball:r=1", "H*"])
def test_twistor_hull_lines_is_exact_on_built_in_domains(domain, tmp_path):
    code, blob = _run_json(["twistor", "hull-lines", "--domain", domain,
                            "--sigma", '{"x": [1, 0, 0, 0], "y": [0, 0.3, 0, 0]}'],
                           tmp_path)
    assert code == 0
    jsonschema.validate(blob, _schema())
    assert sorted(blob["params"]) == ["domain", "sigma"]
    results = blob["results"]
    assert results["band"] == 0.0 and results["count"] == 0
    assert results["indeterminate"] is False


def test_built_in_queries_load_no_scipy():
    # the package needs numpy alone: with scipy made unimportable the exact
    # paths and the sampled ones of a user domain must still run
    script = """
import sys
sys.modules["scipy"] = None
from fueter import Ball, DomainSpec, cli, hull_contains, hull_distance
from fueter import hull_contains_via_lines, hull_witness


class Sampled(DomainSpec):
    def ext_distance(self, p):
        return Ball(1, 1.0).ext_distance(p)

    def nearest_boundary(self, p):
        return Ball(1, 1.0).nearest_boundary(p)


sigma = ([0.3, 0, 0, 0], [0, 0.2, 0, 0])
for query in (hull_contains(sigma, Sampled(1)),
              hull_witness(sigma, Sampled(1))[1],
              hull_contains_via_lines(sigma, Sampled(1), return_query=True)):
    assert query.verdict and query.count == 162, query
assert hull_distance(sigma, Sampled(1)) > 0.0
runs = [["hull", mode, "--domain", "ball:r=1",
         "--sigma", '{"x": [0.3, 0, 0, 0], "y": [0, 0.2, 0, 0]}']
        for mode in ("contains", "distance", "witness")]
runs += [["twistor", "hull-lines", "--domain", domain,
          "--sigma", '{"x": [0.3, 0, 0, 0], "y": [0, 0.2, 0, 0]}']
         for domain in ("ball:r=1", "H*")]
runs.append(["penrose", "complex", "--field", "E", "--sigma",
             '{"x": [0.8, 0.1, 0, 0], "y": [0, 0.1, 0, 0]}'])
for argv in runs:
    assert cli.main(argv) == 0, argv
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy"
                and sys.modules[m] is not None)
assert not loaded, loaded
"""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_unknown_field_is_rejected_by_the_parser():
    with pytest.raises(SystemExit) as exc:
        cli.main(["cf", "check", "--field", "not_a_field"])
    assert exc.value.code == 2


def test_cf_check_pass_and_fail(tmp_path, capsys):
    code, blob = _run_json(
        ["cf", "check", "--field", "E", "--points", "20", "--seed", "3"],
        tmp_path)
    assert code == 0
    assert blob["pass"] is True
    jsonschema.validate(blob, _schema())

    code = cli.main(["cf", "check", "--field", "nonmonogenic_absquare",
                     "--points", "10", "--seed", "3",
                     "--report", str(tmp_path / "bad.json")])
    assert code == 1
    capsys.readouterr()


def test_cf_check_rejects_a_stencil_across_the_puncture(capsys):
    # every point sits closer to the removed origin than the step 1e-5, so
    # each stencil straddles it although no stencil point is the origin
    assert cli.main(["cf", "check", "--field", "E", "--rmin", "1e-9",
                     "--rmax", "2e-9", "--points", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: FD stencil exits the domain")


def test_cf_check_rejects_matrix_only_fields(capsys):
    # E's extension is E.extension, not a registry field
    with pytest.raises(SystemExit) as exc:
        cli.main(["cf", "check", "--field", "E_ext"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    capsys.readouterr()


def test_twistor_sweep_bytes_are_pinned(capsys):
    # the sweep prints x + y q over its own Hopf grid, a grid the hull no
    # longer scans; its report must not move (sha256 of stdout, recorded
    # before the hull query moved to the lattice)
    assert cli.main(["twistor", "sweep",
                     "--sigma", '{"x":[0.1,0,0,0],"y":[0,0.3,0,0]}',
                     "--nt", "4", "--ntheta", "4"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == (
        "a479ada8017b39949f5899ee132902415ba38035a50fc4a6e41f7e30ae6fa0e7")


@pytest.mark.parametrize("options", [["--nt", "0"], ["--ntheta", "0"],
                                     ["--nt", "-2", "--ntheta", "4"]])
def test_twistor_sweep_refuses_an_empty_grid(options, capsys):
    # a grid of no rings or no angles would print only the two poles
    assert cli.main(["twistor", "sweep",
                     "--sigma", '{"x":[0.1,0,0,0],"y":[0,0.3,0,0]}']
                    + options) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: hopf_grid needs ")


def test_twistor_sweep_writes_csv(tmp_path):
    csv_path = tmp_path / "sweep.csv"
    code = cli.main(["twistor", "sweep",
                     "--sigma", '{"x": [0.3, 0, 0, 0], "y": [0.1, 0, 0, 0]}',
                     "--nt", "8", "--ntheta", "8",
                     "--csv", str(csv_path),
                     "--report", str(tmp_path / "s.json")])
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 1 + 8 * 8 + 2  # header, grid, two poles
    assert lines[0].split(",")[0] == "x0"


def test_penrose_roundtrip_command(tmp_path):
    code, blob = _run_json(
        ["penrose", "roundtrip", "--field", "E", "--points", "4",
         "--seed", "5", "--tol", "1e-4"],
        tmp_path)
    assert code == 0
    assert blob["pass"] is True
    assert blob["results"]["max_error"] < 1e-4
    jsonschema.validate(blob, _schema())


def test_penrose_complex_command_agrees_with_the_extension(tmp_path):
    code, blob = _run_json(
        ["penrose", "complex", "--field", "E",
         "--sigma", '{"x": [1.1, 0.2, -0.3, 0.5], "y": [0.1, 0, 0.2, -0.1]}',
         "--tol", "1e-6"],
        tmp_path)
    assert code == 0
    assert blob["pass"] is True


def test_verify_subset_runs_and_validates(capsys):
    # one envelope on stdout; the per-criterion lines go to stderr
    code = cli.main(["verify", "all", "--criteria", "5", "--seed", "7"])
    captured = capsys.readouterr()
    blob = json.loads(captured.out)
    err = captured.err
    assert code == 0
    assert blob["pass"] is True
    assert "criterion 5" in err
    assert "OVERALL: PASS" in err
    jsonschema.validate(blob, _schema())


def test_reports_are_byte_identical_across_runs(tmp_path, capsys):
    args = ["verify", "all", "--criteria", "5", "--seed", "11"]
    cli.main(args + ["--report", str(tmp_path / "a.json")])
    cli.main(args + ["--report", str(tmp_path / "b.json")])
    capsys.readouterr()
    assert (tmp_path / "a.json").read_bytes() == \
        (tmp_path / "b.json").read_bytes()


def test_report_envelope_goes_to_stdout_without_a_path(capsys):
    code = cli.main(["cp1", "coeffs", "--k", "-3",
                     "--form", "harmonic:a0=1:a1=-0.5j"])
    assert code == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["command"] == "cp1 coeffs"
    assert blob["pass"] is True
    jsonschema.validate(blob, _schema())
    coeffs = blob["results"]["coefficients"]
    assert abs(coeffs[0][0] - 1.0) < 1e-10 and abs(coeffs[0][1]) < 1e-10
    assert abs(coeffs[1][0]) < 1e-10 and abs(coeffs[1][1] + 0.5) < 1e-10



@pytest.mark.parametrize("args,message", [
    (["--criteria", "9"], "unknown criterion ids [9]; known: 1-8"),
    (["--criteria", "3,9"], "unknown criterion ids [9]; known: 1-8"),
    (["--n", "3", "--criteria", "3"],
     "criterion 3 runs at n = 1 and 2 only, not n = 3"),
    (["--n", "3"], "criterion 3 runs at n = 1 and 2 only, not n = 3"),
    # 0 is an n like any other, not "run n = 1 and 2"; criteria that take
    # no n refuse it too
    (["--n", "0"], "n must be >= 1"),
    (["--n", "-1"], "n must be >= 1"),
    (["--n", "0", "--criteria", "3"], "n must be >= 1"),
    (["--n", "-1", "--criteria", "6"], "n must be >= 1"),
])
def test_verify_rejects_criteria_it_cannot_run(args, message, capsys):
    # nothing runs: no criterion line, no OVERALL verdict, no envelope
    assert cli.main(["verify", "all"] + args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: %s\n" % message


@pytest.mark.parametrize("command,sigma", [
    (["hull", "contains"], '{"x": [NaN, 0, 0, 0], "y": [0, 0.3, 0, 0]}'),
    (["hull", "distance"], '{"x": [1, 0, 0, 0], "y": [0, -Infinity, 0, 0]}'),
    (["twistor", "hull-lines"], '{"x": [Infinity, 0, 0, 0], "y": [0, 0.3, 0, 0]}'),
    (["twistor", "sweep"], '[[NaN, 0], [0, 1]]'),
    (["hull", "witness"], '{"matrix": [[[1, 0], [0, 0]], [[0, 0], [1, Infinity]]]}'),
])
def test_non_finite_points_are_config_errors(command, sigma, capsys):
    domain = [] if command[-1] == "sweep" else ["--domain", "H*"]
    assert cli.main(command + domain + ["--sigma", sigma]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: non-finite point "
                                   "coordinates")


@pytest.mark.parametrize("mode,sigma", [
    ("distance", '{"x": [1e200, 0, 0, 0], "y": [0, 0, 0, 0]}'),
    ("witness", '{"x": [1e200, 0, 0, 0], "y": [0, 0, 0, 0]}'),
    ("contains", '{"x": [1e160, 0, 0, 0], "y": [0, 1e160, 0, 0]}'),
])
def test_points_whose_c_norm_overflows_are_config_errors(mode, sigma, capsys):
    # finite coordinates whose squares overflow: no Infinity or NaN
    # envelope, and no RuntimeWarning (pytest makes one an error)
    assert cli.main(["hull", mode, "--domain", "H*", "--sigma", sigma]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: squared C-norm overflows")


@pytest.mark.parametrize("command,sigma,message", [
    (["hull", "contains", "--domain", "ball:r=1"],
     '{"x": [[0.1, 0], [0, 0]], "y": [0, 0.2, 0, 0]}', "must be flat"),
    (["twistor", "sweep"],
     '{"x": [0.1, 0, 0, 0], "y": [[0, 0.2, 0, 0]]}', "must be flat"),
    (["hull", "contains", "--domain", "ball:r=1"],
     '{"x": [0.1, 0, 0, 0], "y": [0, 0.2, 0, 0], "z": 5}', "sigma must be"),
    (["hull", "distance", "--domain", "H*"],
     '{"x": [1, 0, 0, 0], "y": [0, 0, 0, 0], "matrix": [[1, 0], [0, 1]]}',
     "sigma must be"),
    (["penrose", "complex", "--field", "E"],
     '{"matrix": [[1, 0], [0, 1]], "n": 1}', "sigma must be"),
])
def test_sigma_input_the_parser_would_not_read_is_a_config_error(
        command, sigma, message, capsys):
    # a nested coordinate list is not flattened, and no key is ignored
    assert cli.main(command + ["--sigma", sigma]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ")
    assert message in captured.err


@pytest.mark.parametrize("args", [["harmonic", "--a0", "nan"],
                                  ["harmonic", "--a1", "inf+1j"],
                                  ["coeffs", "--form", "harmonic:a0=1:a1=nanj"]])
def test_non_finite_coefficients_are_config_errors(args, capsys):
    assert cli.main(["cp1"] + args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "is not finite" in captured.err


@pytest.mark.parametrize("form,message", [
    ("exact:rin=2:rout=1", "0 <= r_in < r_out"),
    ("exact:p=-1:rin=-1:rout=2", "0 <= r_in < r_out"),
    ("exact:rim=0.3", "unknown exact form option 'rim'; known: p, q, rin, rout"),
    # exact:q=-1 once exited 0 with "pass" true and a_0 = -1.665
    ("exact:q=-1", "q must be a nonnegative integer, not -1"),
    ("exact:p=-2", "p must be a nonnegative integer, not -2"),
    ("exact:p=1.5", "p must be an integer, not 1.5"),
    ("exact:q=nan", "q must be an integer, not nan"),
    ("harmonic:a0=1:a2=3", "unknown harmonic form option 'a2'; known: a0, a1"),
    ("bump:r=1", "unknown form fixture 'bump'"),
])
def test_bad_form_specs_are_config_errors(form, message, capsys):
    assert cli.main(["cp1", "coeffs", "--form", form]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ")
    assert message in captured.err


def test_whole_space_queries_report_infinity_but_have_no_witness(tmp_path,
                                                                  capsys):
    args = ["--domain", '{"type": "whole_space", "n": 1}',
            "--sigma", '{"x": [1, 0, 0, 0], "y": [0, 0.3, 0, 0]}']
    code, blob = _run_json(["hull", "contains"] + args, tmp_path)
    assert code == 0 and blob["results"]["inf_value"] == float("inf")
    code, blob = _run_json(["hull", "distance"] + args, tmp_path)
    assert code == 0 and blob["results"]["distance"] == float("inf")
    assert cli.main(["hull", "witness"] + args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("config error: WholeSpace(n=1) has no boundary, "
                            "so no hull witness\n")


def test_non_finite_domain_parameters_are_config_errors(capsys):
    sigma = '{"x": [0.1, 0, 0, 0], "y": [0, 0.1, 0, 0]}'
    for domain in ("ball:r=nan",
                   '{"type": "halfspace", "normal": [1, 0, 0, 0], '
                   '"offset": Infinity}'):
        assert cli.main(["hull", "contains", "--domain", domain,
                         "--sigma", sigma]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: ")
        assert "must be finite" in captured.err


def test_intersection_witness_uses_the_part_with_a_boundary(tmp_path):
    domain = ('{"type":"intersection","parts":[{"type":"whole_space","n":1},'
              '{"type":"ball","n":1}]}')
    sigma = '{"x":[0.1,0,0,0],"y":[0,0.1,0,0]}'
    code, blob = _run_json(["hull", "witness", "--domain", domain,
                            "--sigma", sigma], tmp_path)
    assert code == 0 and blob["pass"] is True
    _, ball = _run_json(["hull", "witness", "--domain", "ball", "--sigma",
                         sigma], tmp_path, name="ball.json")
    assert blob["results"] == ball["results"]
    jsonschema.validate(blob, _schema())


@pytest.mark.parametrize("command,option,value", [
    (["cf", "check"], "--rmin", "nan"),
    (["cf", "check"], "--rmax", "inf"),
    (["cf", "check"], "--tol", "nan"),
    (["cf", "check"], "--step", "inf"),
    (["penrose", "forward"], "--rmin", "nan"),
    (["penrose", "roundtrip"], "--rmax", "inf"),
    (["penrose", "diagram"], "--tol", "nan"),
    (["penrose", "complex", "--sigma",
      '{"x": [1, 0, 0, 0], "y": [0, 0.1, 0, 0]}'], "--tol", "inf"),
])
def test_non_finite_float_options_are_rejected_by_name(command, option, value,
                                                       capsys):
    # the parser rejects the value before any point is sampled
    with pytest.raises(SystemExit) as exc:
        cli.main(command + ["--field", "E", option, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("argument %s: not a finite number: %r" % (option, value)
            in captured.err)


def test_penrose_complex_outside_the_hull_still_prints_its_envelope(capsys):
    # (x, y) = (1, i) sweeps through the removed origin, so the point is not
    # in the hull of E's domain and the transform refuses it
    code = cli.main(["penrose", "complex", "--field", "E", "--sigma",
                     '{"x": [1, 0, 0, 0], "y": [0, 1, 0, 0]}'])
    assert code == 1
    captured = capsys.readouterr()
    blob = json.loads(captured.out)
    jsonschema.validate(blob, _schema())
    assert blob["command"] == "penrose complex"
    assert blob["pass"] is False
    assert "not in the monogenic hull" in blob["results"]["error"]
    assert captured.err.startswith("check failed: penrose complex: point is "
                                   "not in the monogenic hull")


def _strict_json(text):
    """json.loads that refuses NaN and infinities, which JSON does not have."""
    def refuse(name):
        raise ValueError("not JSON: %s" % name)
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("k,form", [("-60", "exact"),
                                    ("-40", "exact:p=1:q=2:rin=0.3:rout=3")])
def test_cp1_coeffs_refuses_uncertified_coefficients(k, form, capsys):
    # the moments cancel terms as large as 3^38 (k = -40) or 2^58 (k = -60)
    # on the support, so their rounding bound exceeds the tolerance: a
    # refusal (exit 1, "pass" false), not coefficients of ~1e2
    code = cli.main(["cp1", "coeffs", "--k", k, "--form", form])
    assert code == 1
    captured = capsys.readouterr()
    blob = _strict_json(captured.out)
    jsonschema.validate(blob, _schema())
    assert blob["pass"] is False
    assert "not certified: rounding bound" in blob["results"]["error"]
    assert captured.err.startswith("check failed: cp1 coeffs: coefficients "
                                   "of the degree %s form" % k)


def test_cp1_coeffs_refuses_non_finite_coefficients(monkeypatch, capsys):
    # the same form without its support sums the whole default rule, whose
    # outer nodes reach |z| = 6.4e3, so z^ell overflows from ell ~ 81: a
    # refusal (exit 1, "pass" false), never NaN coefficients
    exact_form = cp1.exact_form

    def whole_plane(*args, **kwargs):
        w = exact_form(*args, **kwargs)
        return cp1.Form01(w.k, w.h0, w.h1)

    monkeypatch.setattr(cp1, "exact_form", whole_plane)
    code = cli.main(["cp1", "coeffs", "--k", "-200", "--form", "exact"])
    assert code == 1
    captured = capsys.readouterr()
    blob = _strict_json(captured.out)
    jsonschema.validate(blob, _schema())
    assert blob["pass"] is False
    assert "non-finite coefficients" in blob["results"]["error"]
    assert captured.err.startswith("check failed: cp1 coeffs: non-finite")


def test_cp1_harmonic_returns_subnormal_coefficients_as_given(capsys):
    # the node sum once printed 1.53e-321 and 8.1e-322 with "pass" true;
    # the product with the moment table returns the inputs
    assert cli.main(["cp1", "harmonic", "--a0=1e-320", "--a1=1e-320"]) == 0
    blob = _strict_json(capsys.readouterr().out)
    assert blob["pass"] is True
    assert blob["results"]["coefficients"] == [[1e-320, 0.0], [1e-320, 0.0]]
    assert blob["results"]["roundtrip_error"] == 0.0


@pytest.mark.parametrize("args", [["harmonic", "--a0=1e308", "--a1=1e308"],
                                  ["coeffs", "--form", "harmonic:a0=1e300"]])
def test_cp1_refuses_uncertified_harmonic_coefficients(args, capsys):
    # the product with the table is finite, but its rounding bound is far
    # above the tolerance: exit 1, strict JSON with "pass" false
    assert cli.main(["cp1"] + args) == 1
    blob = _strict_json(capsys.readouterr().out)
    jsonschema.validate(blob, _schema())
    assert blob["pass"] is False
    assert "not certified: rounding bound" in blob["results"]["error"]


def test_cp1_coeffs_leaves_the_exact_form_defaults_to_exact_form(capsys):
    # no option given: the coefficients of exact_form(-3), bit for bit
    assert cli.main(["cp1", "coeffs", "--form", "exact"]) == 0
    coeffs = json.loads(capsys.readouterr().out)["results"]["coefficients"]
    want = cp1.cohomology_coefficients(cp1.exact_form(-3), cp1.BUMP_GRADE,
                                       check=False)
    assert [[float(v).hex() for v in c] for c in coeffs] == [
        [float(c.real).hex(), float(c.imag).hex()] for c in want]


def test_penrose_complex_off_the_slice_needs_an_extension(tmp_path, capsys):
    code, blob = _run_json(
        ["penrose", "complex", "--field", "nonmonogenic_linear",
         "--sigma", '{"x": [1.1, 0.2, -0.3, 0.5], "y": [0.1, 0, 0.2, -0.1]}'],
        tmp_path)
    assert code == 1
    jsonschema.validate(blob, _schema())
    assert blob["pass"] is False
    assert blob["results"]["error"].startswith(
        "form has no holomorphic matrix extension")
    assert capsys.readouterr().err.startswith(
        "check failed: penrose complex: form has no holomorphic")


def test_a_failed_check_prints_its_envelope_and_names_the_command(capsys):
    code = cli.main(["cf", "check", "--field", "nonmonogenic_absquare",
                     "--points", "10", "--seed", "3"])
    assert code == 1
    captured = capsys.readouterr()
    blob = json.loads(captured.out)
    jsonschema.validate(blob, _schema())
    assert blob["pass"] is False and blob["results"]["verdict"] is False
    assert captured.err.startswith("check failed: cf check: max residual ")


@pytest.mark.parametrize("command", [["cf", "check"], ["penrose", "roundtrip"],
                                     ["penrose", "forward"],
                                     ["penrose", "diagram"]])
@pytest.mark.parametrize("options,message", [
    (["--rmin=-1"], "the shell needs 0 <= rmin < rmax, not rmin = -1.0"),
    (["--rmin", "3", "--rmax", "1"],
     "the shell needs 0 <= rmin < rmax, not rmin = 3.0, rmax = 1.0"),
    (["--rmin", "2", "--rmax", "2"],
     "the shell needs 0 <= rmin < rmax, not rmin = 2.0, rmax = 2.0"),
    (["--points", "0"], "points must be >= 1, not 0"),
    (["--points", "-3"], "points must be >= 1, not -3"),
])
def test_sampling_options_are_validated_by_name(command, options, message,
                                                capsys):
    # nothing is sampled or emitted; rmax defaults differ by command
    assert cli.main(command + ["--field", "constant"] + options) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: %s" % message)


_SIGMA = '{"x": [0.1, 0, 0, 0], "y": [0, 0.2, 0, 0]}'
_SAMPLED = ["field", "n", "points", "rmax", "rmin", "seed", "tol"]


@pytest.mark.parametrize("args,params", [
    (["cf", "check", "--field", "E", "--points", "3"],
     sorted(_SAMPLED + ["scheme", "step"])),
    (["hull", "contains", "--domain", "H*", "--sigma", _SIGMA],
     ["domain", "sigma"]),
    (["hull", "distance", "--domain", "ball", "--sigma", _SIGMA],
     ["domain", "sigma"]),
    (["hull", "witness", "--domain", "ball", "--sigma", _SIGMA],
     ["domain", "sigma"]),
    (["twistor", "sweep", "--sigma", _SIGMA, "--nt", "2", "--ntheta", "2"],
     ["nt", "ntheta", "sigma"]),
    (["twistor", "hull-lines", "--domain", "H*", "--sigma", _SIGMA],
     ["domain", "sigma"]),
    (["cp1", "coeffs", "--form", "harmonic"], ["form", "k"]),
    (["cp1", "harmonic", "--a1", "2j"], ["a0", "a1", "tol"]),
    (["cp1", "dim", "--k", "-4"], ["k"]),
    (["penrose", "roundtrip", "--field", "constant", "--points", "2"],
     _SAMPLED),
    (["penrose", "forward", "--field", "constant", "--points", "2"],
     _SAMPLED),
    (["penrose", "diagram", "--field", "constant", "--points", "2"],
     _SAMPLED),
    (["penrose", "complex", "--field", "E", "--sigma", _SIGMA],
     ["field", "n", "sigma", "tol"]),
    (["verify", "all", "--criteria", "7"], ["criteria", "n", "seed"]),
])
def test_every_subcommand_records_its_parsed_options(args, params, tmp_path,
                                                     capsys):
    # every option but the output ones (--report, --csv), as parsed, with
    # sigma and the cp1 coefficients in their normalised form
    code, blob = _run_json(args, tmp_path)
    capsys.readouterr()
    assert code == 0
    assert sorted(blob["params"]) == params
    if "sigma" in params:
        assert blob["params"]["sigma"] == {"x": [0.1, 0.0, 0.0, 0.0],
                                           "y": [0.0, 0.2, 0.0, 0.0]}
    if "a1" in params:
        assert blob["params"]["a0"] == [1.0, 0.0]
        assert blob["params"]["a1"] == [0.0, 2.0]


@pytest.mark.parametrize("domain,message", [
    ('{"type": "ball", "radius": 1, "centre": [0.9, 0, 0, 0]}',
     "unknown ball domain key 'centre'; known: n, radius, center"),
    ('{"type": "point_complement", "pont": [1, 0, 0, 0]}',
     "unknown point_complement domain key 'pont'; known: n, point"),
    ('{"type": "ball", "n": 1.7}', "n must be an integer, got 1.7"),
    ('{"type": "ball", "n": true}', "n must be an integer, got True"),
    ('{"type": "intersection", "n": 2, "parts": [{"type": "ball", "n": 1}]}',
     "all parts must share the intersection's n = 2"),
    ('{"type": "ball", "center": [[0.5, 0], [0, 0]]}',
     "center must have shape (4,), got shape (2, 2)"),
    ('{"type": "halfspace", "normal": [[1, 0], [0, 0]]}',
     "normal must have shape (4,), got shape (2, 2)"),
    ('{"type": "torus"}', "unknown domain type 'torus'"),
    ("ball:r=1:x=3", "unknown ball domain key 'x'; known: n, radius, center"),
    ("ball:r=1:x=abc", "unknown ball domain key 'x'; known: n, radius, center"),
    ('{"type": "intersection", "parts": 5}',
     "parts must be a list of domains, got 5"),
    ('{"type": "intersection", "parts": "ball"}',
     "parts must be a list of domains, got 'ball'"),
    ("H*:r=2", "unknown point_complement domain key 'r'; known: n, point"),
    ('{"type": "halfspace", "normal": [1e-200, 0, 0, 0], "offset": 1e300}',
     "offset / |normal| must be finite"),
    # a ball or a removed point whose squared norm overflows read a 0.0
    # distance, a false verdict and an Infinity or NaN envelope
    ('{"type": "ball", "radius": 2e160, "center": [1e160, 0, 0, 0]}',
     "center's squared norm overflows at [1e+160, 0.0, 0.0, 0.0]"),
    ('{"type": "point_complement", "point": [1e160, 0, 0, 0]}',
     "point's squared norm overflows at [1e+160, 0.0, 0.0, 0.0]"),
])
@pytest.mark.parametrize("command", [["hull", "contains"],
                                     ["twistor", "hull-lines"]])
def test_domain_specs_the_reader_would_not_read_are_config_errors(
        command, domain, message, capsys):
    assert cli.main(command + ["--domain", domain, "--sigma", _SIGMA]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: %s\n" % message


def test_half_space_with_a_huge_normal_contains_its_deep_side(tmp_path):
    # |normal|^2 overflows; the normal is (1, 1, 0, 0) direction all the same
    code, blob = _run_json(
        ["hull", "contains", "--domain",
         '{"type":"halfspace","normal":[1e200,1e200,0,0],"offset":0}',
         "--sigma", '{"x":[-5,0,0,0],"y":[0,0,0,0]}'], tmp_path)
    assert code == 0 and blob["results"]["verdict"] is True


@pytest.mark.parametrize("criteria", ["", " ", "6,", "a"])
def test_verify_refuses_an_empty_or_malformed_criteria_list(criteria, capsys):
    # only an absent --criteria means all eight; nothing runs here
    assert cli.main(["verify", "all", "--criteria", criteria]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("config error: --criteria takes comma-separated "
                            "ids, not %r\n" % criteria)
