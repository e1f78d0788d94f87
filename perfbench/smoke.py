"""Smoke check of the benchmark: every workload at minimum size.

Run from the root of a checkout with either of

    python3 perfbench/smoke.py
    python3 -m pytest -q perfbench/smoke.py

It runs each workload for one cycle, untraced and traced, and asserts that
the result line has exactly the contract's keys, that every metric named in
BENCHMARK.json is printed with its unit and direction, that two traced runs
at one seed give identical counts, that a seed's inputs are the pinned
bytes, and that the benchmark refuses to run outside a checkout.  It takes
about two minutes on a 2-core box.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import inputs  # noqa: E402

WORKLOADS = ("hull", "transform", "cli")
COUNT_SUFFIXES = (".calls", ".evals", ".points", ".builds", ".flip_frac")

# sha256 of the cycle-0 inputs at seed 0; a change here changes every baseline
PINNED_CYCLE0 = {
    "hull": "f8e18fe072e1041d9fcd1c98d5f9870f56c388528e34869502b8fa78654255c6",
    "transform": "a1cd99ae732b98f3a06b256d841358721ffb2d2ee88c0fe1f914d52f3f79930a",
    "cli": "78301f665e355f5c6b20b616ad9f1bae435728fdbe9a25985ce00a105121cda9",
}


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _run(workload, trace, seed=0, cwd=ROOT):
    cmd = _spec()["command"] + ["--workload", workload, "--seed", str(seed),
                                "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def _parse(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    assert result["correct"] == (result["failed"] == 0)
    assert result["correct"], proc.stderr[-2000:]
    prefix = "PERFBENCH_REPORT "
    report = json.loads(next(l for l in lines if l.startswith(prefix))[len(prefix):])
    return result, report


def _assert_metrics(result, report, declared):
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
        assert report["metrics"][m["name"]]["better"] == m["better"], m["name"]


def _digest(workload, seed, cycle):
    h = hashlib.sha256()
    inputs.update_digest(h, inputs.cycle_ops(workload, seed, cycle))
    return h.hexdigest()


def check_workload(workload):
    spec = _spec()
    result, report = _parse(_run(workload, 0))
    _assert_metrics(result, report, spec["end_to_end"])
    for name, value in result["metrics"].items():
        if name != "op_ms_tail" or result["attempted"] > 10:
            assert value["value"] > 0, name
    extra = report["extra_metrics"]
    assert extra["fail_frac"]["unit"] == "ratio" and extra["fail_frac"]["better"] == "lower"
    assert extra["op_ms_tail_pct"]["unit"] == "%"
    assert extra["ops"]["value"] == result["attempted"]
    assert ("undecided_frac" in extra) == (workload == "hull")
    env = report["environment"]
    for key in ("git_commit", "python", "numpy", "scipy", "nproc", "threads", "seed"):
        assert key in env, key
    assert len(report["failures"]) == min(result["failed"], 50)
    defects = report["details"].get("known_defects", {})
    assert (set(defects) == {"criterion_1_fresh", "criterion_2_fresh"}) == (
        workload == "transform")

    traced = [_parse(_run(workload, 1)) for _ in range(2)]
    for t_result, t_report in traced:
        _assert_metrics(t_result, t_report, spec["per_layer"])
    a, b = (t[0]["metrics"] for t in traced)
    for name in a:
        if name.endswith(COUNT_SUFFIXES):
            assert a[name]["value"] == b[name]["value"], name


def check_inputs_pinned():
    for workload, pinned in PINNED_CYCLE0.items():
        assert _digest(workload, 0, 0) == pinned, workload


def check_refuses_outside_checkout():
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    try:
        for workload in WORKLOADS:
            proc = _run(workload, 0, cwd=bare)
            assert proc.returncode != 0, workload
            assert '"correct"' not in proc.stdout, workload
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def test_hull():
    check_workload("hull")


def test_transform():
    check_workload("transform")


def test_cli():
    check_workload("cli")


def test_inputs_pinned():
    check_inputs_pinned()


def test_refuses_outside_checkout():
    check_refuses_outside_checkout()


if __name__ == "__main__":
    check_inputs_pinned()
    check_refuses_outside_checkout()
    for w in WORKLOADS:
        check_workload(w)
        print("ok", w)
    print("smoke check passed")
