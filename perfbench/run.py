"""Benchmark for fueter: the ``hull``, ``transform`` and ``cli`` workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload hull --seed 1 --seconds 20 --trace 0

One process runs one workload in a closed loop with one op in flight.  Its
inputs come from ``--seed`` through ``inputs.py`` (numpy only).  The run:

1. sets up: imports ``fueter``, builds the workload and runs one untimed op
   of each kind, which fills the library's caches.  ``setup_s`` is the median
   of three set-ups: this process's own and two fresh ``--setup-probe``
   children (for ``cli``, three fresh interpreters importing ``fueter.cli``).
2. runs whole cycles of ops until ``--seconds`` of op time have passed
   (``--trace 0``), or a fixed number of cycles derived from ``--seconds``
   (``--trace 1``), so that two traced runs at one seed do identical work.
3. checks every op's answer and lists each failing op by its input; the
   transform workload also reports, ungated, the residuals of its FD
   certification ops on fresh draws (``known_defects``).
4. prints a ``PERFBENCH_REPORT {...}`` line (environment stamp, every metric
   with unit and direction, the failures) and, last, the result line
   ``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
   metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.

A traced run first runs its cycles untraced, then installs the tracer
(``tracer.py``) and runs them again traced; the difference in wall time is
the tracing overhead.  Spans go to ``perfbench/out/``.

Exit codes: 0 when the benchmark ran (``correct`` says whether every op
passed), 2 when it could not run, e.g. outside a checkout of the repository.
"""

import argparse
import hashlib
import importlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import speed  # noqa: E402

WORKLOADS = ("hull", "transform", "cli")

END_TO_END = [
    ("ops_per_s", "1/s", "higher"),
    ("op_ms_p50", "ms", "lower"),
    ("op_ms_tail", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

# traced runs do a fixed number of cycles, seconds * rate, so their counts
# repeat exactly; the rates put the traced pass at about half of --seconds
# on a 2-core x86 box
TRACE_CYCLES_PER_S = {"hull": 1.0, "transform": 0.4, "cli": 0.05}

SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 120
MAX_LISTED_FAILURES = 50
MAX_LISTED_NUMBERS = 200
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS", "FUETER_THREADS")


class SetupError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def require_tree(workload):
    """The library sources (and, for cli, the report schema) must be present."""
    needed = [os.path.join(ROOT, "src", "fueter", "__init__.py")]
    if workload == "cli":
        needed.append(os.path.join(ROOT, "schemas", "report.json"))
    missing = [p for p in needed if not os.path.isfile(p)]
    if missing:
        raise SetupError("not a checkout of the repository: missing %s"
                         % ", ".join(os.path.relpath(p, ROOT) for p in missing))
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def set_up(workload, seed):
    """Import fueter, build the workload, run one untimed op of each kind.

    Returns (workload object, seconds from just before the import to the
    end of the warm-up).  Generating the warm-up inputs is not timed.
    """
    warm = inputs.cycle_ops(workload, seed, inputs.WARMUP)
    t0 = time.perf_counter()
    wl = importlib.import_module("wl_" + workload).Workload()
    for op in warm:
        wl.run(op)
    return wl, time.perf_counter() - t0


def _probe_cmd(workload, seed):
    if workload == "cli":
        # time the import in a fresh interpreter, numpy and scipy included;
        # the reference-speed sample comes after it
        code = ("import sys, time; t = time.perf_counter(); import fueter.cli; "
                "dt = time.perf_counter() - t; sys.path.insert(0, %r); "
                "import speed; print(dt, speed.reference_now())" % HERE)
        return [sys.executable, "-c", code]
    return [sys.executable, os.path.abspath(__file__), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]


def timed_set_up(workload, seed):
    """set_up with a reference-speed sample taken just before it."""
    ref = speed.reference_now()
    wl, seconds = set_up(workload, seed)
    return wl, (seconds, ref)


def child_env():
    """This environment with the checkout's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def setup_samples(workload, seed, own=None):
    """(seconds, reference-sample seconds) of set-ups in fresh child processes,
    plus this process's own."""
    samples = [] if own is None else [own]
    env = child_env()
    while len(samples) < SETUP_SAMPLES:
        proc = subprocess.run(_probe_cmd(workload, seed), cwd=ROOT, env=env,
                              capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise SetupError("set-up probe failed: %s" % proc.stderr.strip()[-500:])
        seconds, ref = proc.stdout.strip().splitlines()[-1].split()
        samples.append((float(seconds), float(ref)))
    return samples


# ---------------------------------------------------------------------------
# the timed loop
# ---------------------------------------------------------------------------

class Phase:
    """Latencies and failures of one pass over whole cycles."""

    def __init__(self):
        self.labels = []      # op_label of each op, in order
        self.lat = []         # seconds per op
        self.busy = 0.0       # sum of lat: the timed phase
        self.failures = []
        self.cycles = 0
        self.digest = hashlib.sha256()


def run_cycles(wl, workload, seed, seconds=None, cycles=None, tr=None,
               check=True, ref=None):
    """Run whole cycles until `seconds` of op time (or `cycles` cycles) pass.

    Only the ops are timed: input generation, between cycles, and the check
    of each op's answer, right after it, are not; nor are the reference-speed
    samples `ref` takes between ops.  With a tracer, spans are recorded during
    the ops only.
    """
    ph = Phase()
    sigma_scale = getattr(wl, "sigma_scale", None)
    while True:
        ops = inputs.cycle_ops(workload, seed, ph.cycles)
        inputs.update_digest(ph.digest, ops)
        for i, op in enumerate(ops):
            if ref is not None:
                ref.maybe_sample(len(ph.lat), ph.busy)
            if tr is not None:
                tr.op_id = len(ph.lat)
                tr.op_scale = sigma_scale(op) if sigma_scale else 1.0
                tr.enabled = True
            t0 = time.perf_counter()
            try:
                out, err = wl.run(op), None
            except Exception as e:  # a raising op is a failed op, not a crash
                out, err = None, "%s: %s" % (type(e).__name__, e)
            dt = time.perf_counter() - t0
            if tr is not None:
                tr.enabled = False
            ph.lat.append(dt)
            ph.busy += dt
            ph.labels.append(op_label(op))
            if check:
                if err is None:
                    try:
                        err = wl.check(op, out)
                    except Exception as e:  # a check that cannot run fails the op
                        err = "check raised %s: %s" % (type(e).__name__, e)
                if err is not None:
                    ph.failures.append(failure_record(op, (ph.cycles, i), err))
        ph.cycles += 1
        if cycles is not None and ph.cycles >= cycles:
            return ph
        if cycles is None and ph.busy >= seconds:
            return ph


def _jsonable(v):
    if isinstance(v, np.ndarray):
        return _jsonable(v.tolist())
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    return v


def failure_record(op, where, reason):
    """A failing op, named by its place in the seeded stream and by its input.

    Inputs of up to MAX_LISTED_NUMBERS numbers are listed in full; larger ones
    by shape and digest (the seed, cycle and index regenerate them).
    """
    h = hashlib.sha256()
    inputs.update_digest(h, op)
    size = sum(np.size(v) for v in op[1:] if isinstance(v, np.ndarray))
    rec = {"cycle": where[0], "index": where[1], "kind": op_label(op),
           "input_sha256": h.hexdigest(), "reason": reason}
    if size <= MAX_LISTED_NUMBERS:
        rec["input"] = _jsonable(op[1:])
    else:
        rec["input_shapes"] = [list(np.shape(v)) for v in op[1:]
                               if isinstance(v, np.ndarray)]
    return rec


def latency_metrics(lat):
    ms = sorted(1e3 * t for t in lat)
    i = max(0, len(ms) - 11)   # the highest rank with at least 10 ops beyond it
    return {"op_ms_p50": statistics.median(ms), "op_ms_tail": ms[i],
            "op_ms_tail_pct": 100.0 * (i + 1) / len(ms)}


def peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0   # KiB on Linux


def environment(seed):
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {"git_commit": commit, "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "threads": {k: os.environ.get(k) for k in THREAD_VARS},
            "seed": seed, "platform": platform.platform()}


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def run_untraced(workload, seed, seconds):
    if workload == "cli":
        import wl_cli
        setup = setup_samples(workload, seed)
        wl = wl_cli.Workload(ROOT, child_env())
    else:
        wl, own = timed_set_up(workload, seed)
        setup = setup_samples(workload, seed, own)
    ref = speed.Reference(half_window_s=getattr(wl, "ref_half_window_s",
                                                  speed.HALF_WINDOW_S))
    ph = run_cycles(wl, workload, seed, seconds=seconds, ref=ref)
    factors = ref.factors(len(ph.lat))
    scaled = [t * f for t, f in zip(ph.lat, factors)]
    raw = summarize(ph.lat, [s for s, _ in setup], workload)
    values = summarize(scaled, [s * speed.REF_NOMINAL_S / r for s, r in setup], workload)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _ in END_TO_END}
    extra = {"fail_frac": {"value": len(ph.failures) / len(ph.lat),
                           "unit": "ratio", "better": "lower"},
             "op_ms_tail_pct": {"value": values["op_ms_tail_pct"], "unit": "%"},
             "ops": {"value": len(ph.lat), "unit": "count"},
             "speed_factor_p50": {"value": float(np.median(factors)), "unit": "ratio"}}
    extra.update(getattr(wl, "summary", dict)())
    details = {"setup_samples": setup, "cycles": ph.cycles, "timed_s": ph.busy,
               "raw_metrics": raw, "per_kind_ms_p50": per_kind(ph)}
    if hasattr(wl, "known_defects"):   # after the timed phase and peak_rss_mb
        details["known_defects"] = wl.known_defects(seed)
    return ph, metrics, extra, details


def summarize(lat, setup, workload):
    """End-to-end values from per-op seconds and set-up seconds."""
    return dict(latency_metrics(lat), ops_per_s=len(lat) / sum(lat),
                setup_s=statistics.median(setup), peak_rss_mb=peak_rss_mb(workload))


def op_label(op):
    """The op's kind with its fixture or domain, e.g. "penrose:E:1"."""
    parts = [op[0]] + [v for v in op[1:3] if isinstance(v, str)]
    if op[0] == "penrose":
        parts.append(op[2])
    return ":".join(map(str, parts))


def per_kind(ph):
    kinds = {}
    for key, t in zip(ph.labels, ph.lat):
        kinds.setdefault(key, []).append(1e3 * t)
    return {k: statistics.median(v) for k, v in sorted(kinds.items())}


def run_traced(workload, seed, seconds):
    import tracer
    cycles = max(1, int(round(seconds * TRACE_CYCLES_PER_S[workload])))
    if workload == "cli":
        import wl_cli
        setup_samples(workload, seed)   # the same warm-up as an untraced run
        base = run_cycles(wl_cli.Workload(ROOT, child_env()), workload, seed,
                          cycles=cycles, check=False)
        wl = wl_cli.Workload(ROOT, child_env(), traced=True)
        ph = run_cycles(wl, workload, seed, cycles=cycles)
        tr, raw = tracer.Tracer(), {}
        extra = {"cli.spawn_s": 0.0, "cli.import_s": 0.0, "cli.main_s": 0.0}
        for op_id, (t_spawn, t_exit, blob) in enumerate(wl.child_traces):
            tr.op_id = op_id
            parent = tr.add_span("cli.op", t_spawn, t_exit)
            if blob is None:     # the child died before reporting
                continue
            tracer.merge_raw(raw, blob["raw"])
            extra["cli.spawn_s"] += blob["t0"] - t_spawn
            extra["cli.import_s"] += blob["import_s"]
            extra["cli.main_s"] += blob["main_s"]
            base_index = len(tr.spans)
            for name, start, end, p, _ in blob["spans"]:
                tr.add_span(name, start, end, parent if p < 0 else base_index + p)
    else:
        wl, _ = set_up(workload, seed)
        base = run_cycles(wl, workload, seed, cycles=cycles, check=False)
        tr = tracer.Tracer()
        tracer.install(tr)
        wl = importlib.import_module("wl_" + workload).Workload()  # wrap its fields
        ph = run_cycles(wl, workload, seed, cycles=cycles, tr=tr)
        raw, extra = tr.raw(), {}
    extra["trace.overhead_s"] = ph.busy - base.busy
    extra["trace.overhead_frac"] = (ph.busy - base.busy) / base.busy
    metrics = tracer.layer_metrics(raw, extra)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "spans_%s_seed%d.tsv" % (workload, seed))
    tr.write_spans(path)
    details = {"cycles": cycles, "traced_s": ph.busy, "untraced_s": base.busy,
               "spans_file": os.path.relpath(path, ROOT),
               "spans_kept": len(tr.spans), "spans_dropped": tr.dropped}
    return ph, metrics, {}, details


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: time one set-up and print the seconds")
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    try:
        require_tree(args.workload)
        if args.setup_probe:
            print(*timed_set_up(args.workload, args.seed)[1])
            return 0
        env = environment(args.seed)
        runner = run_traced if args.trace else run_untraced
        ph, metrics, extra, details = runner(args.workload, args.seed, args.seconds)
    except (SetupError, ImportError, subprocess.SubprocessError, OSError) as e:
        print("perfbench: cannot run: %s: %s" % (type(e).__name__, e), file=sys.stderr)
        return 2
    directions = dict((n, b) for n, _, b in END_TO_END)
    if args.trace:
        import tracer
        directions = dict((n, b) for n, _, b in tracer.PER_LAYER)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env,
        "attempted": len(ph.lat), "failed": len(ph.failures),
        "inputs_sha256": ph.digest.hexdigest(),
        "metrics": {k: dict(v, better=directions[k]) for k, v in metrics.items()},
        "extra_metrics": extra, "details": details,
        "failures": ph.failures[:MAX_LISTED_FAILURES],
    }
    print("PERFBENCH_REPORT " + json.dumps(report, sort_keys=True))
    for f in ph.failures[:MAX_LISTED_FAILURES]:
        print("FAILED op cycle %d #%d %s: %s" % (f["cycle"], f["index"], f["kind"],
                                                f["reason"]), file=sys.stderr)
    print(json.dumps({"correct": not ph.failures, "attempted": len(ph.lat),
                      "failed": len(ph.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
