"""The ``cli`` workload: one ``python -m fueter.cli`` process per op.

Each op is a fresh interpreter that pays for the import and any cache
set-up, as a user's single query does.  The op passes when the process exits
0, its stdout is an envelope that validates against ``schemas/report.json``
with ``pass`` true, and a repeated input prints byte-identical stdout.  In a
traced run the op goes through ``cli_entry.py`` instead, which times the
import and ``main()`` in the child and traces the library there.
"""

import json
import os
import subprocess
import sys
import time

import jsonschema

HERE = os.path.dirname(os.path.abspath(__file__))
TRACE_PREFIX = "PERFBENCH_TRACE "
OP_TIMEOUT_S = 120


def _trace_line(stderr):
    for line in reversed(stderr.decode(errors="replace").splitlines()):
        if line.startswith(TRACE_PREFIX):
            return json.loads(line[len(TRACE_PREFIX):])
    return None


class Workload:
    name = "cli"
    ref_half_window_s = None    # one reference-speed factor per run (speed.py)

    def __init__(self, root, env, traced=False):
        self.root = root
        self.env = env
        self.traced = traced
        with open(os.path.join(root, "schemas", "report.json")) as f:
            self.schema = json.load(f)
        self.first_stdout = {}
        self.child_traces = []   # per traced op: (t_spawn, t_exit, trace line blob)

    def command(self, argv):
        if self.traced:
            return [sys.executable, os.path.join(HERE, "cli_entry.py")] + list(argv)
        return [sys.executable, "-m", "fueter.cli"] + list(argv)

    def run(self, op):
        t0 = time.perf_counter()
        proc = subprocess.run(self.command(op[2]), cwd=self.root, env=self.env,
                              capture_output=True, timeout=OP_TIMEOUT_S)
        if self.traced:
            self.child_traces.append((t0, time.perf_counter(), _trace_line(proc.stderr)))
        return proc.returncode, proc.stdout, proc.stderr[-2000:]

    def check(self, op, out):
        kind, name, argv = op
        rc, stdout, stderr = out
        if rc != 0:
            return "exit code %d: %s" % (rc, stderr.decode(errors="replace").strip()[-300:])
        try:
            env = json.loads(stdout)
            jsonschema.validate(env, self.schema)
        except (ValueError, jsonschema.ValidationError) as e:
            return "bad envelope: %s" % str(e)[:300]
        if env["pass"] is not True:
            return "envelope reports pass = %r" % env["pass"]
        key = tuple(argv)
        if kind == "cli":
            self.first_stdout[key] = stdout
        elif stdout != self.first_stdout.get(key):
            return "repeated input printed different stdout"
        return None
