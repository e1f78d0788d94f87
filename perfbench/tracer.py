"""In-memory span tracer for the benchmark's traced runs.

``install(tracer)`` wraps public functions of the already-imported ``fueter``
modules from the outside: every module namespace that bound a traced
function (``fueter.hull_contains``, ``fueter.penrose.hull_contains``, ...)
is rebound to the wrapper, so calls from inside the library are seen too.
Nothing in ``fueter`` itself changes.

A span is (name, start, end, parent, op id).  Spans are kept in memory, up
to ``keep`` of them, and written out by ``write_spans`` at the end; the
aggregates (calls, self time, counters) are updated as spans close, so they
cover every span even when the stored list is capped.  Self time is a span's
duration minus the time its child spans cover.

Wrappers pass straight through while ``tracer.enabled`` is False, so warm-up
and checks run untraced.
"""

import functools
import sys
import time
from collections import defaultdict

import numpy as np

# (metric, unit, better) for every per-layer metric a traced run prints
PER_LAYER = [
    ("hull.hull_contains.calls", "count", "lower"),
    ("hull.hull_contains.self_s", "s", "lower"),
    ("hull.hull_distance.self_s", "s", "lower"),
    ("hull.hull_witness.self_s", "s", "lower"),
    ("hull.sampler.builds", "count", "lower"),
    ("hull.refine.calls", "count", "lower"),
    ("hull.refine.evals", "count", "lower"),
    ("hull.refine.self_s", "s", "lower"),
    ("hull.refine.flip_frac", "ratio", "higher"),
    ("twistor.hull_contains_via_lines.calls", "count", "lower"),
    ("twistor.hull_contains_via_lines.self_s", "s", "lower"),
    ("twistor.refine.calls", "count", "lower"),
    ("twistor.refine.evals", "count", "lower"),
    ("twistor.refine.self_s", "s", "lower"),
    ("twistor.refine.flip_frac", "ratio", "higher"),
    ("domains.ext_distance.calls", "count", "lower"),
    ("domains.ext_distance.points", "count", "lower"),
    ("domains.ext_distance.self_s", "s", "lower"),
    ("domains.nearest_boundary.calls", "count", "lower"),
    ("domains.nearest_boundary.self_s", "s", "lower"),
    ("quat.qmul.calls", "count", "lower"),
    ("quat.qmul.self_s", "s", "lower"),
    ("quat.real_to_ab.calls", "count", "lower"),
    ("quat.real_to_ab.self_s", "s", "lower"),
    ("penrose.penrose_transform.calls", "count", "lower"),
    ("penrose.penrose_transform.self_s", "s", "lower"),
    ("penrose.tau_push_01.calls", "count", "lower"),
    ("penrose.tau_push_01.self_s", "s", "lower"),
    ("penrose.tau_push_02.calls", "count", "lower"),
    ("penrose.tau_push_02.self_s", "s", "lower"),
    ("penrose.penrose_transform_complex.calls", "count", "lower"),
    ("penrose.penrose_transform_complex.self_s", "s", "lower"),
    ("penrose.diagram_check.calls", "count", "lower"),
    ("penrose.diagram_check.self_s", "s", "lower"),
    ("penrose.wz.calls", "count", "lower"),
    ("cf.cf_residual_complex.calls", "count", "lower"),
    ("cf.cf_residual_complex.self_s", "s", "lower"),
    ("cf.cf_residual_complex.points", "count", "lower"),
    ("cf.is_monogenic.calls", "count", "lower"),
    ("cf.is_monogenic.self_s", "s", "lower"),
    ("cf.dC_apply.calls", "count", "lower"),
    ("cf.dC_apply.self_s", "s", "lower"),
    ("fields.pair.points", "count", "lower"),
    ("fields.pair.self_s", "s", "lower"),
    ("cp1.quadrature_nodes.calls", "count", "lower"),
    ("cp1.quadrature_nodes.self_s", "s", "lower"),
    ("cp1.cohomology_coefficients.calls", "count", "lower"),
    ("cp1.cohomology_coefficients.self_s", "s", "lower"),
    ("cli.spawn_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.main_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]

# module-level functions: (module, attribute, span name, points-of-args)
_FUNCTIONS = [
    ("quat", "qmul", "quat.qmul", None),
    ("quat", "real_to_ab", "quat.real_to_ab", None),
    ("hull", "hull_contains", "hull.hull_contains", None),
    ("hull", "hull_distance", "hull.hull_distance", None),
    ("hull", "hull_witness", "hull.hull_witness", None),
    ("twistor", "hull_contains_via_lines", "twistor.hull_contains_via_lines", None),
    ("cf", "cf_residual_complex", "cf.cf_residual_complex", lambda a, k: _lead(a[2] if len(a) > 2 else k["p"], 1)),
    ("cf", "is_monogenic", "cf.is_monogenic", None),
    ("cf", "dC_apply", "cf.dC_apply", None),
    ("cp1", "quadrature_nodes", "cp1.quadrature_nodes", None),
    ("cp1", "cohomology_coefficients", "cp1.cohomology_coefficients", None),
    ("penrose", "penrose_transform", "penrose.penrose_transform", None),
    ("penrose", "tau_push_01", "penrose.tau_push_01", None),
    ("penrose", "tau_push_02", "penrose.tau_push_02", None),
    ("penrose", "penrose_transform_complex", "penrose.penrose_transform_complex", None),
    ("penrose", "diagram_check", "penrose.diagram_check", None),
]

_REFINE_OWNERS = ("twistor.hull_contains_via_lines", "hull.hull_contains")


def _lead(arr, trailing):
    """Number of points in an array whose last ``trailing`` axes are one point."""
    shape = np.shape(arr)
    return int(np.prod(shape[:len(shape) - trailing])) if len(shape) >= trailing else 1


class Tracer:
    """Spans and aggregates of one traced pass; `enabled` gates recording."""

    def __init__(self, keep=300000):
        self.enabled = False
        self.op_id = -1
        self.op_scale = 1.0      # max(1, |sigma|) of the op, for the verdict threshold
        self.keep = keep
        self.spans = []          # [name, start, end, parent, op id]
        self.dropped = 0
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []         # [name, start, child time, span index]
        self._refine = None      # name of the open refine span, if any

    def begin(self, name):
        parent = self._stack[-1][3] if self._stack else -1
        if len(self.spans) < self.keep:
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, self.op_id])
        else:
            idx = -1
            self.dropped += 1
        frame = [name, time.perf_counter(), 0.0, idx]
        self._stack.append(frame)
        self.calls[name] += 1
        return frame

    def end(self, frame):
        t = time.perf_counter()
        self._stack.pop()
        dur = t - frame[1]
        self.self_s[frame[0]] += dur - frame[2]
        if self._stack:
            self._stack[-1][2] += dur
        if frame[3] >= 0:
            rec = self.spans[frame[3]]
            rec[1] = frame[1]
            rec[2] = t

    def add_span(self, name, start, end, parent=-1):
        """Record a span measured elsewhere (e.g. in a child process)."""
        if len(self.spans) >= self.keep:
            self.dropped += 1
            return -1
        self.spans.append([name, start, end, parent, self.op_id])
        return len(self.spans) - 1

    def owner(self):
        """Name of the innermost open hull query span (decides whose refine it is)."""
        for frame in reversed(self._stack):
            if frame[0] in _REFINE_OWNERS:
                return frame[0]
        return None

    def raw(self):
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counts": dict(self.counts)}

    def write_spans(self, path):
        with open(path, "w") as f:
            f.write("index\top_id\tname\tstart\tend\tparent\n")
            t0 = self.spans[0][1] if self.spans else 0.0
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                f.write("%d\t%d\t%s\t%.9f\t%.9f\t%d\n"
                        % (i, op, name, start - t0, end - t0, parent))


def merge_raw(total, raw):
    """Add one raw aggregate dict (as from ``Tracer.raw``) into another."""
    for key in ("calls", "self_s", "counts"):
        dst = total.setdefault(key, {})
        for k, v in raw.get(key, {}).items():
            dst[k] = dst.get(k, 0) + v
    return total


def layer_metrics(raw, extra=None):
    """Every PER_LAYER metric from raw aggregates; absent ones read 0."""
    calls = raw.get("calls", {})
    self_s = raw.get("self_s", {})
    counts = raw.get("counts", {})
    extra = extra or {}
    out = {}
    for name, unit, _ in PER_LAYER:
        span, _, field = name.rpartition(".")
        if name in extra:
            value = extra[name]
        elif field == "calls" and name not in counts:
            value = calls.get(span, 0)
        elif field == "self_s":
            value = self_s.get(span, 0.0)
        elif field == "flip_frac":
            refines = calls.get(span, 0)
            value = counts.get(span + ".flips", 0) / refines if refines else 0.0
        else:
            value = counts.get(name, 0)
        out[name] = {"value": value, "unit": unit}
    return out


# ---------------------------------------------------------------------------
# installation
# ---------------------------------------------------------------------------

def _fueter_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "fueter" or name.startswith("fueter."))]


def _rebind(modules, old, new):
    for m in modules:
        for key, value in list(vars(m).items()):
            if value is old:
                setattr(m, key, new)


def _span_wrapper(tr, name, fn, points=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tr.enabled:
            return fn(*args, **kwargs)
        if points is not None:
            tr.counts[name + ".points"] += points(args, kwargs)
        frame = tr.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tr.end(frame)
    return traced


def _ext_distance_wrapper(tr, fn):
    @functools.wraps(fn)
    def traced(self, p, *args, **kwargs):
        if not tr.enabled:
            return fn(self, p, *args, **kwargs)
        tr.counts["domains.ext_distance.points"] += _lead(p, 1)
        if tr._refine is not None:
            tr.counts[tr._refine + ".evals"] += 1
        frame = tr.begin("domains.ext_distance")
        try:
            return fn(self, p, *args, **kwargs)
        finally:
            tr.end(frame)
    return traced


def _refine_wrapper(tr, fn):
    @functools.wraps(fn)
    def traced(self, g_of_u, u0, *args, **kwargs):
        if not tr.enabled:
            return fn(self, g_of_u, u0, *args, **kwargs)
        # the value the grid minimum gave, evaluated untraced, to tell
        # whether refinement moved the query across the verdict threshold
        tr.enabled = False
        try:
            g0 = float(g_of_u(np.asarray(u0, dtype=float)))
        finally:
            tr.enabled = True
        name = "twistor.refine" if tr.owner() == "twistor.hull_contains_via_lines" \
            else "hull.refine"
        frame = tr.begin(name)
        tr._refine = name
        try:
            out = fn(self, g_of_u, u0, *args, **kwargs)
        finally:
            tr._refine = None
            tr.end(frame)
        thr = 1e-12 * tr.op_scale
        if g0 > thr and float(out[0]) <= thr:
            tr.counts[name + ".flips"] += 1
        return out
    return traced


def _counting_init(tr, init, counter=None, wrap_attrs=(), points_trailing=1,
                   span=None):
    """Wrap __init__: count constructions and/or wrap callable attributes."""
    @functools.wraps(init)
    def traced_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if counter is not None and tr.enabled:
            tr.counts[counter] += 1
        for attr in wrap_attrs:
            fn = getattr(self, attr, None)
            if fn is not None:
                setattr(self, attr, _attr_wrapper(tr, fn, span, points_trailing))
    return traced_init


def _attr_wrapper(tr, fn, span, trailing):
    if span is None:  # count only: fibre-profile evaluations
        def counted(*args, **kwargs):
            if tr.enabled:
                tr.counts["penrose.wz.calls"] += 1
            return fn(*args, **kwargs)
        return counted

    def traced(v, *args, **kwargs):
        if not tr.enabled:
            return fn(v, *args, **kwargs)
        tr.counts[span + ".points"] += _lead(v, trailing)
        frame = tr.begin(span)
        try:
            return fn(v, *args, **kwargs)
        finally:
            tr.end(frame)
    return traced


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


def install(tr):
    """Wrap the traced functions of every imported fueter module, once per process."""
    import fueter
    if getattr(fueter, "_perfbench_traced", False):
        raise RuntimeError("tracer already installed in this process")
    modules = _fueter_modules()
    by_name = {m.__name__: m for m in modules}
    for mod, attr, span, points in _FUNCTIONS:
        m = by_name.get("fueter." + mod)
        fn = getattr(m, attr, None) if m is not None else None
        if callable(fn):
            _rebind(modules, fn, _span_wrapper(tr, span, fn, points))

    domains = by_name.get("fueter.domains")
    if domains is not None and hasattr(domains, "DomainSpec"):
        for cls in _subclasses(domains.DomainSpec):
            own = vars(cls)
            if "ext_distance" in own:
                cls.ext_distance = _ext_distance_wrapper(tr, own["ext_distance"])
            if "nearest_boundary" in own:
                cls.nearest_boundary = _span_wrapper(
                    tr, "domains.nearest_boundary", own["nearest_boundary"])

    hull = by_name.get("fueter.hull")
    sampler = getattr(hull, "ImUnitSphereSampler", None)
    if sampler is not None:
        sampler.__init__ = _counting_init(tr, sampler.__init__, "hull.sampler.builds")
        if hasattr(sampler, "refine"):
            sampler.refine = _refine_wrapper(tr, sampler.refine)

    penrose = by_name.get("fueter.penrose")
    form = getattr(penrose, "TwistorFormL", None)
    if form is not None:
        form.__init__ = _counting_init(tr, form.__init__,
                                       wrap_attrs=("wz", "wz_matrix"))

    fields = by_name.get("fueter.fields")
    for cls_name, trailing in (("ScalarField", 1), ("ComplexField", 2)):
        cls = getattr(fields, cls_name, None)
        if cls is not None:
            cls.__init__ = _counting_init(tr, cls.__init__,
                                          wrap_attrs=("pair0", "pair1"),
                                          points_trailing=trailing,
                                          span="fields.pair")
    fueter._perfbench_traced = True
