"""Seeded inputs for the three workloads, generated with numpy alone.

Nothing here imports ``fueter``: a seed gives byte-identical inputs on every
commit, whatever the library decides about them.  Points that must lie in a
hull are placed there by construction (triangle inequality), never picked by
asking the library.

Inputs come in cycles.  ``cycle_ops(workload, seed, c)`` is a list of ops,
each a tuple ``(kind, *payload)``; cycle ``WARMUP`` holds one op of each kind
for the untimed warm-up of the in-process workloads.  Every cycle draws from its own generator, keyed by
(workload, seed, cycle), so the ops of cycle c do not depend on how many
cycles a run happened to reach.
"""

import numpy as np

WARMUP = -1

# the pinned seed of the acceptance criteria (fueter.acceptance.run_all); the
# FD certification ops run on the samples criteria 1 and 2 draw from it, the
# only samples on which those criteria state their 1e-6 tolerance
ACCEPTANCE_SEED = 7

_KEYS = {"hull": 1, "transform": 2, "cli": 3}

# membership domains: label -> (n, x scale, y scale); the four built-ins use
# the scales of acceptance criterion 3
HULL_MEMBERSHIP = {
    "ball1": (1, 0.35, 0.18),
    "ball2": (2, 0.25, 0.12),
    "hstar1": (1, 0.5, 0.5),
    "hstar2": (2, 0.4, 0.4),
    "int1": (1, 0.35, 0.18),
    "user1": (1, 0.6, 0.4),
}
HULL_DISTANCE = ("ball1", "ball1_slice", "ball2", "int1", "user1", "hstar1")
HULL_ROUNDS = 10          # membership ops per domain per cycle
INT_OFFSET = 0.3          # int1 = unit ball cut by the half-space x0 < 0.3
USER_RADIUS = 0.3         # user1 = exterior of the closed ball of this radius

TRANSFORM_PENROSE = (("E", 1), ("linear_monogenic", 1), ("constant", 1),
                     ("linear_monogenic", 2), ("constant", 2))
TRANSFORM_DIAGRAM = ("nonmonogenic_quadratic", "nonmonogenic_linear",
                     "nonmonogenic_absquare")

CLI_KINDS = ("hull_contains", "hull_distance", "hull_witness",
             "twistor_hull_lines", "penrose_complex", "penrose_roundtrip",
             "cp1_harmonic", "cp1_coeffs_exact", "cf_check")


def rng_for(workload, seed, cycle):
    return np.random.default_rng([_KEYS[workload], int(seed), int(cycle) + 1])


def _unit(rng, dim):
    d = rng.normal(size=dim)
    return d / np.linalg.norm(d)


def shell_points(rng, count, rmin, rmax, dim):
    """Volume-uniform points of the shell rmin < |p| < rmax in R^dim."""
    d = rng.normal(size=(count, dim))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    u = rng.uniform(size=(count, 1))
    return (rmin ** dim + u * (rmax ** dim - rmin ** dim)) ** (1.0 / dim) * d


def gl2_sample(rng, count, det_min):
    """Complex-normal 2x2 matrices conditioned on |det| > det_min."""
    out = np.empty((count, 2, 2), dtype=complex)
    filled = 0
    while filled < count:
        cand = rng.normal(size=(count, 2, 2)) + 1j * rng.normal(size=(count, 2, 2))
        keep = cand[np.abs(np.linalg.det(cand)) > det_min]
        take = min(len(keep), count - filled)
        out[filled:filled + take] = keep[:take]
        filled += take
    return out


def biquat_det(x, y):
    """det of the n = 1 biquaternion point (x, y): |x|^2 - |y|^2 + 2i x.y."""
    return complex(x @ x - y @ y, 2.0 * (x @ y))


# ---------------------------------------------------------------------------
# hull
# ---------------------------------------------------------------------------

def in_hull_point(rng, label):
    """(x, y) in the hull of the distance-op domain ``label`` by construction.

    Every point keeps a clearance of at least 0.05 between the swept line
    {x + y q} and the complement, from |x + y q - c| between |x - c| - |y|
    and |x - c| + |y|, and |<n, y q>| <= |y|.
    """
    n = 2 if label == "ball2" else 1
    dim = 4 * n
    if label == "ball1_slice":
        return _unit(rng, dim) * rng.uniform(0.0, 0.9), np.zeros(dim)
    ry = rng.uniform(0.02, 0.3)
    y = _unit(rng, dim) * ry
    if label in ("ball1", "ball2"):
        return _unit(rng, dim) * rng.uniform(0.0, 0.55), y
    if label == "int1":
        y *= 0.25 / 0.3
        x = _unit(rng, dim) * rng.uniform(0.0, 0.55)
        if x[0] + np.linalg.norm(y) > INT_OFFSET - 0.05:
            x[0] = -abs(x[0])
        return x, y
    if label == "user1":
        return _unit(rng, dim) * (USER_RADIUS + ry + rng.uniform(0.05, 0.6)), y
    if label == "hstar1":
        return _unit(rng, dim) * (ry + rng.uniform(0.05, 0.6)), y
    raise ValueError("unknown distance domain %r" % label)


def _hull_cycle(rng, warmup):
    """HULL_ROUNDS membership ops per domain, then one distance op.

    The distance op holds one in-hull sigma for each distance domain, so
    there are ten membership queries per distance query, and the distance
    ops, the slowest of the mix, form one group of alike ~0.1 s ops that
    sets the tail.
    """
    ops = []
    for _ in range(1 if warmup else HULL_ROUNDS):
        for label, (n, sx, sy) in HULL_MEMBERSHIP.items():
            ops.append(("member", label, rng.normal(scale=sx, size=4 * n),
                        rng.normal(scale=sy, size=4 * n)))
    ops.append(("distance", tuple((label,) + in_hull_point(rng, label)
                                  for label in HULL_DISTANCE)))
    return ops


# ---------------------------------------------------------------------------
# transform
# ---------------------------------------------------------------------------

def criterion_1_points():
    """The 1000 shell points of acceptance criterion 1 (0.2 < |q| < 5)."""
    return shell_points(np.random.default_rng(ACCEPTANCE_SEED + 1), 1000, 0.2, 5.0, 4)


def criterion_2_matrices():
    """The 1000 matrices of acceptance criterion 2 (|det| > 0.1)."""
    return gl2_sample(np.random.default_rng(ACCEPTANCE_SEED + 2), 1000, 0.1)


def fresh_fd_samples(seed):
    """Seeded draws from the distributions of criteria 1 and 2.

    Not ops: the transform workload reports its residuals on them, ungated,
    because the library misses the 1e-6 tolerance on some fresh draws
    (NOTES.md, finding 6).
    """
    rng = np.random.default_rng([_KEYS["transform"], int(seed), 0, 1])  # no cycle's key
    return shell_points(rng, 1000, 0.2, 5.0, 4), gl2_sample(rng, 1000, 0.1)


def _transform_cycle(rng):
    ops = []
    for name, n in TRANSFORM_PENROSE:
        ops.append(("penrose", name, n, shell_points(rng, 20, 0.6, 2.5, 4 * n)))
    for name in TRANSFORM_DIAGRAM:
        ops.append(("diagram", name, rng.normal(size=(10, 4))))
    ops.append(("complex", gl2_sample(rng, 1, 0.3)[0]))
    a = rng.normal(size=2) + 1j * rng.normal(size=2)
    ops.append(("harmonic", complex(a[0]), complex(a[1])))
    ops.append(("exact", int(rng.integers(0, 3)), int(rng.integers(0, 3)),
                float(rng.uniform(0.3, 0.6)), float(rng.uniform(1.8, 3.0))))
    ops.append(("monogenic", criterion_1_points()))
    ops.append(("dC", criterion_2_matrices()))
    return ops


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

def _num(v):
    return repr(float(v))


def _sigma_json(x, y):
    return '{"x": [%s], "y": [%s]}' % (", ".join(map(_num, x)),
                                       ", ".join(map(_num, y)))


def _complex_str(c):
    im = float(c.imag)
    return "%s%s%sj" % (_num(c.real), "-" if im < 0 else "+", _num(abs(im)))


def _cli_argv(rng, kind):
    sub = int(rng.integers(0, 2 ** 31))
    if kind == "hull_contains":
        return ["hull", "contains", "--domain", "ball:r=1", "--sigma",
                _sigma_json(rng.normal(scale=0.35, size=4),
                            rng.normal(scale=0.18, size=4))]
    if kind in ("hull_distance", "hull_witness"):
        return ["hull", kind.split("_")[1], "--domain", "ball:r=1",
                "--sigma", _sigma_json(*in_hull_point(rng, "ball1"))]
    if kind == "twistor_hull_lines":
        return ["twistor", "hull-lines", "--domain", "H*", "--sigma",
                _sigma_json(rng.normal(scale=0.5, size=4),
                            rng.normal(scale=0.5, size=4))]
    if kind == "penrose_complex":
        S = gl2_sample(rng, 1, 0.3)[0]
        mat = "[%s]" % ", ".join(
            "[%s]" % ", ".join("[%s, %s]" % (_num(v.real), _num(v.imag)) for v in row)
            for row in S)
        return ["penrose", "complex", "--field", "E", "--sigma", mat]
    if kind == "penrose_roundtrip":
        field = ("constant", "linear_monogenic", "E")[int(rng.integers(0, 3))]
        return ["penrose", "roundtrip", "--field", field, "--points", "10",
                "--seed", str(sub)]
    if kind == "cp1_harmonic":
        a = rng.normal(size=2) + 1j * rng.normal(size=2)
        return ["cp1", "harmonic", "--a0=" + _complex_str(a[0]),
                "--a1=" + _complex_str(a[1])]
    if kind == "cp1_coeffs_exact":
        return ["cp1", "coeffs", "--form",
                "exact:p=%d:q=%d:rin=%s:rout=%s" % (
                    int(rng.integers(0, 3)), int(rng.integers(0, 3)),
                    _num(rng.uniform(0.3, 0.6)), _num(rng.uniform(1.8, 3.0)))]
    if kind == "cf_check":
        # the command's own pinned seed, for the reason given at ACCEPTANCE_SEED:
        # some fresh seeds miss its default 1e-5 (NOTES.md, finding 6)
        return ["cf", "check", "--field", "E", "--seed", str(ACCEPTANCE_SEED)]
    raise ValueError("unknown cli kind %r" % kind)


def _cli_cycle(rng, cycle):
    """One call of each kind, then a repeat of one of them (rotating)."""
    ops = [("cli", kind, _cli_argv(rng, kind)) for kind in CLI_KINDS]
    kind, argv = ops[cycle % len(ops)][1:]
    return ops + [("cli_repeat", kind, argv)]


def cycle_ops(workload, seed, cycle):
    rng = rng_for(workload, seed, cycle)
    if workload == "hull":
        return _hull_cycle(rng, cycle == WARMUP)
    if workload == "transform":
        return _transform_cycle(rng)
    if workload == "cli":
        return _cli_cycle(rng, cycle)
    raise ValueError("unknown workload %r" % workload)


def update_digest(h, obj):
    """Feed an op's inputs into a hashlib object, independent of Python's repr."""
    if isinstance(obj, np.ndarray):
        h.update(str(obj.dtype).encode())
        h.update(repr(obj.shape).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (tuple, list)):
        h.update(b"[")
        for v in obj:
            update_digest(h, v)
        h.update(b"]")
    else:
        h.update(repr(obj).encode())
        h.update(b";")
