"""Domain algebra and the swept-line membership test for the hull."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fueter import domains, hull, quat, twistor


def _pt(x, y):
    return quat.BiquaternionPoint(np.asarray(x, float), np.asarray(y, float))


def test_parse_domain_shorthands():
    star = domains.parse_domain("H*")
    assert isinstance(star, domains.PointComplement)
    assert star.n == 1 and star.dim == 4
    star2 = domains.parse_domain("H*:n=2")
    assert star2.n == 2 and star2.dim == 8
    ball = domains.parse_domain("ball:r=2.5")
    assert isinstance(ball, domains.Ball)
    assert ball.contains(np.array([2.4, 0, 0, 0]))
    assert not ball.contains(np.array([2.6, 0, 0, 0]))
    with pytest.raises(ValueError):
        domains.parse_domain("torus:r=1")


def test_parse_domain_json_roundtrip():
    spec = {"type": "intersection", "n": 1, "parts": [
        {"type": "ball", "radius": 1.0, "center": [0, 0, 0, 0]},
        {"type": "halfspace", "normal": [1, 0, 0, 0], "offset": 0.2},
    ]}
    dom = domains.parse_domain(spec)
    assert dom.contains(np.array([0.1, 0.0, 0.0, 0.0]))
    assert not dom.contains(np.array([0.5, 0.0, 0.0, 0.0]))
    again = domains.parse_domain(dom.to_json())
    assert again.to_json() == dom.to_json()


@pytest.mark.parametrize("dom,text", [
    (domains.Ball(1, 1.5, [0.5, 0, 0, -0.25]),
     "Ball(n=1, radius=1.5, center=[0.5, 0.0, 0.0, -0.25])"),
    (domains.PointComplement(2, point=[1, 0, 0, 0, 0, 0, 0, 2]),
     "PointComplement(n=2, point=[1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 2.0])"),
    (domains.HalfSpace(1, [3, 4, 0, 0], 10),
     "HalfSpace(n=1, normal=[0.6, 0.8, 0.0, 0.0], offset=2.0)"),
    (domains.Intersection([domains.Ball(2), domains.WholeSpace(2)]),
     "Intersection(n=2, parts=[{'type': 'ball', 'n': 2, 'radius': 1.0, "
     "'center': [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]}, "
     "{'type': 'whole_space', 'n': 2}])"),
    (domains.WholeSpace(2), "WholeSpace(n=2)"),
    (domains.EmptySet(1), "EmptySet(n=1)"),
    (domains.parse_domain("H*"),
     "PointComplement(n=1, point=[0.0, 0.0, 0.0, 0.0])"),
    (domains.parse_domain("ball:r=2:n=1"),
     "Ball(n=1, radius=2.0, center=[0.0, 0.0, 0.0, 0.0])"),
])
def test_every_built_in_kind_round_trips_through_json(dom, text):
    # type, n, then the declared keys; the JSON text parses back to the same
    blob = dom.to_json()
    assert list(blob)[:2] == ["type", "n"]
    assert list(blob)[2:] == list(type(dom).json_keys)
    again = domains.parse_domain(json.dumps(blob))
    assert type(again) is type(dom)
    assert again.to_json() == blob
    assert repr(dom) == repr(again) == text


def test_kinds_without_a_declaration_have_no_json_form():
    class Outside(domains.DomainSpec):
        def ext_distance(self, p):
            return np.ones(np.shape(p)[:-1])

    with pytest.raises(NotImplementedError):
        Outside(2).to_json()
    assert repr(Outside(2)) == "Outside(n=2)"
    # a subclass of a built-in inherits its declaration
    assert _LatticeBall(1, 1.0).to_json() == domains.Ball(1, 1.0).to_json()


@pytest.mark.parametrize("spec,message", [
    ({"type": "ball", "radius": 1, "centre": [0.9, 0, 0, 0]},
     "unknown ball domain key 'centre'; known: n, radius, center"),
    ({"type": "point_complement", "pont": [1, 0, 0, 0]},
     "unknown point_complement domain key 'pont'; known: n, point"),
    ({"type": "whole_space", "radius": 1}, "unknown whole_space domain key"),
    ({"type": "ball", "n": 1.7}, "n must be an integer, got 1.7"),
    ({"type": "ball", "n": True}, "n must be an integer, got True"),
    ({"type": "empty", "n": "2"}, "n must be an integer, got '2'"),
    ({"type": "intersection", "n": 2, "parts": [{"type": "ball", "n": 1}]},
     "all parts must share the intersection's n = 2"),
    ({"type": "ball", "center": [[0.5, 0], [0, 0]]},
     "center must have shape (4,), got shape (2, 2)"),
    ({"type": "point_complement", "point": [0, 0, 0, 0, 0]},
     "point must have shape (4,), got shape (5,)"),
    ({"type": "halfspace", "normal": [[1, 0], [0, 0]]},
     "normal must have shape (4,), got shape (2, 2)"),
    ({"type": "ball", "radius": [1.0]}, "radius must have shape (), got"),
    # squares that overflow, as a BiquaternionPoint's may not
    ({"type": "ball", "radius": 2e160, "center": [1e160, 0, 0, 0]},
     "center's squared norm overflows at [1e+160, 0.0, 0.0, 0.0]"),
    ({"type": "point_complement", "point": [0, 1e155, 0, 1e155]},
     "point's squared norm overflows at [0.0, 1e+155, 0.0, 1e+155]"),
    ({"type": "ball", "radius": {"r": 1}}, "radius must be numeric"),
    ({"type": "halfspace"}, "a half-space needs a normal"),
    ({"type": "intersection"}, "intersection of zero domains"),
    ({"type": "intersection", "parts": 5},
     "parts must be a list of domains, got 5"),
    ({"type": "intersection", "parts": "ball"},
     "parts must be a list of domains, got 'ball'"),
    ({"type": "torus"}, "unknown domain type 'torus'"),
    ({"type": ["ball"]}, "unknown domain type ['ball']"),
    ({"radius": 1.0}, "unknown domain type None"),
])
def test_parse_domain_refuses_what_it_would_not_read(spec, message):
    for form in (spec, json.dumps(spec)):
        with pytest.raises(ValueError) as exc:
            domains.parse_domain(form)
        assert message in str(exc.value)


@pytest.mark.parametrize("text,message", [
    ("ball:r=1:x=3", "unknown ball domain key 'x'; known: n, radius, center"),
    # the key is checked before its value is read
    ("ball:r=1:x=abc", "unknown ball domain key 'x'; known: n, radius, center"),
    ("H*:r=2", "unknown point_complement domain key 'r'; known: n, point"),
    ("ball:r", "bad domain shorthand option 'r'"),
    ("ball:n=1.5", "invalid literal for int()"),
    ("torus:r=1", "unknown domain shorthand 'torus:r=1'"),
])
def test_shorthand_refusals(text, message):
    with pytest.raises(ValueError) as exc:
        domains.parse_domain(text)
    assert message in str(exc.value)


def test_shorthand_is_its_json_spec():
    for text, spec in (("H*:n=2", {"type": "point_complement", "n": 2}),
                       (" ball:r=2.5 ", {"type": "ball", "radius": 2.5}),
                       ("ball:n=2:r=3",
                        {"type": "ball", "n": 2, "radius": 3})):
        assert (domains.parse_domain(text).to_json()
                == domains.parse_domain(spec).to_json())


def test_half_space_normals_whose_square_over_or_underflows():
    # |normal|^2 overflows (1e200) or underflows (1e-200): the normal is
    # divided by its largest entry first, so it is the unit normal of the
    # rescaled one
    big = domains.HalfSpace(1, [1e200, 1e200, 0, 0], 0.0)
    unit = domains.HalfSpace(1, [1, 1, 0, 0]).normal
    assert big.normal.tolist() == unit.tolist()
    assert big.offset == 0.0
    assert big.contains(np.array([-5.0, 0, 0, 0]))
    tiny = domains.HalfSpace(1, [1e-200, 0, 0, 0], 3e-200)
    assert tiny.normal.tolist() == [1.0, 0.0, 0.0, 0.0]
    assert tiny.offset == 3.0
    sigma = _pt([-5, 0, 0, 0], [0, 0, 0, 0])
    assert hull.hull_contains(sigma, big).verdict is True
    # an ordinary normal keeps the plain norm's bits
    plain = np.array([0.3, -0.1, 0.7, 0.2])
    half = domains.HalfSpace(1, plain, 0.37)
    assert half.normal.tolist() == (plain / np.linalg.norm(plain)).tolist()
    assert half.offset == 0.37 / float(np.linalg.norm(plain))
    with pytest.raises(ValueError, match="normal must be nonzero"):
        domains.HalfSpace(1, [0.0, 0, 0, 0])
    with pytest.raises(ValueError, match=r"offset / \|normal\| must be"):
        domains.HalfSpace(1, [1e-200, 0, 0, 0], 1e300)


def test_ball_exit_distance_and_boundary():
    ball = domains.parse_domain("ball:r=2")
    # ext_distance measures clearance to the exterior: r - |p| inside, 0 out
    assert abs(ball.ext_distance(np.array([1.0, 0, 0, 0])) - 1.0) < 1e-14
    assert ball.ext_distance(np.array([3.0, 0, 0, 0])) == 0.0
    nb = ball.nearest_boundary(np.array([1.0, 0, 0, 0]))
    np.testing.assert_allclose(nb, [2.0, 0, 0, 0], atol=1e-14)
    assert abs(np.linalg.norm(nb) - 2.0) < 1e-14


def test_point_complement_semantics():
    star = domains.parse_domain("H*")
    assert not star.contains(np.zeros(4))
    p = np.array([0.3, -0.1, 0.0, 0.5])
    assert star.contains(p)
    assert abs(star.ext_distance(p) - np.linalg.norm(p)) < 1e-14
    np.testing.assert_allclose(star.nearest_boundary(p), np.zeros(4))


def test_whole_and_empty_spaces():
    assert domains.WholeSpace(1).contains(np.ones(4))
    assert domains.WholeSpace(1).ext_distance(np.ones(4)) == np.inf
    assert not domains.EmptySet(1).contains(np.zeros(4))
    assert domains.EmptySet(1).ext_distance(np.zeros(4)) == 0.0


class _LatticeBall(domains.Ball):
    """Ball's oracles without the closed forms: forces the sampled path."""

    line_form = None


def _sampled(sigma, U, level, polish=False):
    """The sampled query of hull_contains (or, polished, of hull_distance and
    hull_witness) on the icosphere of the given level; U has no line form.
    A context of its own, so Hypothesis tests may call it too."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hull, "_LEVEL", level)
        return hull._sweep(sigma, U, U.sweep_inf, polish)


def test_real_slice_membership_is_exact():
    # with y = 0 the swept set is the single point x, so the query reduces
    # to plain domain membership with an empty uncertainty band
    ball = domains.parse_domain("ball:r=1")
    inside = hull.hull_contains(_pt([0.5, 0.2, 0, 0], np.zeros(4)), ball)
    assert inside.verdict is True
    assert inside.band == 0.0 and inside.indeterminate is False
    outside = hull.hull_contains(_pt([1.5, 0, 0, 0], np.zeros(4)), ball)
    assert outside.verdict is False


def test_hull_shrinks_with_the_imaginary_part():
    ball = domains.parse_domain("ball:r=1")
    x = np.array([0.3, 0.1, -0.2, 0.0])
    y = np.array([0.2, 0.0, 0.1, 0.1])
    full = hull.hull_contains(_pt(x, y), ball)
    assert full.verdict is True and not full.indeterminate
    for s in (0.75, 0.5, 0.25):
        shrunk = hull.hull_contains(_pt(x, s * y), ball)
        assert shrunk.verdict is True and not shrunk.indeterminate


def test_hull_of_intersection_is_intersection_of_hulls():
    a = domains.parse_domain("ball:r=1")
    b = domains.parse_domain({"type": "ball", "radius": 1.0,
                              "center": [0.5, 0, 0, 0]})
    both = domains.Intersection([a, b])
    rng = np.random.default_rng(20)
    agree = 0
    for _ in range(40):
        sigma = _pt(0.2 * rng.normal(size=4), 0.08 * rng.normal(size=4))
        qa = hull.hull_contains(sigma, a)
        qb = hull.hull_contains(sigma, b)
        qi = hull.hull_contains(sigma, both)
        if qa.indeterminate or qb.indeterminate or qi.indeterminate:
            continue
        assert qi.verdict == (qa.verdict and qb.verdict)
        agree += 1
    assert agree >= 30


def test_punctured_space_hull_is_the_nonsingular_locus():
    star = domains.parse_domain("H*")
    singular = _pt([1.0, 0, 0, 0], [0.0, 1.0, 0, 0])  # det = 1 - 1 + 0i
    assert abs(quat.det_biquat(singular.matrix)) < 1e-14
    assert hull.hull_contains(singular, star).verdict is False
    regular = _pt([1.0, 0, 0, 0], [0.0, 0.3, 0, 0])
    assert hull.hull_contains(regular, star).verdict is True


def test_distance_law_on_the_real_slice_of_a_ball():
    for r in (1.0, 2.5):
        ball = domains.parse_domain("ball:r=%g" % r)
        for c in (0.0, 0.4, 0.9 * r):
            sigma = _pt([c, 0, 0, 0], np.zeros(4))
            d = hull.hull_distance(sigma, ball)
            assert abs(d - (r - c) / np.sqrt(2.0)) < 1e-6


def test_witness_realizes_the_distance_and_sits_outside():
    ball = domains.parse_domain("ball:r=1")
    rng = np.random.default_rng(21)
    for _ in range(10):
        sigma = _pt(0.25 * rng.normal(size=4), 0.1 * rng.normal(size=4))
        if not hull.hull_contains(sigma, ball).verdict:
            continue
        d = hull.hull_distance(sigma, ball)
        witness, query = hull.hull_witness(sigma, ball)
        assert isinstance(query, hull.HullQuery)
        assert abs((sigma - witness).norm_C() - d) < 1e-3 * max(d, 1e-12)
        assert hull.hull_contains(witness, ball).verdict is False


def test_distance_and_witness_require_hull_membership():
    ball = domains.parse_domain("ball:r=1")
    outside = _pt([2.5, 0, 0, 0], [0.1, 0, 0, 0])
    with pytest.raises(hull.NotInHullError):
        hull.hull_distance(outside, ball)
    with pytest.raises(hull.NotInHullError):
        hull.hull_witness(outside, ball)


def test_a_domain_without_boundary_has_no_witness(monkeypatch):
    # every point is in the hull of H^n and its distance is infinite, but
    # there is no boundary point to build a witness from
    whole = domains.WholeSpace(1)
    sigma = _pt([1.0, 0, 0, 0], [0, 0.3, 0, 0])
    assert hull.hull_distance(sigma, whole) == np.inf

    def no_boundary(self, p):
        raise AssertionError("nearest_boundary called")

    monkeypatch.setattr(domains.WholeSpace, "nearest_boundary", no_boundary,
                        raising=False)
    with pytest.raises(ValueError, match="no boundary"):
        hull.hull_witness(sigma, whole)


def test_query_serialization():
    ball = domains.parse_domain("ball:r=1")
    query = hull.hull_contains(_pt([0.3, 0, 0, 0], [0.05, 0, 0, 0]), ball)
    blob = query.to_json()
    for key in ("sigma", "verdict", "inf_value", "argmin_q", "band",
                "indeterminate", "count"):
        assert key in blob
    assert blob["verdict"] is True
    assert blob["band"] >= 0.0


# a unit imaginary direction off the coordinate axes, which are nodes of
# every icosphere from level 1 on
_OFF_AXIS = np.array([0.0, 0.6, 0.0, 0.8])


def test_near_boundary_query_is_flagged_indeterminate():
    # the grid band only exists for domains without a closed-form sweep;
    # along y = s*u from x = 0.78 the exact sweep minimum is 0.22 - s, at
    # q = -u, which is no node
    ball = _LatticeBall(1, 1.0)
    sigma = _pt([0.78, 0, 0, 0], 0.2 * _OFF_AXIS)
    qs, chord = hull._icosphere(1)[:2]
    grid_min = ball.ext_distance(
        quat.right_line(sigma.x, sigma.y)(qs)).min()
    assert 0.02 < grid_min <= 2 * 0.2 * chord
    # a grid minimum in the band goes to the branch-and-bound, which
    # certifies this one inside with a band that holds the exact minimum
    coarse = _sampled(sigma, ball, 1)
    assert coarse.verdict is True and coarse.indeterminate is False
    assert coarse.inf_value - coarse.band <= 0.02 <= coarse.inf_value
    assert coarse.inf_value <= grid_min
    # a minimum far below the finest resolution the search may reach stays
    # flagged, still with a band that holds it
    near = _pt([0.78, 0, 0, 0], (0.22 - 5e-5) * _OFF_AXIS)
    exact, _ = domains.Ball(1, 1.0).sweep_inf(near.x, near.y)
    assert exact == pytest.approx(5e-5, rel=1e-9)
    query = _sampled(near, ball, 1)
    assert query.indeterminate is True
    assert query.inf_value - query.band <= exact <= query.inf_value
    # the built-in ball decides the same queries exactly
    for pt in (sigma, near):
        exact = hull.hull_contains(pt, domains.parse_domain("ball:r=1"))
        assert exact.band == 0.0 and exact.indeterminate is False
        assert exact.verdict is True


class _LatticePointComplement(domains.PointComplement):
    """PointComplement's oracles without the closed forms."""

    line_form = None


def test_an_indeterminate_membership_query_answers_false_on_both_paths():
    # sigma = (1, u) sweeps 1 + u q, which meets the puncture only at q = u:
    # off the axes, no node or midpoint hits it, so the search stops at its
    # cap 1.5e-11 from the exterior, inside its band.  Membership is claimed
    # only when certified; without closed forms the twistor lines are the
    # same query
    sigma = _pt([1.0, 0, 0, 0], _OFF_AXIS)
    U = _LatticePointComplement(1)
    query = hull.hull_contains(sigma, U)
    assert query.indeterminate is True
    assert query.verdict is False
    lines = twistor.hull_contains_via_lines(sigma, U, return_query=True)
    assert (lines.verdict, lines.inf_value, lines.band) == (
        query.verdict, query.inf_value, query.band)
    # distance and witness want a value, and still return one in the band
    near = _pt([0.78, 0, 0, 0], (0.22 - 5e-5) * _OFF_AXIS)
    ball = _LatticeBall(1, 1.0)
    member = hull.hull_contains(near, ball)
    assert member.indeterminate is True and member.verdict is False
    _, query = hull.hull_witness(near, ball)
    assert query.indeterminate is True and query.verdict is True
    assert hull.hull_distance(near, ball) == pytest.approx(
        5e-5 / np.sqrt(2.0), rel=1e-6)


def test_certain_outside_verdict_is_not_indeterminate():
    # the swept line leaves the ball, so lattice nodes land outside U and
    # the grid minimum is exactly 0: a certain False, not an undecided one;
    # the twistor line's farthest base point is outside U too
    sigma = _pt([0.9, 0, 0, 0], [0.0, 0.5, 0, 0])
    lattice = hull.hull_contains(sigma, _LatticeBall(1, 1.0))
    assert lattice.band > 0.0
    lines = twistor.hull_contains_via_lines(sigma, domains.Ball(1, 1.0),
                                            return_query=True)
    assert lines.band == 0.0
    for query in (lattice, lines):
        assert query.inf_value == 0.0
        assert query.verdict is False and query.indeterminate is False


# ---------------------------------------------------------------------------
# closed-form sweep minimum (DomainSpec.sweep_inf)
# ---------------------------------------------------------------------------

_DENSE, _DENSE_CHORD = hull._icosphere(5)[:2]


def _vec(n, lo=-1.0, hi=1.0):
    return hnp.arrays(np.float64, 4 * n, elements=st.floats(
        lo, hi, allow_nan=False, allow_subnormal=False))


@st.composite
def _simple_domain(draw, n):
    kind = draw(st.sampled_from(["ball", "point", "halfspace"]))
    if kind == "ball":
        return domains.Ball(n, draw(st.floats(0.2, 2.0)),
                            center=draw(_vec(n, -0.5, 0.5)))
    if kind == "point":
        return domains.PointComplement(n, point=draw(_vec(n, -0.5, 0.5)))
    normal = draw(_vec(n).filter(lambda v: np.linalg.norm(v) > 1e-3))
    return domains.HalfSpace(n, normal, draw(st.floats(-1.0, 1.0)))


@st.composite
def _closed_form_domain(draw, n):
    if draw(st.booleans()):
        return draw(_simple_domain(n))
    return domains.Intersection(draw(st.lists(_simple_domain(n), min_size=2,
                                              max_size=3)))


@st.composite
def _sweep_case(draw):
    n = draw(st.sampled_from([1, 2]))
    return draw(_closed_form_domain(n)), draw(_vec(n)), draw(_vec(n, -0.6, 0.6))


_PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)


@_PROPERTY
@given(_sweep_case())
def test_sweep_inf_is_the_minimum_over_the_imaginary_sphere(case):
    U, x, y = case
    inf_value, q = U.sweep_inf(x, y)
    assert q.shape == (4,) and q[0] == 0.0
    assert abs(np.linalg.norm(q) - 1.0) < 1e-12
    # ext_distance at the returned arg-min is the returned value
    at_q = U.ext_distance(quat.right_line(x, y)(q[None, :])[0])
    assert at_q == pytest.approx(float(inf_value), rel=0, abs=1e-15)
    # below every node of a dense grid, and within its Lipschitz band
    grid = U.ext_distance(quat.right_line(x, y)(_DENSE))
    assert inf_value <= grid.min() + 1e-12
    ynorm = np.linalg.norm(y)
    assert grid.min() - inf_value <= ynorm * _DENSE_CHORD + 1e-12


@_PROPERTY
@given(_sweep_case())
def test_sweep_inf_is_batched_over_leading_axes(case):
    U, x, y = case
    xs = np.stack([x, 0.5 * x, -y])
    ys = np.stack([y, 2.0 * y, x])
    vals, qs = U.sweep_inf(xs, ys)
    assert vals.shape == (3,) and qs.shape == (3, 4)
    for k in range(3):
        v, q = U.sweep_inf(xs[k], ys[k])
        assert abs(vals[k] - v) <= 1e-15
        np.testing.assert_allclose(qs[k], q, atol=1e-15)


@pytest.mark.parametrize("n", [1, 2])
def test_sweep_inf_without_a_preferred_direction(n):
    # v = 0: from the centre of a ball (or the removed point) every swept
    # point is at distance ||y||, so every unit q attains the minimum
    rng = np.random.default_rng(30 + n)
    c = 0.3 * rng.normal(size=4 * n)
    y = 0.2 * rng.normal(size=4 * n)
    ynorm = np.linalg.norm(y)
    for U, exact in ((domains.Ball(n, 1.0, center=c), 1.0 - ynorm),
                     (domains.PointComplement(n, point=c), ynorm)):
        val, q = U.sweep_inf(c, y)
        assert abs(val - exact) < 1e-15
        # the form's traceless part is rounding, so q is any unit imaginary
        # quaternion, and the one returned attains the value
        assert q[0] == 0.0 and abs(np.linalg.norm(q) - 1.0) <= 1e-15
        assert U.ext_distance(quat.right_line(c, y)(q)) == val
    # a half-space whose normal is a real multiple of y: <normal, y q> = 0
    hs = domains.HalfSpace(n, y, 0.5)
    val, _ = hs.sweep_inf(c, -3.0 * y)
    assert abs(val - hs.ext_distance(c)) < 1e-15



def test_sweep_inf_with_an_offset_whose_square_is_subnormal():
    # |x - point| or |x - centre| near 1e-160: v * v goes subnormal unless v
    # is scaled first; unscaled, the point complement read 0.20120 at
    # |q| = 1.006 and the ball 0.7999989
    x, y = np.zeros(4), np.full(4, 0.1)
    val, q = domains.PointComplement(1, point=[0, 0, 1e-160, 0]).sweep_inf(x, y)
    assert abs(val - 0.2) <= 1e-15
    assert abs(np.linalg.norm(q) - 1.0) <= 1e-15
    val, q = domains.Ball(1, 1.0, center=[0, 0, 1e-159, 0]).sweep_inf(x, y)
    assert abs(val - 0.8) <= 1e-15
    assert abs(np.linalg.norm(q) - 1.0) <= 1e-15


def _closed_form_queries():
    x1, y1 = [0.3, -0.2, 0.1, 0.4], [0.1, 0.2, -0.3, 0.1]
    x2 = [0.1, -0.2, 0.05, 0.3, 0.0, 0.15, -0.1, 0.2]
    y2 = [0.2, 0.1, -0.3, 0.05, 0.1, -0.05, 0.15, 0.0]
    out = {}
    for n, x, y in ((1, x1, y1), (2, x2, y2)):
        parts = {
            "ball": domains.Ball(n, 1.2, center=[0.1] * 4 * n),
            "point_complement": domains.PointComplement(
                n, point=[0.05, -0.1] * 2 * n),
            "halfspace": domains.HalfSpace(n, [0.3, -0.5, 0.2, 0.8] * n, 1.1),
            "intersection": domains.Intersection([
                domains.Ball(n, 1.3),
                domains.HalfSpace(n, [-0.3, -0.8, 0.1, 0.4] * n, 0.9)]),
        }
        for name, U in parts.items():
            out["%s_n%d" % (name, n)] = hull.hull_contains(_pt(x, y), U)
    # at the centre every q attains the value; the form's rounding picks one
    c = [0.1, 0.2, 0.0, -0.1]
    out["ball_centre"] = hull.hull_contains(
        _pt(c, [0.0, 0.3, 0.1, 0.0]), domains.Ball(1, 1.0, center=c))
    return out


# float.hex of (inf_value, argmin_q) of closed-form queries, recorded with
# q read off the domain's line form (domains._top_hopf)
_GOLDEN_CLOSED = {
    "ball_n1": ("0x1.603cc47418340p-2", (
        "0x0.0p+0", "0x1.c3a3bb803d613p-4", "0x1.a7697fc8398b5p-1",
        "0x1.1a465530265cep-1")),
    "point_complement_n1": ("0x1.9d43ca769edd9p-3", (
        "0x0.0p+0", "-0x1.c0013db350860p-2", "-0x1.c0013db350862p-1",
        "-0x1.a86cf715aa9a1p-3")),
    "halfspace_n1": ("0x1.712dba35c2260p-3", (
        "0x0.0p+0", "0x1.8bef24ad332ecp-2", "0x1.a6546b6369cb8p-1",
        "0x1.a6546b6369cb8p-2")),
    "intersection_n1": ("0x1.6ea7dd27c2bd6p-2", (
        "0x0.0p+0", "0x1.5fa820f246015p-2", "0x1.ff802fec08bc7p-3",
        "0x1.cf8c2b6de7ea8p-1")),
    "ball_n2": ("0x1.8c23d8326a756p-2", (
        "0x0.0p+0", "-0x1.f0905f43ebba5p-4", "0x1.a9a051a7ee9f9p-4",
        "0x1.f96e60f76b5d8p-1")),
    "point_complement_n2": ("0x1.92f12089139bep-2", (
        "0x0.0p+0", "-0x1.8e6efe73d0d20p-2", "-0x1.9c2c335d539c0p-3",
        "-0x1.cc426c8e9d5d0p-1")),
    "halfspace_n2": ("0x1.c6951986a0ce8p-3", (
        "0x0.0p+0", "-0x1.a82d629c0bc0ep-4", "0x1.0189450350476p-1",
        "0x1.b75393d879e34p-1")),
    "intersection_n2": ("0x1.2d52986312fd2p-2", (
        "0x0.0p+0", "-0x1.10e0926dff513p-1", "0x1.32fca4bbbf3b6p-3",
        "0x1.aa5ee4cbdeeedp-1")),
    "ball_centre": ("0x1.5e1764edbdb78p-1", (
        "0x0.0p+0", "-0x1.e3c191f941d2dp-1", "-0x1.4f677d1a0b811p-2",
        "0x0.0p+0")),
}


def test_closed_form_queries_are_pinned_bit_for_bit():
    queries = _closed_form_queries()
    assert sorted(queries) == sorted(_GOLDEN_CLOSED)
    for name, query in queries.items():
        inf_value, argmin_q = _GOLDEN_CLOSED[name]
        assert query.verdict is True and query.band == 0.0, name
        assert float(query.inf_value).hex() == inf_value, name
        assert _hex(query.argmin_q) == argmin_q, name


def test_constant_domains_have_constant_sweeps():
    x, y = np.ones(8), np.arange(8.0)
    assert domains.WholeSpace(2).sweep_inf(x, y)[0] == np.inf
    assert domains.EmptySet(2).sweep_inf(x, y)[0] == 0.0
    sigma = _pt(x, y)
    for U, verdict in ((domains.WholeSpace(2), True),
                       (domains.EmptySet(2), False)):
        assert hull.hull_contains(sigma, U).verdict is verdict
        lines = twistor.hull_contains_via_lines(sigma, U, return_query=True)
        assert lines.verdict is verdict and lines.band == 0.0
        assert lines.inf_value == U.sweep_inf(x, y)[0]


def test_exact_query_reports_no_band_and_no_lattice():
    ball = domains.parse_domain("ball:r=1")
    sigma = _pt([0.3, 0.1, 0, 0], [0.0, 0.2, 0.1, 0])
    query = hull.hull_contains(sigma, ball)
    assert query.verdict is True and query.indeterminate is False
    assert query.band == 0.0 and query.count == 0


def test_real_slice_stays_exact_membership_with_a_closed_form():
    # y = 0 is decided by U.contains(x), so a clearance below the verdict
    # threshold of the sweep still counts as inside
    ball = domains.parse_domain("ball:r=1")
    x = np.array([1.0 - 1e-13, 0, 0, 0])
    assert 0.0 < ball.ext_distance(x) < 1e-12
    query = hull.hull_contains(_pt(x, np.zeros(4)), ball)
    assert query.verdict is True
    assert query.band == 0.0 and query.indeterminate is False
    np.testing.assert_array_equal(query.argmin_q, [0.0, 1.0, 0.0, 0.0])


def test_intersection_with_a_lattice_part_falls_back_to_the_lattice():
    mixed = domains.Intersection([domains.Ball(1, 1.0), _LatticeBall(1, 0.9)])
    assert mixed.line_form is None
    exact = domains.Intersection([domains.Ball(1, 1.0), domains.Ball(1, 0.9)])
    assert exact.line_form is not None
    sigma = _pt([0.2, 0, 0.1, 0], [0.0, 0.1, 0, 0.05])
    lattice = hull.hull_contains(sigma, mixed)
    assert lattice.count == 162 and lattice.band > 0.0
    closed = hull.hull_contains(sigma, exact)
    assert closed.count == 0 and closed.band == 0.0
    assert lattice.verdict is closed.verdict is True
    assert closed.inf_value <= lattice.inf_value <= closed.inf_value + lattice.band


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from([1, 2]), st.data())
def test_punctured_space_witness_is_outside_the_hull(n, data):
    # the witness's swept line passes through the removed point; the exact
    # sweep must see a zero minimum there, not rounding noise above _TINY
    star = domains.PointComplement(n)
    sigma = _pt(data.draw(_vec(n)), data.draw(_vec(n, -0.6, 0.6)))
    assume(hull.hull_contains(sigma, star).verdict)
    d = hull.hull_distance(sigma, star)
    witness, _ = hull.hull_witness(sigma, star)
    assert abs((sigma - witness).norm_C() - d) <= 1e-9 * max(d, 1.0)
    assert hull.hull_contains(witness, star).verdict is False


# ---------------------------------------------------------------------------
# the twistor-line test by the fibre's 2x2 spectrum (DomainSpec.line_argmin)
# ---------------------------------------------------------------------------

# the line query's distance to the closed-form sweep minimum, in units of
# eps * max(1, ||sigma||_C): the charts' 32 eps and the eigenvector's own
# rounding
_SPECTRUM_EPS = 64


def _spectrum_tol(x, y):
    return _SPECTRUM_EPS * np.finfo(float).eps * max(1.0, _pt(x, y).norm_C())


@st.composite
def _line_case(draw):
    n = draw(st.sampled_from([1, 2, 3]))
    scale = 10.0 ** draw(st.floats(-1.0, 1.0))
    return (draw(_closed_form_domain(n)), scale * draw(_vec(n)),
            scale * draw(_vec(n, -0.6, 0.6)))


@_PROPERTY
@given(_line_case())
def test_line_query_is_the_closed_form_sweep_minimum(case):
    U, x, y = case
    query = twistor.hull_contains_via_lines(_pt(x, y), U, return_query=True)
    assert query.band == 0.0 and query.count == 0
    assert query.indeterminate is False
    exact, _ = U.sweep_inf(x, y)
    assert abs(query.inf_value - exact) <= _spectrum_tol(x, y)
    if not y.any():
        return  # the real slice: the membership of x, as for hull_contains
    # the candidates are unit fibre points, and the reported value is the
    # exterior distance of the base point over the least of them, whose
    # Hopf image is the reported arg-min
    S = quat.matrix_point(x, y)
    pi = U.line_argmin(S)
    assert pi.ndim == 2 and pi.shape[-1] == 2
    np.testing.assert_allclose(np.linalg.norm(pi, axis=-1), 1.0, atol=1e-15)
    vals = U.ext_distance(twistor.eta_inverse(twistor.line_embed(S, pi))[1])
    i = int(np.argmin(vals))
    assert float(vals[i]).hex() == float(query.inf_value).hex()
    assert (twistor.sweep_quaternions(pi[i]).tobytes()
            == query.argmin_q.tobytes())


@pytest.mark.parametrize("n", [1, 2, 3])
def test_line_query_edge_cases(n):
    rng = np.random.default_rng(40 + n)
    c = 0.3 * rng.normal(size=4 * n)
    y = 0.2 * rng.normal(size=4 * n)
    ball = domains.Ball(n, 1.0, center=c)
    star = domains.PointComplement(n, point=c)

    # y = 0: every base point of the line is x, and the query is the
    # membership of x, as for hull_contains
    x = c + 0.1 * rng.normal(size=4 * n)
    for U in (ball, star):
        pi = U.line_argmin(quat.matrix_point(x, np.zeros(4 * n)))
        base = twistor.eta_inverse(
            twistor.line_embed(quat.matrix_point(x, np.zeros(4 * n)), pi))[1]
        assert np.abs(base - x).max() <= _spectrum_tol(x, 0 * x)
        query = twistor.hull_contains_via_lines(_pt(x, np.zeros(4 * n)), U,
                                                return_query=True)
        assert query.inf_value == U.ext_distance(x)
        assert query.verdict is hull.hull_contains(_pt(x, 0 * x), U).verdict

    # x at the centre: A* A is ||y||^2 I up to rounding, so every fibre
    # point is an eigenvector, and every base point is ||y|| from c
    for U, exact in ((ball, 1.0 - np.linalg.norm(y)),
                     (star, np.linalg.norm(y))):
        query = twistor.hull_contains_via_lines(_pt(c, y), U,
                                                return_query=True)
        assert abs(query.inf_value - exact) <= _spectrum_tol(c, y)
        assert query.verdict is True and query.band == 0.0

    # a tiny nonzero y, whose squares underflow (its norm is still the true
    # one), is no real slice: it is swept, and the reported arg-min attains
    # the reported value on both paths of hull_contains (a sampled query
    # scans its grid); the line query reads it at the least candidate's
    # base point, within its rounding of x + y q
    tiny = 1e-303 * np.ones(4 * n)
    assert quat.qnorm(tiny) == pytest.approx(1e-303 * np.sqrt(4 * n),
                                             rel=1e-15, abs=0.0)
    sigma = _pt(x, tiny)
    S = quat.matrix_point(x, tiny)
    for U in (ball, star):
        sampled = hull.hull_contains(sigma, _Sampled(U))
        assert sampled.count == len(hull._icosphere(hull._LEVEL)[0])
        lines = twistor.hull_contains_via_lines(sigma, U, return_query=True)
        for query in (hull.hull_contains(sigma, U), sampled, lines):
            at_q = U.ext_distance(
                quat.right_line(x, tiny)(query.argmin_q[None, :])[0])
            tol = _spectrum_tol(x, tiny) if query is lines else 0.0
            assert abs(at_q - query.inf_value) <= tol
        pi = U.line_argmin(S)
        vals = U.ext_distance(twistor.eta_inverse(twistor.line_embed(S, pi))[1])
        i = int(np.argmin(vals))
        assert float(vals[i]).hex() == float(lines.inf_value).hex()
        assert (twistor.sweep_quaternions(pi[i]).tobytes()
                == lines.argmin_q.tobytes())

    # S - M(a) of rank one: the line meets the removed point a at
    # q0 = Hopf(pi0), pi0 spanning the kernel.  sigma is on the boundary
    # of the hull of H^n minus a, so outside the open hull
    u = rng.normal(size=3)
    q0 = np.concatenate([[0.0], u / np.linalg.norm(u)])
    a = rng.normal(size=4 * n)
    x = a - quat.right_line(np.zeros(4 * n), y)(q0)
    star = domains.PointComplement(n, point=a)
    singular = np.linalg.svd(quat.matrix_point(x, y) - quat.embed_M(a),
                             compute_uv=False)
    assert singular[-1] <= 1e-15 * singular[0]
    query = twistor.hull_contains_via_lines(_pt(x, y), star,
                                            return_query=True)
    assert query.verdict is False and query.indeterminate is False
    assert query.inf_value <= _spectrum_tol(x, y)
    assert hull.hull_contains(_pt(x, y), star).verdict is False


# float.hex of (inf_value, argmin_q) of fixed line queries (band 0), read
# at the base points eta_inverse(line_embed(S, pi)) of the fibre spectrum
_GOLDEN_LINES = {
    # 5e-5 inside the hull boundary of the unit ball
    "lines_near": ("0x1.a36e2eb1c4000p-15", (
        "0x0.0p+0", "-0x1.ffffffffffffep-1", "0x0.0p+0", "-0x0.0p+0")),
    "lines_halfspace": ("0x1.8dea99246925ep-3", (
        "0x0.0p+0", "-0x1.6b294954c815cp-1", "0x1.42cf5da0b1da8p-1",
        "0x1.42cf5da0b1da8p-2")),
}


def test_a_sampled_band_reads_the_true_norm_of_a_tiny_y(monkeypatch):
    # ||y|| ~ 2e-166: its squares underflow, yet qnorm(y), the band
    # 2 ||y|| c and the branch-and-bound's Lipschitz constant are the true
    # norm, and so are the ball's distances
    s = 1e-165
    x = s * np.array([0.3, 0.0, 0.0, 0.0])
    y = s * np.array([0.0, 0.2, 0.1, 0.0])
    ynorm = s * np.sqrt(0.05)
    assert quat.qnorm(y) == pytest.approx(ynorm, rel=1e-15, abs=0.0)
    nodes, chord = hull._icosphere(hull._LEVEL)[:2]
    query = hull.hull_contains(_pt(x, y), _LatticeBall(1, s))
    assert query.count == len(nodes)
    assert query.band == pytest.approx(2.0 * ynorm * chord, rel=1e-12, abs=0.0)
    # the swept points lie within |x| + ||y|| of the centre, so the least
    # distance is at least s - |x| - ||y||, far outside the band; below the
    # verdict threshold all the same
    assert query.inf_value >= s - 0.3 * s - ynorm > query.band
    assert query.verdict is False

    # the radius just above max_q |x + y q| = |x| + ||y|| puts the grid
    # value inside that band, and it goes to the branch-and-bound
    searches = _record(monkeypatch, "_branch_and_bound", 3)
    query = hull.hull_contains(_pt(x, y),
                               _LatticeBall(1, 1.01 * (0.3 * s + ynorm)))
    assert searches == [pytest.approx(ynorm, rel=1e-12, abs=0.0)]
    assert query.band > 0.0 and query.verdict is False


def test_tiny_points_keep_their_true_distances():
    # coordinates near 1e-165 square to 0, yet the distances are the true
    # ones: a point of H* lies in H*, and in its hull on the real slice by
    # both membership tests, with the point's own norm as the value
    x = np.array([1e-165, 0.0, 0.0, 0.0])
    star = domains.PointComplement(1)
    assert star.contains(x)
    assert domains.Ball(1, 1e-165).ext_distance(
        np.array([5e-166, 0.0, 0.0, 0.0])) == 5e-166
    sigma = _pt(x, np.zeros(4))
    for query in (hull.hull_contains(sigma, star),
                  twistor.hull_contains_via_lines(sigma, star,
                                                  return_query=True)):
        assert query.verdict is True and query.inf_value == 1e-165


def test_line_queries_are_pinned_bit_for_bit():
    queries = {
        "lines_near": twistor.hull_contains_via_lines(
            _pt([0.78, 0, 0, 0], [0, 0.22 - 5e-5, 0, 0]),
            domains.Ball(1, 1.0), return_query=True),
        "lines_halfspace": twistor.hull_contains_via_lines(
            _pt([0.2, 0.1, -0.3, 0.25], [0.1, 0.3, 0.0, -0.2]),
            domains.HalfSpace(1, [0.3, -0.5, 0.2, 0.8], 0.6),
            return_query=True),
    }
    for name, query in queries.items():
        inf_value, argmin_q = _GOLDEN_LINES[name]
        assert query.verdict is True and query.band == 0.0, name
        assert float(query.inf_value).hex() == inf_value, name
        assert _hex(query.argmin_q) == argmin_q, name


def _line_query_sample():
    """Line queries on every built-in kind at n = 1, 2, 12 sigma each."""
    rng = np.random.default_rng(2718)
    for n in (1, 2):
        c = 0.2 * rng.normal(size=4 * n)
        kinds = [
            domains.Ball(n, 1.1, center=c),
            domains.PointComplement(n, point=c),
            domains.HalfSpace(n, rng.normal(size=4 * n), 0.4),
            domains.Intersection([domains.Ball(n, 1.0),
                                  domains.HalfSpace(n, c, 0.1),
                                  domains.PointComplement(n, point=-c)]),
            domains.WholeSpace(n), domains.EmptySet(n)]
        for U in kinds:
            for _ in range(12):
                sigma = (0.4 * rng.normal(size=4 * n),
                         0.25 * rng.normal(size=4 * n))
                yield twistor.hull_contains_via_lines(sigma, U,
                                                      return_query=True)


def test_line_queries_keep_their_bits_on_a_fixed_sample():
    # sha256 of (verdict, inf_value, argmin_q) of 144 line queries, recorded
    # when each kind read its candidates off its own eigenvector formula;
    # reading them off the kind's line form must not move a bit
    h = hashlib.sha256()
    for q in _line_query_sample():
        h.update(("%r %s %s\n" % (q.verdict, float(q.inf_value).hex(),
                                   " ".join(_hex(q.argmin_q)))).encode())
    assert h.hexdigest() == (
        "81d5c53d0edef28ff3deaead3b14e53f03eafd177143499e0022cb4a4c758ae9")


@st.composite
def _hermitian_case(draw):
    # 2x2 complex H at scales 1e-300 to 1e300: generic, near a tie (a
    # multiple of I plus a traceless part 1e-16 to 1e-4 as large) or an
    # exact tie (a multiple of I plus an anti-Hermitian part)
    entries = hnp.arrays(np.float64, 8, elements=st.floats(-1.0, 1.0))
    H = draw(entries).view(complex).reshape(2, 2)
    kind = draw(st.sampled_from(["generic", "near_tie", "tie"]))
    a = draw(st.floats(-1.0, 1.0))
    if kind == "near_tie":
        H = a * np.eye(2) + 10.0 ** draw(st.floats(-16.0, -4.0)) * H
    elif kind == "tie":
        H = a * np.eye(2) + (H - np.conj(H.T)) / 2.0
    return kind, 10.0 ** draw(st.floats(-300.0, 300.0)) * H


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_hermitian_case())
def test_hopf_image_of_the_top_eigenvector_is_read_off_the_form(case):
    # the identity that joins the two exact paths: Hopf(_top_eigvec(H)),
    # the line query's arg-min, is _top_hopf(H), sweep_inf's
    kind, H = case
    q = domains._top_hopf(H)
    via = twistor.sweep_quaternions(domains._top_eigvec(H))
    assert q.shape == via.shape == (4,) and q[0] == 0.0
    np.testing.assert_allclose(q, via, rtol=0, atol=4 * np.finfo(float).eps)
    if kind == "tie":
        # Herm(H) = a I exactly: both give the i axis
        assert q.tolist() == via.tolist() == [0.0, 1.0, 0.0, 0.0]
    else:
        # and v is the top eigenvector: its Rayleigh quotient is at least
        # that of the orthogonal unit vector w
        v = domains._top_eigvec(H)
        w = np.array([-np.conj(v[1]), np.conj(v[0])])
        herm = (H + np.conj(H.T)) / 2.0
        gap = (np.conj(v) @ herm @ v - np.conj(w) @ herm @ w).real
        assert gap >= -8 * np.finfo(float).eps * np.abs(herm).max()


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("power", [-560, -520, 500])
def test_line_forms_of_a_ball_and_a_point_are_scale_safe(n, power):
    # sigma and the centre scaled by 2^power, exactly: A* A's entries would
    # go subnormal (or past 2^900) unscaled, and the top eigenvector is the
    # same as at scale 1
    rng = np.random.default_rng(60 + n)
    x, y, c = 0.5 * rng.normal(size=(3, 4 * n))
    t = 2.0 ** power
    S, St = quat.matrix_point(x, y), quat.matrix_point(t * x, t * y)
    for U, Ut in ((domains.Ball(n, 1.0, center=c),
                   domains.Ball(n, t, center=t * c)),
                  (domains.PointComplement(n, point=c),
                   domains.PointComplement(n, point=t * c))):
        H, Ht = U.line_form(S), Ut.line_form(St)
        assert Ht.shape == H.shape == (1, 2, 2)
        np.testing.assert_allclose(domains._top_hopf(Ht),
                                   domains._top_hopf(H), rtol=0, atol=1e-15)
        np.testing.assert_allclose(Ut.line_argmin(St), U.line_argmin(S),
                                   rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# exact covering chords and the bands of both sampled sweep paths
# ---------------------------------------------------------------------------

_LEVELS = [0, 1, 2, 3, 4]


@pytest.mark.parametrize("level", _LEVELS)
def test_icosphere_is_a_closed_triangulated_sphere(level):
    qs, chord, tris, rho = hull._icosphere(level)
    assert qs.shape == (10 * 4 ** level + 2, 4)
    assert tris.shape == (3, 20 * 4 ** level) and tris.dtype == np.intp
    assert rho.shape == (tris.shape[1],) and chord == rho.max()
    # every edge lies in exactly two triangles, and V - E + F = 2
    edges = np.sort(np.stack([tris, tris[[1, 2, 0]]], axis=-1), axis=-1)
    pairs, seen = np.unique(edges.reshape(-1, 2), axis=0, return_counts=True)
    assert (seen == 2).all()
    assert len(qs) - len(pairs) + tris.shape[1] == 2


@pytest.mark.parametrize("level", _LEVELS)
def test_icosphere_nodes_are_cached_read_only_unit_imaginaries(level):
    qs = hull._icosphere(level)[0]
    assert hull._icosphere(level)[0] is qs
    assert np.abs(qs[:, 0]).max() == 0.0
    assert np.abs(np.linalg.norm(qs, axis=1) - 1.0).max() < 1e-15
    with pytest.raises(ValueError):
        qs[0, 1] = 2.0


@pytest.mark.parametrize("level", _LEVELS)
def test_covering_chord_is_not_beaten_by_a_dense_probe(level):
    # the chord is the largest circumchord, an upper bound of the distance
    # from any point of the sphere to its nearest node; 200000 probes never
    # pass it and come within 10% of it
    qs, chord = hull._icosphere(level)[:2]
    u = qs[:, 1:]
    probes = np.random.default_rng(24).normal(size=(200000, 3))
    probes /= np.linalg.norm(probes, axis=1, keepdims=True)
    # a probe's nearest node has the largest inner product with it
    nearest = np.concatenate([np.argmax(block @ u.T, axis=1)
                              for block in np.array_split(probes, 50)])
    gaps = np.linalg.norm(probes - u[nearest], axis=1)
    assert gaps.max() <= chord
    assert gaps.max() > 0.9 * chord


def _record(monkeypatch, name, arg):
    """Wrap hull.<name>; returns the list of its argument number arg."""
    seen = []
    fn = getattr(hull, name)

    def recording(*args):
        seen.append(args[arg])
        return fn(*args)

    monkeypatch.setattr(hull, name, recording)
    return seen


def test_refined_arg_min_attains_the_reported_value(monkeypatch):
    # after a branch-and-bound the arg-min is the best point it evaluated,
    # not the grid node it started from, on a membership query and after a
    # polish; scan, search and polish share one evaluator, so it attains the
    # reported value bit for bit
    ball = domains.Ball(1, 1.0)
    searches = _record(monkeypatch, "_branch_and_bound", 3)
    paths = (
        lambda s: hull.hull_contains(s, _LatticeBall(1, 1.0)),
        lambda s: hull.hull_witness(s, _LatticeBall(1, 1.0))[1],
    )
    rng = np.random.default_rng(1)
    checked = [0, 0]
    for _ in range(200):
        sigma = _pt(0.3 * rng.normal(size=4), 0.3 * rng.normal(size=4))
        for k, path in enumerate(paths):
            before = len(searches)
            try:
                query = path(sigma)
            except hull.NotInHullError:
                continue
            if len(searches) == before:
                continue
            q = query.argmin_q[None, :]
            at_q = ball.ext_distance(quat.right_line(sigma.x, sigma.y)(q)[0])
            assert at_q == query.inf_value
            checked[k] += 1
    assert min(checked) >= 10


class _Sampled(domains.DomainSpec):
    """The oracles of a built-in domain without its closed-form sweep."""

    def __init__(self, U):
        super().__init__(U.n)
        self.U = U

    def ext_distance(self, p):
        return self.U.ext_distance(p)


class _SampledWithBoundary(_Sampled):
    def nearest_boundary(self, p):
        return self.U.nearest_boundary(p)


# float.hex of (inf_value, band, argmin_q) of fixed sampled-path queries,
# recorded with the swept points computed as x + qmul_right(y, q); any
# change to how they are computed or consumed shows here
_GOLDEN_QUERIES = {
    # grid scan then branch-and-bound, on the level-1 icosphere
    "sampled_ball": ("0x1.51505762b8000p-6", "0x1.3f5d057fe105ap-6", (
        "0x0.0p+0", "-0x1.3d900ae604d60p-1", "-0x1.4c5b65f0b6604p-4",
        "-0x1.8f76f280cae1dp-1")),
    # n = 2 intersection, branch-and-bound on the level-2 icosphere
    "sampled_n2": ("0x1.90d6cbfd2b850p-4", "0x1.452b8e3e2c081p-4", (
        "0x0.0p+0", "0x1.4cb7bfb4961aep-3", "0x1.e6f0e13445500p-1",
        "0x1.0d2ca0da1530dp-2")),
}


def _golden_queries():
    ball = domains.Ball(1, 1.0)
    n2 = domains.Intersection([
        domains.Ball(2, 1.2, center=[0.1] * 8),
        domains.HalfSpace(2, [1, 0, 0, 0, 0, 1, 0, 0], 0.7)])
    return {
        "sampled_ball": _sampled(
            _pt([0.78, 0, 0, 0], 0.2 * _OFF_AXIS), _Sampled(ball), 1),
        "sampled_n2": hull.hull_contains(
            _pt([0.1, -0.2, 0.05, 0.3, 0.0, 0.15, -0.1, 0.2],
                [0.2, 0.1, -0.3, 0.05, 0.1, -0.05, 0.15, 0.0]),
            _Sampled(n2)),
    }


def _hex(a):
    return tuple(float(v).hex() for v in np.ravel(a))


def test_sampled_queries_are_pinned_bit_for_bit():
    for name, query in _golden_queries().items():
        inf_value, band, argmin_q = _GOLDEN_QUERIES[name]
        assert float(query.inf_value).hex() == inf_value, name
        assert float(query.band).hex() == band, name
        assert _hex(query.argmin_q) == argmin_q, name
    d = hull.hull_distance(
        _pt([0.3, -0.2, 0.1, 0.4], [0.1, 0.2, -0.3, 0.1]),
        _Sampled(domains.PointComplement(1, point=[0.1, 0.2, 0, 0])))
    assert float(d).hex() == "0x1.616fe23a6848ep-3"
    w, query = hull.hull_witness(
        _pt([0.1, 0.2, -0.1, 0.05], [0.2, -0.1, 0.3, 0.1]),
        _SampledWithBoundary(domains.Intersection([
            domains.Ball(1, 1.3),
            domains.HalfSpace(1, [-0.3, -0.8, 0.1, 0.4], 0.5)])))
    assert _hex(w.x) == (
        "0x1.792579806dacap-5", "0x1.cb9721df02548p-5", "-0x1.4feca55123588p-4",
        "0x1.f3809deea5d15p-4")
    assert _hex(w.y) == (
        "0x1.37d455f4c1b0ep-2", "-0x1.bed3dfb7222bap-4", "0x1.ba2670d57b132p-2",
        "0x1.04a4359a0fa0ep-3")
    assert (float(query.inf_value).hex(), float(query.band).hex(),
            _hex(query.argmin_q)) == (
        "0x1.5d795c7f72ddap-2", "0x1.2aebe5634ffdap-3", (
            "0x0.0p+0", "-0x1.af2e89730ced2p-1", "0x1.af2e88eef5307p-2",
            "-0x1.58f207a36501bp-2"))


@st.composite
def _near_boundary_case(draw):
    # scale y to the smallest positive exact sweep minimum along a ray of
    # scales (the hull boundary for a ball or a half-space), then jitter
    n = draw(st.sampled_from([1, 2]))
    U = draw(_closed_form_domain(n))
    x = draw(_vec(n))
    y = draw(_vec(n).filter(lambda v: np.linalg.norm(v) > 1e-2))
    s = np.linspace(0.0, 3.0, 601)[1:]
    vals, _ = U.sweep_inf(np.broadcast_to(x, (s.size, x.size)), s[:, None] * y)
    assume(np.any(vals > 0))
    s0 = s[np.argmin(np.where(vals > 0, vals, np.inf))]
    y = s0 * draw(st.floats(0.9, 1.1)) * y
    return U, x, y, draw(st.sampled_from(_LEVELS))


_BAND_PROPERTY = settings(max_examples=100, deadline=None, derandomize=True)


def _check_certified(query, U, x, y):
    """The band holds the exact minimum; a decided verdict is the exact one."""
    exact, _ = U.sweep_inf(x, y)
    assert query.inf_value - query.band <= exact + 1e-12
    assert exact <= query.inf_value + 1e-12
    assert query.indeterminate == (0.0 < query.inf_value <= query.band)
    if not query.indeterminate:
        tau = hull._TINY * max(1.0, _pt(x, y).norm_C())
        assert query.verdict == (exact > tau)


@_BAND_PROPERTY
@given(_near_boundary_case())
def test_lattice_band_contains_the_exact_sweep_minimum(case):
    U, x, y, level = case
    query = _sampled(_pt(x, y), _Sampled(U), level)
    qs = hull._icosphere(level)[0]
    assert query.count == len(qs)
    grid_min = U.ext_distance(quat.right_line(x, y)(qs)).min()
    assert query.inf_value <= grid_min
    _check_certified(query, U, x, y)


@_BAND_PROPERTY
@given(_near_boundary_case())
def test_line_query_is_exact_near_the_hull_boundary(case):
    U, x, y, _ = case
    query = twistor.hull_contains_via_lines(_pt(x, y), U, return_query=True)
    assert query.band == 0.0 and query.count == 0
    _check_certified(query, U, x, y)


def _scaled(U, t):
    """U scaled about the origin by t > 0."""
    if isinstance(U, domains.Intersection):
        return domains.Intersection([_scaled(d, t) for d in U.parts])
    if isinstance(U, domains.Ball):
        return domains.Ball(U.n, t * U.radius, t * U.center)
    if isinstance(U, domains.PointComplement):
        return domains.PointComplement(U.n, t * U.point)
    if isinstance(U, domains.HalfSpace):
        return domains.HalfSpace(U.n, U.normal, t * U.offset)
    return U


@st.composite
def _minimiser_case(draw):
    # every built-in kind at n = 1, 2; half the draws moved to the hull
    # boundary along the ray of y, half scaled to 1e-158 to 1e-151, where
    # A* A's entries go subnormal
    n = draw(st.sampled_from([1, 2]))
    which = draw(st.integers(0, 7))
    if which < 2:
        U = (domains.WholeSpace, domains.EmptySet)[which](n)
    elif which < 5:
        U = draw(_simple_domain(n))
    else:
        U = domains.Intersection(draw(st.lists(_simple_domain(n), min_size=2,
                                               max_size=3)))
    x = draw(_vec(n))
    y = draw(_vec(n).filter(lambda v: np.linalg.norm(v) > 1e-2))
    if draw(st.booleans()):
        s = np.linspace(0.0, 3.0, 601)[1:]
        vals, _ = U.sweep_inf(np.broadcast_to(x, (s.size, x.size)),
                              s[:, None] * y)
        inside = (vals > 0) & (vals < np.inf)
        if inside.any():
            s0 = s[np.argmin(np.where(inside, vals, np.inf))]
            y = s0 * draw(st.floats(0.9, 1.1)) * y
    t = 10.0 ** draw(st.floats(-158.0, -151.0)) if draw(st.booleans()) else 1.0
    return _scaled(U, t), t * x, t * y, t


@_PROPERTY
@given(_minimiser_case())
def test_sweep_inf_is_the_certified_sampled_minimum(case):
    # the line form gives both exact paths their candidates, so the sampled
    # path, which knows U only through ext_distance, checks the minimiser:
    # the closed form attains its value, lies in every certified band and
    # is no worse than the scan, the branch-and-bound or the polish.  The
    # tolerance holds ext_distance's own rounding: its squares lose bits
    # below 1e-154
    U, x, y, t = case
    exact, q = U.sweep_inf(x, y)
    assert q.shape == (4,) and q[0] == 0.0
    assert abs(np.linalg.norm(q) - 1.0) <= 1e-15
    at_q = U.ext_distance(quat.right_line(x, y)(q[None, :])[0])
    assert at_q == pytest.approx(exact, rel=1e-15, abs=1e-15 * t)
    sigma = _pt(x, y)
    tol = 1e-10 * t + 1e-319 / t
    member = hull.hull_contains(sigma, _Sampled(U))
    for query in (member, _sampled(sigma, _Sampled(U), 2, polish=True)):
        assert exact <= query.inf_value + tol
        assert query.inf_value - query.band <= exact + tol
    if not member.indeterminate:
        tau = hull._TINY * max(1.0, sigma.norm_C())
        assert member.verdict == (exact > tau)


@st.composite
def _small_triangle(draw):
    # three unit vectors near a random centre, at scales 1e-6 to 0.5
    c = draw(hnp.arrays(np.float64, 3, elements=st.floats(-1.0, 1.0)).filter(
        lambda v: np.linalg.norm(v) > 0.1))
    c = c / np.linalg.norm(c)
    size = 10.0 ** draw(st.floats(-6.0, np.log10(0.5)))
    offsets = draw(hnp.arrays(np.float64, (3, 3), elements=st.floats(-1, 1)))
    tri = c + size * (offsets - np.outer(offsets @ c, c))
    tri /= np.linalg.norm(tri, axis=1, keepdims=True)
    area = np.linalg.norm(np.cross(tri[1] - tri[0], tri[2] - tri[0]))
    assume(area > 1e-3 * size ** 2)
    return tri


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_sweep_case(), _small_triangle())
def test_triangle_bound_holds_inside_the_triangle(case, tri):
    # every point of a spherical triangle is within its circumchord of a
    # vertex, so g over it stays above the branch-and-bound's vertex bound
    U, x, y = case
    rho = hull._circumchord(tri.T)
    w = np.random.default_rng(3).dirichlet(np.ones(3), size=500)
    w = np.concatenate([w, np.eye(3), [[0.5, 0.5, 0.0], [1 / 3, 1 / 3, 1 / 3]]])
    u = w @ tri
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    gaps = np.linalg.norm(u[:, None, :] - tri[None], axis=-1).min(axis=1)
    assert gaps.max() <= rho * (1 + 1e-9)

    def g(v):
        q = np.zeros((len(v), 4))
        q[:, 1:] = v
        return U.ext_distance(quat.right_line(x, y)(q))

    bound = g(tri).min() - np.linalg.norm(y) * rho
    assert g(u).min() >= bound - 1e-12


@settings(max_examples=60, deadline=None, derandomize=True)
@given(hnp.arrays(np.float64, 3, elements=st.floats(-1.0, 1.0)).filter(
           lambda v: np.linalg.norm(v) > 0.1),
       st.sampled_from([0, 1, 2]), st.sampled_from([1e-3, 1e-2]))
def test_branch_and_bound_finds_a_narrow_cone(centre, level, depth):
    # g is the chord distance to a random point c shifted by -depth (a hole
    # of radius depth, clamped at 0) or by +depth (a positive minimum at c);
    # the search must find the hole and bracket the minimum, wherever c
    # falls in the grid's triangles
    c = centre / np.linalg.norm(centre)
    grid = hull._icosphere(level)
    for shift in (-depth, depth):
        def g(q):
            return np.maximum(0.0, np.linalg.norm(q[:, 1:] - c, axis=1) + shift)

        f, q, lb = hull._branch_and_bound(g, grid, g(grid[0]), 1.0, 1e-12)
        assert g(q[None, :])[0] == f
        if shift < 0:
            assert f == 0.0
        else:
            assert 1e-12 < lb <= depth <= f


def _circumchord_rows(tri):
    """Reference: hull._circumchord on row-major triangles (..., 3, 3)."""
    u = tri[..., 1, :] - tri[..., 0, :]
    w = tri[..., 2, :] - tri[..., 0, :]
    area2 = np.linalg.norm(np.cross(u, w), axis=-1)
    r = (np.linalg.norm(u, axis=-1) * np.linalg.norm(w, axis=-1)
         * np.linalg.norm(u - w, axis=-1) / (2.0 * area2))
    r = np.minimum(r, 1.0)
    return r * np.sqrt(2.0 / (1.0 + np.sqrt(1.0 - r * r))) + hull._SLACK


def _branch_and_bound_rows(g, grid, vals, ynorm, tau):
    """Reference: hull._branch_and_bound as a triangle-major loop.

    Triangles are rows (T, 3) of vertex values and (T, 3, 3) of vertex
    coordinates, gathered from the grid up front.
    """
    qs, _, tris, rho = grid
    tris = tris.T
    i = int(np.argmin(vals))
    f, q = vals[i], qs[i]
    tri = qs[tris][..., 1:]
    tval = vals[tris]
    lb = np.inf
    for depth in range(hull._BB_DEPTH + 1):
        bound = tval.min(axis=1) - ynorm * rho
        live = bound <= tau
        nlive = np.count_nonzero(live)
        if (f <= tau or not nlive or nlive > hull._BB_LIVE
                or depth == hull._BB_DEPTH):
            lb = min(lb, bound.min())
            break
        lb = min(lb, bound[~live].min(initial=np.inf))
        tri, tval = tri[live], tval[live]
        mids = tri[:, [1, 2, 0]] + tri[:, [2, 0, 1]]
        mids /= np.linalg.norm(mids, axis=-1, keepdims=True)
        mq = np.zeros((3 * len(tri), 4))
        mq[:, 1:] = mids.reshape(-1, 3)
        mval = g(mq)
        k = int(np.argmin(mval))
        if mval[k] < f:
            f, q = mval[k], mq[k]
        tri = np.concatenate([tri, mids], axis=1)[:, hull._CHILDREN]
        tval = np.concatenate([tval, mval.reshape(-1, 3)],
                              axis=1)[:, hull._CHILDREN]
        tri, tval = tri.reshape(-1, 3, 3), tval.reshape(-1, 3)
        rho = _circumchord_rows(tri)
    return float(f), q, max(0.0, float(lb))


@pytest.mark.parametrize("level", [0, 1, 2, 4])
def test_grid_radii_match_the_row_major_reference(level):
    qs, _, tris, rho = hull._icosphere(level)
    assert tris.shape == (3, len(rho))
    assert rho.tobytes() == _circumchord_rows(qs[tris.T][..., 1:]).tobytes()


@st.composite
def _in_band_case(draw):
    # a near-boundary sigma whose scanned minimum falls inside the band,
    # under the default caps or small ones that end the search early
    U, x, y, _ = draw(_near_boundary_case())
    level = draw(st.sampled_from([0, 1, 2]))
    caps = draw(st.sampled_from([(hull._BB_DEPTH, hull._BB_LIVE), (1, 1024),
                                 (3, 1024), (32, 8), (32, 64)]))
    return U, x, y, level, quat.right_line(x, y), caps


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_in_band_case())
def test_branch_and_bound_matches_the_row_major_reference(case):
    U, x, y, level, line, (depth_cap, live_cap) = case
    grid = hull._icosphere(level)

    def g(q):
        return U.ext_distance(line(q))

    vals = g(grid[0])
    ynorm = float(np.linalg.norm(y))
    assume(0.0 < vals.min() <= 2.0 * ynorm * grid[1])
    tau = hull._TINY * max(1.0, _pt(x, y).norm_C())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hull, "_BB_DEPTH", depth_cap)
        mp.setattr(hull, "_BB_LIVE", live_cap)
        f, q, lb = hull._branch_and_bound(g, grid, vals, ynorm, tau)
        f_ref, q_ref, lb_ref = _branch_and_bound_rows(g, grid, vals, ynorm,
                                                      tau)
    assert float(f).hex() == float(f_ref).hex()
    assert float(lb).hex() == float(lb_ref).hex()
    assert q.tobytes() == q_ref.tobytes()


def test_distance_of_a_point_outside_the_hull_raises():
    # the local polish from the best of the 12 icosahedron vertices stops
    # at a positive local minimum of this intersection's sweep; the exact
    # minimum is 0, and the branch-and-bound finds a swept point outside U
    U = domains.Intersection([
        domains.Ball(1, 1.3),
        domains.HalfSpace(1, [-0.115, 0.131, 0.504, -0.14], 0.222)])
    sigma = _pt([-0.18, -0.151, -0.303, 0.383], [0.366, -0.477, 0.345, -0.429])
    assert U.sweep_inf(sigma.x, sigma.y)[0] == 0.0
    line = quat.right_line(sigma.x, sigma.y)
    qs, chord = hull._icosphere(0)[:2]
    vals = U.ext_distance(line(qs))
    polished, _ = hull._local_min(lambda q: U.ext_distance(line(q)),
                                  qs[vals.argmin()], vals.min(), chord)
    assert polished > 0.0
    for polish in (False, True):
        query = _sampled(sigma, _Sampled(U), 0, polish)
        assert query.verdict is False and query.indeterminate is False
    query = hull.hull_contains(sigma, _Sampled(U))
    assert query.verdict is False and query.indeterminate is False
    with pytest.raises(hull.NotInHullError):
        hull.hull_distance(sigma, _Sampled(U))
    with pytest.raises(hull.NotInHullError):
        hull.hull_witness(sigma, _Sampled(U))


@st.composite
def _unimodal_case(draw):
    n = draw(st.sampled_from([1, 2]))
    return draw(_simple_domain(n)), draw(_vec(n)), draw(_vec(n, -0.6, 0.6))


@_PROPERTY
@given(_unimodal_case())
def test_polished_lattice_distance_is_the_exact_distance(case):
    # on a ball, a point complement or a half-space g has a single local
    # minimum on the sphere, so the always-polished lattice path must find
    # the closed-form value, not just land inside its band
    U, x, y = case
    exact = float(U.sweep_inf(x, y)[0]) / np.sqrt(2.0)
    try:
        d = hull.hull_distance(_pt(x, y), _Sampled(U))
    except hull.NotInHullError:
        assert exact <= hull._TINY * max(1.0, _pt(x, y).norm_C()) / np.sqrt(2.0)
        return
    assert d == pytest.approx(exact, rel=0, abs=1e-9 * max(1.0, d))


def _count_polish_calls(monkeypatch):
    """Record the number of calls of g made by each hull._local_min."""
    counts = []
    local_min = hull._local_min

    def counting(g, q0, f0, step):
        calls = [0]

        def counted(q):
            calls[0] += 1
            return g(q)

        result = local_min(counted, q0, f0, step)
        counts.append(calls[0])
        return result

    monkeypatch.setattr(hull, "_local_min", counting)
    return counts


_BALL = domains.Ball(1, 1.0)
_POINT = domains.PointComplement(1, point=[0.1, 0.2, 0, 0])
# (domain, x, y) of polished queries with a smooth minimum
_SMOOTH_POLISHES = [
    (_BALL, [0.3, -0.2, 0.1, 0.4], [0.1, 0.2, -0.3, 0.1]),
    (_BALL, [0.1, 0.2, -0.1, 0.05], [0.2, -0.1, 0.3, 0.1]),
    (_BALL, [0.5, 0.0, 0.0, 0.0], [0.0, 0.2, 0.0, 0.1]),
    (_BALL, [-0.2, 0.4, 0.0, 0.1], [0.1, 0.0, -0.2, 0.3]),
    (_BALL, [0.78, 0.0, 0.0, 0.0], [0.0, 0.12, 0.0, 0.16]),
    (_POINT, [0.3, -0.2, 0.1, 0.4], [0.1, 0.2, -0.3, 0.1]),
    (_POINT, [0.1, 0.2, -0.1, 0.05], [0.2, -0.1, 0.3, 0.1]),
    (_POINT, [-0.5, 0.3, 0.2, 0.0], [0.1, 0.1, 0.1, 0.1]),
    (_POINT, [0.6, 0.6, 0.0, -0.3], [0.2, 0.0, -0.1, 0.4]),
    # a constant sweep: the first mesh is flat
    (_BALL, [0.0, 0.0, 0.0, 0.0], [0.3, 0.0, 0.4, 0.0]),
    # the minimum is a node of the grid, where the model step is 0
    (_POINT, [1.0, 0.0, 0.0, 0.0], [0.0, 0.5, 0.0, 0.0]),
]


def test_polish_of_a_smooth_minimum_takes_few_calls(monkeypatch):
    # the model steps converge like Newton's method and the search stops
    # once its mesh is flat to rounding: these polishes take 1 to 14 calls
    # of g (the halving search alone took 38 to 61); the bound allows 6 more
    counts = _count_polish_calls(monkeypatch)
    for U, x, y in _SMOOTH_POLISHES:
        counts.clear()
        d = hull.hull_distance(_pt(x, y), _Sampled(U))
        exact = float(U.sweep_inf(np.asarray(x, float),
                                  np.asarray(y, float))[0]) / np.sqrt(2.0)
        assert len(counts) == 1 and 1 <= counts[0] <= 20, (x, y, counts)
        assert d == pytest.approx(exact, rel=1e-14, abs=0)


def _polish_from_best_vertex(g):
    """hull._local_min of g from the best icosahedron vertex, with every row
    g was called on and its value: (f0, f, q, rows, values)."""
    rows, values = [], []

    def recording(q):
        rows.append(q.copy())
        values.append(g(q))
        return values[-1]

    qs, chord = hull._icosphere(0)[:2]
    vals = g(qs)
    f, q = hull._local_min(recording, qs[vals.argmin()], vals.min(), chord)
    return vals.min(), f, q, np.concatenate(rows), np.concatenate(values)


def _attained(q, f, rows, values):
    hit = np.flatnonzero((rows == q).all(axis=1))
    return len(hit) > 0 and values[hit[0]] == f


def test_polish_without_a_model_step_halves_its_mesh(monkeypatch):
    # this intersection's polish ends at f ~ 0.008 on its ball part, whose
    # swept points have norm ~1.3: the mesh differences fall to rounding
    # level there, the quadratic model has no usable step, and the search
    # halves its mesh; it still ends at a value < f0, at a row g evaluated
    U = domains.Intersection([
        domains.Ball(1, 1.3),
        domains.HalfSpace(1, [-0.115, 0.131, 0.504, -0.14], 0.222)])
    sigma = _pt([-0.18, -0.151, -0.303, 0.383], [0.366, -0.477, 0.345, -0.429])
    line = quat.right_line(sigma.x, sigma.y)
    steps = []
    model_step = hull._model_step

    def recording(vals, f):
        steps.append(model_step(vals, f))
        return steps[-1]

    monkeypatch.setattr(hull, "_model_step", recording)
    f0, f, q, rows, values = _polish_from_best_vertex(
        lambda q: U.ext_distance(line(q)))
    assert any(t is None for t in steps)
    assert 0.0 < f < f0
    assert _attained(q, f, rows, values)


def test_polish_reaches_a_kinked_minimum():
    # g = 0.5 + |u.a| + 2 |u.b| has a V-shaped minimum 0.5 where u is
    # orthogonal to a and b, which no quadratic fits: the model steps still
    # cut the gap several-fold each, and the search ends within 1e-9 of the
    # minimum, at a row g evaluated
    a = np.array([0.6, 0.0, 0.8])
    b = np.array([0.0, 1.0, 0.0])
    f0, f, q, rows, values = _polish_from_best_vertex(
        lambda q: 0.5 + np.abs(q[:, 1:] @ a) + 2.0 * np.abs(q[:, 1:] @ b))
    assert 0.5 <= f < f0 and f - 0.5 < 1e-9
    assert _attained(q, f, rows, values)


@pytest.mark.parametrize("level", [1, 2])
def test_each_path_steps_by_its_own_grid_chord(level, monkeypatch):
    # the branch-and-bound splits the triangles of the grid that was
    # scanned, and the polish of a distance starts with a mesh step of that
    # grid's covering chord; both scan the one cached icosphere of _LEVEL
    monkeypatch.setattr(hull, "_LEVEL", level)
    grids = _record(monkeypatch, "_branch_and_bound", 1)
    steps = _record(monkeypatch, "_local_min", 3)
    sigma = _pt([0.78, 0, 0, 0], 0.2 * _OFF_AXIS)
    icosphere = hull._icosphere(level)
    runs = [(hull.hull_contains, _LatticeBall(1, 1.0), icosphere, []),
            (hull.hull_distance, _LatticeBall(1, 1.0), icosphere,
             [icosphere[1]])]
    for entry, U, grid, polish_steps in runs:
        grids.clear()
        steps.clear()
        entry(sigma, U)
        assert len(grids) == 1 and grids[0] is grid
        assert steps == polish_steps


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_domain_parameters_must_be_finite(bad):
    v = [0.0, bad, 0.0, 0.0]
    for make, name in (
            (lambda: domains.Ball(1, bad), "radius"),
            (lambda: domains.Ball(1, 1.0, center=v), "center"),
            (lambda: domains.PointComplement(1, point=v), "point"),
            (lambda: domains.HalfSpace(1, v, 0.0), "normal"),
            (lambda: domains.HalfSpace(1, [1, 0, 0, 0], bad), "offset"),
            (lambda: domains.parse_domain("ball:r=%r" % bad), "radius")):
        with pytest.raises(ValueError, match="%s must be finite" % name):
            make()


def test_intersection_boundary_skips_parts_without_one():
    # the whole space has no boundary, so the ball part gives the witness
    ball = domains.Ball(1, 1.0)
    both = domains.Intersection([domains.WholeSpace(1), ball])
    p = np.array([[0.1, 0.2, 0.0, 0.0], [0.0, 0.0, -0.5, 0.3]])
    np.testing.assert_array_equal(both.nearest_boundary(p),
                                  ball.nearest_boundary(p))
    sigma = _pt([0.1, 0, 0, 0], [0, 0.1, 0, 0])
    w, query = hull.hull_witness(sigma, both)
    w_ball, query_ball = hull.hull_witness(sigma, ball)
    assert w.tolist() == w_ball.tolist()
    assert query.to_json() == query_ball.to_json()
    with pytest.raises(NotImplementedError):
        domains.Intersection([domains.WholeSpace(1)] * 2).nearest_boundary(p)
