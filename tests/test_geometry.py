import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rrlattice import geometry
from rrlattice.core import LatticeBasis
from rrlattice.extremal import extremal_set_general
from rrlattice.geometry import (covering_number, critical_distance,
                                duality_probe, h_distance, is_extremal,
                                sigma_contains, simplicial_distance,
                                svg_render_2d, verify_critical)

import oracles


def rand_zero_sum(rng, dim, span=9):
    body = [rng.randint(-span, span) for _ in range(dim - 1)]
    return tuple(body) + (-sum(body),)


def test_simplicial_distance_basics():
    assert simplicial_distance((0, 0, 0), (1, 0, -1)) == 1
    assert simplicial_distance((0, 0, 0), (2, -1, -1)) == 1
    assert simplicial_distance((0, 0, 0), (-2, 1, 1), "up") == 2
    assert simplicial_distance((0, 0, 0), (-2, 1, 1), "down") == \
        simplicial_distance((-2, 1, 1), (0, 0, 0), "up")
    assert simplicial_distance(
        (0, 0, 0), (Fraction(1, 3), Fraction(1, 3), Fraction(-2, 3))
    ) == Fraction(2, 3)
    with pytest.raises(ValueError):
        simplicial_distance((1, 0, 0), (0, 0, 0))


def test_distance_axioms_random():
    rng = random.Random(23)
    for _ in range(300):
        dim = rng.choice((3, 4))
        p = rand_zero_sum(rng, dim)
        q = rand_zero_sum(rng, dim)
        r = rand_zero_sum(rng, dim)
        dpq = simplicial_distance(p, q)
        dqr = simplicial_distance(q, r)
        dpr = simplicial_distance(p, r)
        assert dpr <= dpq + dqr
        assert dpq >= 0 and (dpq == 0) == (p == q)
        t = rand_zero_sum(rng, dim)
        shifted = simplicial_distance(
            tuple(a + b for a, b in zip(p, t)),
            tuple(a + b for a, b in zip(q, t)))
        assert shifted == dpq
        assert simplicial_distance(p, q, "down") == \
            simplicial_distance(q, p, "up")
        # additivity along a ray
        v = rand_zero_sum(rng, dim, 4)
        lam, mu = rng.randint(0, 3), rng.randint(0, 3)
        a = tuple(x + lam * y for x, y in zip(p, v))
        b = tuple(x + (lam + mu) * y for x, y in zip(p, v))
        assert simplicial_distance(p, a) + simplicial_distance(a, b) == \
            simplicial_distance(p, b)


def test_h_distance_against_scan(k3_lattice, m322_lattice):
    rng = random.Random(29)
    for L in (k3_lattice, m322_lattice):
        for _ in range(10):
            num = [rng.randint(-9, 9) for _ in range(2)]
            x = (Fraction(num[0], 3), Fraction(num[1], 3),
                 Fraction(-num[0] - num[1], 3))
            val, nearest = h_distance(L, x)
            assert val == oracles.naive_h_distance(L.rows, x)
            assert L.contains(nearest)
            assert max(a - b for a, b in zip(x, nearest)) == val


def test_sigma_contains_matches_naive(k3_lattice, m322_lattice):
    rng = random.Random(31)
    for L in (k3_lattice, m322_lattice):
        for _ in range(40):
            D = rand_zero_sum(rng, 3, 5)
            D = (D[0], D[1], D[2] + rng.randint(-4, 4))
            assert sigma_contains(L, D) == \
                oracles.naive_sigma_contains(L.rows, D)


def test_sigma_frozen_values(k3_lattice):
    # origin is dominated by itself
    assert not sigma_contains(k3_lattice, (0, 0, 0))
    assert sigma_contains(k3_lattice, (1, 0, 0))
    assert sigma_contains(k3_lattice, (1, -1, 0))
    assert not sigma_contains(k3_lattice, (0, -1, 0))
    assert not sigma_contains(k3_lattice, (-1, -1, -1))


def test_is_extremal_frozen(skew56_lattice, k3_lattice):
    # the lone extremal class of the genus-13 lattice, and two rejections:
    # (0,-7,-8) is dominated by a lattice translate of its opposite order
    assert is_extremal(skew56_lattice, (0, 35, -47))
    assert not is_extremal(skew56_lattice, (0, -7, -8))
    assert not is_extremal(skew56_lattice, (-2, 1, -7))
    assert is_extremal(k3_lattice, (-1, 0, 1))
    assert not is_extremal(k3_lattice, (0, 0, 0))


A2_ROOT = LatticeBasis([(2, -1, -1), (-1, 2, -1)])


@pytest.mark.parametrize("call", [
    lambda L: sigma_contains(L, (0, 0)),
    lambda L: sigma_contains(L, (0, 0, 0, 0)),
    lambda L: sigma_contains(L, (Fraction(1, 2), 0, -1)),
    lambda L: sigma_contains(L, (0.5, 0, -1)),
    lambda L: is_extremal(L, (1, 0)),
    lambda L: is_extremal(L, (1.5, 0, -1)),
    lambda L: h_distance(L, (0, 0)),
    lambda L: h_distance(L, ()),
    lambda L: verify_critical(L, (0, 0)),
    lambda L: critical_distance(L, [(0, 0, 0)], (0, 0)),
    lambda L: h_distance(L, (float("inf"), 0, 0)),
    lambda L: h_distance(L, (None, 0, 0)),
    lambda L: verify_critical(L, (float("inf"), 0, 0)),
    lambda L: critical_distance(L, [(0, 0, 0)], (float("inf"), 0, 0)),
    lambda L: simplicial_distance((None, 0), (0, 0)),
], ids=["sigma_short", "sigma_long", "sigma_fraction", "sigma_float",
        "extremal_short", "extremal_float", "h_short", "h_empty",
        "critical_short", "critical_distance_short", "h_inf", "h_none",
        "critical_inf", "critical_distance_inf", "simplicial_none"])
def test_points_of_another_shape_raise_value_error(call):
    # each was answered on a truncated point or failed with another error
    # (OverflowError for inf, TypeError for None)
    with pytest.raises(ValueError):
        call(A2_ROOT)


def test_verify_critical_k3(k3_lattice):
    ok, data = verify_critical(k3_lattice, (-1, 0, 1))
    assert ok
    assert data.h_value == 1
    assert len(data.witnesses) == 3
    assert data.witnesses == ((-2, 1, 1), (-1, -1, 2), (0, 0, 0))
    ok, _ = verify_critical(
        k3_lattice, (Fraction(1, 3), Fraction(1, 3), Fraction(-2, 3)))
    assert not ok
    ok, _ = verify_critical(k3_lattice, (0, 0, 0))
    assert not ok


def test_covering_number(m322_lattice, m322_extremal, k3_lattice,
                         k3_extremal):
    assert covering_number(m322_lattice, m322_extremal) == Fraction(7, 3)
    assert covering_number(k3_lattice, k3_extremal) == 1


def test_critical_distance(k3_lattice, k3_extremal):
    crits = k3_extremal.critical_points()
    # at a critical point itself the distance is zero
    assert critical_distance(k3_lattice, crits, crits[0]) == 0
    assert critical_distance(k3_lattice, crits, (0, 0, 0)) == 1


def test_critical_distance_needs_a_critical_point(k3_lattice):
    # the minimum over no critical points used to come back as None
    with pytest.raises(ValueError, match="no critical points"):
        critical_distance(k3_lattice, [], (0, 0, 0))


def test_duality_probe_exact_split(k3_lattice, k3_extremal):
    rng = random.Random(37)
    samples = []
    for _ in range(25):
        a, b = rng.randint(-9, 9), rng.randint(-9, 9)
        samples.append((Fraction(a, 3), Fraction(b, 3),
                        Fraction(-a - b, 3)))
    cov = covering_number(k3_lattice, k3_extremal)
    for t in (Fraction(0), cov / 2, cov):
        rep = duality_probe(k3_lattice, k3_extremal, t, samples)
        assert rep["all_covered"]
        assert not rep["any_interior_overlap"]
        assert rep["all_exact_split"]


def test_svg_render(m322_lattice, m322_extremal, k3_lattice, k3_extremal):
    svg = svg_render_2d(m322_lattice, window=6,
                        extremal_data=m322_extremal)
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    poly = [l for l in svg.splitlines() if l.startswith("<polygon")]
    assert len(poly) == 1 and poly[0].count(",") == 6  # six cell vertices
    assert svg == svg_render_2d(m322_lattice, window=6,
                                extremal_data=m322_extremal)
    hexagon = svg_render_2d(k3_lattice, window=3, layers=("voronoi",),
                            extremal_data=k3_extremal)
    assert [l for l in hexagon.splitlines()
            if l.startswith("<polygon")][0].count(",") == 6
    bare = svg_render_2d(k3_lattice, window=2, layers=())
    assert bare.startswith("<svg") and "<polygon" not in bare
    tiny = svg_render_2d(m322_lattice, window=1, layers=("voronoi",),
                         extremal_data=m322_extremal)
    assert "window too small" in tiny
    arr = svg_render_2d(k3_lattice, window=3,
                        layers=("lattice", "arrangement"),
                        extremal_data=k3_extremal, t=Fraction(2, 3))
    assert "#9ecae1" in arr and "#fdae6b" in arr
    with pytest.raises(ValueError):
        svg_render_2d(k3_lattice, layers=("bogus",))
    with pytest.raises(ValueError):
        svg_render_2d(LatticeBasis([(1, -1, 0, 0), (0, 1, -1, 0),
                                    (0, 0, 1, -1)]))


@pytest.mark.parametrize("rows, window, digest", [
    # skew56: one extremal class
    (((7, -7, 0), (-3, 11, -8)), 30,
     "b6018851bfe5b0ff546b4ad5f032a3347ee333764a4e3fce85533dad19a9797e"),
    # the Laplacian lattice of m322: two extremal classes
    (((5, -3, -2), (-3, 5, -2)), 12,
     "28eebb02562dc378410870d949b66e410861ddb63655c815d6ce9c002c5c362e"),
])
def test_svg_render_walks_the_window_once(monkeypatch, rows, window, digest):
    # the digests are of the SVGs drawn when every layer, and every
    # critical point within a layer, walked the window afresh
    L = LatticeBasis(rows)
    E = extremal_set_general(L)
    t = covering_number(L, E) / 2
    walks = []
    real = geometry._lattice_points_in_window
    monkeypatch.setattr(geometry, "_lattice_points_in_window",
                        lambda *a: walks.append(a) or real(*a))
    layers = ("lattice", "critical", "voronoi", "arrangement")
    svgs = [svg_render_2d(L, window=window, layers=layers,
                          extremal_data=E, t=t)]
    svgs += [svg_render_2d(L, window=window, layers=(layer,),
                           extremal_data=E, t=t) for layer in layers]
    assert hashlib.sha256("\n".join(svgs).encode()).hexdigest() == digest
    # one walk per render that draws lattice points; voronoi alone walks none
    assert len(walks) == 4


@pytest.mark.parametrize("window, scale", [(0, 40), (-1, 40), (4, -5),
                                           (4, 0), (4, float("nan")),
                                           (4, float("inf"))])
def test_svg_render_rejects_degenerate_window_and_scale(k3_lattice, window,
                                                        scale):
    with pytest.raises(ValueError):
        svg_render_2d(k3_lattice, window=window, layers=(), scale=scale)


@st.composite
def lattice_and_point(draw):
    """A rank-2 or rank-3 lattice of index <= 30 and a point of degree
    near 0."""
    n = draw(st.sampled_from((2, 3)))
    rows = []
    for _ in range(n):
        body = [draw(st.integers(-3, 3)) for _ in range(n)]
        rows.append(tuple(body + [-sum(body)]))
    try:
        L = LatticeBasis(rows)
    except ValueError:
        assume(False)
    # the box scans of the oracle cost about (index + 1) ** n points
    assume(L.picard_cardinality() <= 30)
    v = tuple(draw(st.integers(-4, 4)) for _ in range(n + 1))
    return L, v


def _descend_in_sigma(L, v):
    """A minimal element of Sigma below v raised to degree 1: lower each
    coordinate while the point stays in Sigma, until none can be."""
    u = list(v)
    u[-1] += 1 - sum(v)  # positive degree: no lattice point dominates u
    changed = True
    while changed:
        changed = False
        for i in range(len(u)):
            u[i] -= 1
            while sigma_contains(L, tuple(u)):
                changed = True
                u[i] -= 1
            u[i] += 1
    return tuple(u)


@settings(max_examples=60, deadline=None)
@given(lattice_and_point())
def test_is_extremal_is_minimality_in_sigma(case):
    # extremal means minimal in Sigma: v in it, and no v - e_i in it; the
    # l-infinity test of oracles.is_extremal_linf accepts a subset of them
    L, v = case
    w = _descend_in_sigma(L, v)
    assert oracles.is_minimal_in_sigma(L.rows, w)
    for u in (v, w):
        minimal = oracles.is_minimal_in_sigma(L.rows, u)
        assert is_extremal(L, u) == minimal, u
        if oracles.is_extremal_linf(L, u):
            assert minimal, u
