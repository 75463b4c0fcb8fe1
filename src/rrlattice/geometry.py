"""Simplicial distances, the lattice distance function h, Sigma-region
membership, extremality (minimality in Sigma) and criticality tests,
covering number, and the covering/packing duality probe.

Conventions, fixed once here and relied on everywhere else:

  * the "up" distance is d(p, q) = |min_i (q_i - p_i)|, equivalently
    max_i (p_i - q_i) for points of equal degree;
  * the unit up-ball around v is {x : x >= v - 1} within v's degree
    hyperplane, the unit down-ball is {x : x <= v + 1};
  * the Sigma region of a lattice is the set of integer vectors dominated
    by no lattice point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import LatticeBasis, as_divisor, as_point, degree


def simplicial_distance(p, q, orientation: str = "up"):
    """Polyhedral distance whose unit ball is a simplex.

    For orientation "up": |min_i (q_i - p_i)|.  For "down": the same with
    the arguments exchanged.  p and q must have equal degree (the
    difference is measured inside one degree hyperplane).
    """
    p = as_point(p, len(p))
    q = as_point(q, len(p))
    if sum(p) != sum(q):
        raise ValueError("points have different degrees")
    if orientation == "down":
        p, q = q, p
    elif orientation != "up":
        raise ValueError("orientation must be 'up' or 'down'")
    m = abs(min(b - a for a, b in zip(p, q)))
    return int(m) if m.denominator == 1 else m


def h_distance(L: LatticeBasis, x, node_budget=2_000_000):
    """Distance from x to the nearest lattice point, with that point.

    x is a rational point of degree 0.  Returns (value, nearest) where the
    nearest point is chosen so that the translate x - nearest is
    lexicographically least among all minimisers.
    """
    x = as_point(x, L.dim)
    if sum(x) != 0:
        raise ValueError("expected a point of degree 0")
    # min over p in L of max_i (x_i - p_i); substitute q = -p (L = -L).
    val, translate = L.coset_min_max_coord(x, node_budget)
    nearest = tuple(int(a - b) for a, b in zip(x, translate))
    if val.denominator == 1:
        val = int(val)
    return val, nearest


def sigma_contains(L: LatticeBasis, D, node_budget=2_000_000) -> bool:
    """True iff no lattice point dominates D coordinate-wise.

    A dominating point p >= D has degree 0 >= degree(D), so positive
    degree D is trivially undominated; otherwise the dominating points
    form the finite simplex {p >= D, deg p = 0} and a coset search of
    {x >= 0} over x = p - D decides emptiness.
    """
    D = as_divisor(D, L.dim)
    if degree(D) > 0:
        return True
    neg = tuple(-t for t in D)
    return L.find_effective_in_coset(neg, node_budget) is None


def is_extremal(L: LatticeBasis, v, node_budget=2_000_000) -> bool:
    """Whether v is a minimal element of the Sigma region.

    v must be in the region and no v - e_i may be in it.  The region is
    closed upwards (if no lattice point dominates u, none dominates u + w
    for w >= 0), so these n + 1 points decide minimality against every
    point below v.
    """
    v = as_divisor(v, L.dim)
    if not sigma_contains(L, v, node_budget):
        return False
    return not any(
        sigma_contains(L, tuple(x - (j == i) for j, x in enumerate(v)),
                       node_budget)
        for i in range(len(v)))


@dataclass(frozen=True)
class CriticalPoint:
    """A verified local maximum of the lattice distance function.

    witnesses[i] is a nearest lattice point touching the down-ball of
    radius h_value around location in the interior of facet i only
    (tight at coordinate i, strictly slack elsewhere).
    """

    location: tuple
    h_value: Fraction
    witnesses: tuple


def _nearest_lattice_points(L: LatticeBasis, c, radius, node_budget):
    """All p in L with max_i(c_i - p_i) <= radius, sorted."""
    lo = [t - radius for t in c]
    total_lo = sum(lo)
    hi = [l - total_lo for l in lo]
    # the walk yields its points in increasing lexicographic order
    return list(
        L.iter_coset_in_bounds(tuple([0] * L.dim), lo, hi, node_budget)
    )


def verify_critical(L: LatticeBasis, c, node_budget=2_000_000):
    """Check the facet-witness criterion for criticality at c.

    c (rational, degree 0) is critical iff for every coordinate i some
    nearest lattice point is tight at i alone.  Returns (ok, data) where
    data is a CriticalPoint on success and None otherwise.
    """
    c = as_point(c, L.dim)
    if sum(c) != 0:
        raise ValueError("expected a point of degree 0")
    h, _ = h_distance(L, c, node_budget)
    h = Fraction(h)
    if h == 0:
        return False, None
    witnesses = [None] * L.dim
    for p in _nearest_lattice_points(L, c, h, node_budget):
        diffs = [ci - pi for ci, pi in zip(c, p)]
        tight = [i for i, d in enumerate(diffs) if d == h]
        if len(tight) == 1 and witnesses[tight[0]] is None:
            witnesses[tight[0]] = p
    if any(w is None for w in witnesses):
        return False, None
    return True, CriticalPoint(location=c, h_value=h, witnesses=tuple(witnesses))


def covering_number(L: LatticeBasis, extremal_data) -> Fraction:
    """(g_max + n) / (n + 1), the max of the lattice distance function."""
    n = L.n
    return Fraction(extremal_data.g_max + n, n + 1)


def critical_distance(L: LatticeBasis, critical_points, x, node_budget=2_000_000):
    """min over critical translates c + p of the up-distance from c + p to x."""
    x = as_point(x, L.dim)
    best = None
    for c in critical_points:
        base = tuple(a - b for a, b in zip(as_point(c, L.dim), x))
        val, _ = L.coset_min_max_coord(base, node_budget)
        if best is None or val < best:
            best = val
    return best


def duality_probe(L: LatticeBasis, extremal_data, t, samples,
                  node_budget=2_000_000):
    """Sample-level check of the covering/packing duality.

    B_t is the set of points within distance t of the lattice; A_s is the
    union of up-balls of radius s around critical translates.  For each
    sample x the probe records h(x), the critical distance a(x), and
    membership in B_t and A_{Cov - t}; the duality predicts every x is
    covered and no x is interior to both.
    """
    t = Fraction(t)
    cov = covering_number(L, extremal_data)
    if not (0 <= t <= cov):
        raise ValueError("t must lie in [0, Cov]")
    crits = extremal_data.critical_points()
    rows = []
    for x in samples:
        x = tuple(Fraction(v) for v in x)
        h, _ = h_distance(L, x, node_budget)
        h = Fraction(h)
        a = critical_distance(L, crits, x, node_budget)
        in_b = h <= t
        in_a = a <= cov - t
        rows.append({
            "x": x,
            "h": h,
            "a": a,
            "in_B_t": in_b,
            "in_A_cov_minus_t": in_a,
            "covered": in_b or in_a,
            "interior_overlap": h < t and a < cov - t,
            "exact_split": h + a == cov,
        })
    return {
        "t": t,
        "cov": cov,
        "samples": rows,
        "all_covered": all(r["covered"] for r in rows),
        "any_interior_overlap": any(r["interior_overlap"] for r in rows),
        "all_exact_split": all(r["exact_split"] for r in rows),
    }


# -- SVG rendering (dimension 2 only) ----------------------------------------
#
# The zero-sum plane is drawn through the exact linear chart
#   (x0, x1, x2) |-> (x0 - (x1+x2)/2, (x1 - x2) * sqrt(3)/2),
# computed in Fractions; the irrational factor enters only when numbers
# are formatted into the SVG text, so the picture is deterministic.


def _planar(v):
    """Exact chart coordinates (px, qy); true y is qy * sqrt(3)/2."""
    x0, x1, x2 = (Fraction(t) for t in v)
    return x0 - (x1 + x2) / 2, x1 - x2


def _angle_order(points):
    """Points sorted counterclockwise around the origin, exactly."""
    from functools import cmp_to_key

    def half(p):
        px, qy = p[0]
        return 0 if (qy > 0 or (qy == 0 and px > 0)) else 1

    def cmp(a, b):
        ha, hb = half(a), half(b)
        if ha != hb:
            return -1 if ha < hb else 1
        (apx, aqy), (bpx, bqy) = a[0], b[0]
        cross = apx * bqy - aqy * bpx
        if cross != 0:
            return -1 if cross > 0 else 1
        na = apx * apx + aqy * aqy
        nb = bpx * bpx + bqy * bqy
        return -1 if na < nb else (1 if na > nb else 0)

    return sorted(points, key=cmp_to_key(cmp))


def _inside_window(pq, window):
    px, qy = pq
    return abs(px) <= window and 3 * qy * qy <= 4 * window * window


def _svg_xy(pq, scale):
    px, qy = pq
    x = float(px) * scale
    y = -float(qy) * 0.8660254037844386 * scale
    return "%.4f" % x, "%.4f" % y


def _lattice_points_in_window(L, window, node_budget):
    bound = int(2 * window) + 1
    lo = [-bound] * 3
    hi = [bound] * 3
    pts = list(L.iter_coset_in_bounds((0, 0, 0), lo, hi, node_budget))
    return sorted(p for p in pts if _inside_window(_planar(p), window))


def svg_render_2d(L: LatticeBasis, window=4, layers=("lattice", "critical",
                  "voronoi"), extremal_data=None, t=None, scale=40,
                  node_budget=2_000_000) -> str:
    """Deterministic SVG picture of a rank-2 lattice.

    Layers: "lattice" (dots), "critical" (all critical translates in the
    window), "voronoi" (the cell of the origin as the polygon through its
    critical vertices, counterclockwise), "arrangement" (down-simplices of
    radius t around lattice points and up-simplices of radius Cov - t
    around critical translates).  The window is the visible radius in
    chart units; if the cell of the origin does not fit, the SVG carries a
    warning annotation instead of silently clipping.  A window that is not
    positive, or a scale that is not finite and positive, raises
    ValueError.
    """
    if L.n != 2:
        raise ValueError("SVG rendering is for rank-2 lattices only")
    window = Fraction(window)
    if window <= 0:
        raise ValueError("window must be positive")
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError("scale must be finite and positive")
    layers = frozenset(layers)
    unknown = layers - {"lattice", "critical", "voronoi", "arrangement"}
    if unknown:
        raise ValueError("unknown layers: %s" % ", ".join(sorted(unknown)))
    if extremal_data is None and layers & {"critical", "voronoi",
                                           "arrangement"}:
        from .extremal import extremal_set_general
        extremal_data = extremal_set_general(L, node_budget=node_budget)

    size = float(window) * scale
    out = []
    out.append(
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="%.4f %.4f %.4f %.4f">'
        % (-size, -size, 2 * size, 2 * size)
    )
    out.append('<rect x="%.4f" y="%.4f" width="%.4f" height="%.4f" '
               'fill="white"/>' % (-size, -size, 2 * size, 2 * size))
    # axes of the chart
    out.append('<line x1="%.4f" y1="0" x2="%.4f" y2="0" stroke="#dddddd" '
               'stroke-width="1"/>' % (-size, size))
    out.append('<line x1="0" y1="%.4f" x2="0" y2="%.4f" stroke="#dddddd" '
               'stroke-width="1"/>' % (-size, size))

    warnings = []

    if "arrangement" in layers:
        if t is None:
            raise ValueError("the arrangement layer needs t")
        t = Fraction(t)
        cov = covering_number(L, extremal_data)
        if not (0 <= t <= cov):
            raise ValueError("t must lie in [0, Cov]")
        corners = [(2, -1, -1), (-1, 2, -1), (-1, -1, 2)]
        tri = []
        for p in _lattice_points_in_window(L, window, node_budget):
            verts = [
                tuple(Fraction(a) - t * b for a, b in zip(p, corner))
                for corner in corners
            ]
            tri.append((verts, "#9ecae1"))
        s = cov - t
        for c in extremal_data.critical_points():
            for p in _lattice_points_in_window(L, window, node_budget):
                centre = tuple(Fraction(a) + b for a, b in zip(c, p))
                if not _inside_window(_planar(centre), window):
                    continue
                verts = [
                    tuple(a + s * b for a, b in zip(centre, corner))
                    for corner in corners
                ]
                tri.append((verts, "#fdae6b"))
        for verts, colour in tri:
            pts = " ".join(
                "%s,%s" % _svg_xy(_planar(v), scale) for v in verts
            )
            out.append('<polygon points="%s" fill="none" stroke="%s" '
                       'stroke-width="1"/>' % (pts, colour))

    if "voronoi" in layers:
        from .extremal import voronoi_cell_vertices
        cell = voronoi_cell_vertices(L, extremal_data)
        if cell:
            planar = [(_planar(v), v) for v in sorted(cell)]
            if any(not _inside_window(pq, window) for pq, _ in planar):
                warnings.append("window too small for the cell of the origin")
            ordered = _angle_order(planar)
            pts = " ".join(
                "%s,%s" % _svg_xy(pq, scale) for pq, _ in ordered
            )
            out.append('<polygon points="%s" fill="#edf8e9" '
                       'stroke="#31a354" stroke-width="2"/>' % pts)

    if "lattice" in layers:
        for p in _lattice_points_in_window(L, window, node_budget):
            x, y = _svg_xy(_planar(p), scale)
            out.append('<circle cx="%s" cy="%s" r="3" fill="#333333"/>'
                       % (x, y))

    if "critical" in layers:
        seen = set()
        for c in extremal_data.critical_points():
            for p in _lattice_points_in_window(L, window, node_budget):
                v = tuple(Fraction(a) + b for a, b in zip(c, p))
                if v in seen or not _inside_window(_planar(v), window):
                    continue
                seen.add(v)
                x, y = _svg_xy(_planar(v), scale)
                out.append('<circle cx="%s" cy="%s" r="2.5" fill="none" '
                           'stroke="#de2d26" stroke-width="1.5"/>' % (x, y))

    for i, w in enumerate(sorted(warnings)):
        out.append('<text x="%.4f" y="%.4f" font-size="12" fill="#de2d26">'
                   '%s</text>' % (-size + 5, -size + 15 + 14 * i, w))
    out.append("</svg>")
    return "\n".join(out)
