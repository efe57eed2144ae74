import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from momentct.errors import CapabilityError
from momentct.phantoms import (
    DiskDensity,
    MomentTable,
    PolynomialDensity,
    SumOfDisksDensity,
    UniformDensity,
    _EDGE_TOL,
    _check_points,
    _clip_chord,
    _grid_values,
)
from oracles import clip_chord_masked, radon

UNIFORM = UniformDensity()
POLY = PolynomialDensity.from_dict({(1, 1): 4.0})
DISK = DiskDensity.unit_mass(center=(0.5, 0.5), radius=0.25)
TWO_DISKS = SumOfDisksDensity(disks=(
    DiskDensity(center=(0.3, 0.35), radius=0.15, amplitude=0.5 / (math.pi * 0.15**2)),
    DiskDensity(center=(0.65, 0.6), radius=0.2, amplitude=0.5 / (math.pi * 0.2**2)),
))
ALL = [UNIFORM, POLY, DISK, TWO_DISKS]


class TestMoments:
    def test_uniform_values(self):
        assert UNIFORM.moment(0, 0) == 1.0
        assert UNIFORM.moment(1, 1) == pytest.approx(0.25)
        assert UNIFORM.moment(3, 2) == pytest.approx(1.0 / 12.0)

    def test_poly_values(self):
        assert POLY.moment(0, 0) == pytest.approx(1.0)
        assert POLY.moment(1, 1) == pytest.approx(4.0 / 9.0)

    def test_exact_fractions(self):
        assert UNIFORM.moment_fraction(2, 3) == Fraction(1, 12)
        assert POLY.moment_fraction(1, 1) == Fraction(4, 9)
        with pytest.raises(CapabilityError):
            DISK.moment_fraction(0, 0)

    def test_disk_moments_against_quadrature_oracle(self):
        integrate = pytest.importorskip("scipy.integrate")
        cx, cy, r, amp = 0.5, 0.5, 0.25, DISK.amplitude
        for a1, a2 in [(0, 0), (1, 0), (2, 1), (3, 3), (0, 4)]:
            # polar coordinates keep the integrand smooth, so the adaptive
            # quadrature reaches oracle grade
            val, err = integrate.dblquad(
                lambda phi, rho: amp * rho
                * (cx + rho * math.cos(phi)) ** a1
                * (cy + rho * math.sin(phi)) ** a2,
                0.0, r, 0.0, 2.0 * math.pi,
                epsabs=1e-12, epsrel=1e-12,
            )
            assert DISK.moment(a1, a2) == pytest.approx(val, abs=1e-11)

    def test_all_phantoms_unit_mass(self):
        for d in ALL:
            assert d.mass == pytest.approx(1.0, abs=1e-14)

    def test_mass_matches_numerical_integration(self):
        g = np.linspace(0.0, 1.0, 801)
        xx, yy = np.meshgrid(g, g, indexing="ij")
        for d in ALL:
            grid = np.asarray(d.evaluate(xx, yy))
            mass = np.trapezoid(np.trapezoid(grid, g, axis=1), g)
            tol = 1e-9 if d in (UNIFORM, POLY) else 5e-3  # disks are discontinuous
            assert mass == pytest.approx(d.mass, abs=tol)

    @settings(deadline=None, max_examples=20)
    @given(st.sampled_from(range(len(ALL))), st.integers(0, 6), st.integers(0, 6))
    def test_moment_monotonicity(self, di, a1, a2):
        d = ALL[di]
        assert d.moment(a1 + 1, a2) <= d.moment(a1, a2) + 1e-15
        assert d.moment(a1, a2 + 1) <= d.moment(a1, a2) + 1e-15

    def test_bounded_density_moment_bound(self):
        for d in ALL:
            M = d.sup_norm
            for a1 in range(5):
                for a2 in range(5):
                    assert d.moment(a1, a2) <= M / ((a1 + 1) * (a2 + 1)) + 1e-12


class TestEvaluate:
    def test_uniform(self):
        assert UNIFORM.evaluate(0.3, 0.7) == 1.0

    def test_polynomial_scalar_and_broadcast_points(self):
        assert isinstance(POLY.evaluate(0.5, 0.5), float)
        assert POLY.evaluate(0.5, 0.5) == 1.0
        g = np.array([0.25, 0.5, 1.0])
        assert np.array_equal(POLY.evaluate(g[:, None], g[None, :]), 4.0 * np.outer(g, g))

    def test_disk_center_and_corner(self):
        assert DISK.evaluate(0.5, 0.5) == pytest.approx(16.0 / math.pi)
        assert DISK.evaluate(0.0, 0.0) == 0.0

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(0, 1, size=(2, 500))
        for d in ALL:
            assert np.all(np.asarray(d.evaluate(pts[0], pts[1])) >= 0.0)

    def test_outside_domain(self):
        with pytest.raises(ValueError):
            UNIFORM.evaluate(1.5, 0.5)
        with pytest.raises(ValueError):
            DISK.evaluate(0.5, -0.2)

    @pytest.mark.parametrize("bad", [-2e-9, 1.0 + 2e-9])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_point_just_beyond_the_tolerance_is_refused(self, axis, bad):
        points = [np.array([0.25, 0.5, 0.75]), np.array([0.5, 0.5, 0.5])]
        points[axis][1] = bad
        with pytest.raises(ValueError, match="outside the unit square"):
            _check_points(*points)

    def test_points_within_the_tolerance_are_clipped(self):
        x1, x2 = _check_points([-_EDGE_TOL, 0.5], [0.5, 1.0 + _EDGE_TOL])
        assert x1.tolist() == [0.0, 0.5] and x2.tolist() == [0.5, 1.0]

    def test_broadcast_axes_are_checked_as_they_are(self):
        # `phantom_image` passes the pixel axes as (N, 1) and (1, N)
        g = np.linspace(0.0, 1.0, 5)
        x1, x2 = _check_points(g[:, None], g[None, :])
        assert x1.shape == (5, 1) and x2.shape == (1, 5)
        with pytest.raises(ValueError, match="outside the unit square"):
            _check_points(g[:, None], (g + 0.5)[None, :])

    @pytest.mark.parametrize("shape", [(0,), (0, 3), (3, 0)])
    def test_empty_points(self, shape):
        x1, x2 = _check_points(np.empty(shape), np.empty(shape))
        assert x1.shape == x2.shape == shape

    def test_nan_passes_through(self):
        x1, x2 = _check_points([math.nan, 0.5], [math.nan, math.nan])
        assert math.isnan(x1[0]) and x1[1] == 0.5 and np.isnan(x2).all()
        with pytest.raises(ValueError, match="outside the unit square"):
            _check_points([math.nan, 1.5], [0.5, 0.5])

    def test_poly_rejects_negative_coefficont_density(self):
        with pytest.raises(ValueError):
            PolynomialDensity.from_dict({(0, 0): -1.0})


def meshgrid_values(d, count):
    """d on two count x count meshgrids of [0, 1]^2, indexed [i, j]."""
    g = np.linspace(0.0, 1.0, count)
    xx, yy = np.meshgrid(g, g, indexing="ij")
    return d.evaluate(xx, yy)


#: a polynomial with terms in x1 only, x2 only, both, and a constant
MIXED_POLY = PolynomialDensity.from_dict({(0, 0): 0.5, (2, 0): 1.25, (0, 3): 0.75,
                                          (1, 2): 2.3, (3, 1): 0.1})


class TestGridScans:
    # the construction check (33^2, minimum) and the sup norms (129^2 and
    # 257^2, maximum) scan the broadcast axes, bit for bit the meshgrids
    @pytest.mark.parametrize("count", [33, 129, 257])
    @pytest.mark.parametrize("d", [POLY, MIXED_POLY, DISK, TWO_DISKS],
                             ids=["poly", "mixed_poly", "disk", "two_disks"])
    def test_broadcast_axes_match_the_meshgrids(self, d, count):
        scan = _grid_values(d, count)
        assert scan.shape == (count, count)
        assert np.array_equal(bits(scan), bits(meshgrid_values(d, count)))

    @pytest.mark.parametrize("d, count", [(POLY, 129), (MIXED_POLY, 129), (TWO_DISKS, 257)],
                             ids=["poly", "mixed_poly", "two_disks"])
    def test_sup_norm_is_the_meshgrid_maximum(self, d, count):
        assert bits(d.sup_norm) == bits(float(np.max(meshgrid_values(d, count))))

    def test_construction_checks_every_grid_point(self):
        # 1 - c x1 x2 is least at the corner (1, 1), the last grid point
        assert PolynomialDensity.from_dict({(0, 0): 1.0, (1, 1): -1.0}).sup_norm == 1.0
        with pytest.raises(ValueError, match="negative"):
            PolynomialDensity.from_dict({(0, 0): 1.0, (1, 1): -1.000002})


def quad_line_integral(d, theta, p):
    """Oracle: adaptive quadrature of d along the line, piece by piece.

    The line is cut where it crosses the square's edges, so every piece
    inside the square has a smooth integrand.
    """
    integrate = pytest.importorskip("scipy.integrate")
    c, s = math.cos(theta), math.sin(theta)
    cuts = [-2.0, 2.0]
    for slope, intercept in ((-s, p * c), (c, p * s)):
        if slope != 0.0:
            cuts += [u for u in (-intercept / slope, (1.0 - intercept) / slope)
                     if -2.0 < u < 2.0]
    cuts.sort()
    total = 0.0
    for a, b in zip(cuts, cuts[1:]):
        mid = 0.5 * (a + b)
        if 0.0 < p * c - mid * s < 1.0 and 0.0 < p * s + mid * c < 1.0:
            total += integrate.quad(
                lambda u: float(d.evaluate(np.clip(p * c - u * s, 0.0, 1.0),
                                           np.clip(p * s + u * c, 0.0, 1.0))),
                a, b, epsabs=1e-13, epsrel=1e-13,
            )[0]
    return total


class TestAnalyticRadon:
    def test_uniform_horizontal_line(self):
        assert radon(UNIFORM, math.pi / 2, 0.5) == pytest.approx(1.0)

    def test_uniform_diagonal(self):
        # line through the square's center perpendicular to (1,1)/sqrt2
        val = radon(UNIFORM, math.pi / 4, math.sqrt(2.0) / 2.0)
        assert val == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_disk_center_line(self):
        # chord through the center: amplitude * 2r = (16/pi) * 0.5
        got = radon(DISK, 1.234, 0.5 * math.cos(1.234) + 0.5 * math.sin(1.234))
        assert got == pytest.approx(8.0 / math.pi, rel=1e-12)

    @given(st.floats(0.0, 2.0 * math.pi), st.floats(1.5, 10.0))
    def test_line_missing_support(self, theta, p):
        for d in ALL:
            assert radon(d, theta, p) == 0.0

    def test_poly_matches_adaptive_quadrature(self):
        # Gauss-Legendre on the clipped chord is exact for polynomials;
        # the lines include axis-aligned ones and ones that miss the square
        poly = PolynomialDensity.from_dict({(1, 1): 2.3, (2, 2): 1.7, (0, 3): 0.4})
        rng = np.random.default_rng(11)
        axis = [0.0, math.pi / 2, math.pi, 3 * math.pi / 2, math.pi / 4]
        thetas = np.concatenate([axis, rng.uniform(0.0, 2.0 * math.pi, 40)])
        offsets = np.concatenate([[0.3, 0.7, 0.5, 0.25, 0.9], rng.uniform(-1.2, 1.5, 40)])
        for theta, p in zip(thetas, offsets):
            assert abs(radon(poly, theta, p) - quad_line_integral(poly, theta, p)) <= 1e-13
        for theta, p in ((0.0, 1.2), (math.pi / 2, -0.1), (0.8, 1.5), (2.0, -1.3)):
            assert radon(poly, theta, p) == 0.0
            assert quad_line_integral(poly, theta, p) == 0.0

    def test_array_call_matches_point_by_point(self):
        th = np.linspace(0.0, 2.0 * math.pi, 9)[:, None]
        ps = np.linspace(-1.6, 1.6, 33)[None, :]
        for d in ALL:
            grid = radon(d, th, ps)
            assert grid.shape == (9, 33)
            pointwise = np.array([[radon(d, t, p) for p in ps[0]] for t in th[:, 0]])
            assert np.array_equal(grid, pointwise)

    def test_chord_against_brute_force_oracle(self):
        # oracle: count fine arc-length samples inside the square
        rng = np.random.default_rng(3)
        for _ in range(25):
            theta = rng.uniform(0, math.pi)
            p = rng.uniform(-1.2, 1.5)
            t = np.linspace(-2.0, 2.0, 200001)
            x1 = p * math.cos(theta) - t * math.sin(theta)
            x2 = p * math.sin(theta) + t * math.cos(theta)
            inside = (x1 >= 0) & (x1 <= 1) & (x2 >= 0) & (x2 <= 1)
            brute = inside.sum() * (t[1] - t[0])
            assert radon(UNIFORM, theta, p) == pytest.approx(brute, abs=1e-4)

    def test_mass_conservation_over_offsets(self):
        # array-valued closed forms; fine grid because the disk profile has
        # square-root edges (trapezoid error ~ h^1.5 there).  Exactly
        # axis-aligned angles are excluded: there the uniform row is a step
        # whose jump can sit on a grid node, and any quadrature of such
        # samples is off by O(h) no matter the rule.
        ps = np.linspace(-1.6, 1.6, 500001)
        for theta in (0.3, 1.0, math.pi / 2 - 6.1e-3, 2.5):
            rows_uniform = radon(UNIFORM, theta, ps[::125])
            assert np.trapezoid(rows_uniform, ps[::125]) == pytest.approx(1.0, abs=1e-6)
            for d in (DISK, TWO_DISKS):
                assert np.trapezoid(radon(d, theta, ps), ps) == pytest.approx(d.mass, abs=1e-6)


def bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


def chord_lines(count, seed):
    """`count` random lines, a third of them parallel to an edge: theta = 0,
    pi/2 and pi as np.cos and np.sin give them, signed zeros and
    6.1e-17; a few offsets on the edges, at _EDGE_TOL and NaN."""
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 2.0 * math.pi, count)
    c, s = np.cos(theta), np.sin(theta)
    p = rng.uniform(-1.6, 1.6, count)
    axis = np.array([0.0, math.pi / 2, math.pi])
    special_c = np.concatenate([np.cos(axis), [0.0, -0.0, 1.0, -1.0, 6.1e-17, 1.0]])
    special_s = np.concatenate([np.sin(axis), [1.0, -1.0, 0.0, -0.0, 1.0, 6.1e-17]])
    pick = rng.choice(count, count // 3, replace=False)
    which = rng.integers(0, special_c.size, pick.size)
    c[pick], s[pick] = special_c[which], special_s[which]
    edges = [0.0, -0.0, 1.0, -1e-9, 1.0 + 1e-9, -2e-9, 1.0 + 2e-9, -1.0, math.nan]
    at = rng.choice(count, count // 4, replace=False)
    p[at] = rng.choice(edges, at.size)
    return c, s, p


class TestClipChord:
    """`_clip_chord` clips lines parallel to an edge through a fix-up of
    only their entries; every line must get the masked formula's bits."""

    def test_matches_the_masked_formula_bitwise(self):
        c, s, p = chord_lines(6000, seed=4)
        parallel = (np.abs(c) < 1e-15) | (np.abs(s) < 1e-15)
        assert 0 < parallel.sum() < parallel.size and np.isnan(p).any()
        for keep in (np.ones(c.size, dtype=bool), ~parallel, parallel):
            got = _clip_chord(c[keep], s[keep], p[keep])
            want = clip_chord_masked(c[keep], s[keep], p[keep])
            assert np.array_equal(bits(got[0]), bits(want[0]))
            assert np.array_equal(bits(got[1]), bits(want[1]))

    def test_scalar_lines(self):
        c, s, p = chord_lines(600, seed=5)
        for args in zip(c, s, p):
            for line in (args, [np.asarray(v) for v in args]):
                got = _clip_chord(*line)
                want = clip_chord_masked(*(np.asarray(v) for v in line))
                assert np.shape(got[1]) == ()
                assert bits(got[0]) == bits(want[0]) and bits(got[1]) == bits(want[1])


class TestMomentTable:
    def test_from_density_and_lookup(self):
        t = MomentTable.from_density(UNIFORM, 3)
        assert t.value(1, 2) == pytest.approx(1.0 / 6.0)
        assert not t.is_exact()
        t2 = MomentTable.from_density(UNIFORM, 3, exact=True)
        assert t2.value(1, 2) == Fraction(1, 6)
        assert t2.is_exact()

    def test_validates_triangular_completeness(self):
        with pytest.raises(ValueError):
            MomentTable(max_order=1, values={(0, 0): 1.0})
        with pytest.raises(ValueError):
            MomentTable(max_order=0, values={(0, 0): 1.0, (1, 1): 0.1})

    @pytest.mark.parametrize("key", [(-1, 0), (0, -1), (-1, 1)])
    def test_rejects_negative_index(self, key):
        with pytest.raises(ValueError, match=r"has a negative index"):
            MomentTable(max_order=1, values={(0, 0): 1.0, (1, 0): 0.5, (0, 1): 0.5, key: 7.0})

    def test_disk_not_inside_square_rejected(self):
        with pytest.raises(ValueError):
            DiskDensity(center=(0.1, 0.5), radius=0.2, amplitude=1.0)
