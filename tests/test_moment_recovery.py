import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from momentct.config import MomentConfig, RunConfig
from momentct.errors import MisuseError, OrderError
from momentct.mollifiers import make_kernel, sampled_kernel
from momentct.moment_recovery import (
    AngularMomentSet,
    _nearest_index,
    angular_moments,
    assemble_moment_matrix,
    deconvolve_moments,
    recover_moment_table,
    solve_moment_system,
)
from momentct.phantoms import PolynomialDensity, UniformDensity
from momentct.numerics import Grid1D
from momentct.projector import (
    Sinogram,
    full_circle_grid,
    half_circle_grid,
    moment_angle_grid,
    mollify,
    offset_grid,
    project,
)
from oracles import (
    convolve_moments,
    kernel_moments,
    synthesize_angular_moments,
    vandermonde_det_formula,
)

UNIFORM = UniformDensity()
POLY = PolynomialDensity.from_dict({(1, 1): 4.0})


def exact_b(density, theta, k):
    """Oracle: the k-th offset moment from the closed-form moment table."""
    return math.fsum(
        math.comb(k, j) * math.cos(theta) ** j * math.sin(theta) ** (k - j)
        * density.moment(j, k - j)
        for j in range(k + 1)
    )


def raw_moment_set(density, angles, K):
    """Oracle-grade angular moment set built from closed forms."""
    th = np.asarray(angles, dtype=float)
    values = np.array([[exact_b(density, t, k) for k in range(K + 1)] for t in th])
    return AngularMomentSet(angles=th, values=values)


def analytic_uniform_sinogram(angle_grid, offsets):
    """Sinogram with closed-form chord rows (no projector error)."""
    values = UNIFORM.radon(angle_grid.points()[:, None], offsets.points()[None, :])
    return Sinogram(angle_grid, offsets, values, "raw")


def argmin_index(grid, values):
    """Reference: the nearest grid point to each value by a scan of the grid."""
    return np.array([int(np.argmin(np.abs(grid - v))) for v in values], dtype=np.intp)


class TestNearestIndex:
    """`_nearest_index` picks the rows a scan of the whole grid picks."""

    @pytest.mark.parametrize("count", [2, 3, 7, 128, 256])
    @pytest.mark.parametrize("make_grid", [moment_angle_grid, half_circle_grid,
                                           full_circle_grid],
                             ids=["moment", "half", "full"])
    def test_matches_the_scan(self, make_grid, count):
        grid = make_grid(count).points()
        spacing = grid[1] - grid[0]
        rng = np.random.default_rng(count)
        requests = {
            "on_grid": grid,
            "random": rng.uniform(grid[0] - spacing, grid[-1] + spacing, 1000),
            "midpoints": (grid[:-1] + grid[1:]) / 2,
        }
        for name, values in requests.items():
            assert np.array_equal(_nearest_index(grid, values),
                                  argmin_index(grid, values)), name

    def test_one_point(self):
        grid = np.array([1.25])
        values = np.array([0.5, 1.25, 3.0])
        assert _nearest_index(grid, values).tolist() == [0, 0, 0]

    def test_equally_near_points_give_the_first(self):
        # five points over two ulps repeat two of them; from 9.0 every
        # distance rounds to 8.0, so the scan takes the first point, not
        # either of the two around the value
        grid = Grid1D(1.0, 1.0 + 4.44e-16, 5).points()
        assert np.unique(grid).size < grid.size
        values = np.concatenate([grid, [0.5, 2.0, 5.0, 9.0]])
        assert argmin_index(grid, values)[-1] == 0
        assert np.array_equal(_nearest_index(grid, values), argmin_index(grid, values))


class TestAngularMoments:
    def test_uniform_low_orders(self):
        # fine offsets: the raw rows are kinked, so the trapezoid moments
        # converge like h^2 and 1e-6 needs roughly 2^14 cells.  An even
        # angle count keeps axis-aligned angles (where the row degenerates
        # to a step and any sample-based rule is O(h)) off the grid.
        s = analytic_uniform_sinogram(moment_angle_grid(64), offset_grid(16385))
        ams = angular_moments(s, 2, [0.7, math.pi / 2, 2.2])
        assert np.allclose(ams.values[:, 0], 1.0, atol=1e-6)
        # first moment at the angle snapped closest to pi/2
        j = int(np.argmin(np.abs(ams.angles - math.pi / 2)))
        assert ams.values[j, 1] == pytest.approx(
            exact_b(UNIFORM, ams.angles[j], 1), abs=1e-6
        )
        assert exact_b(UNIFORM, math.pi / 2, 1) == pytest.approx(0.5, abs=1e-15)

    def test_zero_sinogram(self):
        s = Sinogram(moment_angle_grid(16), offset_grid(129), np.zeros((16, 129)), "raw")
        ams = angular_moments(s, 4, [0.5, 1.0, 1.5, 2.0, 2.5])
        assert np.all(ams.values == 0.0)

    def test_angle_domain(self):
        s = Sinogram(moment_angle_grid(16), offset_grid(129), np.zeros((16, 129)), "raw")
        with pytest.raises(ValueError):
            angular_moments(s, 2, [0.5, math.pi])

    def test_nan_angle_is_refused(self):
        # NaN fails every comparison, so it once passed the domain check
        s = Sinogram(moment_angle_grid(16), offset_grid(129), np.zeros((16, 129)), "raw")
        with pytest.raises(ValueError, match="strictly inside"):
            angular_moments(s, 2, [0.5, math.nan])

    def test_angles_on_one_row_are_refused(self):
        # 0.6 and 0.7 both snap to the first of the rows at pi (i+1)/5
        s = Sinogram(moment_angle_grid(4), offset_grid(129), np.zeros((4, 129)), "raw")
        with pytest.raises(ValueError,
                           match="^requested angles collapse onto duplicate sinogram rows$"):
            angular_moments(s, 2, [0.6, 0.7, 2.4])

    def test_provenance_tagging(self):
        s = Sinogram(moment_angle_grid(16), offset_grid(129), np.zeros((16, 129)), "raw")
        assert angular_moments(s, 1, [0.5, 1.0]).kernel_moments is None
        m = make_kernel("bump", 0.05)
        mol = Sinogram(moment_angle_grid(16), offset_grid(129),
                       np.zeros((16, 129)), "mollified", m)
        # smoothed moments carry the moments of the taps that smoothed them
        h = mol.offset_grid.spacing
        offsets, weights = sampled_kernel(m, h)
        c = angular_moments(mol, 3, [0.5, 1.0]).kernel_moments
        assert c == (float((weights * h) @ offsets**0), 0.0,
                     float((weights * h) @ offsets**2), 0.0)


class TestDeconvolution:
    def test_order_zero_passthrough(self):
        m = make_kernel("bump", 0.1)
        ams = raw_moment_set(UNIFORM, [0.5, 1.1, 1.9, 2.4, 2.9], 0)
        hat = convolve_moments(ams, m)
        assert np.allclose(hat.values, ams.values, atol=1e-15)

    def test_order_two_single_correction(self):
        m = make_kernel("bump", 0.1)
        ams = raw_moment_set(UNIFORM, [0.9, 1.7], 2)
        hat = convolve_moments(ams, m)
        c2 = kernel_moments(m, 2)[2]
        expected = ams.values[:, 2] + c2 * ams.values[:, 0]
        assert np.allclose(hat.values[:, 2], expected, atol=1e-15)
        back = deconvolve_moments(hat)
        assert np.allclose(back.values, ams.values, atol=1e-13)

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 10))
    def test_roundtrip_is_algebraic_identity(self, seed, K):
        rng = np.random.default_rng(seed)
        angles = np.sort(rng.uniform(0.1, math.pi - 0.1, K + 1))
        values = rng.uniform(-2.0, 2.0, size=(K + 1, K + 1))
        ams = AngularMomentSet(angles, values)
        # random symmetric unit-mass moment sequence
        m = make_kernel("bump", float(rng.uniform(0.02, 0.5)))
        back = deconvolve_moments(convolve_moments(ams, m))
        assert np.max(np.abs(back.values - values)) <= 1e-12

    def test_provenance_guards(self):
        m = make_kernel("bump", 0.1)
        ams = raw_moment_set(UNIFORM, [0.5, 1.5], 1)
        with pytest.raises(MisuseError):
            deconvolve_moments(ams)
        hat = convolve_moments(ams, m)
        with pytest.raises(MisuseError):
            convolve_moments(hat, m)


class TestSolve:
    def test_order_zero(self):
        ams = raw_moment_set(UNIFORM, [0.4, 1.0, 2.0], 0)
        assert solve_moment_system(ams, 0) == pytest.approx([1.0])

    def test_hand_solved_order_one(self):
        ams = raw_moment_set(UNIFORM, [math.pi / 4, math.pi / 2], 1)
        x = solve_moment_system(ams, 1)
        assert np.allclose(x, [0.5, 0.5], atol=1e-14)

    def test_poly_order_two_matches_oracle(self):
        angles = [math.pi / 6, math.pi / 2, 5 * math.pi / 6]
        ams = raw_moment_set(POLY, angles, 2)
        x = solve_moment_system(ams, 2)
        expected = [POLY.moment(j, 2 - j) for j in range(3)]
        assert np.allclose(x, expected, atol=1e-13)

    def test_overdetermined_fit_is_exact_on_consistent_data(self):
        # 40 angles against at most 7 unknowns: the least-squares fit of
        # consistent rows must return the closed-form moments.
        ams = raw_moment_set(POLY, np.linspace(0.05, math.pi - 0.05, 40), 6)
        for k in range(7):
            x = solve_moment_system(ams, k)
            expected = [POLY.moment(j, k - j) for j in range(k + 1)]
            assert np.max(np.abs(x - expected)) <= 1e-12

    def test_orders_above_the_table_cap_are_solved(self):
        # the cap on K is recover_moment_table's; the solve fits any order
        # the set measures, as convergence runs at K = 2m need
        ams = raw_moment_set(POLY, np.linspace(0.05, math.pi - 0.05, 40), 14)
        for k in (13, 14):
            x = solve_moment_system(ams, k)
            expected = [POLY.moment(j, k - j) for j in range(k + 1)]
            assert np.max(np.abs(x - expected)) <= 1e-12

    def test_requires_raw_provenance(self):
        m = make_kernel("bump", 0.1)
        hat = convolve_moments(raw_moment_set(UNIFORM, [0.3, 1.0, 2.0, 2.8], 3), m)
        with pytest.raises(MisuseError):
            solve_moment_system(hat, 1)


class TestDetFactorization:
    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6))
    def test_matches_direct_determinant(self, seed, k):
        rng = np.random.default_rng(seed)
        while True:
            th = np.sort(rng.uniform(0.05, math.pi - 0.05, k + 1))
            if k == 0 or np.min(np.diff(th)) > 1e-3:
                break
        direct = np.linalg.det(assemble_moment_matrix(th, k))
        formula = vandermonde_det_formula(th, k)
        assert direct == pytest.approx(formula, rel=1e-8)

    def test_sign_alternates(self):
        # at (pi/4, pi/2) the order-1 determinant is sin(t0 - t1) < 0
        th = np.array([math.pi / 4, math.pi / 2])
        assert vandermonde_det_formula(th, 1) == pytest.approx(
            -math.sqrt(2.0) / 2.0, rel=1e-12
        )


@pytest.fixture(scope="module")
def uniform_sino():
    return project(UNIFORM, moment_angle_grid(64), offset_grid(2049))


class TestRecoverTable:
    def test_uniform_raw_recovery(self, uniform_sino):
        table = recover_moment_table(uniform_sino, 4)
        for (a, b), v in table.values.items():
            assert v == pytest.approx(1.0 / ((a + 1) * (b + 1)), abs=1e-5)

    def test_uniform_mollified_recovery(self, uniform_sino):
        m = make_kernel("bump", 0.05)
        table = recover_moment_table(mollify(uniform_sino, m), 4)
        for (a, b), v in table.values.items():
            assert v == pytest.approx(1.0 / ((a + 1) * (b + 1)), abs=1e-4)

    def test_cosine_kernel_cross_check(self, uniform_sino):
        m = make_kernel("cosine", 0.05)
        table = recover_moment_table(mollify(uniform_sino, m), 4)
        for (a, b), v in table.values.items():
            assert v == pytest.approx(1.0 / ((a + 1) * (b + 1)), abs=1e-4)

    @pytest.mark.parametrize("kind", ["bump", "cosine"])
    @pytest.mark.parametrize("cells", [2, 3, 5, 8, 10])
    @pytest.mark.parametrize("density", [UNIFORM, POLY], ids=["uniform", "4x1x2"])
    def test_smoothing_costs_nothing_on_noiseless_rows(self, density, cells, kind):
        # the deconvolution inverts the moments of the taps `mollify` applied,
        # so the smoothed rows' table is the raw rows' table up to rounding
        raw = project(density, moment_angle_grid(64), offset_grid(512))
        m = make_kernel(kind, cells * raw.offset_grid.spacing)
        plain = recover_moment_table(raw, 8)
        smoothed = recover_moment_table(mollify(raw, m), 8)
        for key, value in plain.values.items():
            assert abs(smoothed.values[key] - value) <= 1e-12 * abs(value), key

    def test_zero_sinogram(self):
        s = Sinogram(moment_angle_grid(32), offset_grid(257), np.zeros((32, 257)), "raw")
        table = recover_moment_table(s, 3)
        assert all(v == 0.0 for v in table.values.values())

    def test_filtered_rows_are_refused(self, uniform_sino):
        filtered = Sinogram(uniform_sino.angle_grid, uniform_sino.offset_grid,
                            uniform_sino.values, "filtered")
        with pytest.raises(MisuseError, match="^a filtered sinogram cannot be inverted again$"):
            recover_moment_table(filtered, 2)

    def test_order_cap(self, uniform_sino):
        # the one cap on K is the run config's; the recovery fits any order
        # the rows support, as convergence runs at K = 2m need
        with pytest.raises(OrderError):
            RunConfig(moments=MomentConfig(K=14)).validate()
        with pytest.raises(OrderError):
            RunConfig(moments=MomentConfig(K=13)).validate()
        assert recover_moment_table(uniform_sino, 13).max_order == 13

    def test_range_identity_at_held_out_angles(self, uniform_sino):
        table = recover_moment_table(uniform_sino, 4)
        held_out = np.array([0.45, 1.234, 2.8])
        ams = angular_moments(uniform_sino, 4, held_out)
        predicted = synthesize_angular_moments(table, ams.angles, 4)
        assert np.max(np.abs(predicted - ams.values)) <= 1e-4

    def test_too_few_rows_for_order(self):
        s = Sinogram(moment_angle_grid(3), offset_grid(129), np.zeros((3, 129)), "raw")
        with pytest.raises(ValueError):
            recover_moment_table(s, 3)

    def test_diagnostics_channel(self, uniform_sino):
        diag = {}
        recover_moment_table(uniform_sino, 3, diagnostics=diag)
        assert list(diag) == ["conditions"]
        ks = [k for k, _ in diag["conditions"]]
        assert ks == [0, 1, 2, 3]
        assert all(c >= 1.0 for _, c in diag["conditions"])

