import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from momentct import density_recon
from momentct.density_recon import (
    ReconGrid,
    cancellation_log10,
    minimized_sup_error_bound,
    moment_approximation,
    phantom_image,
    pixel_axis,
    reconstruct_grid,
    relative_l2_error,
    sup_error,
    sup_error_bound,
)
from momentct.errors import ConditioningWarning, OrderError, StabilityError
from momentct.phantoms import (
    DiskDensity,
    MomentTable,
    PolynomialDensity,
    SumOfDisksDensity,
    UniformDensity,
)

UNIFORM = UniformDensity()
POLY = PolynomialDensity.from_dict({(1, 1): 4.0})


def zero_table(K):
    values = {(a, b): 0.0 for a in range(K + 1) for b in range(K + 1 - a)}
    return MomentTable(max_order=K, values=values)


class TestPointEvaluation:
    def test_uniform_four_term_sum_at_origin(self):
        t = MomentTable.from_density(UNIFORM, 2)
        # 4 (gamma00 - gamma01 - gamma10 + gamma11) = 4 (1 - 1/2 - 1/2 + 1/4)
        assert moment_approximation(t, 1, 1, 0.0, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_uniform_single_term_at_far_corner(self):
        t = MomentTable.from_density(UNIFORM, 2)
        assert moment_approximation(t, 1, 1, 1.0, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_zero_table(self):
        t = zero_table(6)
        for x in ((0.0, 0.0), (0.3, 0.8), (1.0, 0.5)):
            assert moment_approximation(t, 3, 3, *x) == 0.0

    def test_exact_table_reproduces_uniform_identically(self):
        t = MomentTable.from_density(UNIFORM, 24, exact=True)
        for x1, x2 in ((0.0, 0.7), (0.35, 0.1), (0.99, 0.99), (1.0, 0.0)):
            assert moment_approximation(t, 12, 12, x1, x2) == 1.0

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 2**32 - 1))
    def test_linearity_in_the_table(self, seed):
        rng = np.random.default_rng(seed)
        K, m, n = 6, 3, 3
        va = {(a, b): rng.normal() for a in range(K + 1) for b in range(K + 1 - a)}
        vb = {(a, b): rng.normal() for a in range(K + 1) for b in range(K + 1 - a)}
        ca, cb = rng.normal(size=2)
        ta, tb = MomentTable(K, va), MomentTable(K, vb)
        tsum = MomentTable(K, {k: ca * va[k] + cb * vb[k] for k in va})
        x1, x2 = rng.uniform(0, 1, 2)
        lhs = moment_approximation(tsum, m, n, x1, x2)
        rhs = ca * moment_approximation(ta, m, n, x1, x2) \
            + cb * moment_approximation(tb, m, n, x1, x2)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    def test_order_and_stability_guards(self):
        t = MomentTable.from_density(UNIFORM, 4)
        with pytest.raises(OrderError):
            moment_approximation(t, 3, 3, 0.5, 0.5)
        big = zero_table(2)
        with pytest.raises(StabilityError):
            moment_approximation(big, 41, 1, 0.5, 0.5)
        with pytest.raises(ValueError):
            moment_approximation(t, 2, 2, 1.5, 0.5)

    def test_cancellation_estimate_grows(self):
        assert cancellation_log10(32, 32) > cancellation_log10(8, 8) > 0

    def test_cancellation_warning_starts_at_orders_15(self):
        assert cancellation_log10(14, 14) == pytest.approx(14.37, abs=0.005)
        assert cancellation_log10(15, 15) == pytest.approx(15.38, abs=0.005)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConditioningWarning)
            reconstruct_grid(zero_table(28), 14, 14, 4)
        with pytest.warns(ConditioningWarning, match=r"^moment approximation at orders "
                                                     r"\(15, 15\) cancels ~15 decimal digits;"):
            reconstruct_grid(zero_table(30), 15, 15, 4)


class TestGrid:
    def test_uniform_meets_bound(self):
        t = MomentTable.from_density(UNIFORM, 16)
        rec = reconstruct_grid(t, 8, 8, 32)
        err = sup_error(rec, phantom_image(UNIFORM, 32))
        bound = minimized_sup_error_bound(1.0, UNIFORM.modulus_bound, 8, 8)
        assert err <= bound

    def test_poly_error_shrinks_with_order(self):
        t = MomentTable.from_density(POLY, 32, exact=True)
        e8 = sup_error(reconstruct_grid(t, 8, 8, 32), phantom_image(POLY, 32))
        e16 = sup_error(reconstruct_grid(t, 16, 16, 32), phantom_image(POLY, 32))
        assert e16 < e8

    def test_zero_table_gives_zero_grid(self):
        rec = reconstruct_grid(zero_table(8), 4, 4, 16)
        assert np.all(rec.values == 0.0)

    @pytest.mark.parametrize("resolution", [1, 3, 24, 257])
    def test_pixel_axis_is_the_grid_convention(self, resolution):
        want = (np.arange(resolution) + 0.5) / resolution
        assert np.array_equal(pixel_axis(resolution).view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("resolution", [0, -1])
    def test_every_image_needs_a_positive_resolution(self, resolution):
        for make in (lambda: pixel_axis(resolution),
                     lambda: phantom_image(UNIFORM, resolution),
                     lambda: reconstruct_grid(zero_table(2), 1, 1, resolution)):
            with pytest.raises(ValueError, match="resolution must be positive"):
                make()

    def test_pixel_convention(self):
        # pixel [i, j] is at ((i + 0.5) / N, (j + 0.5) / N): x1 = 0.125, x2 = 0.875
        image = phantom_image(PolynomialDensity.from_dict({(1, 0): 1.0, (0, 1): 10.0}), 4)
        assert image.shape == (4, 4)
        assert image[0, 3] == pytest.approx(0.125 + 8.75)
        assert image[3, 0] == pytest.approx(0.875 + 1.25)

    @pytest.mark.parametrize("density", [
        UNIFORM, POLY, DiskDensity.unit_mass(),
        SumOfDisksDensity(disks=(DiskDensity.unit_mass((0.3, 0.3), 0.2),
                                 DiskDensity.unit_mass((0.7, 0.6), 0.25))),
    ], ids=["uniform", "polynomial", "disk", "disks"])
    def test_matches_the_meshgrid_evaluation_bitwise(self, density):
        # evaluated on the broadcast axes, the image keeps every pixel's bits
        xs = (np.arange(24) + 0.5) / 24
        x1, x2 = np.meshgrid(xs, xs, indexing="ij")
        want = np.asarray(density.evaluate(x1, x2), dtype=float)
        image = phantom_image(density, 24)
        assert image.shape == (24, 24) and not image.flags.writeable
        assert np.array_equal(image.view(np.uint64), want.view(np.uint64))


def random_table(K, seed):
    rng = np.random.default_rng(seed)
    return MomentTable(K, {(a, b): float(rng.normal())
                           for a in range(K + 1) for b in range(K + 1 - a)})


class TestCellTable:
    @pytest.mark.parametrize("m, n, resolution", [
        (8, 8, 5),     # fewer pixels than cells per axis: some cells stay empty
        (3, 2, 37),    # resolution not a multiple of m, and m != n
        (1, 1, 1),
    ])
    @pytest.mark.parametrize("exact", [False, True], ids=["float", "fraction"])
    def test_matches_pixel_by_pixel_evaluation(self, m, n, resolution, exact):
        t = MomentTable.from_density(POLY, m + n, exact=True) if exact \
            else random_table(m + n, seed=m * 100 + resolution)
        xs = (np.arange(resolution) + 0.5) / resolution
        expected = np.array([
            [moment_approximation(t, m, n, float(x1), float(x2)) for x2 in xs]
            for x1 in xs
        ])
        values = reconstruct_grid(t, m, n, resolution).values
        assert values.shape == expected.shape
        assert np.all(values == expected)

    def test_guards_reach_the_grid(self):
        with pytest.raises(OrderError):
            reconstruct_grid(MomentTable.from_density(UNIFORM, 4), 3, 3, 8)
        with warnings.catch_warnings():
            # the order checks run before the cancellation warning
            warnings.simplefilter("error", ConditioningWarning)
            with pytest.raises(StabilityError):
                reconstruct_grid(zero_table(2), 41, 1, 8)
        with pytest.warns(ConditioningWarning):
            reconstruct_grid(zero_table(32), 16, 16, 4)

    def test_orders_are_checked_before_the_cancellation_estimate(self, monkeypatch):
        def estimate_not_reached(m, n):
            raise AssertionError(f"cancellation estimate ran at orders ({m}, {n})")

        monkeypatch.setattr(density_recon, "cancellation_log10", estimate_not_reached)
        with pytest.raises(StabilityError):
            reconstruct_grid(zero_table(2), 10**30, 1, 8)
        with pytest.raises(StabilityError):
            reconstruct_grid(zero_table(2), 1, 41, 8)
        with pytest.raises(OrderError):
            reconstruct_grid(zero_table(4), 3, 3, 8)
        with pytest.raises(ValueError, match="positive"):
            reconstruct_grid(zero_table(4), 0, 1, 8)


class TestSupError:
    def test_matching_samples_give_zero(self):
        xs = (np.arange(8) + 0.5) / 8
        xx, yy = np.meshgrid(xs, xs, indexing="ij")
        rec = ReconGrid(8, np.asarray(POLY.evaluate(xx, yy)))
        assert sup_error(rec, phantom_image(POLY, 8)) == 0.0

    def test_zero_grid_vs_uniform(self):
        rec = ReconGrid(8, np.zeros((8, 8)))
        assert sup_error(rec, phantom_image(UNIFORM, 8)) == 1.0
        assert relative_l2_error(rec, phantom_image(UNIFORM, 8)) == pytest.approx(1.0)

    def test_relative_l2_error_where_the_squares_overflow(self):
        rng = np.random.default_rng(5)
        truth = rng.uniform(0.5, 1.5, (8, 8))
        values = truth + rng.normal(0.0, 0.1, (8, 8))
        plain = relative_l2_error(ReconGrid(8, values), truth)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = relative_l2_error(ReconGrid(8, values * 1e300), truth * 1e300)
        assert scaled == pytest.approx(plain, rel=1e-14)


class TestBound:
    def test_hand_arithmetic(self):
        b = sup_error_bound(sup_norm=1.0, modulus=0.1, delta=0.5, m=8, n=8)
        assert b == pytest.approx(0.1 + 1.6 + 0.32, abs=1e-12)

    def test_vanishes_for_zero_function(self):
        assert sup_error_bound(sup_norm=0.0, modulus=0.0, delta=0.3, m=4, n=4) == 0.0

    def test_order_limit_at_fixed_delta(self):
        vals = [
            sup_error_bound(1.0, 0.0, 2.0, m, m) for m in (4, 16, 64, 256)
        ]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            sup_error_bound(1.0, 0.0, -0.5, 4, 4)


class TestConvergence:
    def test_exact_moment_convergence_uniform_and_poly(self):
        # with exact rational moments the approximation error is the pure
        # mathematical one: identically zero for the uniform density and
        # O(1/m) for the polynomial
        for d, sup_norm in ((UNIFORM, 1.0), (POLY, 4.0)):
            t = MomentTable.from_density(d, 64, exact=True)
            errors = []
            for m in (4, 8, 16, 32):
                errors.append(sup_error(reconstruct_grid(t, m, m, 24), phantom_image(d, 24)))
                bound = minimized_sup_error_bound(sup_norm, d.modulus_bound, m, m)
                assert errors[-1] <= bound
            for prev, nxt in zip(errors, errors[1:]):
                assert nxt <= 1.1 * prev + 1e-12

    def test_smoothed_moment_convergence(self):
        # Moments of the density convolved with the radial kernel whose
        # profile the 1-D mollifier is: their order-k couplings to the raw
        # moments run through the kernel's signed moment sequence.  With
        # width shrinking like 1/m, the approximation built from the
        # smoothed moments still converges uniformly; evaluated in high
        # precision because the alternating sum cancels ~4^m.
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 60

        f = lambda u: mp.e ** (-1 / (1 - u * u)) if abs(u) < 1 else mp.mpf(0)
        mass = mp.quad(f, [-1, 0, 1])
        unit_width = {}  # c_j at eps = 1, by j: each quadrature runs once

        def bump_c(j, eps):
            if j not in unit_width:
                unit_width[j] = mp.quad(lambda u: f(u) * (-u) ** j, [-1, 0, 1]) / mass
            return unit_width[j] * mp.mpf(eps) ** j

        def smoothed_table(d, K, eps):
            cs = {j: bump_c(j, eps) for j in range(0, K + 1, 2)}
            gam = {
                (a, b): mp.mpf(d.moment_fraction(a, b).numerator)
                / d.moment_fraction(a, b).denominator
                for a in range(K + 1) for b in range(K + 1)
                if a + b <= K
            }
            values = {}
            for a in range(K + 1):
                for b in range(K + 1 - a):
                    total = mp.mpf(0)
                    for i in range(0, a + 1, 2):
                        for l in range(0, b + 1, 2):
                            k = i + l
                            mu = cs[k] * math.comb(k // 2, i // 2) / math.comb(k, i)
                            total += math.comb(a, i) * math.comb(b, l) * mu \
                                * gam[(a - i, b - l)]
                    values[(a, b)] = total
            return MomentTable(max_order=K, values=values)

        errors = []
        for m in (8, 16, 32):
            t = smoothed_table(POLY, 2 * m, 1.0 / m)
            errors.append(sup_error(reconstruct_grid(t, m, m, 16), phantom_image(POLY, 16)))
        assert errors[1] <= 1.1 * errors[0]
        assert errors[2] <= 1.1 * errors[1]

    def test_smoothed_moments_match_triangular_relation(self):
        # consistency: the radial-kernel moment table reproduces the
        # offset-moment coupling used by the deconvolution stage
        from momentct.mollifiers import make_kernel
        from oracles import convolve_moments, kernel_moments, synthesize_angular_moments
        from test_moment_recovery import raw_moment_set

        eps, K = 0.1, 4
        kernel = make_kernel("bump", eps)
        ams = raw_moment_set(POLY, [0.5, 1.1, 1.7, 2.3, 2.9], K)
        bhat = convolve_moments(ams, kernel)
        c = kernel_moments(kernel, K)

        gam = {}
        for a in range(K + 1):
            for b in range(K + 1 - a):
                total = 0.0
                for i in range(0, a + 1, 2):
                    for l in range(0, b + 1, 2):
                        k = i + l
                        mu = c[k] * math.comb(k // 2, i // 2) / math.comb(k, i)
                        total += math.comb(a, i) * math.comb(b, l) * mu \
                            * POLY.moment(a - i, b - l)
                gam[(a, b)] = total
        smoothed = MomentTable(max_order=K, values=gam)
        predicted = synthesize_angular_moments(smoothed, bhat.angles, K)
        assert np.max(np.abs(predicted - bhat.values)) <= 1e-12
