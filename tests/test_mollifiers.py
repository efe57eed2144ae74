import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from momentct import mollifiers
from momentct.errors import ResolutionWarning
from momentct.mollifiers import (
    PROFILES,
    MollifierSpec,
    make_kernel,
    sampled_kernel,
)
from momentct.moment_recovery import angular_moments
from momentct.projector import Sinogram, moment_angle_grid, mollify, offset_grid
from oracles import evaluate_kernel, fourier_of_kernel, kernel_moments

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Reference values for the unit-width bump profile N exp(-1/(1-u^2)),
# N fixing unit mass; frozen from a 30-digit mpmath quadrature:
BUMP_NORM = 2.2522836210435810105     # 1 / integral of exp(-1/(1-u^2))
BUMP_C2_UNIT = 0.15811363626379823    # second signed moment at eps = 1
COSINE_C2_UNIT = 1.0 / 3.0 - 2.0 / math.pi**2

WIDTHS = [0.01, 0.05, 0.1, 0.5]


def spacing_for(eps):
    """An offset spacing that puts about 3.3 cells in the half-width."""
    return eps / 3.3


def zero_rows(spacing, kind="raw", kernel=None):
    """Two rows of zeros on an offset grid of about this spacing."""
    count = 2 * math.ceil(3.0 / spacing) + 1  # a margin of at least 1
    grid = offset_grid(count, margin=(count - 1) * spacing / (2.0 * math.sqrt(2.0)))
    return Sinogram(moment_angle_grid(2), grid, np.zeros((2, count)), kind, kernel)


def tap_moments(m, spacing, K):
    """The moments c_0..c_K that `angular_moments` gives rows smoothed by
    m on a grid of this spacing."""
    rows = zero_rows(spacing, "mollified", m)
    return angular_moments(rows, K, rows.angle_grid.points()).kernel_moments


class TestTapMoments:
    @pytest.mark.parametrize("kind", ["bump", "cosine"])
    @pytest.mark.parametrize("eps", WIDTHS)
    def test_c0_is_one_and_c1_vanishes(self, kind, eps):
        c = tap_moments(make_kernel(kind, eps), spacing_for(eps), 6)
        assert c[0] == pytest.approx(1.0, abs=1e-14)
        assert c[1] == 0.0

    def test_odd_vanish_even_positive(self):
        c = tap_moments(make_kernel("bump", 0.1), 0.003, 9)
        for j in range(10):
            if j % 2:
                assert c[j] == 0.0
            else:
                assert c[j] > 0.0

    @pytest.mark.parametrize("kind", ["bump", "cosine"])
    def test_tend_to_the_continuous_kernel_moments(self, kind):
        # as the grid refines, the taps' c_2 approaches the oracle's
        m = make_kernel(kind, 0.05)
        exact = kernel_moments(m, 2)[2]
        gaps = [abs(tap_moments(m, 0.05 / cells, 2)[2] - exact) / exact
                for cells in (2.5, 5.5, 10.5, 20.5)]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] <= 1e-3


class TestContinuousMoments:
    # the continuous kernel is the tests' reference (oracles.kernel_moments)

    def test_c2_scaling_law(self):
        base = kernel_moments(make_kernel("bump", 1.0), 4)[2]
        assert base == pytest.approx(BUMP_C2_UNIT, abs=1e-10)
        for eps in WIDTHS:
            c = kernel_moments(make_kernel("bump", eps), 4)
            assert c[2] == pytest.approx(eps**2 * base, rel=1e-8)

    def test_cosine_c2_closed_form(self):
        # integral of (1+cos pi u)/2 * u^2 on [-1,1] is 1/3 - 2/pi^2
        c = kernel_moments(make_kernel("cosine", 1.0), 4)
        assert c[2] == pytest.approx(COSINE_C2_UNIT, abs=1e-12)
        c5 = kernel_moments(make_kernel("cosine", 0.05), 4)
        assert c5[2] == pytest.approx(0.05**2 * COSINE_C2_UNIT, rel=1e-10)

    @settings(deadline=None, max_examples=10)
    @given(st.floats(0.01, 0.5), st.integers(2, 8))
    def test_scaling_invariance(self, eps, order):
        unit = kernel_moments(make_kernel("bump", 1.0), order)
        c = kernel_moments(make_kernel("bump", eps), order)
        for j in range(0, order + 1, 2):
            assert c[j] / eps**j == pytest.approx(unit[j], rel=1e-8)

    def test_peak_scales_inversely_with_width(self):
        peak_base = BUMP_NORM * math.exp(-1.0)
        m = make_kernel("bump", 0.5)
        assert evaluate_kernel(m, 0.0) == pytest.approx(2.0 * peak_base, rel=1e-10)


class TestTaps:
    @pytest.mark.parametrize("kind", ["bump", "cosine"])
    @pytest.mark.parametrize("eps", WIDTHS)
    def test_unit_discrete_mass(self, kind, eps):
        for spacing in (spacing_for(eps), eps / 7.9, 0.003):
            _, weights = sampled_kernel(make_kernel(kind, eps), spacing)
            assert spacing * weights.sum() == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("kind", ["bump", "cosine"])
    def test_support_within_the_width_and_bitwise_symmetry(self, kind):
        for eps, spacing in ((0.3, 0.1), (0.3, 0.07), (0.05, 0.003)):
            offsets, weights = sampled_kernel(make_kernel(kind, eps), spacing)
            assert np.all(weights[np.abs(offsets) >= eps] == 0.0)
            assert np.all(weights[np.abs(offsets) < eps] > 0.0)
            assert np.array_equal(offsets, -offsets[::-1])
            assert np.array_equal(weights, weights[::-1])
            assert offsets[offsets.size // 2] == 0.0

    def test_nonnegative(self):
        _, weights = sampled_kernel(make_kernel("cosine", 0.2), 0.0006)
        assert np.all(weights >= 0.0)

    @pytest.mark.parametrize("kind", ["bump", "cosine"])
    def test_scale_with_the_width_at_a_fixed_ratio(self, kind):
        # a power-of-two rescale of width and spacing rescales the taps exactly
        offsets, weights = sampled_kernel(make_kernel(kind, 0.05), 0.007)
        wide = sampled_kernel(make_kernel(kind, 0.05 * 8), 0.007 * 8)
        assert np.array_equal(wide[0], offsets * 8)
        assert np.array_equal(wide[1], weights / 8)


class TestFourier:
    def test_dc_value(self):
        for m in (make_kernel("bump", 0.07), make_kernel("cosine", 0.5)):
            assert fourier_of_kernel(m, 0.0) == pytest.approx(INV_SQRT_2PI, abs=1e-12)

    def test_symmetry_in_s(self):
        m = make_kernel("bump", 0.1)
        for s in (0.5, 3.0, 12.0):
            assert fourier_of_kernel(m, s) == pytest.approx(fourier_of_kernel(m, -s))

    def test_value_in_unit_interval_and_oracle(self):
        m = make_kernel("bump", 0.1)
        got = fourier_of_kernel(m, 5.0)
        assert 0.0 < got < INV_SQRT_2PI
        # independent trapezoid oracle on a fine grid
        t = np.linspace(-0.1, 0.1, 20001)
        oracle = np.trapezoid(evaluate_kernel(m, t) * np.cos(5.0 * t), t) * INV_SQRT_2PI
        assert got == pytest.approx(oracle, rel=1e-9)

    def test_flattens_as_width_shrinks(self):
        s = 10.0
        errors = []
        for eps in (0.2, 0.1, 0.05, 0.025, 0.0125, 0.00625, 0.003125):
            m = make_kernel("bump", eps)
            errors.append(abs(fourier_of_kernel(m, s) - INV_SQRT_2PI))
        assert all(b <= a + 1e-15 for a, b in zip(errors, errors[1:]))
        assert errors[-1] <= 1e-4

    def test_first_zero_lies_beyond_the_band(self):
        m = make_kernel("bump", 0.1)
        assert fourier_of_kernel(m, 30.0) > 0.0  # eps*s = 3, inside the band
        assert fourier_of_kernel(m, 50.0) < 0.0  # past the first zero near eps*s = 4.97

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", sorted(PROFILES))
    def test_band_is_positive_at_every_width(self, kind):
        # the transform depends on s only through eps * s, so positivity on
        # the 257 points with eps * s in [0, 4] is a fact about the kind:
        # every width from the narrowest whose band 4/eps is finite to the
        # widest double gives the same values
        unit = fourier_of_kernel(make_kernel(kind, 1.0), np.linspace(0.0, 4.0, 257))
        assert np.all(unit > 0.0)
        for eps in (2.3e-308, 1e-150, 1e-3, 0.05, 1e150, 1.7e308):
            s = np.linspace(0.0, 4.0 / eps, 257)
            vals = fourier_of_kernel(make_kernel(kind, eps), s)
            np.testing.assert_allclose(vals, unit, rtol=1e-13, atol=0.0)


class TestSampledKernel:
    def test_unit_discrete_mass(self):
        m = make_kernel("bump", 0.05)
        offsets, weights = sampled_kernel(m, 0.003)
        assert offsets.size == weights.size
        assert weights.sum() * 0.003 == pytest.approx(1.0, rel=1e-14)

    def test_resolution_warning(self):
        # mollify, which applies the taps to data, warns; sampling is pure
        m = make_kernel("bump", 0.04)
        with pytest.warns(ResolutionWarning, match="below twice the grid spacing 0.03"):
            mollify(zero_rows(0.03), m)
        sampled_kernel(m, 0.03)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", ["bump", "cosine"])
    def test_hand_built_width_far_below_the_spacing_samples_to_the_centre_tap(self, kind):
        # `make_kernel` refuses a width whose 1/eps overflows, so the spec is
        # built by hand: every offset but 0 lies at an infinite u
        offsets, weights = sampled_kernel(MollifierSpec(kind, 1e-320), 0.01)
        assert offsets.tolist() == [-0.01, 0.0, 0.01]
        assert weights.tolist() == [0.0, 100.0, 0.0]

    def test_construction_validation(self):
        with pytest.raises(ValueError):
            make_kernel("bump", -0.1)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", ["bump", "cosine"])
    def test_width_whose_reciprocal_overflows_is_rejected(self, kind):
        with pytest.raises(ValueError, match=r"^kernel width 1e-320 is too narrow: "
                                             r"1/eps overflows$"):
            make_kernel(kind, 1e-320)

    @pytest.mark.parametrize("kind", ["bump", "cosine"])
    def test_width_far_below_the_spacing_builds_and_warns_when_applied(self, kind):
        m = make_kernel(kind, 1e-308)
        offsets, weights = sampled_kernel(m, 0.01)
        assert weights.tolist() == [0.0, 100.0, 0.0]
        with pytest.warns(ResolutionWarning):
            smoothed = mollify(zero_rows(0.01), m)
        assert smoothed.kernel is m

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("eps", [math.inf, math.nan])
    def test_non_finite_width_is_rejected(self, eps):
        with pytest.raises(ValueError, match="kernel width must be positive and finite"):
            make_kernel("bump", eps)

    @pytest.mark.filterwarnings("error")
    def test_narrowest_width_with_a_finite_reciprocal_is_accepted(self):
        eps = 1.01 / np.finfo(float).max
        assert make_kernel("bump", eps).epsilon == eps
        with pytest.raises(ValueError, match="is too narrow"):
            make_kernel("bump", 0.99 / np.finfo(float).max)


class TestConstruction:
    @pytest.mark.parametrize("kind", ["bump", "cosine"])
    def test_checks_only_its_inputs(self, monkeypatch, kind):
        # no sampling, transform or quadrature: positivity on the band is a
        # fact about the kind (TestFourier), not something to recompute per width
        calls = []
        profile = PROFILES[kind]

        def counted(u):
            calls.append(u)
            return profile(u)

        monkeypatch.setitem(mollifiers.PROFILES, kind, counted)
        assert make_kernel(kind, 0.05) == MollifierSpec(kind, 0.05)
        assert calls == []
