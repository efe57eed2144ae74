import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from momentct.errors import OmegaMembershipError, ResolutionWarning
from momentct.mollifiers import (
    DEFAULT_OMEGA_BAND,
    evaluate_kernel,
    fourier_of_kernel,
    make_bump,
    make_cosine,
    sampled_kernel,
    validate_omega_band,
)

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Reference values for the unit-width bump profile N exp(-1/(1-u^2)),
# N fixing unit mass; frozen from a 30-digit mpmath quadrature:
BUMP_NORM = 2.2522836210435810105     # 1 / integral of exp(-1/(1-u^2))
BUMP_C2_UNIT = 0.15811363626379823    # second signed moment at eps = 1
COSINE_C2_UNIT = 1.0 / 3.0 - 2.0 / math.pi**2


class TestMoments:
    @pytest.mark.parametrize("make", [make_bump, make_cosine])
    @pytest.mark.parametrize("eps", [0.01, 0.05, 0.1, 0.5])
    def test_c0_is_one_and_c1_vanishes(self, make, eps):
        m = make(eps, 6)
        assert m.moments[0] == pytest.approx(1.0, abs=1e-12)
        assert abs(m.moments[1]) <= 1e-12

    def test_odd_vanish_even_positive(self):
        m = make_bump(0.1, 9)
        for j in range(10):
            if j % 2:
                assert abs(m.moments[j]) <= 1e-12
            else:
                assert m.moments[j] > 0.0

    def test_c2_scaling_law(self):
        base = make_bump(1.0, 4).moments[2]
        assert base == pytest.approx(BUMP_C2_UNIT, abs=1e-10)
        for eps in (0.01, 0.05, 0.1, 0.5):
            m = make_bump(eps, 4)
            assert m.moments[2] == pytest.approx(eps**2 * base, rel=1e-8)

    def test_cosine_c2_closed_form(self):
        # integral of (1+cos pi u)/2 * u^2 on [-1,1] is 1/3 - 2/pi^2
        m = make_cosine(1.0, 4)
        assert m.moments[2] == pytest.approx(COSINE_C2_UNIT, abs=1e-12)
        m5 = make_cosine(0.05, 4)
        assert m5.moments[2] == pytest.approx(0.05**2 * COSINE_C2_UNIT, rel=1e-10)

    @settings(deadline=None, max_examples=10)
    @given(st.floats(0.01, 0.5), st.integers(2, 8))
    def test_scaling_invariance(self, eps, order):
        unit = make_bump(1.0, order)
        m = make_bump(eps, order)
        for j in range(0, order + 1, 2):
            assert m.moments[j] / eps**j == pytest.approx(unit.moments[j], rel=1e-8)


class TestKernel:
    @pytest.mark.parametrize("make", [make_bump, make_cosine])
    @pytest.mark.parametrize("eps", [0.01, 0.05, 0.1, 0.5])
    def test_unit_mass_by_fine_quadrature(self, make, eps):
        m = make(eps, 2)
        x, w = np.polynomial.legendre.leggauss(400)
        tau = eps * x
        mass = eps * np.sum(w * evaluate_kernel(m, tau))
        assert mass == pytest.approx(1.0, abs=1e-10)

    def test_support_boundary_and_symmetry(self):
        m = make_bump(0.3, 2)
        assert evaluate_kernel(m, 0.3) == 0.0
        assert evaluate_kernel(m, -0.3) == 0.0
        assert evaluate_kernel(m, 0.31) == 0.0
        for t in (0.05, 0.12, 0.29):
            assert evaluate_kernel(m, t) == pytest.approx(evaluate_kernel(m, -t))

    def test_peak_scales_inversely_with_width(self):
        peak_base = BUMP_NORM * math.exp(-1.0)
        m = make_bump(0.5, 2)
        assert evaluate_kernel(m, 0.0) == pytest.approx(2.0 * peak_base, rel=1e-10)

    def test_nonnegative(self):
        m = make_cosine(0.2, 2)
        t = np.linspace(-0.3, 0.3, 1001)
        assert np.all(np.asarray(evaluate_kernel(m, t)) >= 0.0)


class TestFourier:
    def test_dc_value(self):
        for m in (make_bump(0.07, 2), make_cosine(0.5, 2)):
            assert fourier_of_kernel(m, 0.0) == pytest.approx(INV_SQRT_2PI, abs=1e-12)

    def test_symmetry_in_s(self):
        m = make_bump(0.1, 2)
        for s in (0.5, 3.0, 12.0):
            assert fourier_of_kernel(m, s) == pytest.approx(fourier_of_kernel(m, -s))

    def test_value_in_unit_interval_and_oracle(self):
        m = make_bump(0.1, 2)
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
            m = make_bump(eps, 2)
            errors.append(abs(fourier_of_kernel(m, s) - INV_SQRT_2PI))
        assert all(b <= a + 1e-15 for a, b in zip(errors, errors[1:]))
        assert errors[-1] <= 1e-4

    def test_omega_validation(self):
        m = make_bump(0.1, 2)
        validate_omega_band(m, 30.0)  # eps*s = 3, inside the safe band
        with pytest.raises(OmegaMembershipError):
            validate_omega_band(m, 60.0)  # crosses the first transform zero

    def test_tabulated_band_is_positive(self):
        # the 257 points construction checks, for both kernel families
        for m in (make_cosine(0.05, 2), make_bump(0.05, 2)):
            s = np.linspace(0.0, DEFAULT_OMEGA_BAND / m.epsilon, 257)
            assert np.all(np.asarray(fourier_of_kernel(m, s)) > 0.0)


class TestSampledKernel:
    def test_unit_discrete_mass(self):
        m = make_bump(0.05, 2)
        offsets, weights = sampled_kernel(m, 0.003)
        assert offsets.size == weights.size
        assert weights.sum() * 0.003 == pytest.approx(1.0, rel=1e-14)

    def test_resolution_warning(self):
        m = make_bump(0.004, 2)
        with pytest.warns(ResolutionWarning):
            sampled_kernel(m, 0.003)

    def test_construction_validation(self):
        with pytest.raises(ValueError):
            make_bump(-0.1, 2)
        with pytest.raises(ValueError):
            make_bump(0.1, -1)
