import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from momentct.numerics import (
    Grid1D,
    binomial,
    log_gamma,
    trapezoid_integrate,
)


class TestGrid1D:
    def test_spacing_and_points(self):
        g = Grid1D(0.0, 1.0, 5)
        assert g.spacing == pytest.approx(0.25)
        assert np.allclose(g.points(), [0, 0.25, 0.5, 0.75, 1.0])

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            Grid1D(0.0, 1.0, 1)
        with pytest.raises(ValueError):
            Grid1D(1.0, 0.0, 4)


class TestLogGamma:
    def test_known_values(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-15)
        assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)
        # Gamma(1/2) = sqrt(pi); reference value from a 50-digit computation
        assert log_gamma(0.5) == pytest.approx(0.57236494292470008707, rel=1e-14)

    def test_against_high_precision_oracle(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for x in np.geomspace(0.5, 200.0, 41):
                ref = float(mpmath.loggamma(mpmath.mpf(float(x))))
                err = abs(log_gamma(float(x)) - ref)
                assert err <= 1e-12 * max(1.0, abs(ref))

    def test_recovers_factorials(self):
        # exp amplifies the log's half-ulp to ~|log|*eps relative, so exact
        # float equality is unattainable; nearest integer must still match.
        for n in range(16):
            val = math.exp(log_gamma(n + 1))
            fact = math.factorial(n)
            assert round(val) == fact
            assert abs(val - fact) <= 32 * np.finfo(float).eps * fact

    def test_domain(self):
        with pytest.raises(ValueError):
            log_gamma(0.0)
        with pytest.raises(ValueError):
            log_gamma(-3.2)


class TestBinomial:
    def test_known_values(self):
        assert binomial(4, 2) == 6
        assert all(binomial(k, 0) == 1 for k in range(40))
        assert binomial(20, 10) == 184756

    def test_matches_pascal_triangle_oracle(self):
        rows = [[1]]
        for k in range(1, 32):
            prev = rows[-1]
            rows.append([1] + [prev[j - 1] + prev[j] for j in range(1, k)] + [1])
        for k in range(32):
            for j in range(k + 1):
                assert binomial(k, j) == rows[k][j]

    @given(st.integers(2, 31), st.data())
    def test_pascal_identity(self, k, data):
        j = data.draw(st.integers(1, k - 1))
        assert binomial(k, j) == binomial(k - 1, j - 1) + binomial(k - 1, j)

    def test_domain(self):
        with pytest.raises(ValueError):
            binomial(3, 4)
        with pytest.raises(ValueError):
            binomial(-1, 0)


class TestTrapezoid:
    def test_exact_for_affine(self):
        for count in (2, 7, 100):
            g = Grid1D(0.0, 1.0, count)
            assert trapezoid_integrate(g.points(), g) == pytest.approx(0.5, abs=1e-15)

    def test_square_three_nodes(self):
        g = Grid1D(0.0, 1.0, 3)
        # hand value h/2 * (0 + 2*0.25 + 1) = 0.375
        assert trapezoid_integrate(g.points() ** 2, g) == pytest.approx(0.375, abs=1e-15)

    def test_full_period_sine(self):
        g = Grid1D(0.0, 2.0 * math.pi, 101)
        assert abs(trapezoid_integrate(np.sin(g.points()), g)) <= 1e-12

    @settings(deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_linearity(self, seed):
        rng = np.random.default_rng(seed)
        g = Grid1D(-1.0, 2.0, 17)
        u, v = rng.normal(size=(2, 17))
        a, b = rng.normal(size=2)
        lhs = trapezoid_integrate(a * u + b * v, g)
        rhs = a * trapezoid_integrate(u, g) + b * trapezoid_integrate(v, g)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_shape_error(self):
        with pytest.raises(ValueError):
            trapezoid_integrate([1.0, 2.0], Grid1D(0.0, 1.0, 3))

