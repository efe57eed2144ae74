import math

import numpy as np
import pytest

from momentct.numerics import Grid1D, log_gamma


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

    @pytest.mark.parametrize("start, stop", [
        (0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0), (0.0, math.nan),
        (-1e308, 1e308),  # finite ends, but stop - start overflows the spacing
    ], ids=["inf-stop", "inf-start", "nan-start", "nan-stop", "inf-spacing"])
    def test_rejects_non_finite(self, start, stop):
        with pytest.raises(ValueError, match="finite start, stop and spacing"):
            Grid1D(start, stop, 4)


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

