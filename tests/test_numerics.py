import math

import numpy as np
import pytest

from momentct.numerics import Grid1D, gauss_legendre


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


class TestGaussLegendre:
    @pytest.mark.parametrize("n", [1, 3, 200])
    def test_integrates_degree_2n_minus_1_exactly(self, n):
        nodes, weights = gauss_legendre(n)
        for k in range(2 * n):
            want = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert float(np.sum(weights * nodes**k)) == pytest.approx(want, abs=1e-13)

    def test_shared_rule_is_read_only(self):
        nodes, weights = gauss_legendre(3)
        assert gauss_legendre(3)[0] is nodes
        with pytest.raises(ValueError, match="read-only"):
            nodes[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            weights[0] = 0.0

