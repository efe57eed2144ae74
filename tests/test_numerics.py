import math

import numpy as np
import pytest

from momentct.numerics import Grid1D, gauss_legendre


class TestGrid1D:
    def test_spacing_and_points(self):
        g = Grid1D(0.0, 0.25, 5)
        assert (g.start, g.spacing, g.count, g.stop) == (0.0, 0.25, 5, 1.0)
        assert g.points().tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_points_step_from_start_and_stop_is_the_last(self):
        # linspace would force the last point to a stop given apart from the
        # spacing; here every point, the last included, is i * spacing + start
        g = Grid1D(0.0, math.pi / 48, 48)
        assert np.array_equal(g.points(), np.arange(48) * (math.pi / 48))
        assert g.points()[-1] == g.stop == 47 * (math.pi / 48)

    @pytest.mark.parametrize("spacing, count, message", [
        (1.0, 1, "at least 2 points"), (0.0, 4, "positive spacing"),
        (-0.5, 4, "positive spacing"),
    ], ids=["one-point", "zero-spacing", "negative-spacing"])
    def test_rejects_degenerate(self, spacing, count, message):
        with pytest.raises(ValueError, match=message):
            Grid1D(0.0, spacing, count)

    @pytest.mark.parametrize("start, spacing", [
        (0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0), (0.0, math.nan),
        (-1e308, 1e308),  # finite start and spacing, but the stop overflows
    ], ids=["inf-spacing", "inf-start", "nan-start", "nan-spacing", "inf-stop"])
    def test_rejects_non_finite(self, start, spacing):
        with pytest.raises(ValueError, match="^grid needs a finite start, stop and spacing"):
            Grid1D(start, spacing, 4)


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

