import math

import numpy as np
import pytest

from gsh_shrink.gsh_prior import GshParams, gsh_density
from gsh_shrink.numerics import (GAUSS_HERMITE, TRAPEZOID_ORACLE,
                                 QuadratureSpec, SeededRng,
                                 gaussian_quad_nodes, sample_normal)

ORACLE = QuadratureSpec(method=TRAPEZOID_ORACLE, oracle_halfwidth=10.0,
                        oracle_points=20001)


def expect(h, mu, sigma, spec=QuadratureSpec()):
    """E[h(Z)] for Z ~ Normal(mu, sigma^2) on the nodes of ``spec``."""
    u, v = gaussian_quad_nodes(spec)
    return float(v @ h(mu + sigma * u))


def gauss_hermite(n):
    return gaussian_quad_nodes(QuadratureSpec(node_count=n))


class TestGaussHermiteNodes:
    # standard-normal form of the n-point Gauss-Hermite rule: nodes
    # sqrt(2) x_i and weights w_i / sqrt(pi), so the weights sum to 1
    def test_single_node_rule(self):
        u, v = gauss_hermite(1)
        assert u.shape == v.shape == (1,)
        assert u[0] == pytest.approx(0.0, abs=1e-15)
        assert v[0] == pytest.approx(1.0, abs=1e-14)

    def test_two_node_closed_form(self):
        u, v = gauss_hermite(2)
        assert sorted(u) == pytest.approx([-1.0, 1.0], abs=1e-14)
        assert v == pytest.approx([0.5, 0.5], abs=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 5, 16, 64, 128, 256])
    def test_weight_sum_and_symmetry(self, n):
        u, v = gauss_hermite(n)
        assert abs(v.sum() - 1.0) < 1e-12
        assert abs(u @ v) < 1e-12

    def test_degree_exactness_at_n5(self):
        # the n-node rule is exact through degree 2n - 1; standard-normal
        # moments are (2k-1)!! for even degree 2k, zero for odd
        u, v = gauss_hermite(5)
        for degree in range(10):
            got = v @ u**degree
            expected = 0.0 if degree % 2 else math.prod(range(1, degree, 2))
            assert got == pytest.approx(expected, abs=1e-10)


class TestExpectGaussian:
    def test_identity_returns_mean(self):
        assert expect(lambda z: z, 1.5, 2.0) == pytest.approx(1.5, abs=1e-12)

    def test_second_moment(self):
        assert expect(np.square, 0.0, 1.0) == pytest.approx(1.0, abs=1e-10)

    def test_gsh_density_cross_check(self):
        p = GshParams.make(1.0, 3.0)
        h = lambda z: gsh_density(z, p)
        gh = expect(h, 2.0, 1.0, QuadratureSpec(node_count=64))
        oracle = expect(h, 2.0, 1.0, ORACLE)
        assert gh == pytest.approx(oracle, abs=1e-8)


class TestQuadratureSpec:
    def test_unknown_method(self):
        with pytest.raises(ValueError):
            QuadratureSpec(method="simpson")

    def test_node_count_positive(self):
        with pytest.raises(ValueError):
            QuadratureSpec(node_count=0)

    def test_oracle_halfwidth_floor(self):
        with pytest.raises(ValueError):
            QuadratureSpec(method=TRAPEZOID_ORACLE, oracle_halfwidth=4.0)
        QuadratureSpec(method=TRAPEZOID_ORACLE, oracle_halfwidth=6.0)

    def test_gauss_hermite_ignores_halfwidth(self):
        QuadratureSpec(method=GAUSS_HERMITE, oracle_halfwidth=1.0)


class TestSampleNormal:
    def test_degenerate_sigma(self):
        out = sample_normal(SeededRng(1), 2.5, 0.0, 3)
        np.testing.assert_array_equal(out, [2.5, 2.5, 2.5])

    def test_clt_mean_bound(self):
        out = sample_normal(SeededRng(123), 0.0, 1.0, 10**6)
        assert abs(out.mean()) < 4 / math.sqrt(10**6)

    def test_determinism(self):
        a = sample_normal(SeededRng(7, 9), 0.0, 1.0, 100)
        b = sample_normal(SeededRng(7, 9), 0.0, 1.0, 100)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        a = sample_normal(SeededRng(7, 1), 0.0, 1.0, 100)
        b = sample_normal(SeededRng(7, 2), 0.0, 1.0, 100)
        assert not np.array_equal(a, b)

    def test_negative_count(self):
        with pytest.raises(ValueError):
            sample_normal(SeededRng(1), 0.0, 1.0, -1)


class TestSeededRng:
    def test_byte_identical_streams(self):
        a = SeededRng(2**63 + 17, 5).generator().random(64)
        b = SeededRng(2**63 + 17, 5).generator().random(64)
        np.testing.assert_array_equal(a, b)

    def test_stream_helper(self):
        assert SeededRng(3).stream(8) == SeededRng(3, 8)
