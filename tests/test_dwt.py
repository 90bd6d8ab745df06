import math
import tracemalloc

import numpy as np
import pytest

from conftest import refs
from gsh_shrink.dwt import (WaveletDecomposition, daubechies_filter, forward,
                            inverse)


def _check_windowed_reference(n_moments: int, primary: int, size: int) -> None:
    """The analysis step as full (n/2 x L) circular windows.  Errors are
    relative to the signal: the coarsest coefficients can nearly cancel."""
    filt = daubechies_filter(n_moments)
    h, g = np.asarray(filt.lowpass), np.asarray(filt.highpass)
    x = np.random.default_rng(n_moments).normal(size=size)
    decomp = forward(x, filt, primary)
    approx, scale = x, np.abs(x).max()
    for j in range(size.bit_length() - 2, primary - 1, -1):
        n = approx.size
        idx = (2 * np.arange(n // 2)[:, None] + np.arange(h.size)[None, :]) % n
        windows = approx[idx]
        approx, detail = windows @ h, windows @ g
        assert np.abs(decomp.details[j] - detail).max() <= 1e-13 * scale
    assert np.abs(decomp.scaling - approx).max() <= 1e-13 * scale


def _check_scatter_add_reference(n_moments: int, primary: int, size: int) -> None:
    """The transpose of the analysis step written as a scatter-add, on
    random details; where a filter is longer than its level, the same
    output sample receives several taps of one coefficient."""
    filt = daubechies_filter(n_moments)
    h, g = np.asarray(filt.lowpass), np.asarray(filt.highpass)
    rng = np.random.default_rng(n_moments)
    decomp = forward(rng.normal(size=size), filt, primary)
    decomp = decomp.with_details(
        {j: rng.normal(size=d.size) for j, d in decomp.details.items()})
    ref = decomp.scaling
    for j in decomp.levels:
        n, detail = 2 * ref.size, decomp.details[j]
        idx = (2 * np.arange(n // 2)[:, None] + np.arange(h.size)[None, :]) % n
        x = np.zeros(n)
        np.add.at(x, idx, ref[:, None] * h[None, :] + detail[:, None] * g[None, :])
        ref = x
    got = inverse(decomp)
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


class TestDaubechiesFilter:
    def test_haar(self):
        filt = daubechies_filter(1)
        np.testing.assert_allclose(filt.lowpass,
                                   [1 / math.sqrt(2), 1 / math.sqrt(2)])
        np.testing.assert_allclose(filt.highpass,
                                   [1 / math.sqrt(2), -1 / math.sqrt(2)])

    @pytest.mark.parametrize("n", range(1, 11))
    def test_normalisation(self, n):
        filt = daubechies_filter(n)
        assert len(filt.lowpass) == 2 * n
        assert math.fsum(filt.lowpass) == pytest.approx(math.sqrt(2), abs=1e-12)
        assert math.fsum(c * c for c in filt.lowpass) == pytest.approx(1.0,
                                                                       abs=1e-12)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_orthogonal_to_even_shifts(self, n):
        h = daubechies_filter(n).lowpass
        for k in range(1, n):
            dot = math.fsum(h[m] * h[m + 2 * k] for m in range(len(h) - 2 * k))
            assert abs(dot) < 1e-12

    @pytest.mark.parametrize("n", range(1, 11))
    def test_vanishing_moments(self, n):
        g = daubechies_filter(n).highpass
        for p in range(n):
            moment = math.fsum(g[m] * m**p for m in range(len(g)))
            assert abs(moment) < 1e-8, f"moment p={p} is {moment:.2e}"

    @pytest.mark.parametrize("n", [0, 11, -1])
    def test_out_of_range(self, n):
        with pytest.raises(ValueError):
            daubechies_filter(n)


class TestForward:
    @pytest.mark.parametrize("n_moments", [1, 4, 10])
    def test_constant_signal_has_zero_details(self, n_moments):
        filt = daubechies_filter(n_moments)
        decomp = forward(np.full(256, 3.7), filt, 3)
        for j, det in decomp.details.items():
            np.testing.assert_allclose(det, 0.0, atol=1e-10)

    def test_parseval(self):
        rng = np.random.default_rng(1234)
        x = rng.normal(size=256)
        decomp = forward(x, daubechies_filter(10), 3)
        energy = np.sum(decomp.scaling**2) + sum(
            np.sum(d**2) for d in decomp.details.values())
        assert abs(energy - np.sum(x**2)) / np.sum(x**2) < 1e-10

    def test_haar_impulse_matches_explicit_matrix(self):
        # Full 4x4 Haar analysis matrix under this pyramid convention:
        # row order (scaling, level-0 detail, level-1 details)
        w = np.array([
            [0.5, 0.5, 0.5, 0.5],
            [0.5, 0.5, -0.5, -0.5],
            [1 / math.sqrt(2), -1 / math.sqrt(2), 0.0, 0.0],
            [0.0, 0.0, 1 / math.sqrt(2), -1 / math.sqrt(2)],
        ])
        filt = daubechies_filter(1)
        for pos in range(4):
            impulse = np.zeros(4)
            impulse[pos] = 1.0
            decomp = forward(impulse, filt, 0)
            flat = np.concatenate([decomp.scaling, decomp.details[0],
                                   decomp.details[1]])
            np.testing.assert_allclose(flat, w[:, pos], atol=1e-14)

    def test_level_shapes(self):
        decomp = forward(np.zeros(512), daubechies_filter(4), 3)
        assert decomp.levels == [3, 4, 5, 6, 7, 8]
        assert decomp.scaling.size == 8
        for j in decomp.levels:
            assert decomp.details[j].size == 2**j
        assert decomp.finest_detail.size == 256
        assert decomp.primary_level == 3

    def test_rejects_bad_lengths(self):
        filt = daubechies_filter(2)
        with pytest.raises(ValueError, match="100"):
            forward(np.zeros(100), filt, 3)
        with pytest.raises(ValueError):
            forward(np.zeros(0), filt, 0)

    def test_rejects_bad_primary_level(self):
        filt = daubechies_filter(2)
        with pytest.raises(ValueError):
            forward(np.zeros(64), filt, 6)
        with pytest.raises(ValueError):
            forward(np.zeros(64), filt, -1)


    @pytest.mark.parametrize("n_moments", range(1, 11))
    @pytest.mark.parametrize("primary", [0, 2])
    def test_matches_windowed_reference(self, n_moments, primary):
        # at J0 = 0 every filter but Haar is longer than the coarsest
        # levels, so one window wraps around its level several times
        _check_windowed_reference(n_moments, primary, 256)

    @pytest.mark.parametrize("n_moments", [1, 4, 10])
    def test_matches_windowed_reference_at_16384(self, n_moments):
        # the finest levels span many row chunks of the steps' products
        _check_windowed_reference(n_moments, 0, 2**14)


class TestAgainstReference:
    """The windowed polyphase steps against the oracle's FFT correlation,
    with the oracle's own filters computed from the Daubechies polynomial."""

    @pytest.mark.parametrize("n_moments", range(1, 11))
    @pytest.mark.parametrize("n, primary", [(8, 0), (64, 0), (1024, 3)])
    def test_forward_matches_reference(self, n_moments, n, primary):
        # at n = 8 and J0 = 0 every filter from D3 on is longer than the
        # coarsest levels, so windows wrap around a level more than once
        x = np.random.default_rng(n_moments).normal(size=n)
        decomp = forward(x, daubechies_filter(n_moments), primary)
        scaling, details = refs.dwt_forward(x, refs.daubechies_lowpass(n_moments), primary)
        assert sorted(details) == decomp.levels
        scale = np.abs(x).max()
        assert np.abs(decomp.scaling - scaling).max() <= 1e-12 * scale
        for j in decomp.levels:
            assert np.abs(decomp.details[j] - details[j]).max() <= 1e-12 * scale

    @pytest.mark.parametrize("n_moments", range(1, 11))
    @pytest.mark.parametrize("n, primary", [(8, 0), (64, 0), (1024, 3), (16384, 3)])
    def test_round_trip_is_exact(self, n_moments, n, primary):
        # at n = 16384 the finest levels span many row chunks of the
        # steps' products
        x = np.random.default_rng(n_moments).normal(size=n)
        back = inverse(forward(x, daubechies_filter(n_moments), primary))
        assert np.abs(back - x).max() <= 1e-13 * np.abs(x).max()

    def test_peak_memory_stays_flat(self):
        # the steps read overlapping windows of one wrapped copy per level;
        # no (n/2 x L) index or window matrix is materialised
        filt = daubechies_filter(10)
        x = np.random.default_rng(3).normal(size=2**16)
        inverse(forward(x[:64], filt, 4))
        tracemalloc.start()
        try:
            decomp = forward(x, filt, 4)
            back = inverse(decomp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        outputs = back.nbytes + decomp.scaling.nbytes + sum(
            d.nbytes for d in decomp.details.values())
        assert peak <= x.nbytes + outputs + 2**20


class TestInverse:
    @pytest.mark.parametrize("n", [64, 512, 2048])
    @pytest.mark.parametrize("n_moments", [1, 4, 10])
    @pytest.mark.parametrize("primary", [0, 3])
    def test_perfect_reconstruction(self, n, n_moments, primary):
        rng = np.random.default_rng(99)
        x = rng.normal(size=n)
        decomp = forward(x, daubechies_filter(n_moments), primary)
        assert np.abs(inverse(decomp) - x).max() < 1e-9

    def test_zeroed_decomposition(self):
        decomp = forward(np.arange(64, dtype=float), daubechies_filter(4), 2)
        zeroed = decomp.with_details(
            {j: np.zeros_like(d) for j, d in decomp.details.items()})
        zeroed = WaveletDecomposition(scaling=np.zeros_like(decomp.scaling),
                                      details=zeroed.details, n=decomp.n,
                                      filter=decomp.filter)
        np.testing.assert_allclose(inverse(zeroed), 0.0, atol=1e-15)

    def test_scaling_only_constant(self):
        x = np.full(128, -2.25)
        decomp = forward(x, daubechies_filter(6), 3)
        cleared = decomp.with_details(
            {j: np.zeros_like(d) for j, d in decomp.details.items()})
        np.testing.assert_allclose(inverse(cleared), x, atol=1e-10)

    @pytest.mark.parametrize("n_moments", range(1, 11))
    @pytest.mark.parametrize("primary", [0, 2])
    def test_matches_scatter_add_reference(self, n_moments, primary):
        # at J0 = 0 every filter but Haar is longer than the coarsest levels
        _check_scatter_add_reference(n_moments, primary, 256)

    @pytest.mark.parametrize("n_moments", [1, 4, 10])
    def test_matches_scatter_add_reference_at_16384(self, n_moments):
        # the finest levels span many row chunks of the steps' products
        _check_scatter_add_reference(n_moments, 0, 2**14)

    def test_inconsistent_sizes_rejected(self):
        decomp = forward(np.zeros(64), daubechies_filter(2), 2)
        bad = decomp.with_details({**decomp.details, 3: np.zeros(5)})
        with pytest.raises(ValueError, match="level 3"):
            inverse(bad)

    def test_skipped_level_rejected(self):
        # details at levels 3 and 5 of a 32-sample D2 decomposition: the
        # level-5 detail would meet a 16-sample approximation, and the
        # final length check alone would pass
        filt = daubechies_filter(2)
        decomp = forward(np.random.default_rng(11).normal(size=32), filt, 3)
        gap = {3: decomp.details[3], 5: np.zeros(32)}
        built = WaveletDecomposition(scaling=decomp.scaling, details=gap,
                                     n=32, filter=filt)
        for bad in (built, decomp.with_details(gap)):
            with pytest.raises(ValueError, match="level 5"):
                inverse(bad)


class TestOperatorProperties:
    def test_linearity(self):
        rng = np.random.default_rng(5)
        x, y = rng.normal(size=(2, 256))
        filt = daubechies_filter(10)
        d_combo = forward(2.0 * x - 0.5 * y, filt, 3)
        d_x = forward(x, filt, 3)
        d_y = forward(y, filt, 3)
        np.testing.assert_allclose(
            d_combo.scaling, 2.0 * d_x.scaling - 0.5 * d_y.scaling, atol=1e-10)
        for j in d_combo.levels:
            np.testing.assert_allclose(
                d_combo.details[j],
                2.0 * d_x.details[j] - 0.5 * d_y.details[j], atol=1e-10)

    @pytest.mark.parametrize("n_moments", range(1, 11))
    @pytest.mark.parametrize("n", [64, 4096])
    def test_commutes_with_even_circular_shift(self, n_moments, n):
        # rolling x by 2^(J - J0) rolls level j's details by 2^(j - J0) and
        # the scaling block by 1, in both directions; the shift carries
        # every sample across the block rows of the steps' products
        primary = 3
        filt = daubechies_filter(n_moments)
        x = np.random.default_rng(n_moments).normal(size=n)
        shift = n >> primary
        decomp = forward(x, filt, primary)
        rolled = forward(np.roll(x, shift), filt, primary)
        tol = 1e-13 * np.abs(x).max()
        assert np.abs(rolled.scaling - np.roll(decomp.scaling, 1)).max() <= tol
        for j in decomp.levels:
            moved = np.roll(decomp.details[j], 2 ** (j - primary))
            assert np.abs(rolled.details[j] - moved).max() <= tol
        rolled_back = inverse(WaveletDecomposition(
            scaling=np.roll(decomp.scaling, 1),
            details={j: np.roll(d, 2 ** (j - primary)) for j, d in decomp.details.items()},
            n=n, filter=filt))
        assert np.abs(rolled_back - np.roll(x, shift)).max() <= tol

    def test_inner_products_preserved(self):
        rng = np.random.default_rng(6)
        filt = daubechies_filter(10)
        for _ in range(5):
            x, y = rng.normal(size=(2, 512))
            dx = forward(x, filt, 3)
            dy = forward(y, filt, 3)
            dot = dx.scaling @ dy.scaling + sum(
                dx.details[j] @ dy.details[j] for j in dx.levels)
            assert dot == pytest.approx(x @ y, abs=1e-9)

    def test_white_noise_stays_white_per_level(self):
        rng = np.random.default_rng(7)
        sigma = 1.5
        x = rng.normal(0.0, sigma, size=2**16)
        decomp = forward(x, daubechies_filter(10), 6)
        # per-level check where the level is large enough for the sample
        # variance to be tight (sd of a level variance is sigma^2 sqrt(2/m))
        for j in decomp.levels:
            det = decomp.details[j]
            if det.size >= 4096:
                var = np.var(det)
                assert abs(var - sigma**2) / sigma**2 < 0.05, f"level {j}"
        pooled = np.concatenate(list(decomp.details.values()))
        assert abs(np.var(pooled) - sigma**2) / sigma**2 < 0.02
