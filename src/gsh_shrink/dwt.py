"""Orthogonal periodic discrete wavelet transform, Daubechies family.

The forward transform is the classic pyramid: at each stage the current
approximation is circularly correlated with the analysis filters and
downsampled on even indices,

    a_out[k] = sum_m h[m] x[(2k + m) mod n],
    d_out[k] = sum_m g[m] x[(2k + m) mod n],

with the quadrature-mirror highpass g[m] = (-1)^m h[L-1-m].  Under periodic
boundary handling this realises an exactly orthogonal matrix, so energy is
preserved and the inverse is the transpose.

Both directions run as windowed polyphase products over block rows, two
dense matrix products per step.  Forward, the input is read as pairs
(x[2k], x[2k+1]), wrapped by index to whole rows of L consecutive samples
(L/2 pairs) plus one more row, and laid out as one contiguous (rows x L)
array.  The window of L samples starting at pair r of row q ends in row
q + 1, so the products of all n/2 windows with the (L x 2) taps [h, g] are
rows[:-1] @ T0 + rows[1:] @ T1, trimmed to n/2, where T0 and T1 are the two
(L x L) halves of the block-Toeplitz form of the taps; they give a_out and
d_out together.  Inverse, the (a, d) pairs from lag L/2 - 1 on are wrapped
to whole rows the same way, and the same two products with the taps in
reversed lag order give the even and odd output samples.  Wrapping by index
also covers filters longer than the level, at the coarsest levels of long
filters.  The second product is added in chunks of a fixed number of rows,
so a step's work memory is one padded copy of its input, its output, and a
temporary that does not grow with n.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

# Extremal-phase Daubechies lowpass filters with N = 1..10 vanishing
# moments, in ascending z-power order, normalised so the taps sum to
# sqrt(2).  Standard published coefficients, embedded to double precision;
# the moment/orthonormality tests enforce their correctness.
_DAUBECHIES_LOWPASS: dict[int, tuple[float, ...]] = {
    1: (7.07106781186547573e-01, 7.07106781186547573e-01),
    2: (-1.29409522551260370e-01, 2.24143868042013389e-01,
        8.36516303737807942e-01, 4.82962913144534156e-01),
    3: (3.52262918857095333e-02, -8.54412738820266582e-02,
        -1.35011020010254584e-01, 4.59877502118491543e-01,
        8.06891509311092547e-01, 3.32670552950082632e-01),
    4: (-1.05974017850690317e-02, 3.28830116668851966e-02,
        3.08413818355607640e-02, -1.87034811719093086e-01,
        -2.79837694168598543e-02, 6.30880767929858921e-01,
        7.14846570552915672e-01, 2.30377813308896506e-01),
    5: (3.33572528547377125e-03, -1.25807519990819988e-02,
        -6.24149021279827437e-03, 7.75714938400457188e-02,
        -3.22448695846383748e-02, -2.42294887066382025e-01,
        1.38428145901320743e-01, 7.24308528437772936e-01,
        6.03829269797189649e-01, 1.60102397974192928e-01),
    6: (-1.07730108530847959e-03, 4.77725751094551076e-03,
        5.53842201161496126e-04, -3.15820393174860298e-02,
        2.75228655303057269e-02, 9.75016055873230425e-02,
        -1.29766867567261940e-01, -2.26264693965439828e-01,
        3.15250351709197629e-01, 7.51133908021095364e-01,
        4.94623890398453059e-01, 1.11540743350109467e-01),
    7: (3.53713799974520241e-04, -1.80164070404749085e-03,
        4.29577972921366515e-04, 1.25509985560998405e-02,
        -1.65745416306668815e-02, -3.80299369350144134e-02,
        8.06126091510830783e-02, 7.13092192668302594e-02,
        -2.24036184993874982e-01, -1.43906003928564979e-01,
        4.69782287405193122e-01, 7.29132090846235092e-01,
        3.96539319481917285e-01, 7.78520540850091841e-02),
    8: (-1.17476784124769535e-04, 6.75449406450569331e-04,
        -3.91740373376947050e-04, -4.87035299345157414e-03,
        8.74609404740577662e-03, 1.39810279173982824e-02,
        -4.40882539307947546e-02, -1.73693010018075474e-02,
        1.28747426620478472e-01, 4.72484573913282795e-04,
        -2.84015542961546907e-01, -1.58291052563493059e-02,
        5.85354683654206731e-01, 6.75630736297289758e-01,
        3.12871590914299946e-01, 5.44158422431040081e-02),
    9: (3.93473203162716026e-05, -2.51963188942710124e-04,
        2.30385763523195973e-04, 1.84764688305622655e-03,
        -4.28150368246343026e-03, -4.72320475775139716e-03,
        2.23616621236790956e-02, 2.50947114831451973e-04,
        -6.76328290613299743e-02, 3.07256814793333798e-02,
        1.48540749338106376e-01, -9.68407832229764565e-02,
        -2.93273783279174916e-01, 1.33197385825007564e-01,
        6.57288078051300517e-01, 6.04823123690111153e-01,
        2.43834674612590341e-01, 3.80779473638783450e-02),
    10: (-1.32642028945212443e-05, 9.35886703200695919e-05,
         -1.16466855129285449e-04, -6.85856694959711619e-04,
         1.99240529518505613e-03, 1.39535174705290106e-03,
         -1.07331754833305745e-02, 3.60655356695616970e-03,
         3.32126740593410019e-02, -2.94575368218758134e-02,
         -7.13941471663970817e-02, 9.30573646035723484e-02,
         1.27369340335793252e-01, -1.95946274377377050e-01,
         -2.49846424327315381e-01, 2.81172343660577473e-01,
         6.88459039453603538e-01, 5.27201188931725628e-01,
         1.88176800077691497e-01, 2.66700579005555542e-02),
}


@dataclass(frozen=True)
class WaveletFilter:
    """Analysis filter pair; highpass is the quadrature mirror of lowpass."""

    vanishing_moments: int
    lowpass: tuple[float, ...]
    highpass: tuple[float, ...]


def daubechies_filter(vanishing_moments: int) -> WaveletFilter:
    """Standard extremal-phase Daubechies filter with N vanishing moments."""
    n = vanishing_moments
    if n not in _DAUBECHIES_LOWPASS:
        raise ValueError(f"vanishing moments must be in 1..10, got {n}")
    h = _DAUBECHIES_LOWPASS[n]
    length = len(h)
    g = tuple((-1.0) ** k * h[length - 1 - k] for k in range(length))
    return WaveletFilter(vanishing_moments=n, lowpass=h, highpass=g)


@dataclass(frozen=True)
class WaveletDecomposition:
    """Coarse scaling block plus per-level detail vectors.

    ``details[j]`` has length 2^j for j = J0..J-1 where n = 2^J; the
    scaling block has length 2^J0.
    """

    scaling: np.ndarray
    details: dict[int, np.ndarray]
    n: int
    filter: WaveletFilter

    @property
    def levels(self) -> list[int]:
        return sorted(self.details)

    @property
    def finest_detail(self) -> np.ndarray:
        return self.details[max(self.details)]

    @property
    def primary_level(self) -> int:
        return min(self.details)

    def with_details(self, details: dict[int, np.ndarray]) -> "WaveletDecomposition":
        return replace(self, details=details)


def _dyadic_log(n: int) -> int:
    j = int(round(math.log2(n))) if n > 0 else -1
    if n <= 0 or 2**j != n:
        raise ValueError(f"signal length must be a power of two, got {n}")
    return j


#: Rows of the second product per chunk: its temporary stays at this many
#: block rows (40 KB for Daub10) whatever the level length.
_CHUNK_ROWS = 256


def _block_taps(taps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two (L x L) halves T0, T1 of the block-Toeplitz form of the
    (L x 2) taps: columns 2r, 2r + 1 hold the taps shifted down by 2r
    samples, so that the window starting at pair r of one row of L samples
    is [row, next row] @ [T0; T1] in those columns."""
    length = taps.shape[0]
    full = np.zeros((2 * length, length))
    # block r of this view is full[2r : 2r + L, 2r : 2r + 2]; blocks are disjoint
    step = full.itemsize
    np.ndarray((length // 2, length, 2), buffer=full,
               strides=(2 * (length + 1) * step, length * step, step))[...] = taps
    return full[:length], full[length:]


def _block_product(pairs: np.ndarray, half: int,
                   blocks: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """(half x 2) products of the windows of L consecutive samples starting
    at pairs 0..half-1 of a contiguous (rows L/2 x 2) pairs array, with
    rows - 1 >= half / (L/2).  Read as (rows x L) block rows, every window
    starting in row q ends in row q + 1, so the products are
    rows[:-1] @ T0 + rows[1:] @ T1; the second is added in row chunks."""
    t0, t1 = blocks
    rows = pairs.reshape(-1, t0.shape[0])
    out = rows[:-1] @ t0
    for start in range(0, out.shape[0], _CHUNK_ROWS):
        stop = start + _CHUNK_ROWS
        out[start:stop] += rows[start + 1:stop + 1] @ t1
    return out.reshape(-1, 2)[:half]


def _padded_pairs(half: int, length: int) -> int:
    """Pairs of whole block rows that hold every window of a level of
    ``half`` pairs: one block row more than the windows' starts fill."""
    per_row = length // 2
    return (-(-half // per_row) + 1) * per_row


def _analysis_step(x: np.ndarray,
                   blocks: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    # window k is x[(2k + m) mod n] for m = 0..L-1, so its product with the
    # (L x 2) taps [h, g] gives a[k] and d[k]; the pairs (x[2k], x[2k+1])
    # are wrapped to whole block rows, by take, which wraps more than once
    # where the filter is longer than the level
    half = x.size // 2
    pairs = x.reshape(half, 2).take(np.arange(_padded_pairs(half, blocks[0].shape[0])),
                                    axis=0, mode="wrap")
    coarse = _block_product(pairs, half, blocks)
    return coarse[:, 0].copy(), coarse[:, 1].copy()


def _synthesis_step(approx: np.ndarray, detail: np.ndarray,
                    blocks: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    # transpose of the analysis step: with half = n/2,
    # x[2m + r] = sum_l a[(m - l) mod half] h[2l + r] + d[(m - l) mod half] g[2l + r],
    # so over (a, d) pairs from lag L/2 - 1 on, wrapped to whole block rows,
    # window m holds lags L/2 - 1 .. 0, and its product with the (L x 2)
    # synthesis taps gives x[2m] and x[2m + 1]
    half, length = approx.size, blocks[0].shape[0]
    lag = np.arange(1 - length // 2, 1 - length // 2 + _padded_pairs(half, length))
    pairs = np.empty((lag.size, 2))
    pairs[:, 0] = approx.take(lag, mode="wrap")
    pairs[:, 1] = detail.take(lag, mode="wrap")
    return _block_product(pairs, half, blocks).ravel()


def _synthesis_taps(filt: WaveletFilter) -> np.ndarray:
    """(L x 2) taps of _synthesis_step: row 2i + c, column r holds tap
    2l + r of h (c = 0) or g (c = 1) at lag l = L/2 - 1 - i."""
    lags = np.array((filt.lowpass, filt.highpass)).reshape(2, -1, 2)[:, ::-1]
    return lags.transpose(1, 0, 2).reshape(-1, 2)


def forward(signal, filt: WaveletFilter, primary_level: int) -> WaveletDecomposition:
    """Periodic pyramid transform of a length-2^J signal down to the primary level."""
    x = np.asarray(signal, dtype=float)
    if x.ndim != 1:
        raise ValueError("signal must be one-dimensional")
    depth = _dyadic_log(x.size)
    if not 0 <= primary_level < depth:
        raise ValueError(
            f"primary level must satisfy 0 <= J0 < {depth}, got {primary_level}"
        )
    details: dict[int, np.ndarray] = {}
    blocks = _block_taps(np.array((filt.lowpass, filt.highpass)).T)
    approx = x
    for j in range(depth - 1, primary_level - 1, -1):
        approx, detail = _analysis_step(approx, blocks)
        details[j] = detail
    return WaveletDecomposition(scaling=approx, details=details, n=x.size, filter=filt)


def inverse(decomp: WaveletDecomposition) -> np.ndarray:
    """Reconstruct the signal; exact up to rounding by orthogonality."""
    levels = decomp.levels
    if not levels:
        raise ValueError("decomposition has no detail levels")
    expected = 2 ** levels[0]
    if decomp.scaling.size != expected:
        raise ValueError(
            f"scaling block has length {decomp.scaling.size}, expected {expected}"
        )
    x = np.asarray(decomp.scaling, dtype=float)
    blocks = _block_taps(_synthesis_taps(decomp.filter))
    for j in levels:
        # the running approximation has 2^j samples unless a level is missing
        if x.size != 2**j:
            raise ValueError(
                f"detail level {j} meets an approximation of length {x.size}: "
                f"level {x.size.bit_length() - 1} is missing")
        detail = np.asarray(decomp.details[j], dtype=float)
        if detail.size != 2**j:
            raise ValueError(
                f"detail level {j} has length {detail.size}, expected {2**j}"
            )
        x = _synthesis_step(x, detail, blocks)
    if x.size != decomp.n:
        raise ValueError(
            f"decomposition reconstructs length {x.size}, expected {decomp.n}"
        )
    return x
