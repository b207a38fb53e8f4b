"""Sampling V(t) and its discrete Fourier transform.

The visibility is sampled on the symmetric interval t in [-T_F/2, T_F/2)
with spacing dt = T_F / n_s and transformed with a plain rectangular window
(no apodization); numpy's FFT evaluates the exact DFT for any sample count,
power of two or not. The magnitude is folded to omega >= 0 and normalized
to its DC value.

Band confinement is measured as the fraction of DC-excluded *power*
(|F|^2) inside a frequency interval. Power weighting is deliberate: with a
rectangular window the |F| leakage tails of lines near a band edge decay
only like 1/|omega - omega_line| and would dominate an amplitude-weighted
fraction, while the power tails converge fast and measure the physical line
content. The transverse band of the linear chain is [omega_y(pi/a), nu_t];
its large-N lower edge is the soft gap `model.ChainParams.soft_gap`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, NumericalFailure, ResourceLimit
from .model import ChainParams, _check_finite, _check_positive
from .ramsey import (VisibilityTrace, _rounding_allowance, chain_amplitudes,
                     evaluate_trace)

DEFAULT_T_F = 1e4      # 1/omega_0
DEFAULT_N_S = 100_000
DC_FLOOR_BINS = 3      # band metrics ignore the first bins: V has a large mean
_MIN_SAMPLES = 1 << 10
MAX_TRACE_SAMPLES = 100_000_000    # ~10 GB of trace arrays at ~100 B/sample


def check_trace_samples(n_samples: int) -> None:
    """Raise ResourceLimit before a time grid of n_samples is allocated.

    A uniform grid costs O(M + T log T), so only T is capped here; the
    T x M budget of the direct route is checked in ramsey."""
    if n_samples > MAX_TRACE_SAMPLES:
        raise ResourceLimit(f"trace of {n_samples} samples exceeds the cap "
                            f"{MAX_TRACE_SAMPLES}")


def visibility_trace(params: ChainParams, T_F: float = DEFAULT_T_F,
                     n_s: int = DEFAULT_N_S) -> VisibilityTrace:
    """Sample V(t) of `chain_amplitudes(params)`, in either phase, at
    params.theta on t_n = -T_F/2 + n dt, n = 0..n_s-1, dt = T_F/n_s."""
    _check_positive("T_F", T_F)
    if n_s < _MIN_SAMPLES:
        raise InvalidParameter(f"n_s must be >= {_MIN_SAMPLES}")
    check_trace_samples(n_s)
    amps = chain_amplitudes(params)
    dt = T_F / n_s
    t = -0.5 * T_F + dt * np.arange(n_s)
    return evaluate_trace(amps, t, theta=params.theta, with_overlap=False)


@dataclass(frozen=True)
class FourierSpectrum:
    """One-sided DFT magnitude of a sampled signal, normalized to F(0) = 1."""

    omega: np.ndarray
    F: np.ndarray
    bin_width: float

    def __post_init__(self):
        if len(self.omega) != len(self.F):
            raise InvalidParameter("omega and F must have equal length")


def fourier_spectrum(trace: VisibilityTrace) -> FourierSpectrum:
    """Normalized |DFT| of finite V(t), folded to omega >= 0.

    Every step of the time grid must lie within 1e-9 dt of dt = t[1] - t[0]
    plus `ramsey._rounding_allowance`, so grids built by accumulation pass,
    and T_F long enough for a finite top frequency; the magnitude is
    invariant under the circular shift that maps the symmetric interval
    onto DFT order.
    """
    t = trace.t
    if len(t) < 2:
        raise InvalidParameter("trace too short")
    dt = float(t[1] - t[0])
    if dt <= 0 or not np.allclose(np.diff(t), dt, rtol=1e-9,
                                  atol=_rounding_allowance(t)):
        raise InvalidParameter("fourier_spectrum requires a uniform grid")
    _check_finite("V", trace.V)
    F = np.abs(np.fft.rfft(trace.V))
    if F[0] == 0.0:
        raise NumericalFailure("zero DC component; cannot normalize")
    F = F / F[0]
    T_F = dt * len(t)
    if not math.isfinite(2.0 * math.pi * (len(F) - 1) / T_F):
        raise InvalidParameter(f"T_F = {T_F:g} is too short: the top "
                               f"frequency 2 pi {len(F) - 1} / T_F overflows")
    omega = 2.0 * math.pi * np.arange(len(F)) / T_F
    return FourierSpectrum(omega=omega, F=F, bin_width=2.0 * math.pi / T_F)


def spectral_band_check(spectrum: FourierSpectrum, omega_min: float,
                        omega_max: float) -> float:
    """Fraction of DC-excluded spectral power lying inside
    [omega_min, omega_max]; F must be finite."""
    if not omega_min < omega_max:
        raise InvalidParameter("need omega_min < omega_max")
    _check_finite("F", spectrum.F)
    floor = spectrum.omega > DC_FLOOR_BINS * spectrum.bin_width
    total = float(np.sum(spectrum.F[floor] ** 2))
    if total == 0.0:
        return 0.0
    band = floor & (spectrum.omega >= omega_min) & (spectrum.omega <= omega_max)
    return float(np.sum(spectrum.F[band] ** 2)) / total


def _local_maxima(x: np.ndarray) -> np.ndarray:
    """Indices of the local maxima of x: a rise, a flat run, then a fall.

    A flat top is reported at its midpoint, rounded down; the first and last
    samples are never maxima (scipy.signal's rules).
    """
    step = (x[1:] > x[:-1]).astype(np.int8) - (x[1:] < x[:-1])
    moves = np.flatnonzero(step)                # diff j: x[j] -> x[j + 1]
    top = (step[moves[:-1]] > 0) & (step[moves[1:]] < 0)
    return (moves[:-1][top] + 1 + moves[1:][top]) // 2


def _sparse_table(x: np.ndarray, op) -> np.ndarray:
    """Row k holds op over x[i:i + 2**k], cut off at the end of x."""
    n = len(x)
    table = np.empty((max(1, n.bit_length()), n))
    table[0] = x
    for k in range(1, len(table)):
        w = 1 << (k - 1)
        table[k] = table[k - 1]
        op(table[k - 1, :n - w], table[k - 1, w:], out=table[k, :n - w])
    return table


def _peak_prominences(x: np.ndarray) -> tuple:
    """Local maxima of x and their prominences, as scipy.signal computes them.

    From each peak, the base on either side is the lowest sample before the
    first strictly higher one (or the array edge); the prominence is the
    peak height minus the higher of the two bases. The runs of samples no
    higher than the peak are found by binary lifting on a max sparse table,
    their minima on a min sparse table: O(n log n) time and memory, with no
    loop over the peaks.
    """
    n = len(x)
    peaks = _local_maxima(x)
    h = x[peaks]
    hi = _sparse_table(x, np.maximum)
    # Extend [left, right] by halving strides while the next stride fits in
    # x and holds no sample above the peak.
    left, right = peaks.copy(), peaks.copy()
    for k in range(len(hi) - 1, -1, -1):
        w = 1 << k
        ahead = hi[k, np.minimum(right + 1, n - 1)]
        right += np.where((right + w < n) & (ahead <= h), w, 0)
        behind = hi[k, np.maximum(left - w, 0)]
        left -= np.where((left >= w) & (behind <= h), w, 0)
    del hi
    lo = _sparse_table(x, np.minimum)

    def range_min(a, b):                    # min of x[a:b + 1], a <= b
        k = np.frexp(b - a + 1)[1] - 1      # floor(log2(b - a + 1))
        return np.minimum(lo[k, a], lo[k, b - (1 << k) + 1])

    return peaks, h - np.maximum(range_min(left, peaks),
                                 range_min(peaks, right))


def find_peaks(spectrum: FourierSpectrum,
               prominence: float) -> list[tuple[float, float]]:
    """Local maxima of F with prominence >= `prominence` past the first
    DC_FLOOR_BINS bins.

    Peaks, plateau midpoints and prominences follow scipy.signal.find_peaks.
    Returns (omega, F) pairs sorted by descending amplitude.
    """
    _check_positive("prominence", prominence)
    F = np.asarray(spectrum.F, dtype=np.float64)
    _check_finite("F", F)
    idx, prom = _peak_prominences(F)
    idx = idx[(prom >= prominence) & (idx > DC_FLOOR_BINS)]
    pairs = [(float(spectrum.omega[i]), float(F[i])) for i in idx]
    pairs.sort(key=lambda p: -p[1])
    return pairs


def transverse_band(params: ChainParams) -> tuple[float, float]:
    """Infinite-chain transverse band [delta, nu_t] used for confinement checks."""
    return params.soft_gap, params.nu_t


def overlay_band(params: ChainParams) -> tuple[float, float]:
    """Band overlay variant sqrt(2 Delta nu_t + Delta^2): differs from the
    soft gap delta at order Delta^2; kept for figure annotation only."""
    d = params.delta_trans
    if d < 0:
        raise InvalidParameter("band overlay is defined on the linear side")
    return math.sqrt(2.0 * d * params.nu_t + d * d), params.nu_t
