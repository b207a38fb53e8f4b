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

from .errors import InvalidParameter, NumericalFailure
from .linear_modes import _check_build_budget
from .model import ChainParams, _check_finite, _check_positive
from .ramsey import (VisibilityTrace, _rounding_allowance, chain_amplitudes,
                     evaluate_trace)

DEFAULT_T_F = 1e4      # 1/omega_0
DEFAULT_N_S = 100_000
DC_FLOOR_BINS = 3      # band metrics ignore the first bins: V has a large mean
_MIN_SAMPLES = 1 << 10
# Traced bytes per sample of a trace and what each command keeps beside it,
# N = 16-100 at 2-8e5 samples: 85-97 for longtime and fourier, 109-110 for
# visibility and 141-142 for visibility at theta > 0. Traced on numpy 2;
# the bound keeps about 5% over the largest for other numpy versions'
# temporaries.
_SAMPLE_BYTES = 150


def check_trace_samples(n_samples: int) -> None:
    """Raise ResourceLimit before a time grid of n_samples is allocated.

    A uniform grid costs O(M + T log T); the modes' share is checked by the
    kick weights and the trig sums, and here the samples' share, bytes per
    sample x T, against the budget of every O(N) build,
    `linear_modes._BUILD_BUDGET`, so about 1.3e7 samples fit. The T x M
    budget of the direct route, TRACE_BUDGET, is checked by its kernel,
    `linear_modes._direct_trig_sum`."""
    _check_build_budget(n_samples, "trace arrays of", _SAMPLE_BYTES,
                        "sample")


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


def _left_bases(h: list, u: list) -> np.ndarray:
    """Lowest sample between each maximum and the nearest strictly higher
    one to its left (or the left edge), from the maxima's finite heights h
    and u[k], the lowest sample between maxima k - 1 and k.

    A stack holds the maxima not yet passed by a higher one, each with its
    base; before maximum i goes on, every entry no higher than it comes off
    and its base folds into i's, because the entries taken off span exactly
    the segments back to the nearest higher maximum. Each maximum goes on
    and comes off at most once, so the pass is O(P).
    """
    heights, lows, bases = [math.inf], [math.inf], []   # inf never comes off
    for hi, base in zip(h, u):
        while heights[-1] <= hi:
            heights.pop()
            low = lows.pop()
            if low < base:
                base = low
        heights.append(hi)
        lows.append(base)
        bases.append(base)
    return np.array(bases)


def _peak_prominences(x: np.ndarray) -> tuple:
    """Local maxima of x and their prominences, as scipy.signal computes them.

    From each peak, the base on either side is the lowest sample before the
    first strictly higher one (or the array edge); the prominence is the
    peak height minus the higher of the two bases. Between two neighbouring
    maxima, and between an edge and its nearest maximum, nothing rises
    above both ends without making a maximum of its own, so the bases are
    read off the P maxima alone: u[k], the lowest sample between maxima
    k - 1 and k (the edge segments at the ends), folded by one monotone
    stack per side (`_left_bases`; the right side is the same pass over the
    reversed maxima). Cost O(n + P); every value is one of x's.
    """
    peaks = _local_maxima(x)
    if not len(peaks):
        return peaks, np.empty(0)
    h = x[peaks]
    u = np.minimum.reduceat(x, np.concatenate(([0], peaks))).tolist()
    hs = h.tolist()
    left = _left_bases(hs, u)
    right = _left_bases(hs[::-1], u[::-1])[::-1]
    return peaks, h - np.maximum(left, right)


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
    """Band overlay variant [sqrt(2 Delta nu_t + Delta^2), nu_t]: its lower
    edge differs from the soft gap delta at order Delta^2 and passes nu_t
    above Delta = nu_c / sqrt(2), leaving the band empty. It is the second
    row of the fourier band table and of scenario 2's confinement detail."""
    d = params.delta_trans
    if d < 0:
        raise InvalidParameter("band overlay is defined on the linear side")
    return math.sqrt(2.0 * d * params.nu_t + d * d), params.nu_t
