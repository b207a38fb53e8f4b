"""Short- and long-time asymptotics of the decoherence exponent.

Short times: A(t) ~ Gamma t^2 with Gamma = (1/2) sum |alpha|^2 omega^2;
for the linear chain the sum collapses to (eta0^2 nu_t / 2) times the mean
transverse frequency. Since eta0^2 nu_t is fixed at fixed eta_c and
d omega_m / d nu_t = nu_t / omega_m, d Gamma / d Delta = nu_t A_inf / 2
exactly, so it diverges logarithmically at the transition, as A_inf does.

Long times: A(t) = A_inf - B(t) with A_inf = sum |alpha|^2 and
B(t) = sum |alpha|^2 cos(omega t). Near the transition the mode sum is
dominated by the soft zone-edge region where omega(q)^2 ~ delta^2 + h^2 q^2,
giving the closed forms

    A_inf ~ -(eta0^2 nu_t / (2 pi h)) ln Delta + c
    B(t)  ~ -(eta0^2 nu_t / (2 h)) Y0(delta t)

with h = sqrt(ln 2) and Y0 the irregular Bessel function, implemented here
from scratch (power series below x = 12, Hankel asymptotics above). The
finite chain deviates from the continuum at the revival time t* = N / v_max
set by the fastest transverse wave packet.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass

import numpy as np

from .errors import (InvalidParameter, NumericalFailure, UnstableLinearPhase)
from .linear_modes import max_group_velocity
from .model import (ChainParams, H_STIFFNESS, _check_finite,
                    _check_positive)
from .ramsey import (DisplacementAmplitudes, VisibilityTrace,
                     _rounding_allowance, linear_chain_amplitudes,
                     zigzag_displacement_amplitudes)

EULER_GAMMA = 0.5772156649015329

# Hankel expansion coefficients c_m = prod_{i<=m} (2i-1)^2 / (m! 8^m).
_HANKEL_C = (1.0, 0.125, 0.0703125, 0.0732421875, 0.112152099609375,
             0.22710800170898438, 0.5725014209747314, 1.7277275025844574)
_SERIES_CUT = 12.0
MIN_BURST_SAMPLES = 8     # shortest trace `find_revival_burst` accepts
BURST_FACTOR = 2.0        # burst: amplitude above this times its baseline
CUSP_POINTS_PER_SIDE = 5  # points nearest Delta = 0 in each cusp fit


@dataclass(frozen=True)
class GammaForms:
    """Curvature Gamma of A(t): direct sum and mean-frequency reduction.

    mean_frequency is None for amplitude sets where the probe-row sum rule
    does not reduce to a uniform 1/N weight (zigzag phase).
    """

    direct: float
    mean_frequency: float | None


def gamma_coefficient(amps: DisplacementAmplitudes) -> GammaForms:
    """Gamma = (1/2) sum_m |alpha_m|^2 omega_m^2, plus the mean-frequency form."""
    direct = 0.5 * float(np.sum(amps.weight * amps.omega ** 2))
    mean = None
    if amps.kind == "linear":
        mean = 0.5 * amps.eta0 ** 2 * amps.nu_t * float(np.mean(amps.omega))
    return GammaForms(direct=direct, mean_frequency=mean)


def gamma_fit(trace: VisibilityTrace) -> tuple[float, float]:
    """Least-squares Gamma from A(t) ~ Gamma t^2 on the early-time window.

    Uses samples with |t| nu_t <= 0.1 (at least 50 of them) and returns
    (gamma, rms residual of the fit on that window).
    """
    if trace.nu_t <= 0:
        raise InvalidParameter("trace must carry a positive nu_t")
    mask = np.abs(trace.t) * trace.nu_t <= 0.1 + 1e-15
    if int(np.sum(mask)) < 50:
        raise InvalidParameter(
            f"fit window holds {int(np.sum(mask))} samples; need >= 50 "
            "with |t| nu_t <= 0.1")
    t2 = trace.t[mask] ** 2
    A = trace.A[mask]
    denom = float(np.sum(t2 ** 2))
    if denom == 0.0:
        raise InvalidParameter("fit window has no nonzero times")
    gamma = float(np.sum(A * t2)) / denom
    resid = A - gamma * t2
    return gamma, float(np.sqrt(np.mean(resid ** 2)))


@dataclass(frozen=True)
class DerivativeScan:
    """Gamma, A_inf and d Gamma / d Delta per Delta, all from the one
    amplitude set built for that Delta, and the log fit a + b ln(Delta)."""

    deltas: np.ndarray
    dgamma: np.ndarray
    a: float
    b: float
    r_squared: float
    gamma: np.ndarray
    a_inf: np.ndarray


def gamma_derivative_scan(deltas, N: int, eta_c: float) -> DerivativeScan:
    """Gamma, A_inf and d Gamma / d Delta over Delta > 0; fit a + b ln Delta.

    By the probe-row sum rule Gamma = (eta0^2 nu_t / 2N) sum_m omega_m and
    A_inf = (eta0^2 nu_t / N) sum_m 1 / omega_m over the N modes. At fixed
    eta_c, eta0^2 nu_t = eta_c^2 nu_c does not depend on Delta = nu_t - nu_c,
    and omega_m^2 - nu_t^2 does not either, so d omega_m / d Delta =
    nu_t / omega_m and each point is exactly nu_t A_inf / 2, for any N and
    probe site. The fit needs at least 3 distinct Delta.
    """
    d = np.asarray(deltas, dtype=np.float64)
    if np.any(d <= 0):
        raise UnstableLinearPhase("derivative scan requires Delta > 0")
    log_d = np.log(d)
    _check_distinct(log_d, "the dGamma/dDelta fit")     # before any build
    sets = (linear_chain_amplitudes(ChainParams.from_delta(N, float(x), eta_c))
            for x in d)     # built and dropped one at a time
    nu_t, gamma, a_inf = np.array([(s.nu_t, gamma_coefficient(s).direct,
                                    a_infinity(s).direct) for s in sets]).T
    out = 0.5 * nu_t * a_inf
    b, a, _, r2 = _line_fit(log_d, out, "the dGamma/dDelta fit")
    return DerivativeScan(deltas=d, dgamma=out, a=a, b=b, r_squared=r2,
                          gamma=gamma, a_inf=a_inf)


def _check_distinct(x: np.ndarray, what: str) -> None:
    """Fewer than 3 distinct x fit a line exactly or not at all, so they
    raise. (A set counts them, not np.unique, which imports numpy.ma: 1 MB
    of resident memory.)"""
    distinct = len(set(x.tolist()))
    if distinct < 3:
        raise InvalidParameter(f"{what} needs >= 3 distinct Delta, got "
                               f"{distinct}")


def _line_fit(x: np.ndarray, y: np.ndarray, what: str) -> tuple:
    """Least-squares y = intercept + slope x: (slope, intercept, the slope's
    standard error, R^2, which is 1 for a constant y), after
    `_check_distinct`."""
    _check_distinct(x, what)
    slope, intercept = (float(c) for c in np.polyfit(x, y, 1))
    ss_res = float(np.sum((y - (intercept + slope * x)) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    sxx = float(np.sum((x - np.mean(x)) ** 2))
    stderr = math.sqrt(max(ss_res, 1e-300) / ((len(x) - 2) * sxx))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return slope, intercept, stderr, r2


@dataclass(frozen=True)
class AInfinityForms:
    """Saturation value A_inf: direct sum and mean-inverse-frequency form."""

    direct: float
    mean_inverse: float | None


def a_infinity(amps: DisplacementAmplitudes) -> AInfinityForms:
    """A_inf = sum_m |alpha_m|^2; linear chains also get the 1/omega mean form."""
    direct = float(np.sum(amps.weight))
    mean = None
    if amps.kind == "linear":
        mean = amps.eta0 ** 2 * amps.nu_t * float(np.mean(1.0 / amps.omega))
    return AInfinityForms(direct=direct, mean_inverse=mean)


@dataclass(frozen=True)
class AnalyticAInfinity:
    """Continuum form A_inf(Delta) = -slope ln Delta + offset.

    slope is eta0^2 nu_t / (2 pi h); offset matches the exact mode sum
    a_ref at delta_ref.
    """

    slope: float
    offset: float
    delta_ref: float

    def evaluate(self, delta):
        d = np.asarray(delta, dtype=np.float64)
        if np.any(d <= 0):
            raise UnstableLinearPhase("analytic A_inf is defined for Delta > 0")
        out = -self.slope * np.log(d) + self.offset
        return out if np.ndim(delta) else float(out)


def a_infinity_analytic(params: ChainParams, delta_ref: float,
                        a_ref: float) -> AnalyticAInfinity:
    """Continuum A_inf(Delta) at params' eta_c and N through the exact
    plateau a_ref at delta_ref (a `DerivativeScan.a_inf` entry, say); the
    slope eta0^2 nu_t / (2 pi h) is closed form, so no chain is built."""
    if not (0 < delta_ref < math.inf and math.isfinite(a_ref)):
        raise InvalidParameter(f"need 0 < delta_ref < inf and a finite a_ref, "
                               f"got delta_ref = {delta_ref}, a_ref = {a_ref}")
    slope = params.eta0 ** 2 * params.nu_t / (2.0 * math.pi * H_STIFFNESS)
    offset = a_ref + slope * math.log(delta_ref)
    return AnalyticAInfinity(slope=slope, offset=offset, delta_ref=delta_ref)


def _y0_series(x: np.ndarray) -> np.ndarray:
    """Power series for Y0, valid (and accurate) for 0 < x <= ~15.

    Y0 = (2/pi) [(ln(x/2) + gamma) J0(x) + sum_{m>=1} (-1)^{m+1} H_m q^m/(m!)^2]
    with q = x^2/4 and H_m the harmonic numbers.
    """
    q = 0.25 * x * x
    j0 = np.ones_like(x)
    corr = np.zeros_like(x)
    term = np.ones_like(x)       # q^m / (m!)^2, starting at m = 0
    harmonic = 0.0
    for m in range(1, 200):
        term = term * q / (m * m)
        harmonic += 1.0 / m
        sign = 1.0 if m % 2 == 1 else -1.0
        j0 += -sign * term       # J0 alternates starting negative
        corr += sign * harmonic * term
        if np.all(term < 1e-18 * (1.0 + np.abs(corr))):
            break
    else:
        raise NumericalFailure("Y0 series did not converge")
    return (2.0 / math.pi) * ((np.log(0.5 * x) + EULER_GAMMA) * j0 + corr)


def _y0_asymptotic(x: np.ndarray) -> np.ndarray:
    """Hankel expansion sqrt(2/(pi x)) [sin(x - pi/4) P(x) + cos(x - pi/4) Q(x)]."""
    c = _HANKEL_C
    ix2 = 1.0 / (x * x)
    P = 1.0 + ix2 * (-c[2] + ix2 * (c[4] + ix2 * -c[6]))
    Q = (1.0 / x) * (-c[1] + ix2 * (c[3] + ix2 * (-c[5] + ix2 * c[7])))
    w = x - 0.25 * math.pi
    return np.sqrt(2.0 / (math.pi * x)) * (np.sin(w) * P + np.cos(w) * Q)


def bessel_Y0(x):
    """Irregular Bessel function Y0(x) for finite x > 0.

    Series below x = 12, Hankel asymptotics above; absolute error below
    1e-7 over (0, 1e3] (verified against an independent oracle in tests).
    """
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if not np.all((arr > 0.0) & (arr < math.inf)):
        raise InvalidParameter("Y0 requires finite x > 0")
    out = np.empty_like(arr)
    small = arr <= _SERIES_CUT
    if np.any(small):
        out[small] = _y0_series(arr[small])
    if np.any(~small):
        with np.errstate(over="ignore"):    # 1 / x^2 -> 0 above 1e154
            out[~small] = _y0_asymptotic(arr[~small])
    return out if np.ndim(x) else float(out[0])


def b_analytic(t, params: ChainParams):
    """Continuum B(t) = -(eta0^2 nu_t / (2 h)) Y0(delta t); needs Delta > 0, t > 0."""
    if params.delta_trans <= 0:
        raise UnstableLinearPhase(
            "continuum B(t) is defined on the linear side, Delta > 0")
    t_arr = np.asarray(t, dtype=np.float64)
    if np.any(t_arr <= 0):
        raise InvalidParameter("b_analytic requires t > 0")
    pref = -params.eta0 ** 2 * params.nu_t / (2.0 * H_STIFFNESS)
    return pref * bessel_Y0(t_arr * params.soft_gap)


@dataclass(frozen=True)
class GammaScan:
    """Gamma(Delta) across the transition; kind records which phase served each point."""

    deltas: np.ndarray
    gamma: np.ndarray
    kinds: tuple


def gamma_transition_scan(deltas, N: int, eta_c: float,
                          zigzag_N: int | None = None) -> GammaScan:
    """Gamma over a Delta grid spanning both phases.

    Points with Delta >= 0 use the linear chain of size N; negative Delta
    uses the folded zigzag kick weights (size zigzag_N, default N), which
    are the same for every probed ion. The combination
    eta0^2 nu_t is Delta-independent at fixed eta_c, so the two sides join
    continuously at Delta = 0.
    """
    if zigzag_N is None:
        zigzag_N = N
    d = np.asarray(deltas, dtype=np.float64)
    gam = np.empty_like(d)
    kinds = []
    for i, x in enumerate(d):
        if x >= 0.0:
            amps = linear_chain_amplitudes(
                ChainParams.from_delta(N, float(x), eta_c))
        else:
            amps = zigzag_displacement_amplitudes(
                ChainParams.from_delta(zigzag_N, float(x), eta_c))
        gam[i] = gamma_coefficient(amps).direct
        kinds.append(amps.kind)
    return GammaScan(deltas=d, gamma=gam, kinds=tuple(kinds))


@dataclass(frozen=True)
class CuspReport:
    """Secant slopes of Gamma(Delta) on each side of Delta = 0."""

    left_slope: float
    right_slope: float
    left_stderr: float
    right_stderr: float

    @property
    def separation(self) -> float:
        """|slope difference| in units of the combined standard error."""
        se = math.hypot(self.left_stderr, self.right_stderr)
        return abs(self.right_slope - self.left_slope) / se if se > 0 \
            else math.inf


def cusp_secant_slopes(scan: GammaScan) -> CuspReport:
    """Fit straight lines to the CUSP_POINTS_PER_SIDE points nearest
    Delta = 0 on each side.

    The zero point (if present) joins both fits. A genuine cusp shows up as
    slopes separated by many standard errors.
    """
    d, g = scan.deltas, scan.gamma
    order = np.argsort(np.abs(d))
    left_idx = [i for i in order if d[i] < 0][:CUSP_POINTS_PER_SIDE]
    right_idx = [i for i in order if d[i] > 0][:CUSP_POINTS_PER_SIDE]
    zero_idx = [i for i in order if d[i] == 0.0][:1]
    if len(left_idx) < 3 or len(right_idx) < 3:
        raise InvalidParameter("scan must hold >= 3 points on each side of 0")
    li = np.array(left_idx + zero_idx, dtype=int)
    ri = np.array(right_idx + zero_idx, dtype=int)
    ls, _, lse, _ = _line_fit(d[li], g[li], "each cusp side")
    rs, _, rse, _ = _line_fit(d[ri], g[ri], "each cusp side")
    return CuspReport(left_slope=ls, right_slope=rs,
                      left_stderr=lse, right_stderr=rse)


@dataclass(frozen=True)
class RevivalEstimate:
    """Finite-chain revival time t* = N / v_max and where the maximum sits."""

    t_star: float
    v_max: float
    k_star: float


def revival_time(N: int, nu_t: float) -> RevivalEstimate:
    v_max, k_star = max_group_velocity(nu_t, N)
    if v_max <= 0:
        raise NumericalFailure("vanishing maximum group velocity")
    return RevivalEstimate(t_star=N / v_max, v_max=v_max, k_star=k_star)


def find_revival_burst(t: np.ndarray, V: np.ndarray, window: float = 50.0,
                       baseline_gap: float = 50.0, baseline_span: float = 200.0
                       ) -> float | None:
    """First time the local oscillation amplitude jumps above its own past.

    The trace is scanned with a rolling window of width `window`; the
    oscillation amplitude is max - min of V inside the window. The baseline
    at time t is the median amplitude over [t - gap - span, t - gap]. The
    detector fires at the first sample whose amplitude exceeds BURST_FACTOR
    times the baseline, and returns None if that never happens. Heuristic,
    reported alongside the raw trace rather than instead of it. The
    amplitudes and every baseline window's minimum cost O(n) in numpy; a
    median is never below its window's minimum, so medians are taken only
    where the amplitude exceeds BURST_FACTOR times that minimum. V must be
    finite; window and a baseline span of at least one sample positive, the
    gap non-negative, and all three a finite number of samples. Every step
    of t lies within 1e-6 dt of dt = t[1] - t[0] plus
    `ramsey._rounding_allowance`, so grids built by accumulation pass.
    """
    t = np.asarray(t, dtype=np.float64)
    V = np.asarray(V, dtype=np.float64)
    if t.ndim != 1 or t.shape != V.shape:
        raise InvalidParameter("need matching 1-d t and V arrays")
    if len(t) < MIN_BURST_SAMPLES:
        raise InvalidParameter(f"trace has {len(t)} samples; revival "
                               f"detection needs >= {MIN_BURST_SAMPLES}")
    _check_finite("V", V)
    _check_positive("window", window)
    _check_positive("baseline_gap", baseline_gap, zero_ok=True)
    _check_positive("baseline_span", baseline_span)
    dt = float(t[1] - t[0])
    if dt <= 0 or not np.allclose(np.diff(t), dt, rtol=1e-6,
                                  atol=_rounding_allowance(t)):
        raise InvalidParameter("revival detection expects a uniform time grid")
    for name, value in (("window", window), ("baseline_gap", baseline_gap),
                        ("baseline_span", baseline_span)):
        if not math.isfinite(value / dt):
            raise InvalidParameter(f"{name} / dt = {value} / {dt} is not a "
                                   "finite number of samples")
    span_n = int(round(baseline_span / dt))
    if span_n < 1:
        raise InvalidParameter(f"baseline_span = {baseline_span} rounds to "
                               f"{span_n} samples at dt = {dt}; need >= 1")
    half = max(1, int(round(0.5 * window / dt)))
    amp = np.subtract(*_running_extrema(V, half))
    gap_n = int(round(baseline_gap / dt))
    first = gap_n + span_n          # the first sample with a full baseline
    if first >= len(amp):
        return None
    # Sample first + j's baseline is the median of amp[j:j + span_n].
    floor, = _window_extrema(amp[:len(amp) - gap_n - 1], span_n,
                             (np.minimum,))
    starts = np.flatnonzero(amp[first:] > BURST_FACTOR * floor)
    del floor
    for j, base in zip(starts, _sliding_medians(amp, span_n, starts)):
        if base > 0 and amp[first + j] > BURST_FACTOR * base:
            return float(t[first + j])
    return None


def _window_extrema(x: np.ndarray, size: int,
                    ops=(np.maximum, np.minimum), pad: int = 0) -> list:
    """Each op of `ops` over every window of size `size` of x continued by
    `pad` copies of its edge values at each end, for any size from 1 to
    len(x) + 2 pad, odd or even; window j is x_padded[j:j + size].

    van Herk / Gil-Werman: the padded x is copied once into blocks of the
    window size, so each window is the suffix of one block joined to the
    prefix of the next; running extrema forwards and backwards within the
    blocks give every window in O(len(x)), whatever its size. The edge
    values that fill the last block lie in no window. The last op's
    suffixes overwrite the blocks, so besides x only the blocks, one prefix
    buffer and one result per earlier op are live.
    """
    length = len(x) + 2 * pad
    n = length - size + 1
    blocks = np.empty(-(-length // size) * size)
    blocks[:pad] = x[0]
    blocks[pad:pad + len(x)] = x
    blocks[pad + len(x):] = x[-1]
    blocks = blocks.reshape(-1, size)
    prefix = np.empty_like(blocks)
    out = []
    for i, op in enumerate(ops):
        op.accumulate(blocks, axis=1, out=prefix)
        suffix = blocks if i == len(ops) - 1 else np.empty_like(blocks)
        op.accumulate(blocks[:, ::-1], axis=1, out=suffix[:, ::-1])
        res = suffix.reshape(-1)[:n]
        op(res, prefix.reshape(-1)[size - 1:size - 1 + n], out=res)
        out.append(res)
    return out


def _running_extrema(x: np.ndarray, half: int) -> tuple:
    """Max and min of x over each centred window x[i - half:i + half + 1],
    with x continued by its edge values (scipy.ndimage's mode="nearest"),
    in O(len(x)) by `_window_extrema`.
    """
    half = min(half, len(x) - 1)        # wider windows all see the whole x
    return tuple(_window_extrema(x, 2 * half + 1, pad=half))


def _sliding_medians(x: np.ndarray, span: int, starts):
    """Median of x[j:j + span] for each j of the increasing `starts`.

    A sorted window moves from one start to the next (bisect out, insort
    in) while the two windows overlap, and is sorted afresh at a start a
    span or more away, so each median is one lookup, equal to np.median's:
    the middle element, or (a + b) / 2 of the middle pair for an even span.
    Only the windows examined become Python lists. Values must not be NaN,
    because NaN breaks the ordering bisect relies on.
    """
    mid = span // 2
    win, at = [], -span
    for j in starts:
        if j - at < span:
            for old, new in zip(x[at:j].tolist(),
                                x[at + span:j + span].tolist()):
                del win[bisect_left(win, old)]
                insort(win, new)
        else:
            win = sorted(x[j:j + span].tolist())
        at = j
        yield win[mid] if span % 2 else (win[mid - 1] + win[mid]) / 2
