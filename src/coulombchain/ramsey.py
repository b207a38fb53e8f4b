"""Ramsey signal of a spin kicked by the chain's transverse phonons.

The probe drives ion 1 with a state-dependent recoil along y. Between the
two Ramsey pulses each mode is displaced in phase space by

    alpha_m = i * eta0 * sqrt(nu_t / omega_m) * R[probe, m],

so only the weights |alpha_m|^2 and frequencies omega_m enter the signal.
With A(t) = 2 sum_m |alpha_m|^2 sin^2(omega_m t / 2):

    overlap      S(t) = prod_m exp(i |a_m|^2 sin w_m t) exp(-2 |a_m|^2 sin^2(w_m t/2))
    visibility   V(t) = exp(-A_T(t)),  A_T = thermal A with coth(w/(2 theta))

These formulas are phase agnostic: they need positive frequencies and the
weight summed over the modes at each. `chain_amplitudes` is the one place
that picks a phase: below critical_frequency_finite(N) the zigzag's
weights, at and above it `linear_chain_amplitudes`. Both producers keep the
entries with probe coefficient c != 0, weighted (eta0 sqrt(nu_t / omega)
c)^2, and a felt entry at omega = 0 raises SoftModeSingularity. The linear
producer has one entry per mode, c = R[probe, m]. The zigzag has one per
Bloch eigenpair of its blocks: its real modes share its frequency and their
w^2 sum to s v^2 on every site (s = 2/N, or 1/N at m = 0 and N/2), so
c = sqrt(s) v, and axial eigenpairs (v = 0) go.

Every A(t), B(t) and overlap phase is a mode sum sum_m w_m f(omega_m t).
On a uniform grid t_j = t_0 + j dt, sum_m w_m exp(i omega_m t_j) is a
type-1 nonuniform FFT of the points omega_m dt mod 2 pi, so a trace of T
samples costs O(M + T log T) instead of T M trig calls; the magnitude and
the phase of S share one spread of their weight vectors. Samples near t = 0
and non-uniform grids use the direct kernel, one trig call per
mode-sample, which is also the test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, ResourceLimit, SoftModeSingularity
from .linear_modes import (RADICAND_CLAMP, critical_frequency_finite,
                           mode_matrix, transverse_mode_set)
from .model import ChainParams, _check_finite, _check_theta
from .zigzag import _block_eigenpairs

# Target size of one t-by-mode block of the direct kernel (~64 MB).
_CHUNK_ELEMENTS = 8_000_000
# Largest samples x modes of one direct sum, the only O(T M) route.
TRACE_BUDGET = 2_000_000_000

# A grid is uniform for the NUFFT when it has at least this many samples
# and every t_i lies within _UNIFORM_ULPS ulp of max|t| of t_0 + i dt; the
# DFT and the burst detector allow the same rounding on top of a step rtol.
_MIN_UNIFORM_SAMPLES = 64
_UNIFORM_ULPS = 8

# Type-1 NUFFT of the uniform-grid sums (Dutt & Rokhlin, SIAM J. Sci.
# Comput. 14 (1993) 1368) with the "exponential of semicircle" kernel
# exp(beta (sqrt(1 - z^2) - 1)) on |z| <= 1, _ES_WIDTH grid points wide
# (Barnett, Magland & af Klinteberg, SIAM J. Sci. Comput. 41 (2019) C479),
# on a grid oversampled by 2.
_ES_WIDTH = 16
_ES_BETA = 2.30 * _ES_WIDTH
# Mode-by-kernel-point entries spread per np.bincount call.
_SPREAD_ENTRIES = 1_000_000


@dataclass(frozen=True)
class DisplacementAmplitudes:
    """Kick weights of one probe configuration.

    omega  -- entry frequencies, omega_0 units, all > 0
    weight -- |alpha_m|^2 summed over the modes m an entry stands for, all
              at its frequency (degenerate modes: one entry or several);
              2 sum(weight), the bound on A(t), must be finite
    eta0   -- Lamb-Dicke parameter at nu_t
    nu_t   -- confinement, omega_0 units
    kind   -- 'linear' or 'zigzag'; the mean-frequency identities of the
              asymptotics module hold only for 'linear'
    """

    omega: np.ndarray
    weight: np.ndarray
    eta0: float
    nu_t: float
    kind: str = "linear"

    def __post_init__(self):
        if self.kind not in ("linear", "zigzag"):
            raise InvalidParameter(
                f"kind must be 'linear' or 'zigzag', got {self.kind!r}")
        for name in ("omega", "weight"):    # a float64 array is not copied
            try:
                value = np.asarray(getattr(self, name))
            except ValueError as exc:           # ragged nested sequences
                raise InvalidParameter(f"{name}: {exc}") from None
            if value.dtype.kind not in "biuf":
                raise InvalidParameter(
                    f"{name} must be real numbers, got dtype {value.dtype}")
            value = value.astype(np.float64, copy=False)
            _check_finite(name, value)
            object.__setattr__(self, name, value)
        if np.ndim(self.omega) != 1 or \
                np.shape(self.weight) != np.shape(self.omega):
            raise InvalidParameter(
                f"omega and weight must be 1-d arrays of equal length, got "
                f"shapes {np.shape(self.omega)} and {np.shape(self.weight)}")
        if np.any(self.omega <= 0.0):
            raise SoftModeSingularity(
                "displacement amplitudes need strictly positive frequencies")
        if np.any(self.weight < 0.0):
            raise InvalidParameter("weights must be >= 0")
        if not np.isfinite(_a_bound(self.weight)):
            raise InvalidParameter(
                "2 sum(weight), the bound on A(t), must be finite, got inf")

    def __len__(self):
        return len(self.omega)


def _a_bound(weight: np.ndarray) -> np.float64:
    """2 sum(weight), the largest A(t) can be, without an overflow warning:
    each weight can be finite while the sum is not."""
    with np.errstate(over="ignore"):
        return 2.0 * weight.sum()


def _kick_weights(params: ChainParams, omega: np.ndarray, c: np.ndarray,
                  kind: str) -> DisplacementAmplitudes:
    """The entries with c != 0, weighted (eta0 sqrt(nu_t / omega) c)^2."""
    felt = c != 0.0
    if not felt.all():                  # copy only when an entry goes
        omega, c = omega[felt], c[felt]
    if np.any(omega == 0.0):
        delta = params.nu_t - critical_frequency_finite(params.N)
        raise SoftModeSingularity(
            f"soft mode at nu_t - critical_frequency_finite(N) = {delta:.3e}: "
            f"omega^2 below RADICAND_CLAMP nu_t^2 = "
            f"{RADICAND_CLAMP * params.nu_t ** 2:.3g} snaps to 0")
    with np.errstate(over="ignore"):    # an inf weight raises below
        weight = (params.eta0 * np.sqrt(params.nu_t / omega) * c) ** 2
    return DisplacementAmplitudes(omega=omega, weight=weight,
                                  eta0=params.eta0, nu_t=params.nu_t,
                                  kind=kind)


def linear_chain_amplitudes(params: ChainParams,
                            probe_site: int = 1) -> DisplacementAmplitudes:
    """Amplitudes alpha_m = i eta0 sqrt(nu_t/omega_m) R[probe, m] of the
    y-branch modes for a kick on ion `probe_site` (1-based)."""
    return _kick_weights(params, transverse_mode_set(params).omega,
                         mode_matrix(params.N).row(probe_site), "linear")


def _zigzag_amplitudes(params: ChainParams) -> DisplacementAmplitudes:
    """Kick weights of the zigzag ring (flat above the transition), one per
    block eigenpair the probe feels, the same on every site."""
    _, lam, _, v, edge = _block_eigenpairs(params)
    s = np.where(edge, 1.0, 2.0) / params.N
    return _kick_weights(params, np.sqrt(lam), np.sqrt(s) * v, "zigzag")


def chain_amplitudes(params: ChainParams) -> DisplacementAmplitudes:
    """Kick weights of ion 1 in the phase the chain is in: the zigzag's
    below critical_frequency_finite(N), where the flat ring is unstable,
    and `linear_chain_amplitudes` at and above it. At nu_c(N) itself the
    soft mode is at omega = 0 and SoftModeSingularity is raised."""
    if params.nu_t < critical_frequency_finite(params.N):
        return _zigzag_amplitudes(params)
    return linear_chain_amplitudes(params)


def _rounding_allowance(t: np.ndarray) -> float:
    """_UNIFORM_ULPS ulp of max|t|, NaN if t is not finite; two reductions,
    so the grid is not copied."""
    return _UNIFORM_ULPS * np.spacing(np.maximum(np.max(t), -np.min(t)))


def _uniform_step(t: np.ndarray) -> float | None:
    """dt if t_i = t_0 + i dt to within a few ulp of max|t|, else None.

    Grids shorter than _MIN_UNIFORM_SAMPLES count as non-uniform.
    """
    n = len(t)
    if n < _MIN_UNIFORM_SAMPLES:
        return None
    dt = (t[-1] - t[0]) / (n - 1)
    tol = _rounding_allowance(t)
    if not np.max(np.abs(t - (t[0] + dt * np.arange(n)))) <= tol:
        return None                     # also for NaN and inf samples
    return float(dt)


def _direct_trig_sum(t: np.ndarray, omega: np.ndarray, weight: np.ndarray,
                     kind: str) -> np.ndarray:
    """One trig call per mode-sample, chunked over t; ResourceLimit above
    TRACE_BUDGET mode-samples."""
    if len(t) * len(omega) > TRACE_BUDGET:
        raise ResourceLimit(f"direct mode sum of {len(t)} x {len(omega)} "
                            f"exceeds budget {TRACE_BUDGET}")
    out = np.empty_like(t)
    chunk = max(1, _CHUNK_ELEMENTS // max(len(omega), 1))
    for i in range(0, len(t), chunk):
        phase = np.multiply.outer(t[i:i + chunk], omega)
        if kind == "sin2half":
            block = np.sin(0.5 * phase)
            np.square(block, out=block)
        elif kind == "sin":
            block = np.sin(phase)
        else:
            block = np.cos(phase)
        out[i:i + chunk] = block @ weight
    return out


def _fft_length(n: int) -> int:
    """Smallest even 5-smooth integer >= n."""
    m = n + n % 2
    while True:
        r = m
        for p in (2, 3, 5):
            while r % p == 0:
                r //= p
        if r == 1:
            return m
        m += 2


def _es_kernel(z: np.ndarray) -> np.ndarray:
    """ES kernel at z in [-1, 1]; rounding past the edge reads as the edge."""
    return np.exp(_ES_BETA * (np.sqrt(np.maximum(1.0 - z * z, 0.0)) - 1.0))


def _kernel_dft(n: int, k_max: int) -> np.ndarray:
    """DFT of the ES kernel spread from x = 0 onto n points, at k <= k_max.

    The kernel is real and even, so the DFT is
    phi(0) + 2 sum_l phi(2 l / w) cos(2 pi k l / n) over 1 <= l <= w / 2,
    summed by Clenshaw's recurrence in cos(2 pi k / n): O(w k_max) instead
    of an FFT of length n.
    """
    half = _ES_WIDTH // 2
    a = _es_kernel(np.arange(half + 1) / half)
    x = np.cos(np.arange(k_max + 1) * (2.0 * np.pi / n))
    x2 = 2.0 * x
    b1 = b2 = np.zeros_like(x)
    for coef in 2.0 * a[:0:-1]:
        b1, b2 = coef + x2 * b1 - b2, b1
    return a[0] + x * b1 - b2


def _deconvolved_real_part(a: np.ndarray, b: np.ndarray, p: np.ndarray,
                           n_out: int) -> np.ndarray:
    """Re sum_l (a_l + i b_l) exp(2 pi i k l / n) / p_|k| at k = j - n_out // 2
    for j < n_out, n = len(a): one real inverse FFT of the Hermitian part of
    a + i b, read out in two slices."""
    n = len(a)
    m = n // 2
    herm = np.empty(m + 1, dtype=np.complex128)
    herm.real = a[:m + 1]
    herm.real[1:-1] += a[:m:-1]
    herm.imag = b[:m + 1]
    herm.imag[1:-1] -= b[:m:-1]
    herm[1:-1] *= 0.5
    F = np.fft.irfft(herm, n, norm="forward")
    h = n_out // 2
    out = np.empty(n_out)
    np.divide(F[n - h:], p[h:0:-1], out=out[:h])
    np.divide(F[:n_out - h], p[:n_out - h], out=out[h:])
    return out


def _nufft_spread(t0: float, dt: float, n_out: int, omega: np.ndarray,
                  weights: list):
    """Spread grids and kernel DFT of sum_m w_m exp(i omega_m (t0 + j dt)),
    j < n_out, for each w in `weights`: a type-1 NUFFT in
    O(M _ES_WIDTH + n log n) that evaluates the kernel once for every vector.

    With x_m = omega_m dt mod 2 pi, taken in [-pi, pi] so that a small
    |omega_m dt| of either sign keeps its bits, and h = n_out // 2, output j
    is F_k = sum_m c_m exp(i k x_m) at k = j - h, where
    c_m = w_m exp(i (omega_m t0 + h x_m)) centres k on 0. Each c_m is
    spread by the ES kernel onto the grid 2 pi l / n, n >= 2 n_out, wrapping
    mod n; the FFT of the grid gives F_k times the DFT p of the kernel spread
    from x = 0. Returns ([(re, im) grid per vector], p): Re F is
    _deconvolved_real_part(re, im, p, n_out), Im F = Re(-i F) that of
    (im, -re).
    """
    n = _fft_length(2 * n_out)
    half = _ES_WIDTH // 2
    offsets = np.arange(_ES_WIDTH)
    x = omega * dt
    x -= 2.0 * np.pi * np.round(x / (2.0 * np.pi))
    phase = omega * t0 + (n_out // 2) * x
    cos, sin = np.cos(phase), np.sin(phase)
    coefs = [c for w in weights for c in (w * cos, w * sin)]
    grids = [np.zeros(n) for _ in coefs]
    u = x * (n / (2.0 * np.pi))             # x in grid steps
    rows = _SPREAD_ENTRIES // _ES_WIDTH
    for i in range(0, len(u), rows):
        left = np.ceil(u[i:i + rows] - half)
        ker = _es_kernel(((left - u[i:i + rows])[:, None] + offsets) / half)
        idx = ((left.astype(np.int64)[:, None] + offsets) % n).ravel()
        prod = np.empty_like(ker)
        for grid, c in zip(grids, coefs):
            np.multiply(ker, c[i:i + rows, None], out=prod)
            grid += np.bincount(idx, prod.ravel(), minlength=n)
    return list(zip(grids[0::2], grids[1::2])), _kernel_dft(n, n_out // 2)


def _trig_sums(t, omega: np.ndarray, requests):
    """weighted_trig_sum for each (kind, weight) of `requests`, from one
    NUFFT spread: Re of a vector's sum gives sin2half and cos, Im gives sin.

    Bit-equal frequencies are merged first, each weight vector summed onto
    them, so a linear chain's degenerate (n, +/-) pairs reach either route
    as N/2 + 1 frequencies; every kernel depends on omega alone, so the
    merge changes the sums only by rounding. When all frequencies differ,
    omega and the weights reach the routes untouched. A vector named by
    several requests is merged and spread once.
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=np.float64))
    _check_finite("t", t_arr)
    vectors = {id(w): w for _, w in requests}
    distinct, inv = np.unique(omega, return_inverse=True)
    if len(distinct) < len(omega):
        omega = distinct
        vectors = {key: np.bincount(inv.reshape(-1), w, minlength=len(omega))
                   for key, w in vectors.items()}
    dt = _uniform_step(t_arr)
    near = np.ones(len(t_arr), dtype=bool)
    if dt is not None:
        near = np.max(np.abs(omega), initial=0.0) * np.abs(t_arr) <= 1.0
    if np.all(near):
        outs = [_direct_trig_sum(t_arr, omega, vectors[id(w)], kind)
                for kind, w in requests]
    else:
        n_out = len(t_arr)
        grids, p = _nufft_spread(t_arr[0], dt, n_out, omega,
                                 list(vectors.values()))
        grids = dict(zip(vectors, grids))
        outs = []
        for kind, w in requests:
            weight = vectors[id(w)]
            re, im = grids[id(w)]
            if kind == "sin":
                out = _deconvolved_real_part(im, -re, p, n_out)
            else:
                out = _deconvolved_real_part(re, im, p, n_out)
                if kind == "sin2half":
                    out = 0.5 * (np.sum(weight) - out)
            if np.any(near):
                out[near] = _direct_trig_sum(t_arr[near], omega, weight, kind)
            outs.append(out)
    return outs if np.ndim(t) else [float(out[0]) for out in outs]


def weighted_trig_sum(t, omega: np.ndarray, weight: np.ndarray,
                      kind: str) -> np.ndarray:
    """sum_m weight_m * f(omega_m t) with f per `kind`.

    kind: 'sin2half' -> sin^2(w t / 2); 'sin' -> sin(w t); 'cos' -> cos(w t).
    Scalar t in, scalar out. On a uniform grid, samples with
    max(omega) |t| > 1 come from the type-1 NUFFT of _nufft_spread; the
    rest, and every non-uniform grid, use one trig call per mode-sample.
    Near t = 0 the exponential sum would lose sin^2 to the cancellation in
    1 - cos, and the Gamma-fit window lies there. Bit-equal frequencies
    merge, weights summed, before either route; inputs whose frequencies
    are all distinct reach it untouched. Non-finite times, frequencies or
    weights raise InvalidParameter.
    """
    if kind not in ("sin2half", "sin", "cos"):
        raise InvalidParameter(f"unknown kernel kind {kind!r}")
    if np.shape(omega) != np.shape(weight):
        raise InvalidParameter(
            f"omega and weight must have the same shape, got "
            f"{np.shape(omega)} and {np.shape(weight)}")
    _check_finite("omega", omega)
    _check_finite("weight", weight)
    return _trig_sums(t, omega, [(kind, weight)])[0]


def exponent_A(t, amps: DisplacementAmplitudes):
    """Decoherence exponent A(t) = 2 sum_m |alpha_m|^2 sin^2(omega_m t / 2)."""
    return 2.0 * weighted_trig_sum(t, amps.omega, amps.weight, "sin2half")


def thermal_weights(amps: DisplacementAmplitudes, theta: float) -> np.ndarray:
    """|alpha|^2 coth(omega / (2 theta)); theta = 0 returns |alpha|^2.
    Like the weights themselves, 2 sum(w), the bound on A_T(t), must be
    finite."""
    _check_theta(theta)
    if theta == 0.0:
        return amps.weight
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        w = amps.weight / np.tanh(amps.omega / (2.0 * theta))
    if np.isfinite(_a_bound(w)):        # also false for any inf or NaN in w
        return w
    raise InvalidParameter(f"theta = {theta} gives non-finite thermal weights "
                           "or a non-finite 2 sum(w)")


def exponent_A_thermal(t, amps: DisplacementAmplitudes, theta: float):
    """Thermal exponent A_T(t); reduces to exponent_A at theta = 0."""
    return 2.0 * weighted_trig_sum(t, amps.omega,
                                   thermal_weights(amps, theta), "sin2half")


def visibility(t, amps: DisplacementAmplitudes, theta: float = 0.0):
    """Ramsey fringe visibility V(t) = exp(-A_T(t))."""
    return np.exp(-exponent_A_thermal(t, amps, theta))


def _thermal_A_and_phase(t, amps: DisplacementAmplitudes, theta: float):
    """(A_T(t), sum_m |alpha_m|^2 sin(omega_m t)) from one trig-sum pass; at
    theta = 0 the thermal weights are |alpha|^2 itself, one vector."""
    s2, phase = _trig_sums(t, amps.omega,
                           [("sin2half", thermal_weights(amps, theta)),
                            ("sin", amps.weight)])
    return 2.0 * s2, phase


def overlap(t, amps: DisplacementAmplitudes, theta: float = 0.0):
    """Complex overlap S(t); |S| equals the visibility.

    The phase sum_m |alpha_m|^2 sin(omega_m t) is temperature independent;
    only the magnitude picks up the coth factor.
    """
    mag, phase = _thermal_A_and_phase(t, amps, theta)
    return np.exp(-mag + 1j * phase)


@dataclass(frozen=True)
class VisibilityTrace:
    """Sampled Ramsey signal on a time grid.

    t, A, V are equal-length arrays; S is the complex overlap on the same
    grid (None when the producer skipped it). nu_t is carried along so
    downstream fits can build dimensionless windows like t * nu_t <= 0.1.
    """

    t: np.ndarray
    A: np.ndarray
    V: np.ndarray
    S: np.ndarray | None
    theta: float
    nu_t: float

    def __post_init__(self):
        if not (len(self.t) == len(self.A) == len(self.V)) or \
                (self.S is not None and len(self.S) != len(self.t)):
            raise InvalidParameter("trace arrays must have equal length")


def evaluate_trace(amps: DisplacementAmplitudes, t: np.ndarray,
                   theta: float = 0.0, with_overlap: bool = True
                   ) -> VisibilityTrace:
    """Evaluate A, V (and optionally S) on an arbitrary 1-d time grid."""
    t = np.asarray(t, dtype=np.float64)
    if t.ndim != 1:
        raise InvalidParameter(f"t must be a 1-d grid, got shape {t.shape}")
    S = None
    if with_overlap:    # as overlap()
        A, phase = _thermal_A_and_phase(t, amps, theta)
        S = np.exp(-A + 1j * phase)
    else:
        A = exponent_A_thermal(t, amps, theta)
    V = np.exp(-A)
    return VisibilityTrace(t=t, A=A, V=V, S=S, theta=theta, nu_t=amps.nu_t)
