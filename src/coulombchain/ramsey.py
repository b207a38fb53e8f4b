"""Ramsey signal of a spin kicked by the chain's transverse phonons.

The probe drives ion 1 with a state-dependent recoil along y. Between the
two Ramsey pulses each mode is displaced in phase space by

    alpha_m = i * eta0 * sqrt(nu_t / omega_m) * R[probe, m],

so only the weights |alpha_m|^2 and frequencies omega_m enter the signal.
With A(t) = 2 sum_m |alpha_m|^2 sin^2(omega_m t / 2):

    overlap      S(t) = prod_m exp(i |a_m|^2 sin w_m t) exp(-2 |a_m|^2 sin^2(w_m t/2))
    visibility   V(t) = exp(-A_T(t)),  A_T = thermal A with coth(w/(2 theta))
    probability  P_g  = (1 + Re[e^{i phi} S]) / 2

These formulas are phase agnostic: any orthogonal mode basis with positive
frequencies and probe-row weights works, which is how the zigzag phase
reuses this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, SoftModeSingularity
from .linear_modes import (RADICAND_CLAMP, critical_frequency_finite,
                           mode_matrix, transverse_mode_set)
from .model import ChainParams

# Target size of one t-by-mode block in the chunked trig sums (~64 MB).
_CHUNK_ELEMENTS = 8_000_000

# A grid is uniform for the blocked trig sum when it has at least this many
# samples and every t_i lies within _UNIFORM_ULPS ulp of max|t| of t_0 + i dt.
_MIN_UNIFORM_SAMPLES = 64
_UNIFORM_ULPS = 8


@dataclass(frozen=True)
class DisplacementAmplitudes:
    """Per-mode displacement data for one probe configuration.

    omega  -- mode frequencies, omega_0 units, all > 0
    alpha  -- complex displacement amplitudes (purely imaginary here)
    weight -- |alpha|^2
    eta0   -- Lamb-Dicke parameter at nu_t
    nu_t   -- confinement, omega_0 units
    kind   -- 'linear' or 'zigzag'; the mean-frequency identities of the
              asymptotics module hold only for 'linear'
    """

    omega: np.ndarray
    alpha: np.ndarray
    weight: np.ndarray
    eta0: float
    nu_t: float
    kind: str = "linear"

    def __post_init__(self):
        if np.any(self.omega <= 0.0):
            raise SoftModeSingularity(
                "displacement amplitudes need strictly positive frequencies")

    def __len__(self):
        return len(self.omega)


def linear_chain_amplitudes(params: ChainParams,
                            probe_site: int = 1) -> DisplacementAmplitudes:
    """Amplitudes alpha_m = i eta0 sqrt(nu_t/omega_m) R[probe, m] of the
    y-branch modes for a kick on ion `probe_site` (1-based)."""
    omega = transverse_mode_set(params).omega
    if np.any(omega == 0.0):
        delta = params.nu_t - critical_frequency_finite(params.N)
        raise SoftModeSingularity(
            f"soft mode at nu_t - critical_frequency_finite(N) = {delta:.3e}: "
            f"omega_y^2 below RADICAND_CLAMP = {RADICAND_CLAMP:g} snaps to 0")
    row = mode_matrix(params.N).row(probe_site)
    alpha = 1j * params.eta0 * np.sqrt(params.nu_t / omega) * row
    weight = np.abs(alpha) ** 2
    return DisplacementAmplitudes(omega=omega, alpha=alpha, weight=weight,
                                  eta0=params.eta0, nu_t=params.nu_t,
                                  kind="linear")


def _uniform_step(t: np.ndarray) -> float | None:
    """dt if t_i = t_0 + i dt to within a few ulp of max|t|, else None.

    Grids shorter than _MIN_UNIFORM_SAMPLES count as non-uniform.
    """
    n = len(t)
    if n < _MIN_UNIFORM_SAMPLES:
        return None
    dt = (t[-1] - t[0]) / (n - 1)
    tol = _UNIFORM_ULPS * np.spacing(np.max(np.abs(t)))
    if not np.max(np.abs(t - (t[0] + dt * np.arange(n)))) <= tol:
        return None                     # also for NaN and inf samples
    return float(dt)


def _direct_trig_sum(t: np.ndarray, omega: np.ndarray, weight: np.ndarray,
                     kind: str) -> np.ndarray:
    """One trig call per mode-sample, chunked over t."""
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


def _cis(phase: np.ndarray) -> np.ndarray:
    """exp(i phase) without a complex temporary."""
    z = np.empty(phase.shape, dtype=np.complex128)
    np.cos(phase, out=z.real)
    np.sin(phase, out=z.imag)
    return z


def _blocked_exp_sum(t: np.ndarray, dt: float, omega: np.ndarray,
                     weight: np.ndarray) -> np.ndarray:
    """sum_m weight_m exp(i omega_m t) on a uniform grid as a matrix product.

    With t_{qB+r} = t_{qB} + r dt, the sum is (L @ E)[q, r] where
    L[q, m] = weight_m exp(i omega_m t_{qB}) and E[m, r] = exp(i omega_m r dt):
    about 2 sqrt(T) M complex exponentials instead of T M trig calls. Each
    factor block holds at most _CHUNK_ELEMENTS / 2 complex entries, the bytes
    of one direct-kernel block.
    """
    n, m = len(t), len(omega)
    rows = max(1, _CHUNK_ELEMENTS // (2 * m))
    B = max(1, min(math.isqrt(n), rows))
    E = _cis(np.multiply.outer(omega, dt * np.arange(B)))
    base = t[::B]
    out = np.empty(len(base) * B, dtype=np.complex128)
    for i in range(0, len(base), rows):
        L = _cis(np.multiply.outer(base[i:i + rows], omega))
        L *= weight
        out[i * B:(i + len(L)) * B] = (L @ E).ravel()
    return out[:n]


def _trig_sums(t, omega: np.ndarray, weight: np.ndarray, kinds):
    """weighted_trig_sum of `weight` for each kind in `kinds`, from one
    blocked pass: Re of the product gives sin2half and cos, Im gives sin."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=np.float64))
    dt = _uniform_step(t_arr)
    near = np.ones(len(t_arr), dtype=bool)
    if dt is not None:
        near = np.max(np.abs(omega), initial=0.0) * np.abs(t_arr) <= 1.0
    if np.all(near):
        outs = [_direct_trig_sum(t_arr, omega, weight, kind) for kind in kinds]
    else:
        z = _blocked_exp_sum(t_arr, dt, omega, weight)
        outs = []
        for kind in kinds:
            if kind == "sin2half":
                out = 0.5 * (np.sum(weight) - z.real)
            elif kind == "sin":
                out = z.imag.copy()
            else:
                out = z.real.copy()
            if np.any(near):
                out[near] = _direct_trig_sum(t_arr[near], omega, weight, kind)
            outs.append(out)
    return outs if np.ndim(t) else [float(out[0]) for out in outs]


def weighted_trig_sum(t, omega: np.ndarray, weight: np.ndarray,
                      kind: str) -> np.ndarray:
    """sum_m weight_m * f(omega_m t) with f per `kind`.

    kind: 'sin2half' -> sin^2(w t / 2); 'sin' -> sin(w t); 'cos' -> cos(w t).
    Scalar t in, scalar out. On a uniform grid, samples with
    max(omega) |t| > 1 come from the blocked product of _blocked_exp_sum;
    the rest, and every non-uniform grid, use one trig call per mode-sample.
    Near t = 0 the product form would lose sin^2 to the cancellation in
    1 - cos, and the Gamma-fit window lies there.
    """
    if kind not in ("sin2half", "sin", "cos"):
        raise InvalidParameter(f"unknown kernel kind {kind!r}")
    return _trig_sums(t, omega, weight, (kind,))[0]


def exponent_A(t, amps: DisplacementAmplitudes):
    """Decoherence exponent A(t) = 2 sum_m |alpha_m|^2 sin^2(omega_m t / 2)."""
    return 2.0 * weighted_trig_sum(t, amps.omega, amps.weight, "sin2half")


def thermal_weights(amps: DisplacementAmplitudes, theta: float) -> np.ndarray:
    """|alpha|^2 coth(omega / (2 theta)); theta = 0 returns |alpha|^2."""
    if theta < 0:
        raise InvalidParameter("theta must be >= 0")
    if theta == 0.0:
        return amps.weight
    return amps.weight / np.tanh(amps.omega / (2.0 * theta))


def exponent_A_thermal(t, amps: DisplacementAmplitudes, theta: float):
    """Thermal exponent A_T(t); reduces to exponent_A at theta = 0."""
    return 2.0 * weighted_trig_sum(t, amps.omega,
                                   thermal_weights(amps, theta), "sin2half")


def visibility(t, amps: DisplacementAmplitudes, theta: float = 0.0):
    """Ramsey fringe visibility V(t) = exp(-A_T(t))."""
    return np.exp(-exponent_A_thermal(t, amps, theta))


def _thermal_A_and_phase(t, amps: DisplacementAmplitudes, theta: float):
    """(A_T(t), sum_m |alpha_m|^2 sin(omega_m t)); at theta = 0 the thermal
    weights are |alpha|^2, so both come from one blocked pass."""
    if theta == 0.0:
        s2, phase = _trig_sums(t, amps.omega, amps.weight, ("sin2half", "sin"))
        return 2.0 * s2, phase
    return (exponent_A_thermal(t, amps, theta),
            weighted_trig_sum(t, amps.omega, amps.weight, "sin"))


def overlap(t, amps: DisplacementAmplitudes, theta: float = 0.0):
    """Complex overlap S(t); |S| equals the visibility.

    The phase sum_m |alpha_m|^2 sin(omega_m t) is temperature independent;
    only the magnitude picks up the coth factor.
    """
    mag, phase = _thermal_A_and_phase(t, amps, theta)
    return np.exp(-mag + 1j * phase)


def ramsey_probability(phi, t, amps: DisplacementAmplitudes,
                       theta: float = 0.0):
    """Ground-state probability P_g = (1 + Re[e^{i phi} S(t)]) / 2."""
    s = overlap(t, amps, theta)
    return 0.5 * (1.0 + np.real(np.exp(1j * phi) * s))


def autocorrelation_G(t, amps: DisplacementAmplitudes):
    """Displacement autocorrelation G(t) = <[y(t) - y(0)]^2>.

    Returned in units of hbar / (2 m omega_0), where it equals
    2 A(t) / (eta0^2 nu_t); the recoil identity A = (k_L^2 / 2) G then holds
    by construction.
    """
    return 2.0 * exponent_A(t, amps) / (amps.eta0 ** 2 * amps.nu_t)


def distinguishability(V):
    """Which-path distinguishability D = sqrt(1 - V^2) for V in [0, 1]."""
    v = np.asarray(V, dtype=np.float64)
    if np.any(v < -1e-12) or np.any(v > 1.0 + 1e-12):
        raise InvalidParameter("visibility must lie in [0, 1]")
    d = np.sqrt(np.clip(1.0 - np.clip(v, 0.0, 1.0) ** 2, 0.0, None))
    return d if np.ndim(V) else float(d)


@dataclass(frozen=True)
class VisibilityTrace:
    """Sampled Ramsey signal on a time grid.

    t, A, V are equal-length arrays; S is the complex overlap (None when the
    producer skipped it). nu_t is carried along so downstream fits can build
    dimensionless windows like t * nu_t <= 0.1.
    """

    t: np.ndarray
    A: np.ndarray
    V: np.ndarray
    S: np.ndarray | None
    theta: float
    nu_t: float

    def __post_init__(self):
        if not (len(self.t) == len(self.A) == len(self.V)):
            raise InvalidParameter("trace arrays must have equal length")


def evaluate_trace(amps: DisplacementAmplitudes, t: np.ndarray,
                   theta: float = 0.0, with_overlap: bool = True
                   ) -> VisibilityTrace:
    """Evaluate A, V (and optionally S) on an arbitrary time grid."""
    t = np.asarray(t, dtype=np.float64)
    S = None
    if with_overlap:    # as overlap()
        A, phase = _thermal_A_and_phase(t, amps, theta)
        S = np.exp(-A + 1j * phase)
    else:
        A = exponent_A_thermal(t, amps, theta)
    V = np.exp(-A)
    return VisibilityTrace(t=t, A=A, V=V, S=S, theta=theta, nu_t=amps.nu_t)
