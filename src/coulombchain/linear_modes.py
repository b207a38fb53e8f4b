"""Normal modes of the linear (unbuckled) ring chain.

Wave numbers are discrete, k_n = 2 pi n / (N a) with n = 0 .. N/2, and each
interior k carries two parity partners (sigma = +/-) that are degenerate in
frequency. The planar branches are

    omega_x(k)^2 = 8 omega_0^2 sum_{j=1}^{N/2} j^-3 sin^2(j k a / 2)   (axial)
    omega_y(k)^2 = nu_t^2 - 4 omega_0^2 sum_{j=1}^{N/2} j^-3 sin^2(j k a / 2)

in the units of `model` (omega_0 = a = 1). The out-of-plane branch equals
omega_y and is not duplicated here. The transverse branch softens at the
zone edge k = pi/a; omega_y(pi/a) = 0 defines the finite-N critical
frequency returned by `critical_frequency_finite`.

The mode matrix R is the real orthogonal transformation between site
displacements and normal coordinates. Only its probe rows are needed: row j
fixes how strongly each mode couples to a probe on ion j, and `ModeMatrix.row`
evaluates it in closed form, O(N); R itself is never built.

On the mode grid k_n = 2 pi n / N the dispersion sums are one real FFT of
j^-3. The argmax grid of `max_group_velocity` is an FFT grid too: both of its
lattice sums come from one real FFT each, with j folded into j mod the FFT
length. Arbitrary k (the golden-section refinement, scans) keep the direct
O(N) sum per k. That sum is a weighted trig sum with frequencies j and
weights j^-p, so it runs through `_direct_trig_sum`, the direct kernel that
`ramsey` uses for A(t), B(t) and the overlap phase, under one budget of
TRACE_BUDGET samples x terms.

Every O(N) build checks bytes per ion x N against _BUILD_BUDGET before it
allocates (`_check_build_budget`); the producers of `zigzag` and `ramsey`
use the same rule.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (InvalidParameter, ResourceLimit, SoftModeSingularity,
                     UnstableLinearPhase)
from .model import (ChainParams, _check_even_n, _check_nu_t,
                    _check_scalar_or_1d)

# A radicand nu_t^2 - 4 s within RADICAND_CLAMP nu_t^2 of zero is the
# rounding of nu_t^2 and 4 s, and snaps to zero; one below -RADICAND_CLAMP
# nu_t^2 is a genuine instability. Relative, so that a soft mode whose
# true radicand is ~4/N^2 stays resolved at large N.
RADICAND_CLAMP = 4 * sys.float_info.epsilon

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# max_group_velocity: argmax grid on (0, pi) and final golden-section bracket
# width in 1/a units; the revival-time estimate needs the width <= 1e-4.
_VGRID_POINTS = 4096
_VMAX_TOL = 1e-6

# Target size of one t-by-mode block of the direct kernel (~64 MB); each
# block is taken in place and freed before the next, so it is the route's
# peak.
_CHUNK_ELEMENTS = 8_000_000
# Largest samples x modes of one direct sum, the only O(T M) route.
TRACE_BUDGET = 2_000_000_000
# Largest traced peak, in bytes, of one O(N) build (a mode table, a kick
# weight set, the nu_c(N) sum), checked against bytes per ion x N before
# the build allocates; a trace's samples and a trig sum's input
# frequencies are checked against it the same way, per sample and per
# frequency. Each unit's bytes are its tracemalloc peak per unit, rounded
# up.
_BUILD_BUDGET = 2_000_000_000
# Traced bytes per ion from N = 2^16 to 2^20, rounded up: 29.0-30.9 for a
# mode set, 6.0 for nu_c(N), 12.0 for the direct lattice sum at one k (the
# cached terms and one block row; more k add rows of at most
# _CHUNK_ELEMENTS) and 28.0-28.6 for max_group_velocity, so revival_time.
_MODE_SET_ION_BYTES = 31
_NU_C_ION_BYTES = 7
_LATTICE_ION_BYTES = 13
_VMAX_ION_BYTES = 29


def _check_build_budget(count: int, what: str, unit_bytes: int,
                        unit: str = "ion") -> None:
    """ResourceLimit when `what` for `count` units (ions, trace samples or
    trig-sum frequencies), unit_bytes each, would pass _BUILD_BUDGET bytes;
    allocates nothing. The message reads "<what> <count> <unit>s", so
    `what` ends where the count begins ("kick weights of N =")."""
    need = unit_bytes * count
    if need > _BUILD_BUDGET:
        raise ResourceLimit(f"{what} {count} {unit}s need about "
                            f"{need:.3g} bytes ({unit_bytes} per {unit}), "
                            f"over the budget {_BUILD_BUDGET}")


def _check_trace_budget(samples: int, modes: int) -> None:
    """ResourceLimit when a direct sum of samples x modes would pass
    TRACE_BUDGET; allocates nothing."""
    if samples * modes > TRACE_BUDGET:
        raise ResourceLimit(f"direct mode sum of {samples} x {modes} "
                            f"exceeds budget {TRACE_BUDGET}")


def _direct_trig_sum(t: np.ndarray, omega: np.ndarray, weight: np.ndarray,
                     kind: str) -> np.ndarray:
    """sum_m weight_m f(omega_m t_i) for 1-d t and omega, f per `kind` as in
    `ramsey.weighted_trig_sum`: one trig call per mode-sample, chunked over
    t and taken in place, so one t-by-mode block is alive at a time, and
    reduced by BLAS gemv (np.dot calls it for any number of rows, without
    the matmul iterator); ResourceLimit above TRACE_BUDGET mode-samples."""
    _check_trace_budget(len(t), len(omega))
    out = np.empty_like(t)
    chunk = max(1, _CHUNK_ELEMENTS // max(len(omega), 1))
    for i in range(0, len(t), chunk):
        block = np.multiply.outer(t[i:i + chunk], omega)
        if kind == "sin2half":
            block *= 0.5
            np.sin(block, out=block)
            np.square(block, out=block)
        elif kind == "sin":
            np.sin(block, out=block)
        else:
            np.cos(block, out=block)
        out[i:i + chunk] = np.dot(block, weight)
        del block                       # before the next block is made
    return out


def _columns(N: int) -> tuple[np.ndarray, np.ndarray]:
    """Wave index n and parity ('+' is True) of each mode column.

    Order: (0,+), then (n,+),(n,-) for n = 1..N/2-1, then (N/2,-); n = 0
    exists only as '+' (cosine-like) and n = N/2 only as '-' (sine-like).
    """
    _check_even_n(N)
    col = np.arange(N)
    plus = col % 2 == 1
    plus[0], plus[-1] = True, False
    return (col + 1) // 2, plus


@lru_cache(maxsize=8)
def _lattice_terms(N: int, power: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (j, j^-power) for j = N/2 .. 1, the frequencies and weights
    of the direct lattice sums; descending, so a reduction that runs front
    to back meets the small terms first. Cached because the golden-section
    search of `max_group_velocity` sums at one k per call."""
    j = np.arange(N // 2, 0, -1, dtype=np.float64)
    w = j ** -power
    j.flags.writeable = w.flags.writeable = False
    return j, w


def _lattice_sum(k, N: int, power: int, kind: str):
    """sum_{j=1}^{N/2} j^-power f(j k) by `_direct_trig_sum`, f per `kind`;
    k a finite scalar or 1-d array. Both budgets, len(k) x N/2 terms and
    the bytes per ion, are checked before the terms are built."""
    karr = _check_scalar_or_1d("k", k)
    _check_trace_budget(len(karr), N // 2)
    _check_build_budget(N, "lattice terms of N =", _LATTICE_ION_BYTES)
    out = _direct_trig_sum(karr, *_lattice_terms(N, power), kind)
    return out if np.ndim(k) else float(out[0])


def _dispersion_sum(k, N: int):
    """sum_{j=1}^{N/2} j^-3 sin^2(j k / 2)."""
    return _lattice_sum(k, N, 3, "sin2half")


def _folded_rfft(N: int, L: int, power: int) -> np.ndarray:
    """rfft of c, c[j mod L] += j^-power for j = 1..N/2.

    Entry m is sum_j j^-power exp(-2 pi i m j / L); folding j into j mod L
    leaves these sums exact, and with L > N/2 nothing is folded.
    """
    j = np.arange(1, N // 2 + 1)
    c = np.bincount(j % L, weights=j.astype(np.float64) ** -power, minlength=L)
    return np.fft.rfft(c)


def _mode_grid_sum(N: int) -> np.ndarray:
    """_dispersion_sum at the k of every mode column, O(N log N).

    With F = _folded_rfft(N, N, 3),
    sum_j j^-3 sin^2(j k_n / 2) = (F_0 - Re F_n) / 2; n = 0 is exactly 0.
    """
    n, _ = _columns(N)
    F = _folded_rfft(N, N, 3).real
    s = 0.5 * (F[0] - F)
    return s[n]


def _transverse_omega(s, nu_t: float) -> np.ndarray:
    """omega_y = sqrt(nu_t^2 - 4 s) with the clamp and snap rules below.

    Radicands within RADICAND_CLAMP nu_t^2 of zero snap to zero; anything
    lower means the linear phase is not a valid expansion point for this
    nu_t.
    """
    _check_nu_t(nu_t)
    rad = nu_t ** 2 - 4.0 * np.asarray(s)
    clamp = RADICAND_CLAMP * nu_t ** 2
    bad = rad < -clamp
    if np.any(bad):
        raise UnstableLinearPhase(
            f"omega_y^2 = {float(np.min(rad)):.3e} at nu_t = {nu_t}: "
            "linear chain unstable (nu_t below the finite-N critical frequency)")
    # Symmetric snap: exactly at the critical point the radicand is rounding
    # noise of either sign, and the zero must be exact for both phases' mode
    # lists to agree there.
    rad = np.where(np.abs(rad) < clamp, 0.0, rad)
    return np.sqrt(rad)


def dispersion_axial(k, N: int):
    """Axial phonon frequency omega_x(k) in omega_0 units; finite k in 1/a."""
    _check_even_n(N)
    s = _dispersion_sum(k, N)
    return np.sqrt(8.0 * s) if np.ndim(k) else math.sqrt(8.0 * s)


def dispersion_transverse(k, nu_t: float, N: int):
    """Transverse phonon frequency omega_y(k); raises below the instability."""
    _check_even_n(N)
    omega = _transverse_omega(_dispersion_sum(k, N), nu_t)
    return omega if np.ndim(k) else float(omega)


def critical_frequency_finite(N: int) -> float:
    """nu_t at which omega_y(pi/a) vanishes: sqrt(4 sum_{j odd <= N/2} j^-3)."""
    _check_even_n(N)
    _check_build_budget(N, "nu_c(N) terms of N =", _NU_C_ION_BYTES)
    j = np.arange(1, N // 2 + 1, dtype=np.float64)
    odd = j[::2]                       # 1, 3, 5, ...
    return math.sqrt(4.0 * float(np.sum(odd[::-1] ** -3)))


@dataclass(frozen=True)
class ModeSet:
    """Frequencies of one branch; labels n, sigma ('+'/'-') and
    k = 2 pi n / N (1/a units) are arrays in the column order of `_columns`."""

    omega: np.ndarray

    def __len__(self):
        return len(self.omega)

    @property
    def n(self) -> np.ndarray:
        return _columns(len(self))[0]

    @property
    def sigma(self) -> np.ndarray:
        return np.where(_columns(len(self))[1], "+", "-")

    @property
    def k(self) -> np.ndarray:
        return 2.0 * math.pi * self.n / len(self)


def transverse_mode_set(params: ChainParams) -> ModeSet:
    """ModeSet of the y branch for the given chain parameters;
    ResourceLimit above _BUILD_BUDGET."""
    _check_build_budget(params.N, "transverse modes of N =",
                        _MODE_SET_ION_BYTES)
    return ModeSet(_transverse_omega(_mode_grid_sum(params.N), params.nu_t))


def axial_mode_set(N: int) -> ModeSet:
    """ModeSet of the x branch (confinement-independent); ResourceLimit
    above _BUILD_BUDGET."""
    _check_even_n(N)
    _check_build_budget(N, "axial modes of N =", _MODE_SET_ION_BYTES)
    return ModeSet(np.sqrt(8.0 * _mode_grid_sum(N)))


@dataclass(frozen=True)
class ModeMatrix:
    """Orthogonal site-to-mode matrix R, columns ordered as `_columns`.

    Rows are ion sites j = 1..N (row index j-1). Entries:
        R[j, 0]        = sqrt(1/N)                       (n = 0)
        R[j, (n,+)]    = sqrt(2/N) cos(j k_n)            (0 < n < N/2)
        R[j, (n,-)]    = sqrt(2/N) sin(j k_n)
        R[j, (N/2,-)]  = (-1)^j sqrt(1/N)

    `row` evaluates one probe row in O(N).
    """

    N: int

    def __post_init__(self):
        _check_even_n(self.N)

    def row(self, site: int) -> np.ndarray:
        """Probe row for ion `site` (1-based), in O(N)."""
        N = self.N
        if not isinstance(site, (int, np.integer)) or isinstance(site, bool):
            raise InvalidParameter("site must be an integer")
        if not 1 <= site <= N:
            raise InvalidParameter("site must lie in 1..N")
        phase = site * (2.0 * math.pi * np.arange(1, N // 2) / N)
        out = np.empty(N)
        out[0] = math.sqrt(1.0 / N)
        out[1:N - 1:2] = math.sqrt(2.0 / N) * np.cos(phase)
        out[2:N - 1:2] = math.sqrt(2.0 / N) * np.sin(phase)
        out[N - 1] = math.sqrt(1.0 / N) * (1.0 if site % 2 == 0 else -1.0)
        return out


def mode_matrix(N: int) -> ModeMatrix:
    return ModeMatrix(N=N)


def _dispersion_sq_derivative(k, N: int):
    """d(omega_y^2)/dk = -2 sum_{j=1}^{N/2} j^-2 sin(j k), omega_0^2 a units."""
    return -2.0 * _lattice_sum(k, N, 2, "sin")


def _velocity(omega: np.ndarray, dsq) -> np.ndarray:
    """|d omega_y / dk| from omega_y and d(omega_y^2)/dk."""
    if np.any(omega == 0.0):
        raise SoftModeSingularity(
            "group velocity undefined where omega_y(k) = 0")
    return np.abs(dsq) / (2.0 * omega)


def group_velocity(k, nu_t: float, N: int):
    """Transverse group velocity |d omega_y / dk| in a*omega_0 units."""
    omega = np.asarray(dispersion_transverse(k, nu_t, N))
    v = _velocity(omega, _dispersion_sq_derivative(k, N))
    return v if np.ndim(k) else float(v)


def _grid_group_velocity(nu_t: float, N: int) -> np.ndarray:
    """group_velocity at k_i = 2 pi i / L, i = 1.._VGRID_POINTS, with
    L = 2 _VGRID_POINTS + 2, in O(N + L log L).

    With F_p = _folded_rfft(N, L, p),
        sum_j j^-3 sin^2(j k_i / 2) = (F_3[0] - Re F_3[i]) / 2,
        sum_j j^-2 sin(j k_i)       = -Im F_2[i].
    Clamp, snap and the raised errors are those of `group_velocity`.
    """
    L = 2 * _VGRID_POINTS + 2
    F3 = _folded_rfft(N, L, 3)
    grid = slice(1, _VGRID_POINTS + 1)
    omega = _transverse_omega(0.5 * (F3[0].real - F3[grid].real), nu_t)
    return _velocity(omega, 2.0 * _folded_rfft(N, L, 2)[grid].imag)


def max_group_velocity(nu_t: float, N: int) -> tuple[float, float]:
    """(v_max, k_star) of the transverse branch on (0, pi/a).

    Argmax on a grid of _VGRID_POINTS interior points, taken from the FFT
    grid of `_grid_group_velocity`; the direct `group_velocity` then picks
    between that point and its two neighbours, so grid values within FFT
    rounding of each other bracket as the direct grid does. Golden-section
    refinement on the direct sums narrows the bracket to _VMAX_TOL.
    ResourceLimit above _BUILD_BUDGET.
    """
    _check_even_n(N)
    _check_build_budget(N, "group velocities of N =", _VMAX_ION_BYTES)
    ks = np.linspace(0.0, math.pi, _VGRID_POINTS + 2)[1:-1]
    i = int(np.argmax(_grid_group_velocity(nu_t, N)))
    near = np.arange(max(i - 1, 0), min(i + 2, len(ks)))
    i = int(near[np.argmax(group_velocity(ks[near], nu_t, N))])
    lo = ks[i - 1] if i > 0 else ks[i] / 2.0
    hi = ks[i + 1] if i < len(ks) - 1 else 0.5 * (ks[i] + math.pi)

    def f(k):
        return group_velocity(float(k), nu_t, N)

    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > _VMAX_TOL:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    k_star = float(0.5 * (a + b))        # the bracket ends are numpy scalars
    return f(k_star), k_star
