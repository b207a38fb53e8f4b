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
O(N) sum per k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (InvalidParameter, SoftModeSingularity,
                     UnstableLinearPhase)
from .model import ChainParams

# Radicand more negative than this is treated as a genuine instability;
# anything in (-RADICAND_CLAMP, 0) is rounded up to zero.
RADICAND_CLAMP = 1e-12

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# max_group_velocity: argmax grid on (0, pi) and final golden-section bracket
# width in 1/a units; the revival-time estimate needs the width <= 1e-4.
_VGRID_POINTS = 4096
_VMAX_TOL = 1e-6


def _check_even_n(N: int) -> None:
    if not isinstance(N, (int, np.integer)) or isinstance(N, bool):
        raise InvalidParameter("N must be an integer")
    if N < 4 or N % 2 != 0:
        raise InvalidParameter("N must be an even integer >= 4")


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
    """Read-only (j, j^-power) for j = N/2 .. 1, descending so the terms
    ascend; cached because the golden-section search of
    `max_group_velocity` sums at one k per call."""
    j = np.arange(N // 2, 0, -1, dtype=np.float64)
    w = j ** -power
    j.flags.writeable = w.flags.writeable = False
    return j, w


def _lattice_sum(k, N: int, power: int, f):
    """sum_{j=1}^{N/2} j^-power f(j k), chunked over k; f may work in place."""
    j, w = _lattice_terms(N, power)
    karr = np.atleast_1d(np.asarray(k, dtype=np.float64))
    out = np.empty_like(karr)
    # Chunk so the outer product stays below ~32 MB.
    chunk = max(1, int(4e6 / max(len(j), 1)))
    for i in range(0, len(karr), chunk):
        out[i:i + chunk] = np.einsum(
            "j,jk->k", w, f(np.multiply.outer(j, karr[i:i + chunk])))
    return out if np.ndim(k) else float(out[0])


def _dispersion_sum(k, N: int):
    """sum_{j=1}^{N/2} j^-3 sin^2(j k / 2)."""
    return _lattice_sum(k, N, 3, lambda x: np.square(
        np.sin(np.multiply(x, 0.5, out=x), out=x), out=x))


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

    Radicands in (-1e-12, 0) are clamped to zero; anything lower means the
    linear phase is not a valid expansion point for this nu_t.
    """
    if not math.isfinite(nu_t):
        raise InvalidParameter(f"nu_t must be finite, got {nu_t}")
    if nu_t <= 0:
        raise InvalidParameter("nu_t must be positive")
    rad = nu_t ** 2 - 4.0 * np.asarray(s)
    bad = rad < -RADICAND_CLAMP
    if np.any(bad):
        raise UnstableLinearPhase(
            f"omega_y^2 = {float(np.min(rad)):.3e} at nu_t = {nu_t}: "
            "linear chain unstable (nu_t below the finite-N critical frequency)")
    # Symmetric snap: exactly at the critical point the radicand is rounding
    # noise of either sign, and the zero must be exact for both phases' mode
    # lists to agree there.
    rad = np.where(np.abs(rad) < RADICAND_CLAMP, 0.0, rad)
    return np.sqrt(rad)


def dispersion_axial(k, N: int):
    """Axial phonon frequency omega_x(k) in omega_0 units; k in 1/a units."""
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
    j = np.arange(1, N // 2 + 1, dtype=np.float64)
    odd = j[::2]                       # 1, 3, 5, ...
    return math.sqrt(4.0 * float(np.sum(odd[::-1] ** -3)))


@dataclass(frozen=True)
class ModeSet:
    """Frequencies of one branch ('x' or 'y'); labels n, sigma ('+'/'-') and
    k = 2 pi n / N (1/a units) are arrays in the column order of `_columns`."""

    branch: str
    omega: np.ndarray

    def __post_init__(self):
        if self.branch not in ("x", "y"):
            raise InvalidParameter("branch must be 'x' or 'y'")

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
    """ModeSet of the y branch for the given chain parameters."""
    omega = _transverse_omega(_mode_grid_sum(params.N), params.nu_t)
    return ModeSet(branch="y", omega=omega)


def axial_mode_set(N: int) -> ModeSet:
    """ModeSet of the x branch (confinement-independent)."""
    return ModeSet(branch="x", omega=np.sqrt(8.0 * _mode_grid_sum(N)))


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
    return -2.0 * _lattice_sum(k, N, 2, lambda x: np.sin(x, out=x))


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
    """
    _check_even_n(N)
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
