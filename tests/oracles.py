"""Dense routes kept only as test oracles.

The package works from the structure of the physics: closed-form probe
rows of the linear ring, N/2 + 1 real 2 x 2 Bloch blocks of the zigzag and
a literal zeta(3). The routes here build what that structure avoids, so the
tests can check the fast routes against them:

- `dense_mode_matrix`: the N x N site-to-mode matrix R of the linear ring;
- `dense_hessian`: the analytic 2N x 2N zigzag Hessian;
- `dense_vectors`: the (2N)^2 eigenvector matrix of a `ZigzagSpectrum`;
- `zeta3_sum`: zeta(3) by direct summation with an Euler-Maclaurin tail.

The dense ones keep their work budgets and raise ResourceLimit before
allocating above them. numpy and the package are all they import.
"""

import math

import numpy as np

from coulombchain.errors import ResourceLimit
from coulombchain.linear_modes import _check_even_n, _columns
from coulombchain.zigzag import _check_dense

# Largest dense mode matrix dense_mode_matrix will allocate (N^2 entries;
# 512 MB).
_DENSE_R_ELEMENTS = 64_000_000

_ZETA3_TERMS = 10 ** 6


def dense_mode_matrix(N: int) -> np.ndarray:
    """Dense R, one column per mode in the order of `_columns`.

    Rows are ion sites j = 1..N (row index j-1). Entries:
        R[j, 0]        = sqrt(1/N)                       (n = 0)
        R[j, (n,+)]    = sqrt(2/N) cos(j k_n)            (0 < n < N/2)
        R[j, (n,-)]    = sqrt(2/N) sin(j k_n)
        R[j, (N/2,-)]  = (-1)^j sqrt(1/N)
    Row j is what `ModeMatrix.row(j)` evaluates in O(N).
    """
    _check_even_n(N)
    if N ** 2 > _DENSE_R_ELEMENTS:
        raise ResourceLimit(
            f"dense {N} x {N} mode matrix exceeds budget "
            f"{_DENSE_R_ELEMENTS} entries; use row()")
    j = np.arange(1, N + 1, dtype=np.float64)
    R = np.empty((N, N))
    root1 = math.sqrt(1.0 / N)
    root2 = math.sqrt(2.0 / N)
    n, plus = _columns(N)
    k = 2.0 * math.pi * n / N
    for col in range(N):
        if n[col] == 0:
            R[:, col] = root1
        elif n[col] == N // 2:
            R[:, col] = root1 * np.where(j % 2 == 0, 1.0, -1.0)
        elif plus[col]:
            R[:, col] = root2 * np.cos(j * k[col])
        else:
            R[:, col] = root2 * np.sin(j * k[col])
    return R


def dense_hessian(N: int, nu_t: float, b: float) -> np.ndarray:
    """Analytic 2N x 2N Hessian at the staggered configuration, omega_0^2 units.

    Coordinates are (q_1, w_1, ..., q_N, w_N). Raises ResourceLimit before
    allocating above the zigzag's dense work budget.
    """
    _check_dense(N, "Hessian")
    H = np.zeros((2 * N, 2 * N))
    i = np.arange(N)
    # Sites are 1-based: y0_site = (-1)^(i+1) b/2, so an odd-separation bond
    # has y_j0 - y_i0 = -2 y_i0 = (-1)^i b.
    sign_i = np.where(i % 2 == 0, 1.0, -1.0)
    for d in range(1, N // 2 + 1):
        j = (i + d) % N
        if d % 2 == 1:
            dy = sign_i * b                        # y_j0 - y_i0 for odd separation
        else:
            dy = np.zeros(N)
        r2 = d * d + dy * dy
        r5 = r2 ** 2.5
        kxx = (3.0 * d * d - r2) / r5
        kyy = (3.0 * dy * dy - r2) / r5
        kxy = 3.0 * d * dy / r5
        qi, wi = 2 * i, 2 * i + 1
        qj, wj = 2 * j, 2 * j + 1
        np.add.at(H, (qi, qi), kxx)
        np.add.at(H, (qj, qj), kxx)
        np.add.at(H, (qi, qj), -kxx)
        np.add.at(H, (qj, qi), -kxx)
        np.add.at(H, (wi, wi), kyy)
        np.add.at(H, (wj, wj), kyy)
        np.add.at(H, (wi, wj), -kyy)
        np.add.at(H, (wj, wi), -kyy)
        np.add.at(H, (qi, wi), kxy)
        np.add.at(H, (wi, qi), kxy)
        np.add.at(H, (qj, wj), kxy)
        np.add.at(H, (wj, qj), kxy)
        np.add.at(H, (qi, wj), -kxy)
        np.add.at(H, (wj, qi), -kxy)
        np.add.at(H, (wi, qj), -kxy)
        np.add.at(H, (qj, wi), -kxy)
    H[np.arange(1, 2 * N, 2), np.arange(1, 2 * N, 2)] += nu_t ** 2
    return H


def dense_vectors(sp) -> np.ndarray:
    """Dense orthonormal eigenvectors of a ZigzagSpectrum as columns.

    Column i is the eigenvector of sp.omega[i] in (q_1, w_1, ..., q_N, w_N)
    order, so row 2 j - 1 holds every mode's w at site j: the unfolded
    weights that `zigzag_displacement_amplitudes` sums per eigenpair. Raises
    ResourceLimit before allocating above the zigzag's dense work budget.
    """
    N = sp.N
    _check_dense(N, "eigenvector matrix")
    sites = np.arange(1, N + 1)
    modes = np.empty((2 * N, 2 * N))        # one contiguous row per mode
    step = max(1, 2 ** 17 // N)             # ~1 MB temporaries per pass
    for lo in range(0, 2 * N, step):
        sel = slice(lo, lo + step)
        modes[sel, 0::2], modes[sel, 1::2] = sp._components(sel, sites)
    return modes.T


def zeta3_sum() -> float:
    """Riemann zeta(3) by direct summation plus an Euler-Maclaurin tail.

    Sums 10^6 terms in ascending order and closes the tail with the
    asymptotic correction through M^-6, which is exact to double precision.
    """
    M = _ZETA3_TERMS
    j = np.arange(M, 0, -1, dtype=np.float64)   # ascending magnitudes
    s = float(np.sum(j ** -3))
    tail = 1.0 / (2 * M ** 2) - 1.0 / (2 * M ** 3) + 1.0 / (4 * M ** 4) \
        - 1.0 / (12 * M ** 6)
    return s + tail
