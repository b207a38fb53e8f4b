"""Dense routes kept only as test oracles.

The package works from the structure of the physics: closed-form probe
rows of the linear ring, N/2 + 1 real 2 x 2 Bloch blocks of the zigzag and
a literal zeta(3). The routes here build what that structure avoids, so the
tests can check the fast routes against them:

- `dense_mode_matrix`: the N x N site-to-mode matrix R of the linear ring;
- `dense_hessian`: the analytic 2N x 2N zigzag Hessian;
- `dense_vectors`: the (2N)^2 eigenvector matrix of a `ZigzagSpectrum`;
- `label_residuals`: each zigzag mode vector, rebuilt band by band in n,
  measured against the (n, sigma) patterns of a given label;
- `zeta3_sum`: zeta(3) by direct summation with an Euler-Maclaurin tail;
- `dgamma_richardson`: d Gamma / d Delta by centred differences of Gamma,
  which the package gets exactly from the probe-row sum rule;
- `nufft_spread_bincount`: the NUFFT's spread grids from one np.bincount
  over every mode-by-kernel-point entry, with the ES kernel written out
  of place, which the package spreads in small chunks by np.add.at;
- `lattice_sum_einsum`: the direct lattice sums at arbitrary k by an
  einsum over j, which the package sums by the trace kernel's
  matrix-vector product;
- `prominences_by_walk`: peak prominences by walking out from each peak,
  which the package reads off the maxima with one monotone stack per side.

The dense and O(N^2) ones keep their work budgets and raise ResourceLimit
before allocating above them. numpy and the package are all they import.
"""

import math
from functools import lru_cache

import numpy as np

from coulombchain import (ChainParams, gamma_coefficient,
                          linear_chain_amplitudes)
from coulombchain.errors import ResourceLimit
from coulombchain.linear_modes import _check_even_n, _columns
from coulombchain.ramsey import _ES_BETA, _ES_WIDTH, _fft_length, _kernel_dft

# Largest dense mode matrix dense_mode_matrix will allocate (N^2 entries;
# 512 MB).
_DENSE_R_ELEMENTS = 64_000_000
# O(N^2) work budget of the zigzag oracles in (2N)^2 entries, the size of a
# dense 2N x 2N matrix (N <= 2000; 128 MB).
_DENSE_ELEMENTS = 16_000_000

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


def _check_dense(N: int, what: str) -> None:
    if (2 * N) ** 2 > _DENSE_ELEMENTS:
        raise ResourceLimit(
            f"dense {2 * N} x {2 * N} {what} exceeds budget "
            f"{_DENSE_ELEMENTS} entries; use the block spectrum")


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


@lru_cache(maxsize=8)
def _trig_table(N: int) -> np.ndarray:
    """cos and sin of 2 pi p / N for p = 0..N-1, as read-only rows [2, N]."""
    angle = (2.0 * math.pi / N) * np.arange(N)
    table = np.stack([np.cos(angle), np.sin(angle)])
    table.flags.writeable = False
    return table


def _bloch_rows(N: int, block: np.ndarray, plus: np.ndarray,
                qcoef: np.ndarray, wcoef: np.ndarray, sites: np.ndarray):
    """q and w of real Bloch modes at 1-based sites, each [mode, site].

    Mode i has block m = block[i] (k = 2 pi m / N):

        plus[i]:      q_j = qcoef[i] cos(kj),  w_j = wcoef[i] (-1)^j sin(kj)
        not plus[i]:  q_j = qcoef[i] sin(kj),  w_j = wcoef[i] (-1)^j cos(kj)

    Phases are exact integers m j mod N, taken once per distinct block, into
    one cos/sin table, so an entry does not depend on which other modes or
    sites are evaluated.
    """
    # The distinct blocks in 0..N-1, ascending, and each mode's index among
    # them (a presence mask: np.unique would sort).
    present = np.zeros(N, dtype=bool)
    present[block] = True
    blocks = np.flatnonzero(present)
    which = (np.cumsum(present) - 1)[block]
    # m j mod N; numpy vectorises integer floor division by a scalar, not %.
    phase = np.multiply.outer(blocks, sites)
    phase -= phase // N * N
    # The cos rows of the distinct blocks, then their sin rows.
    trig = np.take(_trig_table(N), phase, axis=1).reshape(-1, len(sites))
    cos_row, sin_row = which, which + len(blocks)
    q = trig[np.where(plus, cos_row, sin_row)]
    q *= qcoef[:, None]
    trig *= np.where(sites & 1, -1.0, 1.0)      # exact: a sign per site
    w = trig[np.where(plus, sin_row, cos_row)]
    w *= wcoef[:, None]
    return q, w


def dense_vectors(sp) -> np.ndarray:
    """Dense orthonormal eigenvectors of a ZigzagSpectrum as columns.

    Column i is the eigenvector of sp.omega[i] in (q_1, w_1, ..., q_N, w_N)
    order, so row 2 j - 1 holds every mode's w at site j: the unfolded
    weights that `chain_amplitudes` sums per eigenpair below nu_c(N), and
    `ramsey._zigzag_amplitudes` on either side of it. Raises
    ResourceLimit before allocating above the zigzag's dense work budget.
    """
    N = sp.N
    _check_dense(N, "eigenvector matrix")
    sites = np.arange(1, N + 1)
    modes = np.empty((2 * N, 2 * N))        # one contiguous row per mode
    step = max(1, 2 ** 17 // N)             # ~1 MB temporaries per pass
    for lo in range(0, 2 * N, step):
        sel = slice(lo, lo + step)
        modes[sel, 0::2], modes[sel, 1::2] = _bloch_rows(
            N, sp.block[sel], sp.plus[sel], sp.qcoef[sel], sp.wcoef[sel],
            sites)
    return modes.T


def label_residuals(sp, n: np.ndarray, plus: np.ndarray) -> np.ndarray:
    """1 - |projection|^2 of each vector of sp onto the patterns of a label.

    Mode i of sp is measured against the label (n[i], plus[i]); passing the
    spectrum's own sp.n and sp.plus checks its label arrays, but only
    against the same block/plus arrays that rebuild the vector. The sigma =
    '+' patterns of n are cos(k j)|q and (-1)^j sin(k j)|w, the sigma = '-'
    ones sin(k j)|q and (-1)^j cos(k j)|w, for k = 2 pi n / N and k = pi -
    2 pi n / N; vanishing patterns (sin at k = 0, pi) are dropped. Modes are
    taken in order of n, a band at a time, in O(band x N) memory: the
    band's vectors and its distinct patterns come from `_bloch_rows`, and
    each vector is dotted with its own at most four patterns. Raises
    ResourceLimit before allocating above the zigzag's work budget.
    """
    N, half = sp.N, sp.N // 2
    _check_dense(N, "eigenvector classification")
    sites = np.arange(1, N + 1)
    order = np.argsort(n, kind="stable")
    res = np.empty(len(order))
    step = max(1, 2 ** 16 // N)             # ~1 MB of q and w per band
    for lo in range(0, len(order), step):
        sel = order[lo:lo + step]
        nn, sig = n[sel], plus[sel]
        vectors = _bloch_rows(N, sp.block[sel], sp.plus[sel], sp.qcoef[sel],
                              sp.wcoef[sel], sites)
        # The band's distinct unit patterns, keyed 2 m + sigma for block m:
        # own[0] picks each mode's pattern at k_n, own[1] the one at pi - k_n,
        # which is the same pattern at n = N/4.
        key, own = np.unique(2 * np.stack([nn, half - nn]) + sig,
                             return_inverse=True)
        own = own.reshape(2, len(sel))
        one = np.ones(len(key))
        patterns = _bloch_rows(N, key // 2, key % 2 == 1, one, one, sites)
        distinct = np.stack([np.ones(len(sel), bool), 2 * nn != half])
        proj = np.zeros(len(sel))
        for vec, pat in zip(vectors, patterns):
            norm2 = np.einsum("ij,ij->i", pat, pat)[own]
            keep = distinct & (norm2 > 1e-18)       # drop vanishing patterns
            dot = np.where(keep, np.einsum("ij,kij->ki", vec, pat[own]), 0.0)
            proj += np.sum(dot * dot / np.where(keep, norm2, 1.0), axis=0)
        res[sel] = 1.0 - proj
    return res


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


def dgamma_richardson(delta: float, N: int, eta_c: float,
                      probe_site: int = 1, step: float = 1e-2) -> float:
    """d Gamma / d Delta at Delta > 0 from centred differences of Gamma in
    ln Delta with one Richardson halving (steps `step` and `step` / 2).

    Its truncation error is O(step^4), about 1e-10 relative at the default.
    Near the transition nu_c + Delta e^(+-step) round to nearby doubles and
    the difference is lost to rounding.
    """
    def gamma(x: float) -> float:
        p = ChainParams.from_delta(N, x, eta_c)
        return gamma_coefficient(linear_chain_amplitudes(p, probe_site)).direct

    def centred(h: float) -> float:
        return (gamma(delta * math.exp(h))
                - gamma(delta * math.exp(-h))) / (2.0 * h)

    return (4.0 * centred(0.5 * step) - centred(step)) / (3.0 * delta)


def nufft_spread_bincount(t0: float, dt: float, n_out: int,
                          omega: np.ndarray, weights: list):
    """`ramsey._nufft_spread` with all M x _ES_WIDTH entries in one chunk
    and each grid one np.bincount of them, in entry order: the reference
    for the order of the additions, so the chunked spread must equal it
    bit for bit. Costs about 5 (M x 16) float arrays at once."""
    n = _fft_length(2 * n_out)
    half = _ES_WIDTH // 2
    offsets = np.arange(_ES_WIDTH)
    x = omega * dt
    x -= 2.0 * np.pi * np.round(x / (2.0 * np.pi))
    phase = omega * t0 + (n_out // 2) * x
    cos, sin = np.cos(phase), np.sin(phase)
    coefs = [c for w in weights for c in (w * cos, w * sin)]
    u = x * (n / (2.0 * np.pi))
    left = np.ceil(u - half)
    z = ((left - u)[:, None] + offsets) / half
    ker = np.exp(_ES_BETA * (np.sqrt(np.maximum(1.0 - z * z, 0.0)) - 1.0))
    idx = ((left.astype(np.int64)[:, None] + offsets) % n).ravel()
    grids = [np.bincount(idx, (ker * c[:, None]).ravel(), minlength=n)
             for c in coefs]
    return list(zip(grids[0::2], grids[1::2])), _kernel_dft(n, n_out // 2)


def lattice_sum_einsum(k, N: int, power: int, kind: str):
    """sum_{j=1}^{N/2} j^-power f(j k), f = sin^2(x / 2) ('sin2half') or
    sin x ('sin'), as one einsum over j = N/2 .. 1 per chunk of k, the
    (j, k) block kept below 4e6 entries and f taken in place. Scalar k in,
    float out."""
    f = {"sin2half": lambda x: np.square(
             np.sin(np.multiply(x, 0.5, out=x), out=x), out=x),
         "sin": lambda x: np.sin(x, out=x)}[kind]
    j = np.arange(N // 2, 0, -1, dtype=np.float64)
    w = j ** -power
    karr = np.atleast_1d(np.asarray(k, dtype=np.float64))
    out = np.empty_like(karr)
    chunk = max(1, int(4e6 / max(len(j), 1)))
    for i in range(0, len(karr), chunk):
        out[i:i + chunk] = np.einsum(
            "j,jk->k", w, f(np.multiply.outer(j, karr[i:i + chunk])))
    return out if np.ndim(k) else float(out[0])


def prominences_by_walk(x: np.ndarray) -> tuple:
    """Local maxima of x and their prominences as scipy.signal documents
    them, one peak at a time: a maximum is a rise, a flat run and a fall,
    reported at the run's midpoint rounded down; from it, each side is
    walked to the first strictly higher sample or the array edge, its base
    the lowest sample passed, and the prominence is the peak height minus
    the higher base. O(n) per peak."""
    x = [float(v) for v in x]
    n, peaks, prominences = len(x), [], []
    i = 1
    while i < n - 1:
        if x[i - 1] < x[i]:
            ahead = i + 1
            while ahead < n - 1 and x[ahead] == x[i]:
                ahead += 1
            if x[ahead] < x[i]:
                peaks.append((i + ahead - 1) // 2)
            i = ahead
        else:
            i += 1
    for p in peaks:
        bases = []
        for step in (-1, 1):
            base, j = x[p], p
            while 0 <= j < n and x[j] <= x[p]:
                base = min(base, x[j])
                j += step
            bases.append(base)
        prominences.append(x[p] - max(bases))
    return np.array(peaks, dtype=np.intp), np.array(prominences)
