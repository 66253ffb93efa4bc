"""Trace coefficients t_{2n}, eigenvalue sums, and the trace-formula ledger.

The family of identities verified here says that, with C = alpha/rho^2 on
the nodes, the regularized eigenvalue sums

    S_m = sum' Im(lambda^{m+1}) / |lambda|^{2(m+1)}

over the nonzero spectrum satisfy S_{2n} = -t_{2n} and S_{2n+1} = 0, where
t_{2n} is the 2n-th Taylor coefficient of Im F(zeta), F(zeta) = tr[(2 zeta +
iC)(T*T - zeta^2 - i zeta C)^{-1}].  The ledger reads every t_{2n} off
samples of F on a circle; the Neumann recurrence of (T*T)^{-1}, run on
column blocks of the identity with band LUs of T*T, is the second path.
At matrix level these are exact linear-algebra facts, so the checks are
eigensolver-accuracy, not discretization-accuracy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import tridiagonal
from .discretization import (DiscreteOperatorSet, band_layout, band_lu,
                             shifted, solve_band)
from .greens import KernelUnavailableError, t0_analytic
from .reporting import fmt_float
from .spectral import Spectrum, eigen_dirac

__all__ = [
    "TraceLedger", "trace_coefficient", "eigen_sum", "build_ledger",
    "resolvent_trace_expansion", "regularized_sum_check",
    "livsic_check",
]

N_MAX_DEFAULT = 4
LIVSIC_MARGIN = 0.5        # height of the Livsic shift above the strip
_BLOCK_ENTRIES = 1 << 16   # entries of one column block of the Neumann path


@dataclass
class TraceLedger:
    """Per-run record of trace coefficients and their eigenvalue-sum partners."""

    bc: str
    n_grid: int
    t: list                      # t_{2n}, n = 0..n_max
    lhs: list                    # S_m, m = 0..2*n_max+1
    discrepancies: list          # |S_{2n} + t_{2n}| and |S_{2n+1}| interleaved
    excluded_zero_modes: int
    t0_continuum: float | None = None

    def to_json(self) -> str:
        return json.dumps({
            "bc": self.bc,
            "n_grid": self.n_grid,
            "t": [fmt_float(v) for v in self.t],
            "lhs": [fmt_float(v) for v in self.lhs],
            "discrepancies": [fmt_float(v) for v in self.discrepancies],
            "zero_modes": self.excluded_zero_modes,
            "continuum": {"t0_analytic": None if self.t0_continuum is None
                          else fmt_float(self.t0_continuum)},
        }, indent=2)


def trace_coefficient(n: int, ops: DiscreteOperatorSet,
                      method: str = "neumann") -> float:
    """t_{2n} by the Taylor recurrence, the second path beside the ledger's
    contour (`build_ledger`).

    It expands (T*T - zeta^2 - i zeta C)^{-1} as sum_k R_k zeta^k, whose
    coefficients obey R_0 = K = (T*T)^{-1} and R_k = K (iC R_{k-1} +
    R_{k-2}), and reads t_{2n} off the zeta^{2n} coefficient Im tr(2 R_{2n-1}
    + iC R_{2n}).  With R_k = i^k S_k the recurrence stays in the arithmetic
    of T*T: S_0 = K, S_k = K (C S_{k-1} - S_{k-2}), and t_{2n} = (-1)^n
    Re[tr(C S_{2n}) - 2 tr S_{2n-1}].  It runs on blocks of _BLOCK_ENTRIES
    // m columns of the identity, each product with K one solve with the one
    band LU of T*T (`band_lu`), and each block adds its diagonal entries to
    the trace; no m x m matrix is formed.  LinAlgError when ker T is
    nontrivial.  ``method`` has the one value "neumann".
    """
    if n < 0:
        raise ValueError("order must be nonnegative")
    if method != "neumann":
        raise ValueError(f"unknown method {method!r}")
    if ops.rank < ops.n_nodes:
        raise np.linalg.LinAlgError("T*T is singular: ker T is nontrivial")
    H1, C, m = ops.sparse("H1"), ops.C, ops.n_nodes
    solve = band_lu(band_layout(H1, H1.dtype))
    width, t = max(1, _BLOCK_ENTRIES // m), 0.0
    for start in range(0, m, width):
        cols = np.arange(start, min(start + width, m))
        S = solve(np.eye(m, len(cols), -start))               # S_0
        S_prev = np.zeros_like(S)                             # S_{-1}
        for _ in range(2 * n):
            S_prev, S = S, solve(C[:, None] * S - S_prev)
        at = (cols, cols - start)       # the block's diagonal entries
        t += float(np.real(np.sum(C[cols] * S[at])
                           - 2.0 * np.sum(S_prev[at])))
    return (-1) ** n * t


def _contour_coefficients(n_max: int, ops: DiscreteOperatorSet,
                          spec: Spectrum) -> list:
    """t_0, t_2, ..., t_{2 n_max} as Im a_{2n}, a_k = sum' lambda^{-k-1} the
    Taylor coefficients of F(zeta) = -(log det Q)' = sum_k a_k zeta^k -
    dim ker T / zeta, from N samples of F on |zeta| = r by one FFT (the
    trapezoid rule).

    r is half the smallest nonzero |lambda|, so a_{k+N} aliases into a_k
    at 2^-N relative, and the Laurent term of ker T lands at index N - 1,
    above every order read.  The samples come from the O(m) pivots of
    `tridiagonal.resolvent_trace`; no K is formed.
    """
    N = max(128, 4 * n_max)
    r = 0.5 * float(np.abs(spec.nonzero()).min())
    z = r * np.exp(2j * np.pi * np.arange(N) / N)
    f = tridiagonal.resolvent_trace(ops.H1f, z,
                                    max(float(ops.H1_eigvals[-1]), 0.0),
                                    damping=1j * ops.C)
    k = np.arange(0, 2 * n_max + 1, 2)
    return [float(v) for v in (np.fft.fft(f)[k] / (N * r ** k)).imag]


def eigen_sum(m: int, spec: Spectrum) -> float:
    """S_m = sum over nonzero eigenvalues of Im(lambda^{m+1}) / |lambda|^{2(m+1)}."""
    lam = spec.nonzero()
    if len(lam) == 0:
        raise ValueError("spectrum has no nonzero eigenvalues")
    p = lam ** (m + 1)
    return float(np.sum(p.imag / np.abs(p) ** 2))


def build_ledger(ops: DiscreteOperatorSet, spec: Spectrum,
                 n_max: int = N_MAX_DEFAULT) -> TraceLedger:
    """t_{2n}, n = 0..n_max, from one contour pass, against the eigenvalue
    sums S_m, m = 0..2 n_max + 1, of ``spec``; the ker T families included."""
    lhs = [eigen_sum(m, spec) for m in range(2 * n_max + 2)]
    t_vals = _contour_coefficients(n_max, ops, spec)
    disc = []
    for n in range(n_max + 1):
        disc.append(abs(lhs[2 * n] + t_vals[n]))
        disc.append(abs(lhs[2 * n + 1]))
    try:
        t0c = t0_analytic(ops.bc, ops.alpha)
    except KernelUnavailableError:
        t0c = None
    return TraceLedger(bc=str(ops.bc), n_grid=ops.grid.n, t=t_vals, lhs=lhs,
                       discrepancies=disc, excluded_zero_modes=spec.zero_modes,
                       t0_continuum=t0c)


def resolvent_trace_expansion(zeta: float, ops: DiscreteOperatorSet
                              ) -> tuple[float, float, float]:
    """(lhs, rhs, parity_defect) of the resolvent-trace identity at real zeta.

    Both sides are weighted traces of the inverse of a tridiagonal matrix
    polynomial (cyclic for quasi), -(log det P)', which
    `tridiagonal.resolvent_trace` reads off the twisted factorization of
    the Aberth step; no dense matrix is formed.  lhs = Im tr(D + B -
    zeta)^{-1}, of the frame band `dirac_band`; rhs = Im tr[(2 zeta + iC)
    (T*T - zeta^2 - i zeta C)^{-1}], of the node-frame pencil on H1f; the
    parity defect is |rhs(zeta) - rhs(-zeta)|.  The scales are ||T*T||, the
    top of `H1_eigvals`, and max|C|.  Where D + B is singular at zeta (a
    zero mode at zeta = 0), lhs is the primed eigenvalue sum, which drops
    the singular directions; where the pencil is, LinAlgError.
    """
    if abs(np.imag(zeta)) > 0:
        raise ValueError("zeta must be real")
    zeta = float(np.real(zeta))
    mu = max(float(ops.H1_eigvals[-1]), 0.0)
    c_max = float(np.abs(ops.C).max())
    try:
        lhs = tridiagonal.resolvent_trace(ops.dirac_band(), zeta,
                                          np.sqrt(mu) + c_max)[0].imag
    except np.linalg.LinAlgError:
        lam = eigen_dirac(ops).nonzero()
        lhs = np.sum(np.imag(1.0 / (lam - zeta)))
    rhs, mirror = tridiagonal.resolvent_trace(
        ops.H1f, [zeta, -zeta], mu, damping=1j * ops.C).imag
    return float(lhs), float(rhs), abs(float(rhs - mirror))


def _paired_branches(spec: Spectrum) -> tuple[np.ndarray, np.ndarray]:
    """Split the nonzero spectrum into the two pencil branches, paired by rank.

    Oscillatory eigenvalues are paired by |Re|; overdamped (purely imaginary)
    ones are paired by proximity of |lambda| between the two halves.
    """
    by_re = lambda z: abs(z.real)
    plus = np.array(sorted(spec.branch("plus"), key=by_re))
    minus = np.array(sorted(spec.branch("minus"), key=by_re))
    over = np.array(sorted(spec.branch("overdamped"), key=abs))
    if len(over) % 2:
        raise ValueError("odd number of overdamped eigenvalues; pairing failed")
    plus = np.concatenate([over[0::2], plus])
    minus = np.concatenate([over[1::2], minus])
    if len(plus) != len(minus):
        raise ValueError("unmatched branch sizes; pairing failed")
    return plus, minus


def regularized_sum_check(spec: Spectrum, ops: DiscreteOperatorSet,
                          j_cut: int | None = None) -> dict:
    """Partial sums of lambda_{-,j} + lambda_{+,j} - 2 c_0 against the target.

    The target is (i/4)[alpha(0) + alpha(1)] + c_0 with c_0 = -(i/2)
    integral(alpha); reported as a trend, not hard-asserted, because the
    convergence rate is not controlled.
    """
    from .coefficients import integrate_product
    alpha = ops.alpha
    c0 = -0.5j * integrate_product([alpha])
    a0 = float(np.asarray(alpha.sample(np.array([0.0])))[0])
    a1 = float(np.asarray(alpha.sample(np.array([1.0 - 1e-12])))[0])
    target = 0.25j * (a0 + a1) + c0
    plus, minus = _paired_branches(spec)
    terms = plus + minus - 2 * c0
    J = len(terms) if j_cut is None else min(j_cut, len(terms))
    partial = np.cumsum(terms[:J])
    return {
        "partial_sums": partial,
        "target": complex(target),
        "final_gap": float(abs(partial[-1] - target)),
    }


def livsic_check(ops: DiscreteOperatorSet, spec: Spectrum,
                 zeta: float = 0.3) -> dict:
    """Shifted-resolvent eigenvalue sum against the trace of its imaginary part.

    R = (D + B - z)^{-1} with z = zeta + i (max|C| + LIVSIC_MARGIN) above
    the damping strip, so the shift sits in the resolvent set.  The
    eigenvalues of R are mu_j = 1/(lambda_j - z) by spectral mapping, with
    lambda_j the spectrum of D + B that the caller passes as ``spec``:
    `eigen_dirac` for any coefficients, or `constant_damping_dirac` where
    the damping is constant, whose roots come from the Hermitian eigenpairs
    of T*T.  The trace is sum Im diag(R) of the inverse of the frame band
    `dirac_band` - z, from one pivoted band LU (`solve_band`).
    `eigen_dirac` and `resolvent_trace_expansion` share the twisted
    factorization of `tridiagonal`, and neither spectrum source factors
    D + B - z, so this direct LU is what keeps the check an independent
    path.  In finite dimensions the root system is complete and the sum
    equals the trace exactly, which also witnesses the inequality direction
    sum Im mu_j <= tr Im(R).
    """
    bnorm = float(np.abs(ops.C).max())
    z = zeta + 1j * (bnorm + LIVSIC_MARGIN)
    lam = spec.eigenvalues
    lhs = float(np.sum((1.0 / (lam - z)).imag))
    rhs = float(np.sum(np.diag(solve_band(shifted(ops.dirac_band(), z))).imag))
    return {"eig_im_sum": lhs, "trace_im": rhs, "gap": abs(lhs - rhs),
            "inequality_holds": lhs <= rhs + 1e-9, "shift": complex(z)}
