"""Trace coefficients t_{2n}, eigenvalue sums, and the trace-formula ledger.

The family of identities verified here says that, with K = (T*T)^{-1} and
C = alpha/rho^2 on the nodes, the regularized eigenvalue sums

    S_m = sum' Im(lambda^{m+1}) / |lambda|^{2(m+1)}

over the nonzero spectrum satisfy S_{2n} = -t_{2n} and S_{2n+1} = 0, where
t_{2n} is the 2n-th Taylor coefficient of Im tr[(2 zeta + iC)(T*T - zeta^2
- i zeta C)^{-1}].  At matrix level these are exact linear-algebra facts, so
the checks are eigensolver-accuracy, not discretization-accuracy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .discretization import DiscreteOperatorSet, solve_regular
from .greens import KernelUnavailableError, t0_analytic
from .reporting import fmt_float
from .spectral import Spectrum

__all__ = [
    "TraceLedger", "trace_coefficient", "eigen_sum", "verify_trace_identity",
    "build_ledger", "resolvent_trace_expansion", "regularized_sum_check",
    "livsic_check", "series_coefficient_check",
]

N_MAX_DEFAULT = 4


@dataclass
class TraceLedger:
    """Per-run record of trace coefficients and their eigenvalue-sum partners."""

    bc: str
    n_grid: int
    n_max: int
    t: list                      # t_{2n}, n = 0..n_max
    lhs: list                    # S_m, m = 0..2*n_max+1
    discrepancies: list          # |S_{2n} + t_{2n}| and |S_{2n+1}| interleaved
    excluded_zero_modes: int
    t0_continuum: float | None = None
    extras: dict = field(default_factory=dict)

    def to_json(self, indent: int = 2) -> str:
        payload = {
            "bc": self.bc,
            "n_grid": self.n_grid,
            "t": [fmt_float(v) for v in self.t],
            "lhs": [fmt_float(v) for v in self.lhs],
            "discrepancies": [fmt_float(v) for v in self.discrepancies],
            "zero_modes": self.excluded_zero_modes,
            "continuum": {"t0_analytic": None if self.t0_continuum is None
                          else fmt_float(self.t0_continuum)},
        }
        payload.update(self.extras)
        return json.dumps(payload, indent=indent)


def trace_coefficient(n: int, ops: DiscreteOperatorSet,
                      method: str = "closed") -> float:
    """t_{2n} by the closed forms (n <= 1) or the Taylor recurrence.

    ``method="closed"`` uses tr(C K) for n=0 and 3 tr(C K^2) - tr((CK)^3)
    for n=1; ``method="neumann"`` expands (T*T - zeta^2 - i zeta C)^{-1} as
    sum_k R_k zeta^k, whose coefficients obey R_0 = K and
    R_k = K (iC R_{k-1} + R_{k-2}), and reads t_{2n} off the zeta^{2n}
    coefficient Im tr(2 R_{2n-1} + iC R_{2n}) in 2n products.  Both paths
    agree to rounding for n <= 1, which the verify command asserts.
    """
    if n < 0:
        raise ValueError("order must be nonnegative")
    K, C = ops.K, ops.C
    if method == "closed":
        if n == 0:
            return float(np.real(np.trace(C[:, None] * K)))
        if n == 1:
            CK = C[:, None] * K
            return float(np.real(3.0 * np.trace(CK @ K) - np.trace(CK @ CK @ CK)))
        raise ValueError("closed forms available only for n <= 1")
    if method != "neumann":
        raise ValueError(f"unknown method {method!r}")
    R_prev, R = np.zeros_like(K), K            # R_{-1}, R_0
    for _ in range(2 * n):
        R_prev, R = R, K @ (1j * (C[:, None] * R) + R_prev)
    return float(np.imag(np.trace(2.0 * R_prev + 1j * (C[:, None] * R))))


def eigen_sum(m: int, spec: Spectrum) -> float:
    """S_m = sum over nonzero eigenvalues of Im(lambda^{m+1}) / |lambda|^{2(m+1)}."""
    lam = spec.nonzero()
    if len(lam) == 0:
        raise ValueError("spectrum has no nonzero eigenvalues")
    p = lam ** (m + 1)
    return float(np.sum(p.imag / np.abs(p) ** 2))


def verify_trace_identity(n: int, ops: DiscreteOperatorSet,
                          spec: Spectrum) -> tuple[float, float]:
    """(|S_{2n} + t_{2n}|, |S_{2n+1}|) for the given order."""
    method = "closed" if n <= 1 else "neumann"
    t = trace_coefficient(n, ops, method=method)
    return (abs(eigen_sum(2 * n, spec) + t), abs(eigen_sum(2 * n + 1, spec)))


def build_ledger(ops: DiscreteOperatorSet, spec: Spectrum,
                 n_max: int = N_MAX_DEFAULT) -> TraceLedger:
    t_vals, lhs, disc = [], [], []
    for n in range(n_max + 1):
        method = "closed" if n <= 1 else "neumann"
        t_vals.append(trace_coefficient(n, ops, method=method))
    for m in range(2 * n_max + 2):
        lhs.append(eigen_sum(m, spec))
    for n in range(n_max + 1):
        disc.append(abs(lhs[2 * n] + t_vals[n]))
        disc.append(abs(lhs[2 * n + 1]))
    try:
        t0c = t0_analytic(ops.bc, ops.alpha)
    except KernelUnavailableError:
        t0c = None
    return TraceLedger(bc=str(ops.bc), n_grid=ops.grid.n, n_max=n_max,
                       t=t_vals, lhs=lhs, discrepancies=disc,
                       excluded_zero_modes=spec.zero_modes, t0_continuum=t0c)


def resolvent_trace_expansion(zeta: float, ops: DiscreteOperatorSet
                              ) -> tuple[float, float, float]:
    """(lhs, rhs, parity_defect) of the resolvent-trace identity at real zeta.

    lhs is the trace of the anti-Hermitian part of the direct dense inverse
    of (D + B - zeta) in the weighted frame; rhs is the reduced node-space
    expression Im tr[(2 zeta + iC)(T*T - zeta^2 - i zeta C)^{-1}].
    """
    if abs(np.imag(zeta)) > 0:
        raise ValueError("zeta must be real")
    zeta = float(np.real(zeta))

    def rhs_at(z: float) -> float:
        m = ops.n_nodes
        C = ops.C
        inv = solve_regular(ops.H1 - z * z * np.eye(m) - 1j * z * np.diag(C))
        return float(np.imag(np.trace((np.diag(1j * C) + 2 * z * np.eye(m)) @ inv)))

    def lhs_at(z: float) -> float:
        Mf = ops.dirac_frame()
        try:
            R = solve_regular(Mf - z * np.eye(Mf.shape[0]))
        except np.linalg.LinAlgError:
            # zeta sits on a zero mode: use the primed eigenvalue sum, which
            # agrees with the trace and drops the singular directions
            lam = np.linalg.eigvals(Mf)
            lam = lam[np.abs(lam) > ops.tol_zero]
            return float(np.sum(np.imag(1.0 / (lam - z))))
        return float(np.trace((R - R.conj().T) / 2j).real)

    lhs = lhs_at(zeta)
    rhs = rhs_at(zeta)
    parity = abs(rhs - rhs_at(-zeta))
    return lhs, rhs, parity


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
        "j_cut": J,
    }


def livsic_check(ops: DiscreteOperatorSet, zeta: float = 0.3,
                 margin: float = 0.5) -> dict:
    """Shifted-resolvent eigenvalue sum against the trace of its imaginary part.

    R = (D + B - (z1 + zeta))^{-1} with Im z1 above the damping norm, so the
    shift sits in the resolvent set; in finite dimensions the root system is
    complete and the sum equals the trace exactly, which also witnesses the
    inequality direction sum Im lambda(R) <= tr Im(R).
    """
    Mf = ops.dirac_frame()
    bnorm = float(np.abs(ops.C).max())
    z1 = 1j * (bnorm + margin)
    z = z1 + zeta
    R = solve_regular(Mf - z * np.eye(Mf.shape[0]))
    lam = np.linalg.eigvals(R)
    lhs = float(np.sum(lam.imag))
    rhs = float(np.trace((R - R.conj().T) / 2j).real)
    return {"eig_im_sum": lhs, "trace_im": rhs, "gap": abs(lhs - rhs),
            "inequality_holds": lhs <= rhs + 1e-9, "shift": complex(z)}


def series_coefficient_check(spec: Spectrum, orders: int = 3,
                             half_width: float = 0.05,
                             n_samples: int = 21) -> dict:
    """Polynomial-fit coefficients of zeta -> sum' Im((lambda-zeta)^{-1}) vs -S_m."""
    lam = spec.nonzero()
    zs = np.linspace(-half_width, half_width, n_samples)
    vals = np.array([np.sum((1.0 / (lam - z)).imag) for z in zs])
    coeffs = np.polynomial.polynomial.polyfit(zs, vals, orders + 2)
    sums = np.array([eigen_sum(m, spec) for m in range(orders + 1)])
    gaps = np.abs(coeffs[:orders + 1] - (-sums))
    return {"fit": coeffs[:orders + 1], "neg_S_m": -sums,
            "max_gap": float(gaps.max())}
