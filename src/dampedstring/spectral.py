"""Spectra of D+B, iG, and T*T, with eigenpair maps and structural checks.

All dense eigendecompositions run in the similarity frame where the weighted
inner product becomes Euclidean, so residuals and norms reported here are the
weighted ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.optimize import linear_sum_assignment

from .coefficients import CoefficientSpec, integrate_product
from .discretization import DiscreteOperatorSet
from .reporting import to_csv

__all__ = [
    "Spectrum", "EigenPair",
    "eigen_dirac", "eigen_generator", "eigen_selfadjoint",
    "constant_damping_dirac", "weighted_residual",
    "pencil_residual", "map_generator_to_dirac", "map_dirac_to_generator",
    "multiset_distance", "check_symmetry", "check_strip",
    "fit_asymptotics", "closed_form_constant_damping",
    "verify_factorization_identity", "spectrum_to_csv",
]


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted by |lambda| (ties by argument) with backward errors."""

    eigenvalues: np.ndarray
    residuals: np.ndarray
    zero_modes: int
    source: str                      # dirac | generator | selfadjoint
    tol_zero: float
    vectors: np.ndarray | None = None  # columns, weighted frame

    def nonzero(self) -> np.ndarray:
        return self.eigenvalues[np.abs(self.eigenvalues) >= self.tol_zero]

    def branches(self) -> np.ndarray:
        """Branch label of each eigenvalue: zero (|lambda| < tol_zero), plus
        or minus (Re beyond +-tol_zero), otherwise overdamped."""
        lam, tol = self.eigenvalues, self.tol_zero
        return np.select([np.abs(lam) < tol, lam.real > tol, lam.real < -tol],
                         ["zero", "plus", "minus"], "overdamped")

    def branch(self, name: str) -> np.ndarray:
        """Eigenvalues carrying the given branch label, in spectrum order."""
        return self.eigenvalues[self.branches() == name]

    def __len__(self):
        return len(self.eigenvalues)


@dataclass(frozen=True)
class EigenPair:
    lam: complex
    vector: np.ndarray
    space_tag: str                   # node+cell | node+node | node
    residual: float


def _sort_order(lam: np.ndarray) -> np.ndarray:
    return np.lexsort((np.angle(lam), np.abs(lam)))


def _spectrum(Mf: np.ndarray, lam: np.ndarray, V: np.ndarray, scale: float,
              tol_zero: float, source: str, keep_vectors: bool) -> Spectrum:
    """Sort the eigenpairs (lam, V) of the frame matrix Mf, gate their
    residuals at 1e-8 x scale = ||Mf||_2 and count the zero modes."""
    res = np.linalg.norm(Mf @ V - V * lam[None, :], axis=0) / np.linalg.norm(V, axis=0)
    order = _sort_order(lam)
    lam, res, V = lam[order], res[order], V[:, order]
    bad = res > 1e-8 * scale
    if np.any(bad):
        raise RuntimeError(
            f"eigensolver residual {res[bad].max():.3e} exceeds 1e-8 x norm "
            f"at index {int(np.nonzero(bad)[0][0])}")
    zm = int(np.sum(np.abs(lam) < tol_zero))
    return Spectrum(lam, res, zm, source, tol_zero, V if keep_vectors else None)


def eigen_dirac(ops: DiscreteOperatorSet, keep_vectors: bool = False) -> Spectrum:
    """Spectrum of D+B via a dense general eigensolver in the weighted frame."""
    Mf = ops.dirac_frame()
    lam, V = scipy.linalg.eig(Mf)
    return _spectrum(Mf, lam, V, ops.dirac_norm, ops.tol_zero, "dirac",
                     keep_vectors)


def eigen_generator(ops: DiscreteOperatorSet, keep_vectors: bool = False) -> Spectrum:
    """Spectrum of iG on node+node space (real dgeev path when coefficients are real)."""
    Gf = ops.frame(ops.G, "generator")
    if np.allclose(Gf.imag, 0.0):
        Gf = Gf.real
    nu, V = scipy.linalg.eig(Gf)
    return _spectrum(1j * Gf, 1j * nu, V, np.linalg.norm(Gf, 2), ops.tol_zero,
                     "generator", keep_vectors)


def eigen_selfadjoint(ops: DiscreteOperatorSet) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues/vectors of T*T (Hermitian in the node frame), ascending,
    by the band solver."""
    return ops.frame_eigh("node", vectors=True)


def constant_damping_dirac(ops: DiscreteOperatorSet) -> Spectrum:
    """Exact D+B spectrum (up to the Hermitian solve) when alpha/rho^2 is
    constant at the nodes.

    A scalar damping profile commutes with T*T, so every Hermitian eigenpair
    (mu, u) of T*T yields the two pencil roots of z^2 + i a z - mu = 0 with
    D+B eigenvectors (u, T u / lambda).  Much cheaper than a dense general
    eigensolve at large n; rejected if the profile is not constant.

    The residual reduces exactly to the node block: with H1 u = mu u and
    w = T u / lambda, the cell component of (D+B-lambda)(u, w) vanishes
    identically and the node component equals (H1 u - mu u)/lambda, so only
    one product with the sparse node-frame T*T is needed.
    """
    C = ops.C
    if np.ptp(C) > 1e-13 * max(1.0, np.abs(C).max()):
        raise ValueError("damping profile is not constant at the nodes")
    a = float(C[0])
    mu, U = eigen_selfadjoint(ops)
    disc = np.sqrt(mu - a * a / 4.0 + 0j)
    lam = np.concatenate([-0.5j * a + disc, -0.5j * a - disc])
    # cell-space kernel of T* contributes exact zero eigenvalues that the
    # node-space pencil cannot see
    k_star = ops.n_cells - ops.rank
    if k_star:
        lam = np.concatenate([lam, np.zeros(k_star)])
    R = ops.H1f @ U
    R -= U * mu[None, :]
    rn = np.linalg.norm(R, axis=0)
    rn = np.concatenate([np.tile(rn, 2), np.zeros(k_star)])
    lam_safe = np.where(np.abs(lam) < ops.tol_zero, 1.0, np.abs(lam))
    mu2 = np.concatenate([np.tile(np.maximum(mu, 0.0), 2), np.zeros(k_star)])
    vec_norm = np.sqrt(1.0 + mu2 / lam_safe**2)
    res = rn / (lam_safe * vec_norm)
    order = _sort_order(lam)
    lam, res = lam[order], res[order]
    zm = int(np.sum(np.abs(lam) < ops.tol_zero))
    return Spectrum(lam, res, zm, "dirac", ops.tol_zero)


def pencil_residual(lam: complex, u: np.ndarray, ops: DiscreteOperatorSet) -> float:
    """Weighted residual of (T*T - lambda i R - lambda^2) u = 0 on the node space."""
    nu = ops.weighted_norm(u, "node")
    if nu == 0:
        raise ValueError("zero vector has no pencil residual")
    r = ops.H1 @ u - lam * 1j * (ops.C * u) - lam * lam * u
    return ops.weighted_norm(r, "node") / nu


def weighted_residual(M: np.ndarray, lam: complex, v: np.ndarray,
                      ops: DiscreteOperatorSet, space: str) -> float:
    """Weighted residual ||M v - lambda v|| / ||v|| on ``space``."""
    r = M @ v - lam * v
    return ops.weighted_norm(r, space) / ops.weighted_norm(v, space)


def map_generator_to_dirac(pair: EigenPair, ops: DiscreteOperatorSet) -> EigenPair:
    """(u, v) of iG goes to (v, -i T u) of D+B, for lambda != 0."""
    if abs(pair.lam) < ops.tol_zero:
        raise ValueError("zero eigenvalue cannot be mapped")
    m = ops.n_nodes
    u, v = pair.vector[:m], pair.vector[m:]
    out = np.concatenate([v, -1j * (ops.T @ u)])
    out = out / ops.weighted_norm(out)
    return EigenPair(pair.lam, out, "node+cell",
                     weighted_residual(ops.D + ops.B, pair.lam, out, ops, "dirac"))


def map_dirac_to_generator(pair: EigenPair, ops: DiscreteOperatorSet,
                           range_tol: float = 1e-8) -> EigenPair:
    """(psi1, psi2) of D+B goes to (i T^{-1}|_ran psi2, psi1) of iG, lambda != 0."""
    if abs(pair.lam) < ops.tol_zero:
        raise ValueError("zero eigenvalue cannot be mapped")
    m = ops.n_nodes
    psi1, psi2 = pair.vector[:m], pair.vector[m:]
    rhs = np.sqrt(ops.wv) * psi2
    wf, *_ = np.linalg.lstsq(ops.Tf, rhs, rcond=None)
    resid = np.linalg.norm(ops.Tf @ wf - rhs)
    if resid > range_tol * max(1.0, np.linalg.norm(rhs)):
        raise ValueError(f"second component lies outside ran(T): residual {resid:.3e}")
    w = wf / np.sqrt(ops.wu)
    out = np.concatenate([1j * w, psi1])
    out = out / ops.weighted_norm(out, "generator")
    return EigenPair(pair.lam, out, "node+node",
                     weighted_residual(1j * ops.G, pair.lam, out, ops, "generator"))


def multiset_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Max matched |a_i - b_j| under the optimal assignment; inf if sizes differ."""
    a, b = np.asarray(a), np.asarray(b)
    if len(a) != len(b):
        return float("inf")
    if len(a) == 0:
        return 0.0
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def check_symmetry(spec: Spectrum, companion: Spectrum | None = None) -> dict:
    """Multiset distance between the spectrum and -conj of itself (or a companion).

    For the quasi family with non-real omega the companion must be the
    spectrum computed for conj(omega).
    """
    other = spec if companion is None else companion
    d = multiset_distance(spec.eigenvalues, -np.conj(other.eigenvalues))
    return {"distance": d, "paired_with": "self" if companion is None else "companion"}


def check_strip(spec: Spectrum, ops: DiscreteOperatorSet, slack: float = 1e-10) -> dict:
    """Containment in the horizontal strip |Im| <= sup alpha/rho^2 (+ slack)."""
    xs = np.linspace(0.0, 1.0, 2001)
    bound = float(np.max(np.abs(np.asarray(ops.alpha.sample(xs))
                                / np.asarray(ops.rho.sample(xs)) ** 2)))
    max_im = float(np.max(np.abs(spec.eigenvalues.imag))) if len(spec) else 0.0
    dissipative = bool(np.all(np.asarray(ops.alpha.sample(xs)) >= 0))
    return {
        "max_abs_im": max_im,
        "norm_bound": bound,
        "inside_strip": max_im <= bound + slack,
        "dissipative_case": dissipative,
        "upper_half_empty": bool(np.max(spec.eigenvalues.imag, initial=0.0) <= slack)
        if dissipative else None,
    }


def fit_asymptotics(spec: Spectrum, rho: CoefficientSpec,
                    window: tuple[float, float] = (1 / 16, 1 / 8)) -> dict:
    """Fit Re(lambda_j) ~ slope * j on the positive branch, mid-range window.

    The leading-order spacing is pi / integral(rho); eigenvalues with
    |Re| below tol (overdamped) are excluded from the branch.  The default
    window sits lower than the top of the resolved branch because grid
    dispersion contaminates the upper quarter at second order.
    """
    branch = np.sort(spec.branch("plus").real)
    J = len(branch)
    if J < 40:
        raise ValueError(f"need at least 40 branch eigenvalues, got {J}")
    lo = max(1, int(np.ceil(J * window[0])))
    hi = max(lo + 1, int(np.ceil(J * window[1])))
    jj = np.arange(lo, hi + 1)
    slope, intercept = np.polyfit(jj, branch[lo - 1:hi], 1)
    target = np.pi / integrate_product([rho])
    return {
        "slope": float(slope),
        "intercept": float(intercept),
        "target": float(target),
        "relative_deviation": float(abs(slope - target) / target),
        "window": (lo, hi),
        "branch_size": J,
    }


def closed_form_constant_damping(a: float, j_max: int) -> np.ndarray:
    """Dirichlet rho=1 pencil roots: -ia/2 +- sqrt(j^2 pi^2 - a^2/4), j=1..j_max."""
    if a < 0:
        raise ValueError("damping constant must be nonnegative")
    j = np.arange(1, j_max + 1, dtype=float)
    root = np.sqrt(j * j * np.pi**2 - a * a / 4.0 + 0j)
    return np.concatenate([-0.5j * a + root, -0.5j * a - root])


def verify_factorization_identity(z: complex, ops: DiscreteOperatorSet) -> dict:
    """Frobenius residual of the pencil linearization identity at z.

    (L(z) + I) F(z) = E(z) (iG - z) with L(z) = z^2 + z i R - T*T, where
    E, F are the standard block factors; also checks the printed inverses.
    """
    m = ops.n_nodes
    I = np.eye(m)
    R = np.diag(ops.C)
    L = z * z * I + z * 1j * R - ops.H1
    E = np.block([[-z * I - 1j * R, -1j * I], [I, np.zeros((m, m))]])
    Einv = np.block([[np.zeros((m, m)), I], [1j * I, -1j * (-z * I - 1j * R)]])
    F = np.block([[I, np.zeros((m, m))], [-z * I, 1j * I]])
    Finv = np.block([[I, np.zeros((m, m))], [-1j * z * I, -1j * I]])
    lhs = scipy.linalg.block_diag(L, I) @ F
    rhs = E @ (1j * ops.G - z * np.eye(2 * m))
    scale = max(np.linalg.norm(lhs), np.linalg.norm(rhs), 1.0)
    I2 = np.eye(2 * m)
    return {
        "factorization_residual": float(np.linalg.norm(lhs - rhs) / scale),
        "E_inverse_defect": float(np.linalg.norm(E @ Einv - I2)),
        "F_inverse_defect": float(np.linalg.norm(F @ Finv - I2)),
    }


def spectrum_to_csv(spec: Spectrum) -> str:
    """CSV with columns index,re_lambda,im_lambda,residual,zero_mode_flag,branch."""
    branches = spec.branches()
    rows = zip(range(len(spec)), spec.eigenvalues.real, spec.eigenvalues.imag,
               spec.residuals, (branches == "zero").astype(int), branches)
    return to_csv(("index", "re_lambda", "im_lambda", "residual",
                   "zero_mode_flag", "branch"), rows)
