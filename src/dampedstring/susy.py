"""Polar decomposition, supersymmetric partner identities, block resolvents.

Everything is verified in the weighted similarity frame, where T*T and TT*
become Hermitian and matrix square roots can be taken by eigendecomposition.
Public matrices are returned in the original (unweighted) coordinates so they
compose directly with the assembled operators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .discretization import DiscreteOperatorSet, solve_regular
from .spectral import eigen_selfadjoint, multiset_distance, weighted_residual

__all__ = [
    "PolarParts", "BlockResolvent",
    "polar_decompose", "check_isospectral", "susy_partner_eigvec",
    "dirac_from_h1", "diagonalizing_unitary", "block_diagonalize",
    "check_intertwining", "first_resolvent_identity",
    "resolvent_dirac", "resolvent_perturbed", "trace_ideal_decay",
]


@dataclass(frozen=True)
class PolarParts:
    """T = V |T| with V a partial isometry vanishing on ker T.

    All three matrices live in the weighted frame; `rank` counts singular
    values above the zero threshold.
    """

    V: np.ndarray
    absT: np.ndarray
    absTstar: np.ndarray
    rank: int
    tol_zero: float


@dataclass(frozen=True)
class BlockResolvent:
    zeta: complex
    blocks: tuple  # ((node<-node, node<-cell), (cell<-node, cell<-cell))

    def assemble(self) -> np.ndarray:
        (a, b), (c, d) = self.blocks
        return np.block([[a, b], [c, d]])


def polar_decompose(ops: DiscreteOperatorSet) -> PolarParts:
    """SVD-based polar factors in the weighted frame.

    Singular values below ``tol_zero`` are treated as exact kernel
    directions, so V is the zero map there and a weighted isometry on the
    orthogonal complement.
    """
    W, s, Xh = ops.Tf_svd
    r = ops.rank
    s_node = np.zeros(Xh.shape[0])
    s_node[:len(s)] = s
    s_cell = np.zeros(W.shape[0])
    s_cell[:len(s)] = s
    absT = (Xh.conj().T * s_node[None, :]) @ Xh
    absTstar = (W * s_cell[None, :]) @ W.conj().T
    V = W[:, :r] @ Xh[:r, :]
    return PolarParts(V, absT, absTstar, r, ops.tol_zero)


def check_isospectral(ops: DiscreteOperatorSet) -> dict:
    """Nonzero spectra of T*T and TT* agree; zero counts match the kernels."""
    mu1, mu2 = ops.H1_eigvals, ops.H2_eigvals
    # singular values of T give an unambiguous zero count for both products
    r = ops.rank
    z1 = ops.n_nodes - r
    z2 = ops.n_cells - r
    nz1 = np.sort(mu1)[::-1][:r]
    nz2 = np.sort(mu2)[::-1][:r]
    scale = max(float(np.abs(mu1).max()), 1e-300)
    dist = multiset_distance(nz1, nz2) / scale
    return {"relative_distance": float(dist), "ker_T": z1, "ker_Tstar": z2,
            "rank": r}


def susy_partner_eigvec(f: np.ndarray, lambda2: float,
                        ops: DiscreteOperatorSet) -> tuple[np.ndarray, float]:
    """Push a T*T-eigenvector through T to a TT*-eigenvector for the same mu."""
    if lambda2 < ops.tol_zero:
        raise ValueError("eigenvalue below the zero threshold")
    g = ops.T @ f
    return g, weighted_residual(ops.H2, lambda2, g, ops, "cell")


def dirac_from_h1(f: np.ndarray, lam: float, ops: DiscreteOperatorSet
                  ) -> tuple[np.ndarray, float]:
    """(f, Tf/lambda) is a D-eigenvector for lambda when T*T f = lambda^2 f."""
    if abs(lam) < ops.tol_zero:
        raise ValueError("lambda must be separated from zero")
    psi = np.concatenate([f, (ops.T @ f) / lam])
    return psi, weighted_residual(ops.D, lam, psi, ops, "dirac")


def diagonalizing_unitary(parts: PolarParts) -> np.ndarray:
    """U = 2^{-1/2} [[I, V^H], [-V, I]] in the weighted frame.

    Unitary on (ker D)^perp; for boundary families with trivial kernels it is
    unitary on the whole space.
    """
    n, m = parts.V.shape
    return np.sqrt(0.5) * np.block([
        [np.eye(m), parts.V.conj().T],
        [-parts.V, np.eye(n)],
    ])


def block_diagonalize(ops: DiscreteOperatorSet) -> dict:
    """Conjugate the frame Dirac matrix by U and measure the defects.

    The target is diag(|T|, -|T*|) on (ker D)^perp; off-block norms and the
    unitarity defect of U restricted to the co-kernel are reported.
    """
    parts = polar_decompose(ops)
    U = diagonalizing_unitary(parts)
    m, n = ops.n_nodes, ops.n_cells
    Tf = ops.Tf
    Df = np.block([[np.zeros((m, m)), Tf.conj().T], [Tf, np.zeros((n, n))]])
    A = U @ Df @ U.conj().T
    off = max(np.linalg.norm(A[:m, m:]), np.linalg.norm(A[m:, :m]))
    diag_defect = max(np.linalg.norm(A[:m, :m] - parts.absT),
                      np.linalg.norm(A[m:, m:] + parts.absTstar))
    # restrict the unitarity check to (ker D)^perp: project out kernel dirs
    P = scipy.linalg.block_diag(parts.V.conj().T @ parts.V,
                                parts.V @ parts.V.conj().T)
    G = U.conj().T @ U
    unit_defect = np.linalg.norm(P @ (G - np.eye(m + n)) @ P)
    return {
        "off_block_norm": float(off),
        "diagonal_defect": float(diag_defect),
        "unitarity_defect": float(unit_defect),
        "parts": parts,
    }


def check_intertwining(ops: DiscreteOperatorSet) -> dict:
    """V f(T*T) = f(T T*) V in the frame for polynomial and exponential f."""
    parts = polar_decompose(ops)
    mu1, U1 = eigen_selfadjoint(ops)
    mu2, U2 = ops.frame_eigh("cell", vectors=True)
    table = {"x": lambda x: x, "x2": lambda x: x * x,
             "exp": lambda x: np.exp(-x)}
    out = {}
    scale = max(np.abs(mu1).max(), 1.0)
    for name, f in table.items():
        F1 = (U1 * f(mu1)[None, :]) @ U1.conj().T
        F2 = (U2 * f(mu2)[None, :]) @ U2.conj().T
        out[name] = float(np.linalg.norm(parts.V @ F1 - F2 @ parts.V)
                          / max(abs(f(scale)), 1.0))
    return out


def first_resolvent_identity(z: complex, ops: DiscreteOperatorSet) -> float:
    """Residual of I + z (TT* - z)^{-1} = T (T*T - z)^{-1} T* on ran T.

    Measured in the weighted frame; z must avoid both spectra (LinAlgError).
    """
    Tf = ops.Tf
    H1f, H2f = ops.H1f.toarray(), ops.H2f.toarray()
    m, n = ops.n_nodes, ops.n_cells
    lhs = np.eye(n) + z * solve_regular(H2f - z * np.eye(n))
    rhs = Tf @ solve_regular(H1f - z * np.eye(m), Tf.conj().T)
    # compare on ran T only: project both sides by V V^H
    parts = polar_decompose(ops)
    P = parts.V @ parts.V.conj().T
    return float(np.linalg.norm(P @ (lhs - rhs) @ P) / max(np.linalg.norm(rhs), 1.0))


def _scalar_resolvents(zeta: complex, ops: DiscreteOperatorSet
                       ) -> tuple[np.ndarray, np.ndarray]:
    """(T*T - zeta^2)^{-1} and (TT* - zeta^2)^{-1}; ValueError when zeta^2
    lies within 1e-8 of either spectrum."""
    m, n = ops.n_nodes, ops.n_cells
    z2 = zeta * zeta
    d = min(np.abs(ops.H1_eigvals - z2).min(), np.abs(ops.H2_eigvals - z2).min())
    if d <= 1e-8:
        raise ValueError(f"zeta^2 within {d:.3e} of the squared spectrum")
    K1 = solve_regular(ops.H1 - z2 * np.eye(m))
    K2 = solve_regular(ops.H2 - z2 * np.eye(n))
    return K1, K2


def resolvent_dirac(zeta: complex, ops: DiscreteOperatorSet) -> BlockResolvent:
    """(D - zeta)^{-1} assembled from the two scalar-block resolvents."""
    K1, K2 = _scalar_resolvents(zeta, ops)
    blocks = ((zeta * K1, ops.Tstar @ K2), (ops.T @ K1, zeta * K2))
    return BlockResolvent(zeta, blocks)


def resolvent_perturbed(zeta: complex, ops: DiscreteOperatorSet) -> BlockResolvent:
    """(D + B - zeta)^{-1} from the unperturbed blocks and one node-space inverse.

    The node-space correction is M = [I - i zeta C (T*T - zeta^2)^{-1}]^{-1};
    `solve_regular` gates its conditioning.
    """
    K1, K2 = _scalar_resolvents(zeta, ops)
    m = ops.n_nodes
    C = ops.C
    M = solve_regular(np.eye(m) - 1j * zeta * (C[:, None] * K1))
    TsK2 = ops.Tstar @ K2
    corr = M @ (1j * (C[:, None] * TsK2))
    b11 = zeta * (K1 @ M)
    b12 = zeta * (K1 @ corr) + TsK2
    b21 = ops.T @ (K1 @ M)
    b22 = ops.T @ (K1 @ corr) + zeta * K2
    return BlockResolvent(zeta, ((b11, b12), (b21, b22)))


def trace_ideal_decay(ops: DiscreteOperatorSet, j_lo: int = 5,
                      j_hi: int | None = None) -> dict:
    """Fitted log-log decay exponent of the eigenvalues of (T*T + I)^{-1}.

    A proxy for summability of the resolvent's singular values: the j-th
    eigenvalue should fall off like j^{-2}.
    """
    lam = np.sort(1.0 / (ops.H1_eigvals + 1.0))[::-1]
    if j_hi is None:
        j_hi = max(j_lo + 10, len(lam) // 2)
    j = np.arange(j_lo, j_hi + 1)
    slope, _ = np.polyfit(np.log(j), np.log(lam[j - 1]), 1)
    return {"exponent": float(slope), "window": (j_lo, j_hi)}
