"""Polar decomposition, supersymmetric partner identities, block resolvents.

The partner identities are checked in the weighted frame, where T is the
frame factor Tf and T*T, TT* are the Hermitian bands H1f, H2f.  The polar
factors come from one SVD of Tf, formed once per operator set
(`DiscreteOperatorSet.polar`).  The block resolvents are returned in the
original (unweighted) coordinates, so they compare directly with the
assembled D and D + B.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretization import DiscreteOperatorSet, shifted, solve_band
from .spectral import multiset_distance

__all__ = [
    "BlockResolvent", "check_isospectral",
    "block_diagonalize", "check_intertwining", "first_resolvent_identity",
    "resolvent_dirac", "resolvent_perturbed", "trace_ideal_decay",
]

DECAY_FROM = 5           # first index of the trace-ideal decay fit


@dataclass(frozen=True)
class BlockResolvent:
    zeta: complex
    blocks: tuple  # ((node<-node, node<-cell), (cell<-node, cell<-cell))

    def assemble(self) -> np.ndarray:
        (a, b), (c, d) = self.blocks
        return np.block([[a, b], [c, d]])


def check_isospectral(ops: DiscreteOperatorSet) -> dict:
    """Nonzero spectra of T*T and TT* agree; zero counts match the kernels."""
    mu1, mu2 = ops.H1_eigvals, ops.H2_eigvals      # ascending
    # singular values of T give an unambiguous zero count for both products
    r = ops.rank
    z1 = ops.n_nodes - r
    z2 = ops.n_cells - r
    scale = max(float(np.abs(mu1).max()), 1e-300)
    dist = multiset_distance(mu1[::-1][:r], mu2[::-1][:r]) / scale
    return {"relative_distance": float(dist), "ker_T": z1, "ker_Tstar": z2}


def block_diagonalize(ops: DiscreteOperatorSet) -> dict:
    """Defects of U = 2^{-1/2} [[I, V^H], [-V, I]] as the map of the frame
    Dirac matrix Df = [[0, T^H], [T, 0]] (T = Tf) to diag(|T|, -|T*|) on
    (ker D)^perp.

    Neither U nor Df is formed: the conjugation has the closed blocks
    2 U Df U^H = [[V^H T + T^H V, T^H - V^H T V^H],
    [T - V T^H V, -(T V^H + V T^H)]], and 2 U^H U = diag(I + P1, I + P2)
    with the projectors P1 = V^H V, P2 = V V^H onto (ker D)^perp.  The off
    blocks are adjoints of each other, so one gives the off-block norm; the
    unitarity defect is ||diag(P1, P2) (U^H U - I) diag(P1, P2)||.
    """
    V, absT, absTstar = ops.polar
    T, Vh = ops.sparse("Tf"), V.conj().T
    VhT, TVh = Vh @ T, T @ Vh
    diag_defect = max(np.linalg.norm(0.5 * (VhT + VhT.conj().T) - absT),
                      np.linalg.norm(0.5 * (TVh + TVh.conj().T) - absTstar))
    P1, P2 = Vh @ V, V @ Vh
    unit_defect = 0.5 * np.hypot(
        *(np.linalg.norm(P @ (P - np.eye(len(P))) @ P) for P in (P1, P2)))
    return {
        "off_block_norm": float(0.5 * np.linalg.norm(T - V @ VhT.conj().T)),
        "diagonal_defect": float(diag_defect),
        "unitarity_defect": float(unit_defect),
    }


def check_intertwining(ops: DiscreteOperatorSet) -> dict:
    """V f(T*T) = f(T T*) V in the frame, relative to max(|f(||T*T||)|, 1).

    f = x and x^2 come from the bands: E = V H1f - H2f V, and
    V H1f^2 - H2f^2 V = E H1f + H2f E.  f = exp(-x) comes from the
    eigenvectors of both bands.
    """
    V = ops.polar[0]
    H1f, H2f = ops.H1f, ops.H2f
    mu1, U1 = ops.frame_eigh("node", vectors=True)
    mu2, U2 = ops.frame_eigh("cell", vectors=True)
    scale = max(np.abs(mu1).max(), 1.0)
    E = V @ H1f - H2f @ V
    F1 = (U1 * np.exp(-mu1)) @ U1.conj().T
    F2 = (U2 * np.exp(-mu2)) @ U2.conj().T
    return {"x": float(np.linalg.norm(E) / scale),
            "x2": float(np.linalg.norm(E @ H1f + H2f @ E) / scale ** 2),
            "exp": float(np.linalg.norm(V @ F1 - F2 @ V))}


def first_resolvent_identity(z: complex, ops: DiscreteOperatorSet) -> float:
    """Residual of I + z (TT* - z)^{-1} = T (T*T - z)^{-1} T* on ran T.

    Measured in the weighted frame, from band LUs of H1f - z and H2f - z;
    z must avoid both spectra (LinAlgError).  The two sides are compared on
    ran T as ||V^H (lhs - rhs) V||_F, which is ||P (lhs - rhs) P||_F for the
    projector P = V V^H, V being a partial isometry.
    """
    Tf = ops.sparse("Tf")
    lhs = np.eye(ops.n_cells) + z * solve_band(shifted(ops.H2f, z))
    rhs = Tf @ solve_band(shifted(ops.H1f, z), Tf.conj().T.toarray())
    V = ops.polar[0]
    return float(np.linalg.norm(V.conj().T @ (lhs - rhs) @ V)
                 / max(np.linalg.norm(rhs), 1.0))


def _squared_shift(zeta: complex, ops: DiscreteOperatorSet) -> complex:
    """zeta^2; ValueError when it lies within 1e-8 of the spectrum of T*T
    or of TT*."""
    z2 = zeta * zeta
    d = min(np.abs(ops.H1_eigvals - z2).min(), np.abs(ops.H2_eigvals - z2).min())
    if d <= 1e-8:
        raise ValueError(f"zeta^2 within {d:.3e} of the squared spectrum")
    return z2


def resolvent_dirac(zeta: complex, ops: DiscreteOperatorSet) -> BlockResolvent:
    """(D - zeta)^{-1}: `_block_resolvent` without damping, whose pencil Q
    is T*T - zeta^2, so the blocks are zeta K1, T* K2, T K1 and zeta K2 with
    K1 = (T*T - zeta^2)^{-1} and K2 = (TT* - zeta^2)^{-1}."""
    return _block_resolvent(zeta, ops, np.zeros(ops.n_nodes))


def resolvent_perturbed(zeta: complex, ops: DiscreteOperatorSet) -> BlockResolvent:
    """(D + B - zeta)^{-1}: `_block_resolvent` with the damping C of ops."""
    return _block_resolvent(zeta, ops, ops.C)


def _block_resolvent(zeta: complex, ops: DiscreteOperatorSet,
                     C: np.ndarray) -> BlockResolvent:
    """(D + B - zeta)^{-1}, B = diag(-i C, 0), from K2 = (TT* - zeta^2)^{-1}
    and one band LU of the damped pencil Q = T*T - zeta^2 - i zeta C.

    With K1 = (T*T - zeta^2)^{-1} and the node-space correction
    M = [I - i zeta C K1]^{-1}, the blocks need only K1 M = Q^{-1} and
    K1 M (i C T* K2) = Q^{-1} (i C T* K2), two right-hand sides of the one
    LU; `solve_band` gates the conditioning of Q.  Without damping the
    second vanishes and Q is real for a real zeta: only the identity
    columns are solved.
    """
    z2 = _squared_shift(zeta, ops)
    m = ops.n_nodes
    K2 = solve_band(shifted(ops.sparse("H2"), z2))
    TsK2 = ops.sparse("Tstar") @ K2
    T = ops.sparse("T")
    if not C.any():     # Q = T*T - zeta^2, and i C T* K2 = 0
        QI = solve_band(shifted(ops.sparse("H1"), z2), np.eye(m))
        return BlockResolvent(zeta, ((zeta * QI, TsK2), (T @ QI, zeta * K2)))
    X = solve_band(shifted(ops.sparse("H1"), z2 + 1j * zeta * C),
                   np.hstack([np.eye(m), 1j * (C[:, None] * TsK2)]))
    QI, QC = X[:, :m], X[:, m:]
    blocks = ((zeta * QI, zeta * QC + TsK2), (T @ QI, T @ QC + zeta * K2))
    return BlockResolvent(zeta, blocks)


def trace_ideal_decay(ops: DiscreteOperatorSet) -> dict:
    """Fitted log-log decay exponent of the eigenvalues of (T*T + I)^{-1}
    over the indices DECAY_FROM to max(DECAY_FROM + 10, m / 2).

    A proxy for summability of the resolvent's singular values: the j-th
    eigenvalue should fall off like j^{-2}.
    """
    lam = 1.0 / (ops.H1_eigvals + 1.0)    # descending
    j_hi = max(DECAY_FROM + 10, len(lam) // 2)
    j = np.arange(DECAY_FROM, j_hi + 1)
    slope, _ = np.polyfit(np.log(j), np.log(lam[j - 1]), 1)
    return {"exponent": float(slope), "window": (DECAY_FROM, j_hi)}
