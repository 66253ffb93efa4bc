"""Structure-preserving staggered-grid discretization of T, T*, D, B, and G.

Nodes carry the first component (u), cell midpoints the second (v).  The
discrete adjoint is *defined* through the weighted inner products,
Tstar = Wu^{-1} T^H Wv, so every supersymmetry identity holds exactly at
matrix level and the continuum adjoint boundary conditions emerge in the
limit instead of being imposed by hand.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .coefficients import CoefficientSpec

__all__ = [
    "BoundaryCondition",
    "WeightedGrid",
    "DiscreteOperatorSet",
    "build_grid",
    "assemble_T",
    "assemble_adjoint",
    "assemble_dirac",
    "assemble_damping",
    "assemble_generator",
    "build_operator_set",
    "kernel_dimensions",
    "KernelAmbiguityError",
]

_TAGS = ("max", "min", "zero0", "zero1", "quasi")


class KernelAmbiguityError(RuntimeError):
    """A singular value sits too close to the zero threshold to classify."""


@dataclass(frozen=True)
class BoundaryCondition:
    """One of the five endpoint-coupling families for T on [0,1]."""

    tag: str
    omega: complex | None = None

    def __post_init__(self):
        if self.tag not in _TAGS:
            raise ValueError(f"unknown boundary condition tag {self.tag!r}")
        if self.tag == "quasi":
            if self.omega is None or self.omega == 0:
                raise ValueError("quasi-periodic coupling requires omega != 0")
        elif self.omega is not None:
            raise ValueError(f"omega only applies to quasi, not {self.tag!r}")

    @classmethod
    def minimal(cls):
        return cls("min")

    @classmethod
    def zero0(cls):
        return cls("zero0")

    @classmethod
    def zero1(cls):
        return cls("zero1")

    @classmethod
    def quasi(cls, omega: complex):
        return cls("quasi", complex(omega))

    @classmethod
    def maximal(cls):
        return cls("max")

    def __str__(self):
        if self.tag == "quasi":
            return f"omega:{self.omega.real:g},{self.omega.imag:g}"
        return self.tag


def _retained_nodes(n: int, bc: BoundaryCondition) -> np.ndarray:
    if bc.tag == "min":
        return np.arange(1, n)
    if bc.tag == "zero0":
        return np.arange(1, n + 1)
    if bc.tag in ("zero1", "quasi"):
        return np.arange(0, n)
    return np.arange(0, n + 1)  # max


@dataclass(frozen=True)
class WeightedGrid:
    """Uniform staggered grid with rho^2 dx weights on retained dofs."""

    n: int
    bc: BoundaryCondition
    keep: np.ndarray          # retained node indices
    nodes: np.ndarray         # retained node coordinates
    mids: np.ndarray          # cell midpoints
    node_weights: np.ndarray  # Wu diagonal
    cell_weights: np.ndarray  # Wv diagonal

    @property
    def h(self) -> float:
        return 1.0 / self.n


def build_grid(n: int, rho: CoefficientSpec, bc: BoundaryCondition) -> WeightedGrid:
    if n < 4:
        raise ValueError(f"need at least 4 cells, got {n}")
    h = 1.0 / n
    keep = _retained_nodes(n, bc)
    xk = keep * h
    mids = (np.arange(n) + 0.5) * h
    wu = np.asarray(rho.sample(xk)) ** 2 * h
    # Trapezoid half-weight at retained endpoint nodes keeps the node inner
    # product consistent with the rho^2 dx measure.
    if bc.tag in ("zero0", "max"):
        wu[keep == n] *= 0.5
    if bc.tag in ("zero1", "max"):
        wu[keep == 0] *= 0.5
    wv = np.asarray(rho.sample(mids)) ** 2 * h
    if np.any(wu <= 0) or np.any(wv <= 0):
        raise ValueError("grid weights must be strictly positive")
    return WeightedGrid(n, bc, keep, xk, mids, wu, wv)


def assemble_T(grid: WeightedGrid, rho: CoefficientSpec,
               bc: BoundaryCondition) -> np.ndarray:
    """Forward difference (i/rho) d/dx from retained nodes to cells."""
    if bc != grid.bc:
        raise ValueError("boundary condition does not match the grid")
    n, h = grid.n, grid.h
    col = {k: i for i, k in enumerate(grid.keep)}
    T = np.zeros((n, len(grid.keep)), dtype=complex)
    rho_mid = np.asarray(rho.sample(grid.mids))
    for j in range(1, n + 1):
        c = 1j / (h * rho_mid[j - 1])
        right, left = j, j - 1
        if bc.tag == "quasi" and j == n:
            T[j - 1, col[0]] += c * bc.omega   # node n identified with omega * node 0
        elif right in col:
            T[j - 1, col[right]] += c
        if left in col:
            T[j - 1, col[left]] -= c
    return T


def assemble_adjoint(T: np.ndarray, wu: np.ndarray, wv: np.ndarray) -> np.ndarray:
    """Weighted adjoint Tstar = Wu^{-1} T^H Wv; the defining identity, not a stencil."""
    if T.shape != (len(wv), len(wu)):
        raise ValueError("T shape inconsistent with the weight vectors")
    return (T.conj().T * wv[None, :]) / wu[:, None]


def assemble_dirac(T: np.ndarray, Tstar: np.ndarray) -> np.ndarray:
    m, n = T.shape[1], T.shape[0]
    D = np.zeros((m + n, m + n), dtype=complex)
    D[:m, m:] = Tstar
    D[m:, :m] = T
    return D


def assemble_damping(C: np.ndarray, n_cells: int) -> np.ndarray:
    """Damping block diag(-i C, 0) on node + cell space."""
    m = len(C)
    B = np.zeros((m + n_cells, m + n_cells), dtype=complex)
    B[:m, :m] = np.diag(-1j * C)
    return B


def assemble_generator(TstarT: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Wave generator G = [[0, I], [-T*T, -R]] on node + node space."""
    m = TstarT.shape[0]
    G = np.zeros((2 * m, 2 * m), dtype=TstarT.dtype)
    G[:m, m:] = np.eye(m)
    G[m:, :m] = -TstarT
    G[m:, m:] = -np.diag(R)
    return G


@dataclass(frozen=True)
class DiscreteOperatorSet:
    """All matrices for one (n, rho, alpha, bc) configuration.

    T and Tstar are assembled up front; everything derived from them (D, B,
    G, the frame factor with its singular values and its full SVD, the zero
    threshold, the spectra of T*T and TT*, and (T*T)^{-1}) is formed on
    first use and kept.
    """

    grid: WeightedGrid
    bc: BoundaryCondition
    rho: CoefficientSpec
    alpha: CoefficientSpec
    T: np.ndarray
    Tstar: np.ndarray
    wu: np.ndarray
    wv: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.T.shape[1]

    @property
    def n_cells(self) -> int:
        return self.T.shape[0]

    @cached_property
    def D(self) -> np.ndarray:
        return assemble_dirac(self.T, self.Tstar)

    @cached_property
    def B(self) -> np.ndarray:
        return assemble_damping(self.C, self.n_cells)

    @cached_property
    def G(self) -> np.ndarray:
        return assemble_generator(self.H1, self.C)

    @cached_property
    def H1(self) -> np.ndarray:
        """TstarT on the node space."""
        return self.Tstar @ self.T

    @cached_property
    def H2(self) -> np.ndarray:
        """TTstar on the cell space."""
        return self.T @ self.Tstar

    @cached_property
    def C(self) -> np.ndarray:
        """Damping profile alpha/rho^2 sampled at retained nodes."""
        a = np.asarray(self.alpha.sample(self.grid.nodes))
        r = np.asarray(self.rho.sample(self.grid.nodes))
        return a / r**2

    @property
    def wd(self) -> np.ndarray:
        return np.concatenate([self.wu, self.wv])

    @cached_property
    def Tf(self) -> np.ndarray:
        """Frame factor Wv^{1/2} T Wu^{-1/2}: T as a Euclidean map, with
        Tf^H the frame form of Tstar."""
        return np.sqrt(self.wv)[:, None] * self.T / np.sqrt(self.wu)[None, :]

    @cached_property
    def sv(self) -> np.ndarray:
        """Singular values of Tf, descending: the nonzero ones are the
        square roots of the common nonzero spectrum of T*T and TT*."""
        return np.linalg.svd(self.Tf, compute_uv=False)

    @cached_property
    def Tf_svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Full SVD (W, s, Xh) of Tf with both singular-vector sets; the
        polar factors are built from it."""
        return np.linalg.svd(self.Tf)

    @cached_property
    def tol_zero(self) -> float:
        """Zero-mode threshold: 1e-10 times ||D||_2, the top singular value of Tf."""
        return 1e-10 * float(self.sv[0])

    @cached_property
    def H1_eigvals(self) -> np.ndarray:
        """Spectrum of T*T from its Hermitian frame form, ascending."""
        return np.linalg.eigvalsh(self.node_frame(self.H1))

    @cached_property
    def H2_eigvals(self) -> np.ndarray:
        """Spectrum of TT* from its Hermitian frame form, ascending."""
        return np.linalg.eigvalsh(self.cell_frame(self.H2))

    @cached_property
    def K(self) -> np.ndarray:
        """(T*T)^{-1}; LinAlgError when T*T is numerically singular for this bc."""
        sv = np.linalg.svd(self.H1, compute_uv=False)
        if sv[-1] < self.tol_zero * max(sv[0], 1.0):
            raise np.linalg.LinAlgError("T*T is numerically singular for this bc")
        return np.linalg.solve(self.H1, np.eye(self.n_nodes))

    def dirac_frame(self, M: np.ndarray | None = None) -> np.ndarray:
        """Similarity transform to the frame where the weighted product is Euclidean."""
        s = np.sqrt(self.wd)
        M = self.D + self.B if M is None else M
        return s[:, None] * M / s[None, :]

    def node_frame(self, M: np.ndarray) -> np.ndarray:
        s = np.sqrt(self.wu)
        return s[:, None] * M / s[None, :]

    def cell_frame(self, M: np.ndarray) -> np.ndarray:
        s = np.sqrt(self.wv)
        return s[:, None] * M / s[None, :]

    def weighted_norm(self, v: np.ndarray, which: str = "dirac") -> float:
        w = {"dirac": self.wd, "node": self.wu, "cell": self.wv}[which]
        return float(np.sqrt(np.real(np.vdot(v, w * v))))


def build_operator_set(n: int, rho: CoefficientSpec, alpha: CoefficientSpec,
                       bc: BoundaryCondition) -> DiscreteOperatorSet:
    grid = build_grid(n, rho, bc)
    T = assemble_T(grid, rho, bc)
    Tstar = assemble_adjoint(T, grid.node_weights, grid.cell_weights)
    return DiscreteOperatorSet(grid, bc, rho, alpha, T, Tstar,
                               grid.node_weights, grid.cell_weights)


def _rank(s: np.ndarray, tol: float) -> int:
    """Number of singular values at or above tol; KernelAmbiguityError when
    one sits within a factor 10 of it."""
    near = (s > tol / 10) & (s < tol * 10)
    if np.any(near):
        raise KernelAmbiguityError(
            f"singular value {s[near][0]:.3e} within a factor 10 of tol {tol:.3e}")
    return int(np.sum(s >= tol))


def kernel_dimensions(ops: DiscreteOperatorSet) -> tuple[int, int, int]:
    """Numerical (dim ker T, dim ker Tstar, dim ker D) via singular values.

    ker T and ker Tstar share the singular values of the frame factor;
    ker D is counted from a separate SVD of the frame Dirac matrix, so the
    census kT + kTs = kD compares two independent paths.
    """
    tol = ops.tol_zero
    r = _rank(ops.sv, tol)
    sD = np.linalg.svd(ops.dirac_frame(ops.D), compute_uv=False)
    kD = ops.n_nodes + ops.n_cells - _rank(sD, tol)
    return ops.n_nodes - r, ops.n_cells - r, kD
