"""Structure-preserving staggered-grid discretization of T, T*, D, B, and G.

Nodes carry the first component (u), cell midpoints the second (v).  The
discrete adjoint is *defined* through the weighted inner products,
Tstar = Wu^{-1} T^H Wv, so every supersymmetry identity holds exactly at
matrix level and the continuum adjoint boundary conditions emerge in the
limit instead of being imposed by hand.

T is a two-band difference operator, so T*T and TT* are tridiagonal
(cyclic for quasi) and every Hermitian problem is solved as a band; dense
matrices are built only when a dense algorithm asks for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse

from .coefficients import CoefficientSpec

__all__ = [
    "BoundaryCondition",
    "WeightedGrid",
    "DiscreteOperatorSet",
    "build_grid",
    "assemble_adjoint",
    "assemble_dirac",
    "assemble_damping",
    "assemble_generator",
    "build_operator_set",
    "kernel_dimensions",
    "solve_regular",
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


def _fold(size: int) -> np.ndarray:
    """The order (0, N-1, 1, N-2, ...): it puts the first and the last
    unknown next to each other and every coordinate neighbour within two
    places, so a cyclic tridiagonal matrix becomes a band of width 2."""
    idx = np.arange(size)
    order = np.empty_like(idx)
    order[0::2] = idx[:(size + 1) // 2]
    order[1::2] = idx[:(size - 1) // 2:-1]
    return order


def _band_eigh(A, cyclic: bool, vectors: bool = False):
    """Eigenvalues (ascending), and with ``vectors`` the eigenvectors, of the
    sparse Hermitian matrix A by `scipy.linalg.eig_banded`.

    The unknowns of A are in coordinate order, so A is tridiagonal apart
    from, when ``cyclic``, the corner that couples the first and the last
    unknown; `_fold` moves that corner inside bandwidth 2.  A is written in
    lower band storage, so a real A is solved in real arithmetic.
    """
    size = A.shape[0]
    order = _fold(size) if cyclic else np.arange(size)
    pos = np.empty_like(order)
    pos[order] = np.arange(size)
    A = A.tocoo()
    i, j = pos[A.row], pos[A.col]
    low = i >= j
    ab = np.zeros((3 if cyclic else 2, size), dtype=A.dtype)
    ab[i[low] - j[low], j[low]] = A.data[low]
    if not vectors:
        return scipy.linalg.eig_banded(ab, lower=True, eigvals_only=True,
                                       check_finite=False)
    w, V = scipy.linalg.eig_banded(ab, lower=True, check_finite=False)
    return w, V[pos]


def _dense(shape: tuple, rows: np.ndarray, cols: np.ndarray,
           vals: np.ndarray) -> np.ndarray:
    """Complex matrix of the given shape with only the given nonzeros."""
    M = np.zeros(shape, dtype=complex)
    M[rows, cols] = vals
    return M


def _product(key: np.ndarray, i: np.ndarray, j: np.ndarray, x: np.ndarray,
             y: np.ndarray, size: int):
    """Sparse size x size matrix that sums x[a] y[b] at (i[a], j[b]) over
    every pair of nonzeros a, b sharing the summation index ``key`` (no
    index is shared by more than two); real when every product is."""
    s = np.argsort(key, kind="stable")
    a, b = s[:-1], s[1:]
    twin = key[a] == key[b]
    a, b = a[twin], b[twin]
    every = np.arange(len(key))
    first = np.concatenate([every, a, b])
    second = np.concatenate([every, b, a])
    v = x[first] * y[second]
    if not v.imag.any():
        v = v.real
    return scipy.sparse.csr_array((v, (i[first], j[second])), shape=(size, size))


@dataclass(frozen=True)
class DiscreteOperatorSet:
    """All operators for one (n, rho, alpha, bc) configuration.

    T is stored as its per-cell coefficients c_j = i/(h rho(x_{j+1/2})):
    (T u)_j = c_j (u_{j+1} - u_j), with node n read as omega * node 0 for
    quasi.  The Hermitian problems (the singular values of T, the spectra of
    T*T and TT*) are solved as bands in coordinate order.  Every dense
    matrix (T, Tstar, Tf, H1, H2, D, B, G) is built on first use and kept.
    """

    grid: WeightedGrid
    bc: BoundaryCondition
    rho: CoefficientSpec
    alpha: CoefficientSpec
    c: np.ndarray                 # per-cell coefficients of T

    @property
    def n_nodes(self) -> int:
        return len(self.grid.keep)

    @property
    def n_cells(self) -> int:
        return self.grid.n

    @property
    def wu(self) -> np.ndarray:
        return self.grid.node_weights

    @property
    def wv(self) -> np.ndarray:
        return self.grid.cell_weights

    @property
    def _cyclic(self) -> bool:
        return self.bc.tag == "quasi"

    @cached_property
    def _T_entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(cell, node column, value) of the nonzeros of T."""
        n, m, first = self.n_cells, self.n_nodes, self.grid.keep[0]
        j = np.arange(n)
        right, left = j + 1 - first, j - first      # node columns
        r, l = right < m, left >= 0
        rows, cols = [j[r], j[l]], [right[r], left[l]]
        vals = [self.c[r], -self.c[l]]
        if self._cyclic:
            rows.append([n - 1])
            cols.append([0])
            vals.append([self.c[-1] * self.bc.omega])
        return tuple(map(np.concatenate, (rows, cols, vals)))

    @cached_property
    def _Tf_entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The nonzeros of the frame factor Tf, in the places of T's."""
        rows, cols, vals = self._T_entries
        return rows, cols, np.sqrt(self.wv)[rows] * vals / np.sqrt(self.wu)[cols]

    @cached_property
    def T(self) -> np.ndarray:
        return _dense((self.n_cells, self.n_nodes), *self._T_entries)

    @cached_property
    def Tstar(self) -> np.ndarray:
        return assemble_adjoint(self.T, self.wu, self.wv)

    @cached_property
    def Tf(self) -> np.ndarray:
        """Frame factor Wv^{1/2} T Wu^{-1/2}: T as a Euclidean map, with
        Tf^H the frame form of Tstar."""
        return _dense((self.n_cells, self.n_nodes), *self._Tf_entries)

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
    def H1f(self):
        """T*T in the node frame, Tf^H Tf: sparse Hermitian, tridiagonal
        (cyclic for quasi)."""
        rows, cols, fv = self._Tf_entries
        return _product(rows, cols, cols, fv.conj(), fv, self.n_nodes)

    @cached_property
    def H2f(self):
        """TT* in the cell frame, Tf Tf^H: sparse Hermitian, tridiagonal
        (cyclic for quasi)."""
        rows, cols, fv = self._Tf_entries
        return _product(cols, rows, rows, fv, fv.conj(), self.n_cells)

    @cached_property
    def H1(self) -> np.ndarray:
        """TstarT on the node space, filled from the entries of H1f."""
        s = np.sqrt(self.wu)
        return self.H1f.toarray().astype(complex) / s[:, None] * s[None, :]

    @cached_property
    def H2(self) -> np.ndarray:
        """TTstar on the cell space, filled from the entries of H2f."""
        s = np.sqrt(self.wv)
        return self.H2f.toarray().astype(complex) / s[:, None] * s[None, :]

    @cached_property
    def C(self) -> np.ndarray:
        """Damping profile alpha/rho^2 sampled at retained nodes."""
        a = np.asarray(self.alpha.sample(self.grid.nodes))
        r = np.asarray(self.rho.sample(self.grid.nodes))
        return a / r**2

    @cached_property
    def sv(self) -> np.ndarray:
        """Singular values of Tf, descending: the nonzero ones are the
        square roots of the common nonzero spectrum of T*T and TT*.

        They are the min(m, n) largest eigenvalues of the Golub-Kahan
        matrix [[0, Tf^H], [Tf, 0]], whose nodes and cells interleave in
        coordinate order into a band.  The square roots of the eigenvalues
        of T*T would instead put a zero singular value near sqrt(eps) ||T||.
        """
        rows, cols, fv = self._Tf_entries
        # node k sits at 2k, cell j at 2j + 1, less the dropped node 0
        first = min(2 * self.grid.keep[0], 1)
        node, cell = 2 * self.grid.keep[cols] - first, 2 * rows + 1 - first
        size = self.n_nodes + self.n_cells
        gk = scipy.sparse.csr_array(
            (np.concatenate([fv, fv.conj()]),
             (np.concatenate([cell, node]), np.concatenate([node, cell]))),
            shape=(size, size))
        w = _band_eigh(gk, self._cyclic)
        return np.sort(np.abs(w[size - min(self.n_nodes, self.n_cells):]))[::-1]

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
    def rank(self) -> int:
        """Numerical rank of T: the number of singular values at or above
        tol_zero (KernelAmbiguityError when one sits near it)."""
        return _rank(self.sv, self.tol_zero)

    def frame_eigh(self, which: str = "node", vectors: bool = False):
        """Spectrum, ascending, of T*T ("node") or TT* ("cell") in its
        Hermitian frame, with the eigenvectors as columns if ``vectors``."""
        A = {"node": self.H1f, "cell": self.H2f}[which]
        return _band_eigh(A, self._cyclic, vectors)

    @cached_property
    def H1_eigvals(self) -> np.ndarray:
        """Spectrum of T*T from its Hermitian frame form, ascending."""
        return self.frame_eigh("node")

    @cached_property
    def H2_eigvals(self) -> np.ndarray:
        """Spectrum of TT* from its Hermitian frame form, ascending."""
        return self.frame_eigh("cell")

    @cached_property
    def K(self) -> np.ndarray:
        """(T*T)^{-1}; LinAlgError when ker T is nontrivial for this bc."""
        if self.rank < self.n_nodes:
            raise np.linalg.LinAlgError("T*T is singular: ker T is nontrivial")
        return solve_regular(self.H1)

    def weights(self, space: str = "dirac") -> np.ndarray:
        """Diagonal of the weighted inner product on the node, cell, dirac
        (node + cell, for D + B) or generator (node + node, for G) space."""
        parts = {"node": [self.wu], "cell": [self.wv],
                 "dirac": [self.wu, self.wv], "generator": [self.wu, self.wu]}
        return np.concatenate(parts[space])

    def frame(self, M: np.ndarray, space: str = "dirac") -> np.ndarray:
        """Similarity transform of M on ``space`` to the frame where the
        weighted inner product is Euclidean."""
        s = np.sqrt(self.weights(space))
        return s[:, None] * M / s[None, :]

    def dirac_frame(self, M: np.ndarray | None = None) -> np.ndarray:
        """The frame form of M, by default of D + B; built on each call."""
        return self.frame(self.D + self.B if M is None else M)

    @cached_property
    def dirac_norm(self) -> float:
        """||D + B||_2 in the weighted frame."""
        return float(np.linalg.norm(self.dirac_frame(), 2))

    def weighted_norm(self, v: np.ndarray, space: str = "dirac") -> float:
        w = self.weights(space)
        return float(np.sqrt(np.real(np.vdot(v, w * v))))


def build_operator_set(n: int, rho: CoefficientSpec, alpha: CoefficientSpec,
                       bc: BoundaryCondition) -> DiscreteOperatorSet:
    grid = build_grid(n, rho, bc)
    c = 1j / (grid.h * np.asarray(rho.sample(grid.mids)))
    return DiscreteOperatorSet(grid, bc, rho, alpha, c)


def _rank(s: np.ndarray, tol: float) -> int:
    """Number of singular values at or above tol; KernelAmbiguityError when
    one sits within a factor 10 of it."""
    near = (s > tol / 10) & (s < tol * 10)
    if np.any(near):
        raise KernelAmbiguityError(
            f"singular value {s[near][0]:.3e} within a factor 10 of tol {tol:.3e}")
    return int(np.sum(s >= tol))


def solve_regular(A: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """A^{-1} b, or A^{-1} when b is None, from one LU factorization.

    np.linalg.LinAlgError when the LAPACK 1-norm reciprocal condition
    estimate (gecon) of A is below 1e-12: the shift that made A sits too
    close to the spectrum for the inverse to mean anything.  The LAPACK
    prefix is chosen from A and b together, since a real A with a complex b
    must be solved in complex arithmetic.  getrf is called directly rather
    than through `scipy.linalg.lu_factor`, which warns on the exactly zero
    pivot of a zero mode.
    """
    if b is None:
        b = np.eye(A.shape[0], dtype=A.dtype)
    getrf, gecon, getrs = scipy.linalg.get_lapack_funcs(
        ("getrf", "gecon", "getrs"), (A, b))
    lu, piv, _ = getrf(A)
    rcond, _ = gecon(lu, np.linalg.norm(A, 1))
    if rcond < 1e-12:
        raise np.linalg.LinAlgError(
            f"too close to the spectrum: reciprocal condition {rcond:.3e}")
    return getrs(lu, piv, b)[0]


def kernel_dimensions(ops: DiscreteOperatorSet) -> tuple[int, int, int]:
    """Numerical (dim ker T, dim ker Tstar, dim ker D) via singular values.

    ker T and ker Tstar share the singular values of the frame factor;
    ker D is counted from a separate SVD of the frame Dirac matrix, so the
    census kT + kTs = kD compares two independent paths.
    """
    r = ops.rank
    sD = np.linalg.svd(ops.dirac_frame(ops.D), compute_uv=False)
    kD = ops.n_nodes + ops.n_cells - _rank(sD, ops.tol_zero)
    return ops.n_nodes - r, ops.n_cells - r, kD
