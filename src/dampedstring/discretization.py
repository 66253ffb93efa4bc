"""Structure-preserving staggered-grid discretization of T, T*, D, B, and G.

Nodes carry the first component (u), cell midpoints the second (v).  The
discrete adjoint is *defined* through the weighted inner products,
Tstar = Wu^{-1} T^H Wv, so every supersymmetry identity holds exactly at
matrix level and the continuum adjoint boundary conditions emerge in the
limit instead of being imposed by hand.

T is a two-band difference operator, so T*T and TT* are tridiagonal
(a ring for quasi) and every Hermitian problem is solved as a band; dense
matrices are built only when a dense algorithm asks for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .coefficients import CoefficientSpec

__all__ = [
    "BoundaryCondition",
    "WeightedGrid",
    "DiscreteOperatorSet",
    "build_grid",
    "build_operator_set",
    "kernel_dimensions",
    "band_norm",
    "shifted",
    "solve_band",
    "band_layout",
    "band_lu",
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
            if not np.isfinite(self.omega):
                raise ValueError(f"omega must be finite, got {self.omega}")
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


def _dense(shape: tuple, rows: np.ndarray, cols: np.ndarray,
           vals: np.ndarray) -> np.ndarray:
    """Complex matrix of the given shape with only the given nonzeros."""
    M = np.zeros(shape, dtype=complex)
    M[rows, cols] = vals
    return M


def _unframe(A, s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(row, column, value) of the nonzeros of diag(s)^{-1} A diag(s), for
    the CSR frame form A of an operator: its entries back in the weighted
    space, real when A is."""
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    return rows, A.indices, A.data / s[rows] * s[A.indices]


def _chain_count(e: np.ndarray, t: float) -> int:
    """Number of eigenvalues in (-t, t] of the zero-diagonal Hermitian
    tridiagonal matrix with sub-diagonal e, from the Sturm counts at -t and
    t of LAPACK ?stebz.  The eigenvalues depend only on |e|, so the count
    is taken in real arithmetic; the eigenvalues themselves are not read,
    so the bisection tolerance is the whole interval."""
    count, *_, info = scipy.linalg.lapack.dstebz(
        np.zeros(len(e) + 1), np.abs(e), 1, -t, t, 0, 0, 2 * t, "E")
    if info:
        raise RuntimeError(f"?stebz failed with info {info}")
    return int(count)


def _ring_count(e: np.ndarray, corner: complex, t: float) -> int:
    """Number of eigenvalues in [-t, t) of the zero-diagonal Hermitian ring
    with sub-diagonal e and the corner ``corner`` at its last row, first
    column.

    The first and the last unknown are cut off.  By Haynsworth's inertia
    additivity the inertia of ring - s is that of the interior chain - s
    plus that of the 2 x 2 Schur complement S(s) of the interior, taken
    with the ?gttrf/?gttrs pair at s = t and s = -t.  Here the interior is
    the Golub-Kahan matrix of a square bidiagonal with a nonzero diagonal,
    so it is nonsingular and S(s) is defined."""
    inner = e[1:-1]
    count = _chain_count(inner, t)
    # the columns of the ring at the cut unknowns, on the interior rows
    cut = np.zeros((len(inner) + 1, 2), dtype=complex)
    cut[0, 0], cut[-1, 1] = e[0], np.conj(e[-1])
    gttrf, gttrs = scipy.linalg.get_lapack_funcs(("gttrf", "gttrs"), (cut,))
    for sign in (1, -1):
        s = sign * t
        factors = gttrf(inner, np.full(len(cut), -s, dtype=complex),
                        inner.conj())
        if factors[-1]:
            raise RuntimeError("the interior of the ring is singular")
        X = gttrs(*factors[:-1], cut)[0]
        low = corner - e[-1] * X[-1, 0]
        S = np.array([[-s - np.conj(e[0]) * X[0, 0], np.conj(low)],
                      [low, -s - e[-1] * X[-1, 1]]])
        # eigenvalues of ring - s below 0, less those of the interior
        count += sign * int(np.sum(np.linalg.eigvalsh(S) < 0))
    return count


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
    quasi.  The Hermitian problems (the spectra of T*T and TT*, and the
    Gram bands behind `dirac_norm` and `generator_norm`) are solved as
    bands in the one layout of `band_layout`.  Every dense matrix (T,
    Tstar, Tf, D, B, G) is built on first use and kept, written from the
    nonzeros of T and of the frame form H1f.

    The zero threshold `tol_zero` is 1e-10 ||Tf||_2, read off the top of the
    spectrum of T*T.  The rank of T needs only the number of singular
    values of Tf below tol/10, tol and 10 tol: each is an inertia count on
    the zero-diagonal Golub-Kahan matrix [[0, Tf^H], [Tf, 0]] in coordinate
    order (a Sturm count on a chain, a chain plus a 2 x 2 Schur complement
    on the quasi ring), and no singular value is computed.
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

    @cached_property
    def _T_entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(cell, node column, value) of the nonzeros of T."""
        n, m, first = self.n_cells, self.n_nodes, self.grid.keep[0]
        j = np.arange(n)
        right, left = j + 1 - first, j - first      # node columns
        r, l = right < m, left >= 0
        rows, cols = [j[r], j[l]], [right[r], left[l]]
        vals = [self.c[r], -self.c[l]]
        if self.bc.tag == "quasi":
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
    def _Tstar_entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(node, cell column, value) of the nonzeros of the weighted
        adjoint Tstar = Wu^{-1} T^H Wv: the defining identity, not a
        stencil."""
        rows, cols, vals = self._T_entries
        return cols, rows, vals.conj() * self.wv[rows] / self.wu[cols]

    @cached_property
    def T(self) -> np.ndarray:
        return _dense((self.n_cells, self.n_nodes), *self._T_entries)

    @cached_property
    def Tstar(self) -> np.ndarray:
        return _dense((self.n_nodes, self.n_cells), *self._Tstar_entries)

    @cached_property
    def Tf(self) -> np.ndarray:
        """Frame factor Wv^{1/2} T Wu^{-1/2}: T as a Euclidean map, with
        Tf^H the frame form of Tstar."""
        return _dense((self.n_cells, self.n_nodes), *self._Tf_entries)

    @cached_property
    def D(self) -> np.ndarray:
        """Dirac operator [[0, Tstar], [T, 0]] on node + cell space."""
        m, size = self.n_nodes, self.n_nodes + self.n_cells
        (tr, tc, tv), (ar, ac, av) = self._T_entries, self._Tstar_entries
        return _dense((size, size), np.concatenate([m + tr, ar]),
                      np.concatenate([tc, m + ac]), np.concatenate([tv, av]))

    @cached_property
    def B(self) -> np.ndarray:
        """Damping block diag(-i C, 0) on node + cell space."""
        k, size = np.arange(self.n_nodes), self.n_nodes + self.n_cells
        return _dense((size, size), k, k, -1j * self.C)

    @cached_property
    def G(self) -> np.ndarray:
        """Wave generator [[0, I], [-T*T, -diag(C)]] on node + node space."""
        m = self.n_nodes
        k = np.arange(m)
        rows, cols, vals = _unframe(self.H1f, np.sqrt(self.wu))
        return _dense((2 * m, 2 * m), np.concatenate([k, m + rows, m + k]),
                      np.concatenate([m + k, cols, m + k]),
                      np.concatenate([np.ones(m), -vals, -self.C]))

    @cached_property
    def H1f(self):
        """T*T in the node frame, Tf^H Tf: sparse Hermitian, tridiagonal
        (a ring for quasi)."""
        rows, cols, fv = self._Tf_entries
        return _product(rows, cols, cols, fv.conj(), fv, self.n_nodes)

    @cached_property
    def H2f(self):
        """TT* in the cell frame, Tf Tf^H: sparse Hermitian, tridiagonal
        (a ring for quasi)."""
        rows, cols, fv = self._Tf_entries
        return _product(cols, rows, rows, fv, fv.conj(), self.n_cells)

    @cached_property
    def C(self) -> np.ndarray:
        """Damping profile alpha/rho^2 sampled at retained nodes."""
        a = np.asarray(self.alpha.sample(self.grid.nodes))
        r = np.asarray(self.rho.sample(self.grid.nodes))
        return a / r**2

    @cached_property
    def interleave(self) -> np.ndarray:
        """Coordinate-order position of each node + cell unknown: node k at
        2k and cell j at 2j + 1, less the dropped node 0."""
        first = min(2 * self.grid.keep[0], 1)
        return np.concatenate([2 * self.grid.keep - first,
                               2 * np.arange(self.n_cells) + 1 - first])

    def dirac_band(self, damped: bool = True):
        """The frame form of D + B (of D without ``damped``) as a sparse
        matrix in coordinate order, built on each call: tridiagonal with the
        diagonal -iC on the nodes and 0 on the cells, off-diagonal pairs
        (conj(Tf_jk), Tf_jk), and one corner pair for quasi."""
        rows, cols, fv = self._Tf_entries
        node, cell = self.interleave[cols], self.interleave[self.n_nodes + rows]
        r, c, v = [cell, node], [node, cell], [fv, fv.conj()]
        if damped:
            at = self.interleave[:self.n_nodes]
            r.append(at)
            c.append(at)
            v.append(-1j * self.C)
        size = self.n_nodes + self.n_cells
        return scipy.sparse.csr_array(
            (np.concatenate(v), (np.concatenate(r), np.concatenate(c))),
            shape=(size, size))

    @cached_property
    def polar(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Polar factors (V, |T|, |T*|) of Tf = V |T|, from one thin SVD
        W diag(s) Xh of Tf: V = W_r Xh_r over the `rank` singular values
        above tol_zero (so V is the zero map on ker T), |T| = Xh^H diag(s)
        Xh and |T*| = W diag(s) W^H."""
        W, s, Xh = np.linalg.svd(self.Tf, full_matrices=False)
        r = self.rank
        return (W[:, :r] @ Xh[:r], (Xh.conj().T * s) @ Xh,
                (W * s) @ W.conj().T)

    @cached_property
    def tol_zero(self) -> float:
        """Zero-mode threshold: 1e-10 times ||D||_2 = ||Tf||_2, the square
        root of the top eigenvalue of T*T (squared only at the top, so
        accurate to rounding)."""
        return 1e-10 * float(np.sqrt(max(self.H1_eigvals[-1], 0.0)))

    def count_below(self, t: float) -> int:
        """Number of singular values of Tf below t (t > 0), without
        computing any: half the eigenvalues of the Golub-Kahan matrix within
        t of 0, less the |m - n| zeros that the shape of Tf adds.  That
        spectrum is symmetric about 0, so an odd count means an eigenvalue
        at t itself: KernelAmbiguityError."""
        e, corner = self._golub_kahan
        count = (_ring_count(e, corner, t) if self.bc.tag == "quasi"
                 else _chain_count(e, t))
        half, odd = divmod(count - abs(self.n_nodes - self.n_cells), 2)
        if odd:
            raise KernelAmbiguityError(f"a singular value at t = {t:.3e}")
        return half

    @cached_property
    def _golub_kahan(self) -> tuple[np.ndarray, complex]:
        """(e, corner): the sub-diagonal of the Golub-Kahan matrix
        [[0, Tf^H], [Tf, 0]] in coordinate order and the entry at its last
        row, first column (nonzero only for quasi)."""
        band = self.dirac_band(damped=False)
        return band.diagonal(-1), complex(band[band.shape[0] - 1, 0])

    @cached_property
    def rank(self) -> int:
        """Numerical rank of T: min(m, n) less the number of singular values
        below tol_zero; KernelAmbiguityError when one lies within a factor
        10 of it, i.e. when the counts below tol/10 and 10 tol differ."""
        tol = self.tol_zero
        low, at, high = map(self.count_below, (tol / 10, tol, 10 * tol))
        if high != low:
            raise KernelAmbiguityError(
                f"{high - low} singular value(s) within a factor 10 of tol "
                f"{tol:.3e}")
        return min(self.n_nodes, self.n_cells) - at

    def frame_eigh(self, which: str = "node", vectors: bool = False):
        """Spectrum, ascending, of T*T ("node") or TT* ("cell") in its
        Hermitian frame, with the eigenvectors as columns if ``vectors``."""
        A = {"node": self.H1f, "cell": self.H2f}[which]
        return _band_eigh(A, vectors)

    @cached_property
    def H1_eigvals(self) -> np.ndarray:
        """Spectrum of T*T from its Hermitian frame form, ascending."""
        return self.frame_eigh("node")

    @cached_property
    def damping_means(self) -> tuple[np.ndarray, np.ndarray]:
        """(c, c2): the means of C and C^2 over each eigenvector of T*T, in
        the order of H1_eigvals, from its inverse iterate
        (`spectral.selfadjoint_modes`); the starts of the Dirac and the
        generator eigensolves both read them."""
        from .spectral import selfadjoint_modes
        _, _, (c, c2) = selfadjoint_modes(self, (self.C, self.C ** 2))
        return c, c2

    @cached_property
    def H2_eigvals(self) -> np.ndarray:
        """Spectrum of TT* from its Hermitian frame form, ascending."""
        return self.frame_eigh("cell")

    def sparse(self, name: str):
        """T, Tstar, H1 or H2 in the original coordinates, or the frame
        factor Tf, as a sparse CSR matrix; H1 and H2, written from the
        entries of H1f and H2f, are real unless omega is complex."""
        m, n = self.n_nodes, self.n_cells
        shape, (rows, cols, vals) = {
            "T": ((n, m), self._T_entries),
            "Tstar": ((m, n), self._Tstar_entries),
            "Tf": ((n, m), self._Tf_entries),
            "H1": ((m, m), _unframe(self.H1f, np.sqrt(self.wu))),
            "H2": ((n, n), _unframe(self.H2f, np.sqrt(self.wv))),
        }[name]
        return scipy.sparse.csr_array((vals, (rows, cols)), shape=shape)

    def weights(self, space: str = "dirac") -> np.ndarray:
        """Diagonal of the weighted inner product on the node, cell, dirac
        (node + cell, for D + B) or generator (node + node, for G) space."""
        parts = {"node": [self.wu], "cell": [self.wv],
                 "dirac": [self.wu, self.wv], "generator": [self.wu, self.wu]}
        return np.concatenate(parts[space])

    def dirac_frame(self) -> np.ndarray:
        """The frame form of D + B as a dense matrix in block order (nodes,
        then cells): `dirac_band`'s entries (+ 0.0, a signed zero +0 as in
        `toarray`), so its undamped part is exactly Hermitian.  Built on each
        call, for the dense algorithms that take it (Riesz, Livsic)."""
        (rows, cols, fv), m = self._Tf_entries, self.n_nodes
        return _dense((m + self.n_cells,) * 2, np.r_[m + rows, cols, 0:m],
                      np.r_[cols, m + rows, 0:m],
                      np.r_[fv, fv.conj(), -1j * self.C] + 0.0)

    @cached_property
    def dirac_norm(self) -> float:
        """||D + B||_2 in the weighted frame, from the Gram band."""
        return band_norm(self.dirac_band())

    @cached_property
    def generator_frame(self):
        """The frame form [[0, I], [-T*T, -C]] of G as a sparse matrix in
        block order (u, then v), built from H1f and C as COO triplets (a
        zero of C is not stored)."""
        m = self.n_nodes
        H = self.H1f.tocoo()
        k = np.arange(m)
        damped = k[self.C != 0]
        rows = np.concatenate([k, m + H.row, m + damped])
        cols = np.concatenate([m + k, H.col, m + damped])
        vals = np.concatenate([np.ones(m), -H.data, -self.C[damped]])
        return scipy.sparse.coo_array((vals, (rows, cols)),
                                      shape=(2 * m, 2 * m)).tocsr()

    @cached_property
    def generator_norm(self) -> float:
        """||G||_2 in the weighted frame, from the Gram band of
        `generator_frame`."""
        return band_norm(self.generator_frame)

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


def _band_eigh(A, vectors: bool = False, top: bool = False):
    """Eigenvalues (ascending), and with ``vectors`` the eigenvectors in the
    order of A's unknowns, of the sparse Hermitian A by
    `scipy.linalg.eig_banded` on the lower half of A's band storage
    (`band_layout`); with ``top`` only the largest eigenvalue.  A real A is
    solved in real arithmetic."""
    ab, kl, ku, _, pos = band_layout(A, A.dtype)
    last = dict(select="i", select_range=(len(pos) - 1,) * 2) if top else {}
    out = scipy.linalg.eig_banded(ab[kl + ku:], lower=True,
                                  eigvals_only=not vectors,
                                  check_finite=False, **last)
    return (out[0], out[1][pos]) if vectors else out


def band_norm(M) -> float:
    """||M||_2 of the sparse M: the square root of the top eigenvalue of
    the Gram band M^H M (`_band_eigh`), exact where a bound would loosen a
    gate."""
    M = scipy.sparse.csr_array(M)
    return float(np.sqrt(max(_band_eigh(M.conj().T @ M, top=True)[0], 0.0)))


def shifted(A, d):
    """The sparse A - diag(d), for a scalar or a vector d."""
    return A - scipy.sparse.diags_array(np.broadcast_to(d, A.shape[0]))


def solve_band(A, b: np.ndarray | None = None) -> np.ndarray:
    """A^{-1} b, or A^{-1} when b is None, of the sparse square A: the
    one-shift call of `band_lu`.  Real A and b are solved in real
    arithmetic; a real A with a complex b in complex arithmetic."""
    dtype = np.result_type(A.dtype, np.float64,
                           *(() if b is None else (np.asarray(b).dtype,)))
    return band_lu(band_layout(A, dtype))(b)


def band_layout(A, dtype) -> tuple:
    """(ab, kl, ku, order, pos): the sparse, structurally symmetric A,
    duplicates summed, as LAPACK band storage ab of the dtype, whose row
    kl + ku holds the whole diagonal (zeros included), unknown i at band
    position pos[i].  The unknowns are in reverse Cuthill-McKee order, which
    makes a chain a band of width 1 and a ring (quasi) one of width 2,
    whatever order they come in."""
    A = scipy.sparse.csr_array(A)
    A.sum_duplicates()
    size = A.shape[0]
    order = reverse_cuthill_mckee(A, symmetric_mode=True)
    pos = np.empty_like(order)
    pos[order] = np.arange(size)
    j = pos[A.indices]
    d = pos[np.repeat(np.arange(size), np.diff(A.indptr))] - j
    kl, ku = int(np.max(d, initial=0)), int(np.max(-d, initial=0))
    ldab = 2 * kl + ku + 1
    ab = np.zeros((ldab, size), dtype, order="F")
    ab.T.reshape(-1)[ldab * j + kl + ku + d] = A.data     # ab[kl+ku+d, j]
    return ab, kl, ku, order, pos


def band_lu(layout, z=0.0):
    """solve(b=None) -> (A - z_k)^{-1} b, or (A - z_k)^{-1} when b is None,
    shaped z.shape + b.shape, for every shift z_k, from one ?gbtrf of the
    block-diagonal band of the A - z_k (the storage of ``layout``, A's
    `band_layout`, tiled over the shifts, in the arithmetic of A and z) and
    one ?gbtrs per solve.  `_refuse`s a zero pivot, and in every solve a
    1-norm reciprocal condition below 1e-12: ||A - z_k||_1 from the band's
    column sums, ||(A - z_k)^{-1}||_1 >= ||x||_1 / ||v||_1 over solved v."""
    block, kl, ku, order, pos = layout
    z = np.asarray(z)
    q, dim = z.size, len(order)
    size = q * dim
    ab = np.tile(block.T, (q, 1)).astype(np.result_type(block, z), copy=False)
    ab[:, kl + ku] -= np.repeat(z.ravel(), dim)
    # ||A - z_k||_1: the off-diagonal column sums plus |A_jj - z_k|
    off = np.abs(np.delete(block, kl + ku, axis=0)).sum(axis=0)
    anorm = float((off + np.abs(block[kl + ku] - z.reshape(-1, 1))).max())
    pos = (pos + dim * np.arange(q)[:, None]).ravel()
    gbtrf, gbtrs = scipy.linalg.get_lapack_funcs(("gbtrf", "gbtrs"), (ab,))
    lu, piv, info = gbtrf(ab.T, kl, ku, overwrite_ab=True)
    if info > 0:
        _refuse(0.0)

    def solve(b=None) -> np.ndarray:
        if b is None:       # the identity of every block in the band order
            p, v, shape = dim, np.full(dim, float(q)), (dim, dim)
            rhs = np.zeros((size, dim), lu.dtype, order="F")
            rhs[pos, np.tile(np.arange(dim), q)] = 1.0
        else:
            # b and the start (1, ..., 1) and alternating (-1)^i (1 + i/(size
            # - 1)) of LAPACK's estimator ?lacn2 (Higham, ACM TOMS 14 (1988)
            # 381-396); ?gbcon's scaled triangular solves cost O(size^2)
            b = np.asarray(b)
            if not np.can_cast(b.dtype, lu.dtype):
                raise TypeError(f"a {b.dtype} b on a {lu.dtype} band LU")
            p, shape = b.size // dim, b.shape
            rhs = np.empty((p + 2, size), lu.dtype)  # its transpose: F order
            rhs[:p].reshape(p, q, dim)[:] = b.reshape(dim, p).T[:, None, order]
            rhs[p] = 1.0
            rhs[p + 1] = 1.0 + np.arange(size) / max(size - 1, 1)
            rhs[p + 1, 1::2] *= -1.0
            v = np.append(np.abs(rhs[:p]).sum(axis=1),
                          [size, np.abs(rhs[p + 1].real).sum()])
            rhs = rhs.T
        x = gbtrs(lu, kl, ku, rhs, piv, overwrite_b=True)[0]
        used = v > 0
        rcond = 1.0 / (anorm * float((np.abs(x).sum(axis=0)[used]
                                      / v[used]).max()))
        if not rcond >= 1e-12:      # a NaN from an overflowing solve refuses
            _refuse(rcond)
        return x[pos, :p].reshape(z.shape + shape)

    return solve


def _refuse(rcond: float):
    raise np.linalg.LinAlgError(
        f"too close to the spectrum: reciprocal condition {rcond:.3e}")


def kernel_dimensions(ops: DiscreteOperatorSet) -> tuple[int, int, int]:
    """Numerical (dim ker T, dim ker Tstar, dim ker D).

    ker T and ker Tstar come from `rank`, inertia counts on the Golub-Kahan
    matrix of the frame factor; ker D is counted from a dense SVD of the
    undamped frame band, so the census kT + kTs = kD compares two paths
    that share no algorithm.
    """
    r = ops.rank
    sD = np.linalg.svd(ops.dirac_band(damped=False).toarray(),
                       compute_uv=False)
    kD = ops.n_nodes + ops.n_cells - _rank(sD, ops.tol_zero)
    return ops.n_nodes - r, ops.n_cells - r, kD
