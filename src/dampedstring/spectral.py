"""Spectra of D+B, iG, and T*T, with eigenpair maps and structural checks.

Every eigensolve runs in the similarity frame where the weighted inner
product becomes Euclidean, so residuals and norms reported here are the
weighted ones: D+B as the tridiagonal band of that frame, iG, its witness,
as the tridiagonal quadratic pencil T*T - z^2 - i z C of the node frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.sparse.csgraph import maximum_bipartite_matching

from . import tridiagonal
from .coefficients import CoefficientSpec, integrate_product
from .discretization import DiscreteOperatorSet, shifted
from .reporting import to_csv

_MODE_CHUNK = 2**15      # modes x positions per batched inverse iteration
_EPS = np.finfo(float).eps
RANGE_TOL = 1e-8         # least-squares residual of a vector in ran(T)

__all__ = [
    "Spectrum", "EigenPair",
    "eigen_dirac", "eigen_generator", "selfadjoint_modes",
    "constant_damping_dirac", "weighted_residual",
    "map_generator_to_dirac", "map_dirac_to_generator",
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
    residual: float


def _sort_order(lam: np.ndarray) -> np.ndarray:
    return np.lexsort((np.angle(lam), np.abs(lam)))


def _spectrum(lam: np.ndarray, res: np.ndarray, V: np.ndarray | None,
              scale: float, tol_zero: float) -> Spectrum:
    """Sort the eigenvalues lam with their residuals res (and vectors V),
    gate the residuals at 1e-8 x scale = ||M||_2 and count the zero modes."""
    order = _sort_order(lam)
    lam, res = lam[order], res[order]
    bad = res > 1e-8 * scale
    if np.any(bad):
        raise RuntimeError(
            f"eigensolver residual {res[bad].max():.3e} exceeds 1e-8 x norm "
            f"at index {int(np.nonzero(bad)[0][0])}")
    zm = int(np.sum(np.abs(lam) < tol_zero))
    return Spectrum(lam, res, zm, tol_zero,
                    None if V is None else V[:, order])


def _damped_roots(mu: np.ndarray, c: np.ndarray, k_T: int,
                  k_Ts: int) -> np.ndarray:
    """The D + B spectrum when C acts on each eigenvector u of T*T as the
    number c = <u, C u>: the roots of z^2 + i c z - mu = 0 for the nonzero
    eigenvalues mu (the last len(mu) - k_T, ascending), -i c alone for the
    k_T vectors of ker T, whose root 0 D + B does not have, and 0 for each
    of the k_Ts vectors of ker T*; dim values in all."""
    root = np.sqrt(mu[k_T:] - c[k_T:] ** 2 / 4 + 0j)
    return np.concatenate([-0.5j * c[k_T:] + root, -0.5j * c[k_T:] - root,
                           -1j * c[:k_T], np.zeros(k_Ts)])


def _damped_start(ops: DiscreteOperatorSet, k_T: int, k_Ts: int,
                  radius: float) -> np.ndarray:
    """`_damped_roots` with c the mean of C over each mode: the spectrum to
    first order in the variation of C, exact for constant C.  Each value is
    moved by a distinct offset about as large as its second-order error
    w^2 / spacing, w^2 the variance of C over the mode and spacing that of
    the values over [-radius, radius], and at least 2^-52 radius: that
    splits equal starts and the symmetry lambda -> -conj(lambda), which
    Aberth iterates would otherwise keep, without spoiling a start that is
    exact.

    The means of C and C^2 over each mode are those of its inverse iterate
    (`ops.damping_means`), so no eigenvector matrix of T*T is formed."""
    c, c2 = ops.damping_means
    w2 = np.maximum(c2 - c ** 2, 0.0)
    start = _damped_roots(ops.H1_eigvals, c, k_T, k_Ts)
    spacing = 2 * radius / len(start)
    size = np.minimum(np.concatenate([w2[k_T:], w2[k_T:], w2[:k_T],
                                      np.zeros(k_Ts)]) / spacing,
                      1e-3 * spacing)
    size = np.maximum(size, 2.0**-52 * radius)
    k = np.arange(len(start))
    return start + size * np.exp(2j * np.pi * 0.6180339887 * k)


def _dirac_start(ops: DiscreteOperatorSet) -> np.ndarray:
    """The start of `eigen_dirac`: `_damped_start` with a vector of ker T
    giving -i<u, C u> alone and one of ker T* the root 0 (`_damped_roots`)."""
    return _damped_start(ops, ops.n_nodes - ops.rank,
                         ops.n_cells - ops.rank, ops.dirac_norm)


def eigen_dirac(ops: DiscreteOperatorSet, keep_vectors: bool = False) -> Spectrum:
    """Spectrum of D+B from its tridiagonal frame form in coordinate order,
    by Ehrlich-Aberth iteration (`tridiagonal.eigensolve`) from the
    constant-damping spectrum; vectors are columns of the weighted frame."""
    lam, res, V = tridiagonal.eigensolve(ops.dirac_band(), _dirac_start(ops),
                                         ops.dirac_norm, keep_vectors)
    return _spectrum(lam, res, None if V is None else V[ops.interleave],
                     ops.dirac_norm, ops.tol_zero)


def eigen_generator(ops: DiscreteOperatorSet, keep_vectors: bool = False) -> Spectrum:
    """Spectrum of iG on node+node space, the witness of the Dirac spectrum:
    lambda is an eigenvalue of iG exactly when Q(lambda) = T*T - lambda^2
    - i lambda C is singular, and then v = (u, -i lambda u) with
    Q(lambda) u = 0 is its eigenvector.  The 2m roots of det Q, Q
    tridiagonal in the node frame (cyclic for quasi), come from
    Ehrlich-Aberth iteration (`tridiagonal.eigensolve` of degree 2) in
    O(m^2), started from the constant-damping roots with each mode's mean
    of C: for a vector of ker T these are 0 and -i<u, C u>, both roots of
    det Q.  No dense eigensolve of G is run.

    It is a second path to the D + B spectrum through other operators: the
    m x m pencil on T*T with its own start and log-derivative, against the
    first-order node + cell band; the two share only the twisted
    factorization of the kernel.  The residuals are the kernel's backward
    errors ||Q(lambda) u|| / (||u|| sqrt(1 + |lambda|^2)), which equal
    ||iG_f v - lambda v|| / ||v||; ``keep_vectors`` keeps the v, unit in
    the frame."""
    radius = np.sqrt(max(float(ops.H1_eigvals[-1]), 0.0)) + np.abs(ops.C).max()
    lam, res, U = tridiagonal.eigensolve(
        ops.H1f, _damped_start(ops, 0, 0, radius), ops.generator_norm,
        keep_vectors, damping=1j * ops.C)
    V = None
    if U is not None:
        V = np.concatenate([U, U * (-1j * lam)])
        V /= np.linalg.norm(V, axis=0)
    return _spectrum(lam, res, V, ops.generator_norm, ops.tol_zero)


def selfadjoint_modes(ops: DiscreteOperatorSet, weights=()
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-mode statistics of T*T in the node frame without its eigenvector
    matrix: (mu, res, means), mu the eigenvalues (`ops.H1_eigvals`,
    ascending), res[j] the backward error ||(H1f - mu_j) x|| / ||x|| of an
    inverse iterate x for mu_j, and means[i, j] = x^H diag(w_i) x / x^H x
    for each row w_i of ``weights``.

    The iterates are taken by chunks of modes (`_inverse_iterates`), each
    array at most _MODE_CHUNK modes x positions.  One step leaves x off its
    eigenvector by about the shift's error over the gap to the next
    eigenvalue, enough for the residual; the means take a second step,
    which squares that.  A mode whose residual is above 1e-8 ||T*T|| is
    retried once, with the ring cut at m/2 for a cyclic T*T and with one
    more step otherwise; RuntimeError names a mode still above it.
    """
    return _modes(ops, weights)[:3]


def _modes(ops: DiscreteOperatorSet, weights=()) -> tuple:
    """`selfadjoint_modes` and (q, rq): the Rayleigh quotient
    q_j = ||Tf x||^2 / ||x||^2 of each mode's iterate x and its backward
    error rq_j = ||(H1f - q_j) x|| / ||x||.  Tf x is accurate relative to
    sqrt(mu_j), so q_j is accurate relative to a small mu_j, which the band
    solver gives only to about eps ||T*T||; res_j^2 = rq_j^2 + (q_j - mu_j)^2,
    so the gate on res also bounds |q_j - mu_j|."""
    H = ops.H1f
    mu = ops.H1_eigvals
    m = len(mu)
    W = np.asarray(weights, dtype=float).reshape(-1, m)
    scale = max(float(mu[-1]), 0.0)           # ||T*T||, semidefinite
    # the ring: diagonal, H[i, i+1] and H[i+1, i] with i+1 mod m, whose last
    # entries are the corners (zero unless T*T is cyclic)
    ring = (H.diagonal(), np.append(H.diagonal(1), H.diagonal(1 - m)),
            np.append(H.diagonal(-1), H.diagonal(m - 1)))
    cyclic = bool(ring[1][-1] or ring[2][-1])
    steps = 2 if len(W) else 1
    # -i Tf, which is real unless omega is complex
    F = ops.sparse("Tf") * -1j
    F = F if F.data.imag.any() else F.real
    res, means, quotient = _mode_stats(F, ring, mu, W, 0, steps, scale)
    gate = 1e-8 * scale
    bad = np.flatnonzero(~(res <= gate))      # nan fails too
    if len(bad):
        res[bad], means[:, bad], quotient[:, bad] = _mode_stats(
            F, ring, mu[bad], W, m // 2 if cyclic else 0,
            steps + (not cyclic), scale)
        bad = bad[~(res[bad] <= gate)]
        if len(bad):
            j = int(bad[0])
            raise RuntimeError(
                f"inverse iteration of T*T: mode {j} (mu = {mu[j]:.6e}) has "
                f"backward error {res[j]:.3e} above 1e-8 x norm after a retry")
    return mu, res, means, quotient


def _mode_stats(F, ring, mu, W, cut, steps, scale):
    """(res, means, (q, rq)) of `_modes` for the shifts mu, by chunks, with
    F = -i Tf: q = ||F x||^2 / ||x||^2, and H1f x is taken as F^H (F x)."""
    m = F.shape[1]
    res, means = np.empty(len(mu)), np.empty((len(W), len(mu)))
    quotient = np.empty((2, len(mu)))
    # a fixed pseudo-random start, uniform on [-1, 1] as in LAPACK ?stein
    start = np.random.default_rng(0).uniform(-1.0, 1.0, m)
    per = max(1, _MODE_CHUNK // m)
    FH = F.conj().T
    for lo in range(0, len(mu), per):
        s = mu[lo:lo + per]
        x = _inverse_iterates(ring, s, start, cut, steps, _EPS * scale)
        p = _abs2(x)
        y = F @ x.T
        norm2 = p.sum(axis=1)
        q = _abs2(y).sum(axis=0) / norm2
        R = (FH @ y).T
        R -= q[:, None] * x
        rq = np.sqrt(_abs2(R).sum(axis=1) / norm2)
        # (H1f - q) x is orthogonal to x, so (H1f - s) x adds (q - s) x to it
        res[lo:lo + per] = np.hypot(rq, q - s)
        quotient[:, lo:lo + per] = q, rq
        means[:, lo:lo + per] = (W @ p.T) / norm2
    return res, means, quotient


def _abs2(v: np.ndarray) -> np.ndarray:
    return v.real ** 2 + v.imag ** 2 if np.iscomplexobj(v) else v * v


def _inverse_iterates(ring, shifts, start, cut, steps, tiny):
    """Inverse iterates of the Hermitian tridiagonal ring (a, up, low) less
    each shift, one row per shift in coordinate order, from ``start`` by
    ``steps`` steps.

    The ring is read as the chain from unknown ``cut`` to cut - 1; the k
    shifted chains stand as blocks of one tridiagonal matrix, parted by zero
    couplings, which LAPACK ?gttrf factors with partial pivoting in one
    call (a zero below the diagonal never makes it swap rows, so no pivot
    crosses a block) and ?gttrs solves, in real arithmetic when the chain
    is real (only the corners of T*T carry the phase of omega).  An exactly
    zero pivot becomes ``tiny``.  The two corners that close a cyclic ring
    are a rank-2 update: the chain solves for e_0 and e_(m-1) ride along as
    two more right-hand sides, and the Sherman-Morrison-Woodbury 2 x 2
    system of each shift is solved in closed form."""
    a, up, low = (np.roll(v, -cut) for v in ring) if cut else ring
    k, m = len(shifts), len(a)
    P, Q = low[-1], up[-1]                    # chain[0, m-1], chain[m-1, 0]
    cyclic = bool(P or Q)
    chain = a, up[:-1], low[:-1]
    if not any(np.imag(v).any() for v in chain):
        chain = tuple(np.real(v) for v in chain)
    a, up, low = chain
    d = (a[None, :] - shifts[:, None]).ravel()
    du = np.tile(np.append(up, 0.0), k)[:-1]
    dl = np.tile(np.append(low, 0.0), k)[:-1]
    gttrf, gttrs = scipy.linalg.get_lapack_funcs(("gttrf", "gttrs"),
                                                 (d, du, dl))
    dl, d, du, du2, ipiv, info = gttrf(dl, d, du, overwrite_dl=True,
                                       overwrite_d=True, overwrite_du=True)
    if info > 0:
        d[d == 0] = tiny

    def solve(b):
        # b, one right-hand side per column, through the chains; a complex
        # b with real factors as its real and imaginary columns
        split = np.iscomplexobj(b) and not np.iscomplexobj(d)
        if split:
            b = np.concatenate([b.real, b.imag], axis=1)
        y = gttrs(dl, d, du, du2, ipiv, b, overwrite_b=True)[0]
        if split:
            half = y.shape[1] // 2
            y = y[:, :half] + 1j * y[:, half:]
        return y
    B = np.zeros((3 if cyclic else 1, k * m), dtype=d.dtype).T
    B[:, 0] = np.tile(start, k)
    if cyclic:
        B[0::m, 1] = 1.0
        B[m - 1::m, 2] = 1.0
    X = solve(B)
    x = X[:, 0].reshape(k, m)
    if cyclic:
        z0, zn = X[:, 1].reshape(k, m), X[:, 2].reshape(k, m)
        M00, M01 = 1 + P * z0[:, -1], P * zn[:, -1]
        M10, M11 = Q * z0[:, 0], 1 + Q * zn[:, 0]
        det = (M00 * M11 - M01 * M10)[:, None]
    for step in range(steps):
        if step:
            x = x / np.linalg.norm(x, axis=1)[:, None]
            x = solve(x.reshape(-1, 1)).reshape(k, m)
        if cyclic:
            # x = y - [z0 zn] M^{-1} (P y_(m-1), Q y_0), times det M: M
            # vanishes at an eigenvalue of multiplicity two, where rounding
            # may leave it exactly singular, and then x lies on z0 and zn,
            # which are null vectors there (their sum if M is exactly 0)
            r0, r1 = P * x[:, -1], Q * x[:, 0]
            x = x * det
            x -= z0 * (M11 * r0 - M01 * r1)[:, None]
            x -= zn * (M00 * r1 - M10 * r0)[:, None]
            dead = ~x.any(axis=1)
            x[dead] = z0[dead] + zn[dead]
    return np.roll(x, cut, axis=1) if cut else x


def constant_damping_dirac(ops: DiscreteOperatorSet) -> Spectrum:
    """Exact D+B spectrum (up to the Hermitian solve) when alpha/rho^2 is
    constant at the nodes.

    A scalar damping profile commutes with T*T, so every Hermitian eigenpair
    (mu, u) of T*T with mu != 0 yields the two pencil roots of
    z^2 + i a z - mu = 0 with D+B eigenvectors (u, T u / lambda); a vector
    of ker T yields -i a alone, with eigenvector (u, 0), and ker T* the
    zero modes (`_damped_roots`).  Cheaper than the general eigensolve;
    rejected if the profile is not constant.

    Each mu is the Rayleigh quotient ||Tf u||^2 of the unit inverse iterate
    u of `selfadjoint_modes` (`_modes`), accurate relative to the small mu
    where the band eigenvalue is accurate only to about eps ||T*T||.  The
    residual reduces exactly to the node block: with w = T u / lambda, the
    cell component of (D+B-lambda)(u, w) vanishes identically and the node
    component equals (H1 u - mu u)/lambda, so each root takes its mode's
    backward error ||H1f u - mu u|| at that quotient: no eigenvector matrix
    is formed.
    """
    C = ops.C
    if np.ptp(C) > 1e-13 * max(1.0, np.abs(C).max()):
        raise ValueError("damping profile is not constant at the nodes")
    a = float(C[0])
    mu, rn = _modes(ops)[3]
    k_T, k_Ts = ops.n_nodes - ops.rank, ops.n_cells - ops.rank
    lam = _damped_roots(mu, np.full(len(mu), a), k_T, k_Ts)
    # per root, in the order of _damped_roots: its mode's residual and mu
    rn = np.concatenate([np.tile(rn[k_T:], 2), rn[:k_T], np.zeros(k_Ts)])
    mu2 = np.concatenate([np.tile(mu[k_T:], 2), mu[:k_T], np.zeros(k_Ts)])
    lam_safe = np.where(np.abs(lam) < ops.tol_zero, 1.0, np.abs(lam))
    vec_norm = np.sqrt(1.0 + mu2 / lam_safe**2)
    res = rn / (lam_safe * vec_norm)
    order = _sort_order(lam)
    lam, res = lam[order], res[order]
    zm = int(np.sum(np.abs(lam) < ops.tol_zero))
    return Spectrum(lam, res, zm, ops.tol_zero)


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
    return EigenPair(pair.lam, out, weighted_residual(ops.D + ops.B, pair.lam,
                                                      out, ops, "dirac"))


def map_dirac_to_generator(pair: EigenPair,
                           ops: DiscreteOperatorSet) -> EigenPair:
    """(psi1, psi2) of D+B goes to (i T^{-1}|_ran psi2, psi1) of iG, lambda != 0."""
    if abs(pair.lam) < ops.tol_zero:
        raise ValueError("zero eigenvalue cannot be mapped")
    m = ops.n_nodes
    psi1, psi2 = pair.vector[:m], pair.vector[m:]
    rhs = np.sqrt(ops.wv) * psi2
    wf, *_ = np.linalg.lstsq(ops.Tf, rhs, rcond=None)
    resid = np.linalg.norm(ops.Tf @ wf - rhs)
    if resid > RANGE_TOL * max(1.0, np.linalg.norm(rhs)):
        raise ValueError(f"second component lies outside ran(T): residual {resid:.3e}")
    w = wf / np.sqrt(ops.wu)
    out = np.concatenate([1j * w, psi1])
    out = out / ops.weighted_norm(out, "generator")
    return EigenPair(pair.lam, out, weighted_residual(1j * ops.G, pair.lam,
                                                      out, ops, "generator"))


def _near_pairs(a: np.ndarray, b: np.ndarray, r: float) -> tuple:
    """(rows, cols): candidate pairs (a[i], b[j]) that hold every pair
    within r, from the cells of side r that the points fall in: the pairs
    in neighbouring cells, and (i, i), the sorted partners, whatever the
    rounding of the cell of a point at distance r."""
    cell_a = np.floor(a.real / r) + 1j * np.floor(a.imag / r)
    cell_b = np.floor(b.real / r) + 1j * np.floor(b.imag / r)
    order = np.argsort(cell_b)      # complex sort: by column, then by row
    keys = cell_b[order]
    rows, cols = [np.arange(len(a))], [np.arange(len(a))]
    for dx in (-1, 0, 1):
        # in one column of cells, the three cells around a's row are one
        # run of the sorted keys
        lo = np.searchsorted(keys, cell_a + (dx - 1j), "left")
        count = np.searchsorted(keys, cell_a + (dx + 1j), "right") - lo
        rows.append(np.repeat(np.arange(len(a)), count))
        cols.append(order[np.arange(count.sum())
                          + np.repeat(lo - np.cumsum(count) + count, count)])
    return np.concatenate(rows), np.concatenate(cols)


def _snapped_sort(x: np.ndarray, snap: float) -> np.ndarray:
    """x sorted by real part, then imaginary part, with real parts of at
    most ``snap`` in modulus taken as 0."""
    real = np.where(np.abs(x.real) <= snap, 0.0, x.real)
    return x[np.lexsort((x.imag, real))]


def multiset_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Bottleneck distance between two multisets of complex numbers.

    The least, over all one-to-one pairings of ``a`` with ``b``, of the
    largest paired gap ``|a_i - b_j|``; inf if the sizes differ, 0.0 if
    both are empty.  It is never larger than the largest gap of the pairing
    that minimizes the sum of the gaps, and equals it wherever the gaps are
    far below the spacing of the points.  ValueError names the first entry
    that is not finite.

    The pairing of the two sorted lists, by real part and then imaginary
    part with real parts of rounding size taken as 0, gives an upper bound
    r, and the largest distance from any point to its nearest partner
    within r a lower bound; when they meet, r is returned.  Otherwise the
    gaps of the pairs within r are bisected, each step testing the graph of
    the pairs within the step's gap for a perfect matching (Hopcroft and
    Karp).  The pairs within r are found on a grid of square cells of side
    r in the plane, each point of a against the three-by-three cells around
    its own, so the work stays linear where many points share a real part
    (the overdamped modes on the imaginary axis).  No len(a) x len(b) array
    is formed.
    """
    a, b = np.asarray(a), np.asarray(b)
    for name, x in (("a", a), ("b", b)):
        bad = np.flatnonzero(~np.isfinite(x))
        if bad.size:
            raise ValueError(f"multiset_distance: {name}[{bad[0]}] = "
                             f"{x[bad[0]]} is not finite")
    if len(a) != len(b):
        return float("inf")
    if len(a) == 0:
        return 0.0
    n = len(a)
    # real parts below sqrt(eps) of the largest modulus count as 0 in the
    # sorted pairing, so that points on the imaginary axis whose real parts
    # are rounding noise of either sign pair in the order of their
    # imaginary parts
    snap = np.sqrt(_EPS) * max(np.abs(a).max(), np.abs(b).max())
    a, b = _snapped_sort(a, snap), _snapped_sort(b, snap)
    r = np.abs(a - b).max()
    if r == 0:
        return 0.0
    rows, cols = _near_pairs(a, b, r)
    gap = np.abs(a[rows] - b[cols])
    keep = gap <= r
    rows, cols, gap = rows[keep], cols[keep], gap[keep]
    near_a, near_b = np.full(n, np.inf), np.full(n, np.inf)
    np.minimum.at(near_a, rows, gap)
    np.minimum.at(near_b, cols, gap)
    lower = max(near_a.max(), near_b.max())
    if lower == r:
        return float(r)
    levels = np.unique(gap[gap >= lower])   # from lower up to r
    lo_k, hi_k = 0, len(levels) - 1         # levels[hi_k] admits a matching
    while lo_k < hi_k:
        mid = (lo_k + hi_k) // 2
        within = gap <= levels[mid]
        graph = scipy.sparse.csr_array(
            (np.ones(within.sum(), bool), (rows[within], cols[within])),
            shape=(n, n))
        if np.all(maximum_bipartite_matching(graph, perm_type="column") >= 0):
            hi_k = mid
        else:
            lo_k = mid + 1
    return float(levels[hi_k])


def check_symmetry(spec: Spectrum, companion: Spectrum | None = None) -> dict:
    """Multiset distance between the spectrum and -conj of itself (or a companion).

    For the quasi family with non-real omega the companion must be the
    spectrum computed for conj(omega).
    """
    other = spec if companion is None else companion
    d = multiset_distance(spec.eigenvalues, -np.conj(other.eigenvalues))
    return {"distance": d}


def check_strip(spec: Spectrum, ops: DiscreteOperatorSet) -> dict:
    """The largest |Im lambda| against the strip bound sup |alpha/rho^2|."""
    xs = np.linspace(0.0, 1.0, 2001)
    bound = float(np.max(np.abs(np.asarray(ops.alpha.sample(xs))
                                / np.asarray(ops.rho.sample(xs)) ** 2)))
    max_im = float(np.max(np.abs(spec.eigenvalues.imag))) if len(spec) else 0.0
    return {"max_abs_im": max_im, "norm_bound": bound}


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
    }


def closed_form_constant_damping(a: float, j_max: int) -> np.ndarray:
    """Dirichlet rho=1 pencil roots: -ia/2 +- sqrt(j^2 pi^2 - a^2/4), j=1..j_max."""
    if a < 0:
        raise ValueError("damping constant must be nonnegative")
    j = np.arange(1, j_max + 1, dtype=float)
    root = np.sqrt(j * j * np.pi**2 - a * a / 4.0 + 0j)
    return np.concatenate([-0.5j * a + root, -0.5j * a - root])


def _block_product_defect(X, Y) -> float:
    """||X Y - I||_F for 2 x 2 block matrices whose blocks are diagonal,
    each given by its diagonal vector."""
    return float(np.sqrt(sum(
        np.sum(np.abs(X[i][0] * Y[0][j] + X[i][1] * Y[1][j] - (i == j)) ** 2)
        for i in range(2) for j in range(2))))


def verify_factorization_identity(z: complex, ops: DiscreteOperatorSet) -> dict:
    """Frobenius residual of the pencil linearization identity at z.

    (L(z) + I) F(z) = E(z) (iG - z) with L(z) = z^2 + z i R - T*T, where
    E, F are the standard block factors; also checks the printed inverses.
    Every block of E, F and their inverses is diagonal, so the identity is
    taken block by block: block (i, j) of the right side scales the rows of
    the blocks (i G_kj - z delta_kj) of the assembled G by the diagonals of
    E_ik, and the left side scales the columns of L by those of F.  No array
    larger than m x m is formed.
    """
    m = ops.n_nodes
    c = ops.C
    one, zero = np.ones(m), np.zeros(m)
    E = ((-z - 1j * c, -1j * one), (one, zero))
    Einv = ((zero, one), (1j * one, -1j * E[0][0]))
    F = ((one, zero), (-z * one, 1j * one))
    Finv = ((one, zero), (-1j * z * one, -1j * one))
    G = ops.G
    blocks = ((G[:m, :m], G[:m, m:]), (G[m:, :m], G[m:, m:]))
    diag = np.diag_indices(m)
    L = (-shifted(ops.sparse("H1"), z * z + z * 1j * c)).toarray()
    diff2 = lhs2 = rhs2 = 0.0
    for i in range(2):
        for j in range(2):
            rhs = (1j * E[i][0])[:, None] * blocks[0][j]
            rhs += (1j * E[i][1])[:, None] * blocks[1][j]
            rhs[diag] -= z * E[i][j]
            lhs = L * F[0][j][None, :] if i == 0 else np.diag(F[1][j])
            rhs2 += np.vdot(rhs, rhs).real
            lhs2 += np.vdot(lhs, lhs).real
            rhs -= lhs
            diff2 += np.vdot(rhs, rhs).real
            del rhs, lhs      # at most three m x m arrays live at once
    scale = max(np.sqrt(lhs2), np.sqrt(rhs2), 1.0)
    return {
        "factorization_residual": float(np.sqrt(diff2) / scale),
        "E_inverse_defect": _block_product_defect(E, Einv),
        "F_inverse_defect": _block_product_defect(F, Finv),
    }


def spectrum_to_csv(spec: Spectrum) -> str:
    """CSV with columns index,re_lambda,im_lambda,residual,zero_mode_flag,branch."""
    branches = spec.branches()
    return to_csv(("index", "re_lambda", "im_lambda", "residual",
                   "zero_mode_flag", "branch"),
                  (np.arange(len(spec)), spec.eigenvalues.real,
                   spec.eigenvalues.imag, spec.residuals,
                   (branches == "zero").astype(int), branches))
