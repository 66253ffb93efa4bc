"""Riesz projections and branch-wise eigenvalue clusters.

Cluster projections come from the right and left eigenvectors of one dense
eigensolve, real where the frame is i times a real matrix: a cluster with
right vectors X and left vectors Y projects by P = X (Y^H X)^{-1} Y^H.
Where Y^H X is nearly singular (a Jordan pair at critical damping) the
cluster falls back to a reordered complex Schur form, the only Schur form
built.  The contour integral of the resolvent (`riesz_projection`) is kept
as the independent oracle: a level's shifted systems are one pivoted band
LU (`band_lu`) on the one band layout of the operator (`band_layout`), and
inside `verify_resolution_of_identity` it acts on a few Gaussian probe
vectors.

Projections are computed on the frame matrix (weighted similarity transform),
so operator norms reported here are weighted operator norms.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.sparse.csgraph import connected_components

from .coefficients import integrate_product
from .discretization import (DiscreteOperatorSet, band_layout, band_lu,
                             band_norm)
from .reporting import to_csv
from .spectral import Spectrum

__all__ = [
    "Contour", "RieszCluster",
    "riesz_projection", "cluster_eigenvalues",
    "verify_resolution_of_identity", "clusters_to_csv",
]

QUAD_TOL = 1e-10
MAX_QUAD_NODES = 2 ** 14
# solution entries (nodes x dim x right-hand sides) of one quadrature solve
MAX_LEVEL_ENTRIES = 2 ** 20
# eigenvalues closer than this times the asymptotic spacing share a cluster
GAP_FRACTION = 0.5
# a cluster whose unit-vector block Y^H X has its smallest singular value
# below this takes the Schur path (the critical-damping Jordan pair: 2e-7)
VECTOR_SIGMA_MIN = 1e-4
# fixed Gaussian probes of the quadrature oracle; with p probes,
# ||B||_2 <= PROBE_FACTOR max_i ||B w_i|| with probability 1 - 10^-p
# (Halko, Martinsson & Tropp, SIAM Rev. 53 (2011), Lemma 4.1)
N_PROBES = 4
PROBE_SEED = 2011
PROBE_FACTOR = 10.0 * np.sqrt(2.0 / np.pi)


class ContourError(RuntimeError):
    """Contour too close to the spectrum or quadrature failed to settle."""


@dataclass(frozen=True)
class Contour:
    """Circle (center, radius) or axis-aligned rectangle (corner lo, corner hi)."""

    kind: str                  # circle | rectangle
    center: complex
    radius: float = 0.0
    lo: complex = 0j
    hi: complex = 0j

    def points(self, n: int) -> np.ndarray:
        """n quadrature nodes traversed counterclockwise, with tangent weights.

        Returns an array of (node, d_zeta) pairs suitable for a trapezoid rule
        on a closed curve (equal parameter spacing).  A rectangle takes n/32
        panels on each side, so its n must be a positive multiple of 32.
        """
        if self.kind == "circle":
            th = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
            z = self.center + self.radius * np.exp(1j * th)
            dz = 1j * self.radius * np.exp(1j * th) * (2 * np.pi / n)
            return np.stack([z, dz])
        if n <= 0 or n % 32:
            raise ValueError(
                f"a rectangle takes a positive multiple of 32 nodes, not {n}")
        # rectangle sides: composite Gauss-Legendre panels (order 8), four
        # sides of n/32 panels each, so doubling n doubles the panels
        x0, y0 = self.lo.real, self.lo.imag
        x1, y1 = self.hi.real, self.hi.imag
        xg, wg = np.polynomial.legendre.leggauss(8)
        panels = n // 32
        edges = np.linspace(0.0, 1.0, panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 / panels
        t = (mid[:, None] + half * xg[None, :]).ravel()
        w = np.tile(half * wg, panels)
        corners = [complex(x0, y0), complex(x1, y0), complex(x1, y1),
                   complex(x0, y1)]
        zs, dzs = [], []
        for a, b in zip(corners, corners[1:] + corners[:1]):
            zs.append(a + (b - a) * t)
            dzs.append((b - a) * w)
        return np.stack([np.concatenate(zs), np.concatenate(dzs)])

    def encloses(self, w: np.ndarray) -> np.ndarray:
        w = np.atleast_1d(np.asarray(w, dtype=complex))
        if self.kind == "circle":
            return np.abs(w - self.center) < self.radius
        return ((w.real > self.lo.real) & (w.real < self.hi.real)
                & (w.imag > self.lo.imag) & (w.imag < self.hi.imag))


@dataclass
class RieszCluster:
    cluster_id: int
    branch: str                      # plus | minus | overdamped | zero
    members: list                    # indices into the source Spectrum
    contour: Contour
    L: np.ndarray | None = None      # thin factors of the projection L R
    R: np.ndarray | None = None
    rank: int = 0
    idempotency_defect: float = float("nan")
    s: float = float("nan")          # reciprocal condition 1/sqrt(1+||X||_F^2)


def riesz_projection(op, contour: Contour,
                     probes: np.ndarray | None = None) -> np.ndarray:
    """P = -(2 pi i)^{-1} contour-integral of (op - zeta)^{-1} d zeta.

    Quadrature with node doubling until two levels agree within QUAD_TOL in
    operator norm.  A circle's trapezoid nodes nest: its first solve takes
    32 nodes, whose even half is the 16-node rule, so the first two levels
    are compared after one solve, and each doubling after that keeps the
    previous sum (halved) and adds only the new odd nodes.  A rectangle's
    Gauss-Legendre panels do not nest, so its levels are 32, 64, ...
    nodes, and its sum restarts at each.
    The shifted systems op - z_k of a level are the diagonal blocks of one
    band, solved by one pivoted band LU (`band_lu`), at most
    MAX_LEVEL_ENTRIES solution entries at a time; op (dense or sparse) is
    read only through its nonzeros, laid out once for every level
    (`band_layout`).

    With ``probes`` (a dim x p array W) the result is P W instead of P:
    each node's block has p right-hand sides, and the update is measured by
    the probe bound `_probe_bound`.
    """
    return _quadratures(op, [contour], probes)[0]


def _quadratures(op, contours: list, probes: np.ndarray | None) -> list:
    """`riesz_projection` of every contour, the level's nodes of all the
    unsettled contours solved together on one layout (`band_layout`)."""
    layout = band_layout(op, complex)
    rhs = np.eye(op.shape[0]) if probes is None else np.asarray(probes)
    size = (lambda M: np.linalg.norm(M, 2)) if probes is None else _probe_bound
    per_solve = max(MAX_LEVEL_ENTRIES // rhs.size, 1)
    # the sums of contour c's nodes are S[2c] and, on a circle's first
    # level, S[2c + 1] of its even half: the 16-node rule at half weight
    S, prev, out = {}, {}, [None] * len(contours)
    n = 32
    while any(P is None for P in out):
        if n > MAX_QUAD_NODES:
            raise ContourError(
                "quadrature failed to converge within the node budget")
        live = [c for c, P in enumerate(out) if P is None]
        nodes = []
        for c in live:
            z, dz = contours[c].points(n)
            owner = np.full(len(z), 2 * c)
            if contours[c].kind == "circle" and 2 * c in S:
                S[2 * c] = S[2 * c] / 2
                z, dz, owner = z[1::2], dz[1::2], owner[1::2]
            else:
                S[2 * c] = np.zeros(rhs.shape, dtype=complex)
                if contours[c].kind == "circle":
                    S[2 * c + 1] = np.zeros(rhs.shape, dtype=complex)
                    owner[::2] += 1
            nodes.append((z, dz, owner))
        z, dz, owner = map(np.concatenate, zip(*nodes))
        for k in range(0, len(z), per_solve):
            part = slice(k, k + per_solve)
            X = dz[part, None, None] * band_lu(layout, z[part])(rhs)
            for c in np.unique(owner[part]):
                S[c] += X[owner[part] == c].sum(axis=0)
        for c in live:
            if 2 * c + 1 in S:
                half = S.pop(2 * c + 1)
                S[2 * c] += half
                prev[c] = 2 * half / (-2j * np.pi)
            P = S[2 * c] / (-2j * np.pi)
            if c in prev and size(P - prev[c]) <= QUAD_TOL:
                out[c] = P
            prev[c] = P
        n *= 2
    return out


def _probe_bound(B: np.ndarray) -> float:
    """PROBE_FACTOR times the largest column norm of B = M W: an upper bound
    of ||M||_2 with probability 1 - 10^-p over the Gaussian probes W."""
    return float(PROBE_FACTOR * np.linalg.norm(B, axis=0).max())


def cluster_eigenvalues(spec: Spectrum, ops: DiscreteOperatorSet) -> list:
    """Single-linkage gap clusters, rectangles around clusters.

    Two eigenvalues share a cluster when a chain of eigenvalues joins them
    with steps of at most GAP_FRACTION times the asymptotic spacing
    pi / integral(rho); this also joins near-critical pairs that straddle
    the plus/minus branches.  Contour margins are a quarter of the distance
    to the nearest outside eigenvalue (`_gap_contours`); clusters whose
    boxes would overlap are merged.
    """
    spacing = np.pi / integrate_product([ops.rho])
    lam = spec.eigenvalues
    labels = spec.branches()
    dist = np.abs(lam[:, None] - lam[None, :])
    _, group = connected_components(dist <= GAP_FRACTION * spacing,
                                    directed=False)
    # merge the first pair, in label order, whose contours capture each
    # other's members, until no pair does
    while True:
        members, contours, inside = _gap_contours(lam, group, dist, spacing)
        hits = inside @ np.eye(len(members), dtype=bool)[group]
        np.fill_diagonal(hits, False)
        pairs = np.argwhere(np.triu(hits | hits.T))
        if not len(pairs):
            break
        i, j = pairs[0]
        group[group == j] = i
        group[group > j] -= 1
    clusters = [RieszCluster(0, str(labels[m[0]]), m, c)
                for m, c in zip(members, contours)]
    clusters.sort(key=lambda c: (c.contour.center.real, c.contour.center.imag))
    for k, c in enumerate(clusters):
        c.cluster_id = k
    return clusters


def _gap_contours(lam, group, dist, spacing) -> tuple:
    """Members, contour and enclosure mask (`Contour.encloses`, by rows) of
    each group of eigenvalues (labels 0, 1, ... in ``group``); every gap to
    the nearest outside eigenvalue is one masked row-min of ``dist``."""
    _, first, count = np.unique(group, return_index=True, return_counts=True)
    gap = np.full(len(count), np.inf)
    np.minimum.at(gap, group, np.where(group[:, None] == group, np.inf,
                                       dist).min(axis=1))
    margin = np.where(gap < np.inf, gap, spacing)[:, None] / 4.0
    bounds = np.full((len(count), 4), np.inf)  # min re, im; -max re, im
    np.minimum.at(bounds, group, np.c_[lam.real, lam.imag, -lam.real,
                                       -lam.imag])
    lo, hi = bounds[:, :2] - margin, margin - bounds[:, 2:]
    contours = []
    for f, c, r, a, b in zip(first, count, margin[:, 0].tolist(),
                             lo.tolist(), hi.tolist()):
        a, b = complex(*a), complex(*b)
        contours.append(Contour("circle", complex(lam[f]), r) if c == 1 else
                        Contour("rectangle", (a + b) / 2, lo=a, hi=b))
    inside = np.array([c.encloses(lam) for c in contours])
    members = np.split(np.argsort(group, kind="stable"), np.cumsum(count)[:-1])
    return [m.tolist() for m in members], contours, inside


def _enclosed(c: RieszCluster, eigenvalues: np.ndarray) -> np.ndarray:
    """The eigenvalues the cluster's contour encloses, as a mask;
    ContourError unless they are as many as its members."""
    select = c.contour.encloses(eigenvalues)
    if select.sum() != len(c.members):
        raise ContourError(
            f"contour of cluster {c.cluster_id} encloses {select.sum()} "
            f"eigenvalues, not its {len(c.members)} members")
    return select


def _vector_projection(X: np.ndarray, Y: np.ndarray) -> tuple:
    """Thin factors (L, R) of the spectral projectors P = X (Y^H X)^{-1} Y^H
    of a stack of clusters of k members each, from their unit right and left
    eigenvectors X, Y (n x dim x k), and a mask of the clusters whose block
    Y^H X has its smallest singular value at least VECTOR_SIGMA_MIN (the
    factors of the others are meaningless).

    L is an orthonormal basis of range X (x / ||x|| for k = 1, else a thin
    QR X = L R_x) and R = R_x (Y^H X)^{-1} Y^H; for k = 1, L R is the
    rank-1 projector x y^H / (y^H x) (Golub & Van Loan, section 7.2.2).
    """
    Yh = Y.conj().swapaxes(1, 2)
    M = Yh @ X
    k = M.shape[1]
    sigma = (np.abs(M[:, 0, 0]) if k == 1
             else np.linalg.svd(M, compute_uv=False)[:, -1])
    good = sigma >= VECTOR_SIGMA_MIN
    M = np.where(good[:, None, None], M, np.eye(k))  # no division by ~0
    if k == 1:
        nx = np.linalg.norm(X, axis=1, keepdims=True)
        return X / nx, nx / M * Yh, good
    L, Rx = np.linalg.qr(X)
    return L, Rx @ np.linalg.solve(M, Yh), good


def _direct_projection(select: np.ndarray, schur) -> tuple:
    """Thin factors (L, R) of the spectral projector P = L R onto the
    eigenvalues ``select`` picks (not all of them) from the diagonal of the
    Schur form (T, Q), and the cluster's reciprocal condition
    s = 1/sqrt(1 + ||X||_F^2).

    ztrsen moves the selected eigenvalues to the leading block T11 of
    T' = Q'^H op Q'; the Sylvester solution T11 X - X T22 = T12 gives
    P = Q' [[I, X], [0, 0]] Q'^H, so L = Q'[:, :k] and R = [I X] Q'^H.
    ``job="N"`` skips the condition estimates of ztrsen; the `sep`
    estimator costs about ten times the reordering (and with ``job="V"`` or
    ``"B"`` LAPACK needs ``lwork=2*k*(dim-k)``, more than the wrapper's
    default).
    """
    Tmat, Q = schur
    k = int(select.sum())
    Ts, Qs, _, _, _, _, info = scipy.linalg.lapack.ztrsen(
        select.astype(np.int32), Tmat, Q, job="N")
    if info != 0:
        raise np.linalg.LinAlgError(f"ztrsen failed with info={info}")
    x, scale, info = scipy.linalg.lapack.ztrsyl(
        Ts[:k, :k], Ts[k:, k:], Ts[:k, k:], isgn=-1)
    if info != 0:
        # info = 1: T11 and T22 share (nearly) equal eigenvalues
        raise np.linalg.LinAlgError(f"ztrsyl failed with info={info}")
    X = x / scale
    R = np.hstack([np.eye(k), X]) @ Qs.conj().T
    s = float(1.0 / np.sqrt(1.0 + np.linalg.norm(X) ** 2))
    # a copy: a slice would keep all of Qs alive with the cluster
    return Qs[:, :k].copy(), R, s


def _eigenvectors(op: np.ndarray) -> tuple:
    """Eigenvalues and left and right eigenvectors of the complex ``op``, as
    `scipy.linalg.eig(op, left=True, right=True)` gives them.

    Where the real part of op is zero, op = i M with M real, and they come
    from one real ``?geev`` of M: lambda = i mu, with M's own vectors.  The
    real vectors of a conjugate pair mu, conj(mu) (Im mu > 0 first) are the
    real and imaginary parts of the first vector; each real array is
    released before the next complex one is built.
    """
    if op.real.any():
        return scipy.linalg.eig(op, left=True, right=True)
    dim = len(op)
    lwork, info = scipy.linalg.lapack.dgeev_lwork(dim)
    if info != 0:
        raise np.linalg.LinAlgError(f"dgeev_lwork failed with info={info}")
    # the optimal workspace: with the wrapper's default 4 dim, dgeev reduces
    # to Hessenberg form unblocked, twice as slow at dim 1023
    wr, wi, vl, vr, info = scipy.linalg.lapack.dgeev(
        np.asfortranarray(op.imag), lwork=int(lwork), overwrite_a=True)
    if info != 0:
        raise np.linalg.LinAlgError(f"dgeev failed with info={info}")
    pair = np.flatnonzero(wi > 0)

    def joined(v):
        w = v.astype(complex)
        w.imag[:, pair] = v[:, pair + 1]
        w.real[:, pair + 1] = v[:, pair]
        w.imag[:, pair + 1] = -v[:, pair + 1]
        return w

    left = joined(vl)
    del vl
    right = joined(vr)
    del vr
    return 1j * (wr + 1j * wi), left, right


def _oracle_sample(clusters: list) -> list:
    """Every zero-branch cluster, whatever its shape, and the first circle
    of each other branch."""
    sample, seen = [], set()
    for c in clusters:
        if c.branch == "zero":
            sample.append(c)
        elif c.contour.kind == "circle" and c.branch not in seen:
            seen.add(c.branch)
            sample.append(c)
    return sample


def _singular_values(M: np.ndarray) -> np.ndarray:
    """Singular values, ascending, of each k x dim block of a stack M
    (n x k x dim), from its k x k Gram matrix: a row's is its norm."""
    gram = M @ M.conj().swapaxes(1, 2)
    return np.sqrt(np.maximum(np.linalg.eigvalsh(gram), 0.0))


def _fill_factors(clusters: list, groups: list, owned: list,
                  left: np.ndarray, right: np.ndarray, schur) -> int:
    """Give every cluster its factors L, R and its s; return how many
    clusters took the Schur path.  ``groups`` lists (k, cluster indices) by
    cluster size k, ``owned`` the eigenvector columns of each cluster, and
    ``schur()`` the Schur form, built on first use."""
    dim = len(left)
    schur_clusters = 0
    for k, group in groups:
        if k == dim:
            c = clusters[group[0]]
            c.L, c.R, c.s = np.eye(dim), np.eye(dim), 1.0
            continue
        cols = np.array([owned[j] for j in group])
        L, R, good = _vector_projection(right[:, cols].transpose(1, 0, 2),
                                        left[:, cols].transpose(1, 0, 2))
        s = np.ones(len(group))
        s[good] = (1.0 + np.linalg.norm(R, axis=(1, 2))[good] ** 2 - k) ** -0.5
        for j, Lj, Rj, sj, ok in zip(group, L, R, s, good):
            c = clusters[j]
            if ok:
                c.L, c.R, c.s = Lj.copy(), Rj.copy(), float(sj)
            else:
                schur_clusters += 1
                c.L, c.R, c.s = _direct_projection(
                    _enclosed(c, np.diag(schur()[0])), schur())
    return schur_clusters


def _stacked_records(clusters: list, groups: list, op: np.ndarray,
                     op_norm: float) -> dict:
    """Rank and idempotency defect of every cluster, and the records that
    read the stacked factors, each stacked group by group; ``op_norm`` is
    ||op||_2."""
    dim = len(op)
    order = np.concatenate([group for _, group in groups])
    Ls = np.hstack([clusters[j].L for j in order])
    Rs = np.vstack([clusters[j].R for j in order])
    owner = np.repeat(order, [len(clusters[j].R) for j in order])
    defect = float(np.linalg.norm(Ls @ Rs - np.eye(dim), 2))
    RL = Rs @ Ls
    middle = np.zeros((len(clusters), len(clusters)))
    np.add.at(middle, (owner[:, None], owner[None, :]), np.abs(RL) ** 2)
    L_squares = np.bincount(owner, np.linalg.norm(Ls, axis=0) ** 2)
    R_squares = np.bincount(owner, np.linalg.norm(Rs, axis=1) ** 2)
    bound = np.sqrt(middle * L_squares[:, None] * R_squares[None, :])
    np.fill_diagonal(bound, 0.0)
    OL, RO = op @ Ls, Rs @ op
    commutator = projection_norm = 0.0
    end = 0
    for k, group in groups:
        # views of the group's blocks, n x dim x k and n x k x dim
        n = len(group)
        span, end = slice(end, end + n * k), end + n * k
        L = Ls[:, span].reshape(dim, n, k).transpose(1, 0, 2)
        OLk = OL[:, span].reshape(dim, n, k).transpose(1, 0, 2)
        R, ROk = Rs[span].reshape(n, k, dim), RO[span].reshape(n, k, dim)
        RLk = RL[span, span].reshape(n, k, n, k)[np.arange(n), :, np.arange(n)]
        sv = _singular_values(R)
        idempotency = _singular_values((RLk - np.eye(k)) @ R)[:, -1]
        # op P - P op = E R - L F; with E = L E1 + E2, E2 orthogonal to
        # range L, its squared norm is ||E1 R - F||_F^2 + tr(E2^H E2 R R^H)
        ROL = R @ OLk
        E2 = OLk - L @ ROL
        E1 = L.conj().swapaxes(1, 2) @ E2
        E2 -= L @ E1
        inside = E1 @ R - (ROk - ROL @ R)
        gram_R = R @ R.conj().swapaxes(1, 2)
        gram_E2 = E2.conj().swapaxes(1, 2) @ E2
        square = (np.linalg.norm(inside, axis=(1, 2)) ** 2
                  + np.sum(gram_R.conj() * gram_E2, axis=(1, 2)).real)
        commutator = max(commutator, float(np.max(
            np.sqrt(np.maximum(square, 0.0)) / (op_norm * sv[:, -1]))))
        projection_norm = max(projection_norm, float(sv[:, -1].max()))
        for j, rank, d in zip(group, np.sum(sv > 0.5, axis=1), idempotency):
            clusters[j].rank = int(rank)
            clusters[j].idempotency_defect = float(d)
    return {
        "sum_defect": defect,
        "max_cross_product": float(bound.max()),
        "max_commutator": commutator,
        "max_projection_norm": projection_norm,
    }


def verify_resolution_of_identity(clusters: list, op: np.ndarray) -> dict:
    """Fill in projections, then check sum(P) = I and pairwise products.

    One dense eigensolve (`_eigenvectors`) gives every right and left
    eigenvector, in real arithmetic where op = i M with M real (every real
    omega), and `contour.encloses` assigns its eigenvalues to the clusters.
    A cluster's projection P = L R comes from its vectors
    (`_vector_projection`); only a cluster whose unit-vector block Y^H X has
    a singular value below VECTOR_SIGMA_MIN is reordered out of a complex
    Schur form instead (`_direct_projection`), and a cluster of the whole
    spectrum is the identity.  The cluster keeps the thin factors L, R, not
    the dense P.  L has orthonormal columns, so ||P||_F = ||R||_F and the
    reciprocal condition is s = 1/sqrt(1 + ||X||_F^2) = (1 + ||R||_F^2 - k)^{-1/2};
    the singular values, rank and ||P||_2 are those of R, read off its
    k x k Gram matrix.  Clusters of equal size are handled as one stack.

    The stacked factors give sum(P) as one product, and one product
    R_stack L_stack gives, in its diagonal blocks R_i L_i, the idempotency
    defect ||(R_i L_i - I) R_i||_2, and, in every block, the middle factor
    of the bound ||P_i P_j||_2 <= ||L_i||_F ||R_i L_j||_F ||R_j||_F.

    Two independent witnesses are reported: the commutator residual
    ||op P - P op||_F / (||op||_2 ||P||_2) of every cluster, with ||op||_2
    from the Gram band of op (`band_norm`), and an upper bound of
    ||P_quad - P||_2, P_quad the contour integral `riesz_projection`, on the
    sample of `_oracle_sample`: every zero-branch cluster, whatever its
    shape, and the first circle of each other branch.  A sampled circle is
    integrated on a circle about the same center with a quarter of its
    radius, gap/16, which still encloses only its eigenvalue; there the
    16- and 32-node trapezoid rules of its first solve differ by about
    16^-16, so it settles after one solve.  A sampled rectangle keeps its
    contour and its levels of 32, 64, ... nodes.  Every level of the
    sampled contours is solved in one band LU.
    The commutator is E R - L F, with the residual blocks
    E = op L - L (R op L) and F = R op - (R op L) R; splitting E along L
    gives its Frobenius norm from k x k products.  The quadrature acts on
    N_PROBES fixed Gaussian probes W, and the record is `_probe_bound` of
    (P_quad - P) W, an upper bound with probability 1 - 10^-4;
    ``quadrature_samples`` counts the sampled clusters, and with none the
    deviation is 0.0 by default, not a measurement.
    """
    dim = op.shape[0]
    covered = sorted(i for c in clusters for i in c.members)
    if covered != list(range(dim)):
        raise ContourError("clusters do not cover the whole spectrum")
    op = np.asarray(op, dtype=complex)
    band = scipy.sparse.csr_array(op)
    lam, left, right = _eigenvectors(op)
    owned = [np.flatnonzero(_enclosed(c, lam)) for c in clusters]
    sizes = np.array([len(m) for m in owned])
    groups = [(k, np.flatnonzero(sizes == k)) for k in np.unique(sizes)]
    schur = functools.cache(
        lambda: scipy.linalg.schur(op, output="complex"))
    schur_clusters = _fill_factors(clusters, groups, owned, left, right, schur)
    del left, right
    records = _stacked_records(clusters, groups, op, band_norm(band))
    probes = np.random.default_rng(PROBE_SEED).standard_normal((dim, N_PROBES))
    sample = _oracle_sample(clusters)
    contours = [Contour("circle", c.contour.center, c.contour.radius / 4)
                if c.contour.kind == "circle" else c.contour for c in sample]
    quadratures = _quadratures(band, contours, probes)
    deviation = max((_probe_bound(P - c.L @ (c.R @ probes))
                     for c, P in zip(sample, quadratures)), default=0.0)
    return {
        "sum_defect": records["sum_defect"],
        "max_cross_product": records["max_cross_product"],
        "max_idempotency_defect": max(c.idempotency_defect for c in clusters),
        "total_rank": sum(c.rank for c in clusters),
        "max_commutator": records["max_commutator"],
        "max_quadrature_deviation": float(deviation),
        "quadrature_samples": len(sample),
        "max_projection_norm": records["max_projection_norm"],
        "schur_clusters": schur_clusters,
    }


def clusters_to_csv(clusters: list) -> str:
    columns = zip(*((c.cluster_id, c.branch, len(c.members),
                     c.contour.center.real, c.contour.center.imag, c.rank,
                     c.idempotency_defect, c.s) for c in clusters))
    return to_csv(("cluster_id", "branch", "member_count", "center_re",
                   "center_im", "rank", "idempotency_defect", "s"),
                  list(columns))
