"""Riesz projections and branch-wise eigenvalue clusters.

Cluster projections come directly from a reordered complex Schur form; the
contour integral of the resolvent (`riesz_projection`) is kept as the
independent oracle.

Projections are computed on the frame matrix (weighted similarity transform),
so operator norms reported here are weighted operator norms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.sparse.csgraph import connected_components

from .coefficients import integrate_product
from .discretization import DiscreteOperatorSet
from .reporting import to_csv
from .spectral import Spectrum

__all__ = [
    "Contour", "RieszCluster",
    "riesz_projection", "multiplicity", "cluster_eigenvalues",
    "verify_resolution_of_identity", "clusters_to_csv",
]

QUAD_TOL = 1e-10
MAX_QUAD_NODES = 2 ** 14


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
        on a closed curve (equal parameter spacing).
        """
        if self.kind == "circle":
            th = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
            z = self.center + self.radius * np.exp(1j * th)
            dz = 1j * self.radius * np.exp(1j * th) * (2 * np.pi / n)
            return np.stack([z, dz])
        # rectangle sides: composite Gauss-Legendre panels (order 8)
        x0, y0 = self.lo.real, self.lo.imag
        x1, y1 = self.hi.real, self.hi.imag
        xg, wg = np.polynomial.legendre.leggauss(8)
        panels = max(-(-n // 32), 1)  # ceil so doubling n always refines
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

    def distance(self, w: np.ndarray) -> np.ndarray:
        """Unsigned distance from points w to the circle."""
        if self.kind != "circle":
            raise ValueError("distance is defined for circles only")
        w = np.atleast_1d(np.asarray(w, dtype=complex))
        return np.abs(np.abs(w - self.center) - self.radius)

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

    @property
    def projection(self) -> np.ndarray | None:
        """The dense projection L R, built on each access."""
        return None if self.L is None else self.L @ self.R


def riesz_projection(op: np.ndarray, contour: Contour,
                     gap_min: float = 0.0, schur=None) -> np.ndarray:
    """P = -(2 pi i)^{-1} contour-integral of (op - zeta)^{-1} d zeta.

    Quadrature with node doubling until the update falls below 1e-10 in
    operator norm.  A circle's trapezoid nodes nest, so each doubling keeps
    the previous sum (halved) and adds only the new odd nodes; a
    rectangle's Gauss-Legendre panels do not nest, so its sum restarts.
    Passing a precomputed ``scipy.linalg.schur`` factorization (T, Q) turns
    every quadrature node into a triangular inversion, which is what
    `verify_resolution_of_identity` does when it integrates many contours of
    the same operator.  With ``gap_min > 0`` the contour must be a circle
    that keeps that distance from every eigenvalue.
    """
    if schur is None:
        Tmat, Q = scipy.linalg.schur(np.asarray(op, dtype=complex),
                                     output="complex")
    else:
        Tmat, Q = schur
    if gap_min > 0:
        d = contour.distance(np.diag(Tmat)).min()
        if d < gap_min:
            raise ContourError(f"eigenvalue within {d:.3e} of the contour")
    dim = Tmat.shape[0]
    shift = np.arange(dim)
    n = 32
    prev = S = None
    while n <= MAX_QUAD_NODES:
        z, dz = contour.points(n)
        if contour.kind == "circle" and S is not None:
            S = S / 2
            z, dz = z[1::2], dz[1::2]
        else:
            S = np.zeros((dim, dim), dtype=complex)
        for zk, dzk in zip(z, dz):
            A = Tmat.copy()
            A[shift, shift] -= zk
            S += dzk * scipy.linalg.lapack.ztrtri(A)[0]
        P = (Q @ S @ Q.conj().T) / (-2j * np.pi)
        if prev is not None and np.linalg.norm(P - prev, 2) <= QUAD_TOL:
            return P
        prev = P
        n *= 2
    raise ContourError("quadrature failed to converge within the node budget")


def multiplicity(lambda0: complex, op: np.ndarray,
                 radius: float | None = None) -> tuple[int, int]:
    """(geometric, algebraic) multiplicity of an isolated eigenvalue.

    Algebraic multiplicity is the numerical rank of the Riesz projection on a
    circle of the given radius; geometric is the kernel dimension of
    op - lambda0 by singular values.
    """
    lam = np.linalg.eigvals(op)
    others = lam[np.abs(lam - lambda0) > (radius or 0) + 1e-12]
    nearest = np.abs(others - lambda0).min() if len(others) else np.inf
    if radius is None:
        radius = nearest / 4.0
    if not np.isfinite(radius) or nearest < 2 * radius:
        raise ContourError("eigenvalue is not isolated at this radius")
    P = riesz_projection(op, Contour("circle", lambda0, radius),
                         gap_min=radius / 4.0)
    sP = np.linalg.svd(P, compute_uv=False)
    m_a = int(np.sum(sP > 0.5))
    s = np.linalg.svd(op - lambda0 * np.eye(op.shape[0]), compute_uv=False)
    scale = max(s[0], 1.0)
    m_g = int(np.sum(s < 1e-8 * scale))
    return m_g, m_a


def cluster_eigenvalues(spec: Spectrum, ops: DiscreteOperatorSet,
                        gap_fraction: float = 0.5) -> list:
    """Single-linkage gap clusters, rectangles around clusters.

    Two eigenvalues share a cluster when a chain of eigenvalues joins them
    with steps of at most ``gap_fraction`` times the asymptotic spacing
    pi / integral(rho); this also joins near-critical pairs that straddle
    the plus/minus branches.  Contour margins are a quarter of the distance
    to the nearest outside eigenvalue; clusters whose boxes would overlap
    are merged.
    """
    spacing = np.pi / integrate_product([ops.rho])
    lam = spec.eigenvalues
    labels = spec.branches()
    near = np.abs(lam[:, None] - lam[None, :]) <= gap_fraction * spacing
    n_groups, group = connected_components(near, directed=False)
    groups = [np.flatnonzero(group == k).tolist() for k in range(n_groups)]

    def build(members: list[int]) -> RieszCluster:
        vals = lam[members]
        outside = np.delete(lam, members)
        gap = (np.min(np.abs(outside[:, None] - vals[None, :]))
               if len(outside) else spacing)
        margin = gap / 4.0
        if len(members) == 1:
            c = Contour("circle", complex(vals[0]), margin)
        else:
            lo = complex(vals.real.min() - margin, vals.imag.min() - margin)
            hi = complex(vals.real.max() + margin, vals.imag.max() + margin)
            c = Contour("rectangle", (lo + hi) / 2, lo=lo, hi=hi)
        return RieszCluster(0, str(labels[members[0]]), list(members), c)

    clusters = [build(g) for g in groups]
    # merge the first pair, in list order, whose contours capture each
    # other's members, until no pair does
    while True:
        owner = np.empty(len(lam), dtype=int)
        for k, c in enumerate(clusters):
            owner[c.members] = k
        hits = np.zeros((len(clusters), len(clusters)), dtype=bool)
        for k, c in enumerate(clusters):
            hits[k, owner[c.contour.encloses(lam)]] = True
        np.fill_diagonal(hits, False)
        pairs = np.argwhere(np.triu(hits | hits.T))
        if not len(pairs):
            break
        i, j = pairs[0]
        clusters[i] = build(sorted(clusters[i].members + clusters[j].members))
        del clusters[j]
    clusters.sort(key=lambda c: (c.contour.center.real, c.contour.center.imag))
    for k, c in enumerate(clusters):
        c.cluster_id = k
    return clusters


def _direct_projection(select: np.ndarray, schur) -> tuple:
    """Thin factors (L, R) of the spectral projector P = L R onto the
    eigenvalues ``select`` picks from the diagonal of the Schur form (T, Q),
    and the cluster's reciprocal condition s = 1/sqrt(1 + ||X||_F^2).

    ztrsen moves the selected eigenvalues to the leading block T11 of
    T' = Q'^H op Q'; the Sylvester solution T11 X - X T22 = T12 gives
    P = Q' [[I, X], [0, 0]] Q'^H, so L = Q'[:, :k] and R = [I X] Q'^H.
    ``job="N"`` skips the condition estimates of ztrsen; the `sep`
    estimator costs about ten times the reordering (and with ``job="V"`` or
    ``"B"`` LAPACK needs ``lwork=2*k*(dim-k)``, more than the wrapper's
    default).
    """
    Tmat, Q = schur
    dim, k = len(select), int(select.sum())
    if k == dim:
        return np.eye(dim), np.eye(dim), 1.0
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


def _oracle_sample(clusters: list) -> list:
    """Every zero-branch cluster and the first circle of each other branch."""
    sample, seen = [], set()
    for c in clusters:
        if c.branch == "zero":
            sample.append(c)
        elif c.contour.kind == "circle" and c.branch not in seen:
            seen.add(c.branch)
            sample.append(c)
    return sample


def verify_resolution_of_identity(clusters: list, op: np.ndarray) -> dict:
    """Fill in projections, then check sum(P) = I and pairwise products.

    Each projection P = L R comes directly from one reordering of a shared
    complex Schur form (`_direct_projection`); the cluster keeps the thin
    factors L, R, not the dense P.  L has orthonormal columns, so the
    singular values, rank and idempotency defect ||L (R L - I) R||_2 of P
    are read off the k x dim factor R.  The stacked factors give sum(P) as
    one product, and every ||P_i P_j||_2 is bounded by
    ||L_i||_F ||R_i L_j||_F ||R_j||_F, where the blocks R_i L_j of one
    product of the stacked factors give all the middle norms at once.

    Two independent witnesses are reported: the commutator residual
    ||op P - P op||_F / (||op||_2 ||R||_2) of every cluster, and the
    distance ||P_quad - P||_2 to the contour integral `riesz_projection` on
    the sample of `_oracle_sample` (rectangles are left out of the sample:
    their quadrature needs thousands of nodes).
    """
    dim = op.shape[0]
    covered = sorted(i for c in clusters for i in c.members)
    if covered != list(range(dim)):
        raise ContourError("clusters do not cover the whole spectrum")
    op = np.asarray(op, dtype=complex)
    schur = scipy.linalg.schur(op, output="complex")
    diag = np.diag(schur[0])
    op_norm = np.linalg.norm(op, 2)
    commutator = 0.0
    for c in clusters:
        select = c.contour.encloses(diag)
        if select.sum() != len(c.members):
            raise ContourError(
                f"contour of cluster {c.cluster_id} encloses {select.sum()} "
                f"eigenvalues, not its {len(c.members)} members")
        L, R, c.s = _direct_projection(select, schur)
        c.L, c.R = L, R
        sv = np.linalg.svd(R, compute_uv=False)
        c.rank = int(np.sum(sv > 0.5))
        c.idempotency_defect = float(np.linalg.norm(
            (R @ L - np.eye(len(R))) @ R, 2))
        commutator = max(commutator, float(
            np.linalg.norm((op @ L) @ R - L @ (R @ op)) / (op_norm * sv[0])))
    Ls, Rs = [c.L for c in clusters], [c.R for c in clusters]
    defect = float(np.linalg.norm(np.hstack(Ls) @ np.vstack(Rs) - np.eye(dim), 2))
    owner = np.repeat(np.arange(len(clusters)), [len(R) for R in Rs])
    middle = np.zeros((len(clusters), len(clusters)))
    np.add.at(middle, (owner[:, None], owner[None, :]),
              np.abs(np.vstack(Rs) @ np.hstack(Ls)) ** 2)
    bound = (np.array([np.linalg.norm(L) for L in Ls])[:, None]
             * np.sqrt(middle)
             * np.array([np.linalg.norm(R) for R in Rs])[None, :])
    np.fill_diagonal(bound, 0.0)
    deviation = max((np.linalg.norm(
        riesz_projection(op, c.contour, schur=schur) - c.projection, 2)
        for c in _oracle_sample(clusters)), default=0.0)
    return {
        "sum_defect": defect,
        "max_cross_product": float(bound.max()),
        "max_idempotency_defect": max(c.idempotency_defect for c in clusters),
        "total_rank": sum(c.rank for c in clusters),
        "max_commutator": commutator,
        "max_quadrature_deviation": float(deviation),
    }


def clusters_to_csv(clusters: list) -> str:
    columns = zip(*((c.cluster_id, c.branch, len(c.members),
                     c.contour.center.real, c.contour.center.imag, c.rank,
                     c.idempotency_defect, c.s) for c in clusters))
    return to_csv(("cluster_id", "branch", "member_count", "center_re",
                   "center_im", "rank", "idempotency_defect", "s"),
                  list(columns))
