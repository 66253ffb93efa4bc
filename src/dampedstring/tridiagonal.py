"""Eigenvalues of a tridiagonal matrix polynomial, cyclic or not, by
Ehrlich-Aberth iteration in O(N^2), with a backward error and an
eigenvector for each.

The polynomial is P(z) = A - z of degree 1, or P(z) = A - z diag(e) - z^2
of degree 2 (a damped pencil such as T*T - z^2 - i z C): only its diagonal
depends on z, so the off-diagonals and corners of A are those of every
P(z).  At each iterate z, LU from the top and UL from the bottom of P(z)
meet in a twisted factorization (Fernando, Numer. Math. 75, 1997): gamma_k,
the sum of the two pivots at k less P_kk(z), is 1 / (P(z)^{-1})_kk, and the
twisted vector x with x_t = 1 solves P(z) x = gamma_t e_t.  Since P'(z) is
the diagonal -1 or -(e + 2z), the log-derivative of det P(z) for the Aberth
step is the sum of the P'_kk(z) / gamma_k; at the twist t of least
|gamma_t|, x is an approximate eigenvector, and the backward error of x
itself is the stopping test.

A cyclic matrix is a chain whose two end diagonals are shifted off the
real line, plus the rank-2 remainder that closes the ring: the two corners
and the shift given back; the Sherman-Morrison-Woodbury formula turns the
end columns of the chain's inverse into the diagonal and the columns of
the ring's.  Each iterate cuts the ring where its eigenvector is largest,
so that its chain is far from singular, and the shift keeps the chain off
the eigenvalues that a bare cut chain of a constant-coefficient ring
shares with the ring.  Its off-diagonal pairs must have equal moduli
(a Hermitian pattern, as in a Dirac frame or T*T), so that the chain's left
end columns are its right ones times a factor of modulus 1.

Only the pivots need a loop over the positions, vectorized over the
iterates; every vector is a cumulative product of their ratios.

Refs: Bini, Gemignani & Tisseur, SIMAX 27 (2005), for Ehrlich-Aberth on
tridiagonal matrices; Bini & Noferini, LAA 439 (2013), on matrix
polynomials; Plestenjak, SIMAX 28 (2006), for tridiagonal quadratic
pencils; Tisseur, LAA 309 (2000), for their backward error.
"""

from __future__ import annotations

import numpy as np

__all__ = ["MAX_SWEEPS", "eigensolve", "resolvent_trace"]

MAX_SWEEPS = 60          # an iterate still above tolerance after this raises
_TOL = 2.0**-48          # backward error at which an iterate stops, x ||A||
_STALL = 2.0**-30        # backward error below which a stalled iterate stops
_NEAR = 2.0**-24         # Aberth step below which the vector is formed
_EPS = np.finfo(float).eps
_CHUNK = 2**15           # iterates x positions per evaluation: the memory
_SINGULAR = 1e-12        # pivot of a singular P(z), x a bound of ||P(z)||
_SHIFT = 0.5j            # a ring's cut chain has both ends lowered by this
                         # x |corner|: off the real line, where a constant
                         # ring's bare chain shares the ring's eigenvalues


def _bands(A):
    """(a, b, c, upper, lower): the diagonal, super- and subdiagonal of the
    sparse A and its corners A[0, N-1], A[N-1, 0]; ValueError if A has any
    other nonzero or a zero off-diagonal entry, or is cyclic with pairs
    A[i, i+1], A[i+1, i] (i+1 mod N) of unequal modulus."""
    N = A.shape[0]
    coo = A.tocoo()
    corner = (((coo.row == 0) & (coo.col == N - 1))
              | ((coo.row == N - 1) & (coo.col == 0))) & (N > 2)
    if np.any((np.abs(coo.row - coo.col) > 1) & ~corner):
        raise ValueError("matrix is not tridiagonal up to its corners")
    upper = complex(np.sum(coo.data[corner & (coo.row == 0)]))
    lower = complex(np.sum(coo.data[corner & (coo.col == 0)]))
    A = A.tocsr()
    b, c = A.diagonal(1).astype(complex), A.diagonal(-1).astype(complex)
    if not (b.all() and c.all()):
        raise ValueError("a zero off-diagonal entry splits the matrix")
    if upper or lower:
        pairs = np.abs(np.append(b, lower)), np.abs(np.append(c, upper))
        if not np.allclose(*pairs, rtol=1e-12, atol=0.0):
            raise ValueError("a cyclic matrix needs off-diagonal pairs of "
                             "equal modulus")
    return A.diagonal().astype(complex), b, c, upper, lower


def _guard(x: np.ndarray, tiny: float) -> None:
    """Exact zeros of x, which is about to divide, become tiny: for a pivot
    a backward perturbation below the stopping tolerance."""
    if np.count_nonzero(x) < x.size:
        x[x == 0] = tiny


def _buffer(work: dict, name: str, shape: tuple) -> np.ndarray:
    """An uninitialized complex array of the given shape: the front of the
    work array ``name``, kept in ``work`` across the sweeps of one
    eigensolve and enlarged when too small.  Mapping a fresh array for
    every part would cost a page fault for each page it touches."""
    size = int(np.prod(shape))
    buf = work.get(name)
    if buf is None or buf.size < size:
        buf = work[name] = np.empty(size, dtype=complex)
    return buf[:size].reshape(shape)


def _pivots(diag: np.ndarray, slope, q: np.ndarray, tiny: float, slow: int,
            work: dict):
    """LU pivots from the top and UL pivots from the bottom of the
    tridiagonal P(z), diag[k] = P_kk(z) at position k, slope[k] = -P_kk'(z)
    (None for degree 1, where it is 1) and q[k] = (p_k, p_(N-2-k)),
    p_k = b_k c_k, by r_k = P_kk(z) - p / r_(k-1 or k+1), in one loop for
    both.  Returns gamma_k = top_k - p_k / bottom_(k+1), written over
    diag; the quotients of the loop, (p_k / top_k, p_(N-2-k) /
    bottom_(N-1-k)), from which the ratios of the twisted vectors follow;
    and for the first ``slow`` iterates (log det P(z))' = sum_k r_k' / r_k
    from the top, by r_k' = P_kk'(z) + (p_(k-1) / r_(k-1)) r_(k-1)' /
    r_(k-1): near a defective eigenvalue this stays accurate to within
    about sqrt(eps) of it, where the sum of the diagonal of P(z)^{-1}
    already cancels to noise.

    An exactly zero pivot is rare: the loop runs with a division by zero
    raised, and only then again with such pivots moved to tiny."""
    try:
        with np.errstate(divide="raise", invalid="raise"):
            return _pivot_loop(diag, slope, q, tiny, slow, work,
                               guarded=False)
    except FloatingPointError:
        return _pivot_loop(diag, slope, q, tiny, slow, work, guarded=True)


def _pivot_loop(diag, slope, q, tiny, slow, work, guarded):
    N, K = diag.shape
    both = _buffer(work, "both", (N, 2, K))
    both[:, 0] = diag
    both[:, 1] = diag[::-1]
    rows, couplings = list(both), list(q)
    cols = slice(0, slow)
    # P_kk'(z) of the slow iterates: -1, or -(e_k + 2z)
    dp = None if slope is None else -slope[:, cols]
    if guarded:
        _guard(rows[0], tiny)
    d = (-1.0 if dp is None else dp[0]) / rows[0][0][cols]   # r_0' / r_0
    g = d.copy()
    for k in range(1, N):
        # the pivots of step k - 1 give way to their quotients
        quot = np.divide(couplings[k - 1], rows[k - 1], out=rows[k - 1])
        rows[k] -= quot
        if guarded:
            _guard(rows[k], tiny)
        if slow:
            d *= quot[0][cols]
            if dp is None:
                d -= 1.0
            else:
                d += dp[k]
            d /= rows[k][0][cols]
            g += d
    # top_k = P_kk(z) - p_(k-1) / top_(k-1), less p_k / bottom_(k+1)
    quot = both[:-1]
    gamma = diag
    gamma[1:] -= quot[:, 0]
    gamma[:-1] -= quot[::-1, 1]
    return gamma, quot, g


def _chain(ratio: np.ndarray, up: bool) -> np.ndarray:
    """x with x_k = ratio_k x_{k+1} (``up``) or x_{k+1} = ratio_k x_k, and
    1 where the ratios start: a cumulative product, one row per position."""
    x = np.empty((len(ratio) + 1,) + ratio.shape[1:], dtype=complex)
    if up:
        x[-1] = 1.0
        np.cumprod(ratio[::-1], axis=0, out=x[-2::-1])
    else:
        x[0] = 1.0
        np.cumprod(ratio, axis=0, out=x[1:])
    return x


def _ring(bands, e):
    """(a, e, b, c, ahead): the diagonals of A and of the damping e (or
    None), and the couplings b_k = A[k, k+1] and c_k = A[k+1, k], as
    `_factor` reads them.  A cyclic A is stored as its ring twice over,
    with k+1 taken mod N, so that the chain from any cut is a run of
    consecutive positions, and ahead_k is the product of b_j / c_j over the
    positions before k; ahead is None for a chain."""
    a, b, c, upper, lower = bands
    if not (upper or lower):
        return a, e, b, c, None
    b, c = np.append(b, lower), np.append(c, upper)
    ahead = np.concatenate([[1.0], np.cumprod(np.tile(b / c, 2))])
    return (np.tile(a, 2), None if e is None else np.tile(e, 2),
            np.tile(b, 2), np.tile(c, 2), ahead)


def _factor(ring, z: np.ndarray, cut: np.ndarray, slow: int, tiny: float,
            work: dict):
    """Twisted factorization of P(z) = A - z (A - z diag(e) - z^2 unless e
    is None), A and e as `_ring` gives them, at each iterate z: the
    log-derivative of det P(z), a function giving the diagonal of
    P(z)^{-1} of the iterates an index array picks, and one giving the
    twisted vectors (columns, in the order of A) of the iterates a boolean
    mask picks.  The first ``slow`` iterates converge only linearly and
    take the log-derivative from the derivative of the pivots (`_pivots`).

    A cyclic A is read as the chain T that starts at unknown ``cut`` and
    ends at cut - 1, one per iterate, with its two end diagonals lowered by
    sigma = _SHIFT |corner|, plus the remainder M = [[sigma, hi], [lo,
    sigma]] on the ends, hi and lo the corners that close the ring there;
    the Sherman-Morrison-Woodbury formula on the end columns of the chain's
    inverse and of its transpose then gives the diagonal and the columns of
    P(z)^{-1}.  The chain is near-singular where an eigenvector is small at
    the cut, so the cut follows each iterate's largest component; on a
    constant-coefficient ring the bare chain (sigma = 0) shares some of
    the ring's simple eigenvalues at every cut, which the imaginary sigma
    moves off.  Iterates that all share one cut read the ring
    rotated once, as one column broadcast over them, as a chain is read;
    otherwise each iterate reads a column of its own."""
    a, e, b, c, ahead = ring
    K = len(z)
    cyclic = ahead is not None
    if not cyclic:
        N, cut = len(a), np.zeros(1, dtype=int)
    else:
        N = len(a) // 2
        if np.all(cut == cut[:1]):
            cut = cut[:1]

    def pick(v, cols):
        # the columns cols of v, one per iterate or one shared by all
        return v if v.shape[-1] == 1 else v[..., cols]

    at = cut + np.arange(N)[:, None]            # the positions of each chain
    p = (b * c)[at[:-1]]
    diag = _buffer(work, "gamma", (N, K))       # P_kk(z) along each chain
    slope = None                                # -P_kk'(z), if not 1
    if e is None:
        np.subtract(a[at], z, out=diag)
    else:
        e = e[at]
        np.add(e, z, out=diag)
        diag *= z
        np.subtract(a[at], diag, out=diag)
        slope = e + 2 * z
    if cyclic:
        hi, lo = c[at[-1]], b[at[-1]]           # A[cut, cut-1], A[cut-1, cut]
        sigma = _SHIFT * np.abs(hi)
        diag[[0, -1]] -= sigma
    gamma, quot, g_slow = _pivots(diag, slope, np.stack([p, p[::-1]], 1),
                                  tiny, slow, work)
    _guard(gamma, tiny)
    # the terms of each sum below, one sum at a time
    scratch = _buffer(work, "scratch", (N, K))
    g = -np.sum(np.divide(1.0 if slope is None else slope, gamma,
                          out=scratch), axis=0)  # (log det P(z))'
    g[:slow] = g_slow
    into_up, into_down = (-1.0 / c)[at[:-1]], (-1.0 / b)[at[:-1]]

    def ratio(cols, up, out=None):
        # of the iterates cols: x_k / x_(k+1) = -b_k / top_k above the
        # twist, or x_(k+1) / x_k = -c_k / bottom_(k+1) below it, for a
        # vector of T - z; the loop's quotients times -1 / c_k or -1 / b_k
        if up:
            return np.multiply(quot[:, 0, cols], pick(into_up, cols), out=out)
        return np.multiply(quot[::-1, 1, cols], pick(into_down, cols),
                           out=out)
    if cyclic:
        # end columns of the chain's inverse, each scaled to 1 at its own
        # end: x0 = gamma_0 T(z)^{-1} e_0, xn = gamma_(N-1) T(z)^{-1} e_(N-1),
        # the ratios below and above a twist multiplied up from either end
        # in place (xn stored from its end).  Those of the transpose are
        # y0 = w x0 and yn = w xn / w_(N-1), with w_k = turn_k / lead the
        # product of b_j / c_j over the chain before k, of modulus 1
        x0, xn = _buffer(work, "ends", (2, N, K))
        x0[0] = xn[0] = 1.0
        np.cumprod(ratio(slice(None), False, x0[1:]), axis=0, out=x0[1:])
        np.multiply(quot[::-1, 0], into_up[::-1], out=xn[1:])
        np.cumprod(xn[1:], axis=0, out=xn[1:])
        xn = xn[::-1]
        turn, lead = ahead[at], ahead[cut]
        wn = turn[-1] / lead
        g0, gn = gamma[0], gamma[-1]
        # P(z)^{-1} = T(z)^{-1} - [x0 xn] J^{-1} [yn y0]^T, whose diagonal
        # enters the log-derivative with the weight -P_kk'(z); J is the
        # capacitance M^{-1} + [e0 en]^T T(z)^{-1} [e0 en], rows swapped,
        # times gamma_0 gamma_(N-1)
        delta = sigma * sigma - hi * lo
        J = np.array([[gn * (x0[-1] - g0 * lo / delta),
                       gn * (1 + gn * sigma / delta)],
                      [g0 * (1 + g0 * sigma / delta),
                       g0 * (xn[0] - gn * hi / delta)]])
        det = J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]
        _guard(det, tiny * tiny)
        Jinv = np.array([[J[1, 1], -J[0, 1]], [-J[1, 0], J[0, 0]]]) / det
        # so the diagonal of P(z)^{-1} is 1 / gamma_k less
        # smw_k = turn_k (c01 x0_k^2 + cx x0_k xn_k + cn xn_k^2), the
        # weights of each iterate divided by its lead once
        c01 = Jinv[0, 1] / lead
        cx = (Jinv[0, 0] / wn + Jinv[1, 1]) / lead
        cn = Jinv[1, 0] / wn / lead
        smw, term = _buffer(work, "smw", (N, K)), scratch
        np.multiply(x0, c01, out=smw)
        np.multiply(xn, cx, out=term)
        smw += term
        smw *= x0
        np.multiply(xn, cn, out=term)
        term *= xn
        smw += term
        smw *= turn
        if slope is not None:
            np.multiply(smw, slope, out=term)
        g += np.sum(smw if slope is None else term, axis=0)

    def diagonal(cols):
        # the diagonal of P(z)^{-1} along the chains of the iterates cols
        d = gamma[:, cols]
        np.reciprocal(d, out=d)
        if cyclic:
            d -= smw[:, cols]
        return d

    def vectors(sel):
        # of the iterates sel picks: the column of P(z)^{-1} with the
        # largest diagonal entry, scaled
        cols = np.flatnonzero(sel)
        twist = np.argmax(np.abs(diagonal(cols)), axis=0)
        k = np.arange(N - 1)[:, None]
        above = ratio(cols, up=True)
        np.copyto(above, 1.0, where=k >= twist)
        x = _chain(above, up=True)
        below = ratio(cols, up=False)
        np.copyto(below, 1.0, where=k < twist)
        x *= _chain(below, up=False)
        del above, below
        if not cyclic:
            return x
        # less [x0 xn] J^{-1} times gamma_twist and row twist of [yn y0]^T
        start = pick(cut, cols)
        t = twist, cols
        w = gamma[t] * (ahead[start + twist] / pick(lead, cols))
        Wn = pick(wn, cols)
        for i, end in enumerate((x0, xn)):
            corr = end[:, cols]
            corr *= w * (Jinv[i, 0, cols] / Wn * xn[t]
                         + Jinv[i, 1, cols] * x0[t])
            x -= corr
        del corr
        # ring position p is position p - cut (mod N) of the chain
        back = (N - start) + np.arange(N)[:, None]
        return np.concatenate([x, x])[back, np.arange(len(cols))]
    return g, diagonal, vectors


def _pull(z: np.ndarray, idx: np.ndarray, work: dict) -> np.ndarray:
    """sum_{j != i} 1 / (z_i - z_j) for the iterates idx.  Called before
    the part's `_factor`, it borrows the pivot loop's work array, which
    holds the 2 N values of each iterate, at least len(z)."""
    d = np.subtract(z[idx, None], z[None, :],
                    out=_buffer(work, "both", (len(idx), len(z))))
    d[np.arange(len(idx)), idx] = np.inf
    _guard(d, np.inf)
    return np.sum(np.divide(1.0, d, out=d), axis=1)


def _cuts(X: np.ndarray) -> np.ndarray:
    """Where the ring is cut for each vector's next evaluation: at its
    largest component, where the chain that remains is far from
    singular."""
    return np.argmax(np.abs(X), axis=0)


def resolvent_trace(A, z, scale: float, damping=None) -> np.ndarray:
    """-(log det P(z))' = tr[-P'(z) P(z)^{-1}] at each value of the array z,
    for the P(z) of `eigensolve`: tr (A - z)^{-1}, or with ``damping`` = e
    tr[(2z + e)(A - z diag(e) - z^2)^{-1}].  It is the log-derivative of
    the Aberth step, read off the same twisted factorization in O(N) per
    value, and no dense matrix is formed.

    ``scale`` bounds ||A||_2, so that s(z) = scale + |z| (for degree 2,
    scale + |z| (max|e| + |z|)) bounds ||P(z)||_2.  np.linalg.LinAlgError
    when P(z) is too close to singular for its inverse to mean anything: a
    pivot gamma_k = 1 / [P(z)^{-1}]_kk below 1e-12 s(z).  For a ring these
    are the ring's own pivots, from the Sherman-Morrison-Woodbury diagonal,
    which grows without bound as its 2 x 2 capacitance matrix (the corner
    remainder closing the shifted chain) becomes singular.
    """
    e = None if damping is None else np.asarray(damping, dtype=complex)
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    g, diagonal, _ = _factor(_ring(_bands(A.tocsr()), e), z,
                             np.zeros(len(z), dtype=int), 0, _EPS * scale, {})
    inverse = np.abs(diagonal(np.arange(len(z)))).max(axis=0)
    size = scale + np.abs(z) * (1.0 if e is None
                                else np.abs(e).max() + np.abs(z))
    near = ~(inverse * size * _SINGULAR <= 1.0)      # nan fails too
    if near.any():
        k = int(np.argmax(near))
        raise np.linalg.LinAlgError(
            f"too close to the spectrum: pivot {1.0 / inverse[k]:.3e} at "
            f"z = {z[k]:.6g} below {_SINGULAR:g} x {size[k]:.3e}")
    return -g


def eigensolve(A, start: np.ndarray, scale: float, vectors=False,
               damping=None):
    """Eigenvalues of P(z) = A - z, or of P(z) = A - z diag(damping) - z^2
    when ``damping`` is given, for the sparse N x N matrix A, tridiagonal
    apart from the corners A[0, N-1] and A[N-1, 0], by Ehrlich-Aberth
    sweeps from the N (2N) distinct values ``start``.

    ``scale`` is ||A||_2 for degree 1; for degree 2 the norm of the
    linearization L = [[0, I], [A, -diag(damping)]], whose eigenvalues are
    those of P, at least ||A||_2.  An iterate whose Aberth step is small
    gets its twisted vector x, and stops once the backward error of Tisseur
    for P with its exact leading coefficient -1,
    ||P(z) x|| / ((scale + |z| max|damping|) ||x||), is at most 2^-48 (the
    residual of A - z against 2^-48 scale for degree 1; for degree 2 the
    step must also be below 16 times that tolerance over 2|z| + max|damping|,
    the size of P'(z)) or, converging only linearly, ||P(z) x|| / ||x|| has
    stopped falling below 2^-30 scale.

    Returns (eigenvalues, backward errors, unit eigenvectors as columns if
    ``vectors`` else None), in the order of ``start``; for degree 2 the
    backward error is the residual of the vector (x, z x) of L,
    ||P(z) x|| / (||x|| sqrt(1 + |z|^2)).  RuntimeError when an iterate
    has not stopped after MAX_SWEEPS sweeps, or when the eigenvalues do not
    sum to the trace of L.
    """
    N = A.shape[0]
    e = None if damping is None else np.asarray(damping, dtype=complex)
    count = N if e is None else 2 * N
    if len(start) != count:
        raise ValueError(f"need {count} start values, got {len(start)}")
    A = A.tocsr()
    bands = _bands(A)
    ring = _ring(bands, e)
    tol, stall = _TOL * scale, _STALL * scale
    near, tiny = _NEAR * scale, _EPS * scale
    z = np.array(start, dtype=complex)
    cut = np.zeros(count, dtype=int)
    last = np.full(count, np.inf)               # |Aberth step| a sweep ago
    slow = np.zeros(count, dtype=bool)          # converging only linearly
    res = np.full(count, np.inf)
    V = np.zeros((N, count), dtype=complex) if vectors else None
    emax = 0.0 if e is None else float(np.abs(e).max())
    work = {}
    active = np.arange(count)
    for _ in range(MAX_SWEEPS):
        # the slow iterates first, where the pivots also run their derivative
        active = active[np.argsort(~slow[active], kind="stable")]
        step = np.zeros(len(active), dtype=complex)
        done = np.zeros(len(active), dtype=bool)
        # equal parts of iterates x positions at most _CHUNK, or of 64
        # iterates where that is too few
        parts = max(1, min(-(-len(active) * N // _CHUNK), len(active) // 64))
        chunk = -(-len(active) // parts)
        for lo in range(0, len(active), chunk):
            part = slice(lo, lo + chunk)
            idx = active[part]
            pull = _pull(z, idx, work)
            g, diagonal, vecs = _factor(
                ring, z[idx], cut[idx], int(np.count_nonzero(slow[idx])),
                tiny, work)
            # Aberth: the Newton step of det P(z) / prod_{j != i} (z - z_j)
            denom = g - pull
            safe = denom != 0
            step[part] = np.where(safe, 1.0 / np.where(safe, denom, 1.0), 0.0)
            # the vector is formed where the step is as small as the
            # tolerance, or small and no longer shrinking fast (a multiple
            # root converges only linearly)
            size = np.abs(step[part])
            slow[idx] = size >= 2.0**-10 * last[idx]
            if e is None:
                limit = reach = tol
            else:
                # the stop's tolerance, and the step below which it can be
                # met: that tolerance over |P'(z)|, about 2|z| + max|e|
                az = np.abs(z[idx])
                limit = _TOL * (scale + emax * az)
                with np.errstate(divide="ignore"):
                    reach = limit / (2 * az + emax)
            sel = (size <= 16 * reach) | ((size <= near) & slow[idx])
            last[idx] = size
            X = vecs(sel) if sel.any() else None
            del diagonal, vecs      # and with them the factorization
            if X is not None:
                got = idx[sel]
                X /= np.linalg.norm(X, axis=0)
                R = A @ X
                if e is None:
                    R -= X * z[got]
                else:
                    R -= X * (z[got] * (e[:, None] + z[got]))
                    limit, reach = limit[sel], reach[sel]
                r = np.linalg.norm(R, axis=0)
                del R
                # at the tolerance, or, converging only linearly, stalled
                # well below the residual gate: an iterate of a defective
                # cluster (a Jordan pair at critical damping) reaches only
                # about sqrt(eps) of its eigenvalue, and its backward error
                # may stop falling there
                stuck = slow[got] & (r <= stall) & (r >= 0.5 * res[got])
                stop = r <= limit
                if e is not None:
                    # a pencil root moves by about r / |P'(z)|, which may
                    # be far above r / scale: its step must be small too
                    stop &= size[sel] <= 16 * reach
                stop |= stuck
                done[lo + np.flatnonzero(sel)] = stop
                res[got] = r
                cut[got] = _cuts(X)
                if vectors:
                    V[:, got] = X
                del X
        z[active[~done]] -= step[~done]
        active = active[~done]
        if not len(active):
            break
    else:
        # the backward error of each iterate's last vector, relative as in
        # the stop; a degree-2 iterate may be below it with its step not
        worst = np.max(res[active] / (scale + emax * np.abs(z[active])))
        raise RuntimeError(
            f"Aberth iteration: {len(active)} of {count} eigenvalues not "
            f"stopped after {MAX_SWEEPS} sweeps (worst backward error "
            f"{worst:.3e}, stop at {_TOL:.3e}"
            + ("" if e is None else ", with a small step") + ")")
    if e is None:
        trace = np.sum(bands[0])
    else:
        res /= np.sqrt(1 + np.abs(z) ** 2)
        trace = -np.sum(e)
    _check_trace(z, res, trace, scale)
    return z, res, V


def _check_trace(z: np.ndarray, res: np.ndarray, trace: complex,
                 scale: float) -> None:
    """RuntimeError unless the eigenvalues z, with backward errors res, sum
    to ``trace``: one found twice in place of a missing one shows here.

    Each is charged its backward error r (at least eps scale, for the
    rounding of the sums) times 16 + scale / max(delta, sqrt(r scale) / 4),
    delta its distance to the nearest other z.  Away from the others an
    eigenvalue of a matrix of norm ``scale`` moves by about r; a close pair
    may be nearly defective, moving it by up to about r scale / delta; and a
    member of a Jordan pair sits up to sqrt(r scale) from its eigenvalue, as
    does a duplicate, which is caught once the eigenvalue it replaces lies
    farther off than that."""
    r = np.maximum(res, _EPS * scale)
    delta = np.empty(len(z))
    rows = max(1, _CHUNK // len(z))
    for lo in range(0, len(z), rows):
        d = np.abs(z[lo:lo + rows, None] - z)
        d[np.arange(len(d)), lo + np.arange(len(d))] = np.inf
        delta[lo:lo + rows] = d.min(axis=1)
    bound = np.sum(r * (16 + scale / np.maximum(delta, np.sqrt(r * scale) / 4)))
    gap = abs(np.sum(z) - trace)
    if gap > bound:
        raise RuntimeError(
            f"Aberth iteration: the eigenvalues sum to the trace only within "
            f"{gap:.3e}, beyond their error bound {bound:.3e}")
