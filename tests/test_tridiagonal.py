"""The tridiagonal Ehrlich-Aberth eigensolve of D + B against dense oracles."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

import dampedstring as ds
from dampedstring import spectral, tridiagonal

from conftest import frame

FAMILIES = ["min", "zero0", "zero1", "max", "omega:0,1", "omega:1,0",
            "omega:0.5,0.3"]
RHO1 = ds.constant(1.0, "density")
# piecewise random; constant, whose periodic spectrum is doubly degenerate;
# high density contrast with sign-changing damping
COEFFICIENTS = {
    "variable": ds.random_coefficients(3),
    "constant": (RHO1, ds.constant(1.0, "damping")),
    "contrast": (ds.polynomial((1.0, 8.0), "density"),
                 ds.polynomial((0.5, -2.0), "damping")),
}


@pytest.mark.parametrize("coefficients", COEFFICIENTS)
@pytest.mark.parametrize("tag", FAMILIES)
def test_eigenvalues_match_dense_oracle(tag, coefficients):
    rho, alpha = COEFFICIENTS[coefficients]
    for n in (4, 16, 64, 256):
        ops = ds.build_operator_set(n, rho, alpha, ds.parse_bc(tag))
        Mf = ops.dirac_frame()
        spec = ds.eigen_dirac(ops)
        dist = ds.multiset_distance(spec.eigenvalues, scipy.linalg.eigvals(Mf))
        assert dist <= 1e-12 * np.linalg.norm(Mf, 2), n


@pytest.mark.parametrize("tag", FAMILIES)
def test_vectors_carry_the_reported_residuals(tag):
    rho, alpha = COEFFICIENTS["variable"]
    ops = ds.build_operator_set(16, rho, alpha, ds.parse_bc(tag))
    Mf = ops.dirac_frame()
    spec = ds.eigen_dirac(ops, keep_vectors=True)
    V = spec.vectors
    assert np.allclose(np.linalg.norm(V, axis=0), 1.0, rtol=0, atol=1e-14)
    res = np.linalg.norm(Mf @ V - V * spec.eigenvalues, axis=0)
    scale = np.linalg.norm(Mf, 2)
    assert np.abs(res - spec.residuals).max() <= 1e-14 * scale
    assert spec.residuals.max() <= 1e-12 * scale


# dim ker D at n = 16 and 64, as the dense eigensolver counted them
@pytest.mark.parametrize("tag, coefficients, zero_modes", [
    ("max", "variable", 0), ("max", "constant", 0), ("max", "undamped", 1),
    ("omega:1,0", "variable", 1), ("omega:1,0", "constant", 1),
    ("omega:1,0", "undamped", 2),
])
def test_zero_modes_of_the_kernel_families(tag, coefficients, zero_modes):
    rho, alpha = COEFFICIENTS.get(coefficients,
                                  (RHO1, ds.constant(0.0, "damping")))
    for n in (16, 64):
        ops = ds.build_operator_set(n, rho, alpha, ds.parse_bc(tag))
        lam = scipy.linalg.eigvals(ops.dirac_frame())
        assert ds.eigen_dirac(ops).zero_modes == zero_modes
        assert int(np.sum(np.abs(lam) < ops.tol_zero)) == zero_modes


def test_critical_double_root():
    """At a = 2 sqrt(mu_1) the lowest pair is a Jordan block: each member
    is found to about sqrt(eps), and both stay within the 1e-8 ||Mf||
    equivalence gate of the constant-damping roots."""
    undamped = ds.build_operator_set(64, RHO1, ds.constant(0.0, "damping"),
                                     ds.BoundaryCondition.minimal())
    a = 2 * np.sqrt(undamped.H1_eigvals[0])
    ops = ds.build_operator_set(64, RHO1, ds.constant(a, "damping"),
                                ds.BoundaryCondition.minimal())
    spec = ds.eigen_dirac(ops)
    scale = np.linalg.norm(ops.dirac_frame(), 2)
    exact = ds.constant_damping_dirac(ops)
    assert (ds.multiset_distance(spec.eigenvalues, exact.eigenvalues)
            <= 1e-8 * scale)
    pair = spec.eigenvalues[np.argsort(np.abs(spec.eigenvalues + 0.5j * a))[:2]]
    assert np.abs(pair + 0.5j * a).max() <= 1e-8 * scale


def test_sweep_cap_raises(monkeypatch):
    monkeypatch.setattr(tridiagonal, "MAX_SWEEPS", 1)
    rho, alpha = COEFFICIENTS["variable"]
    ops = ds.build_operator_set(16, rho, alpha, ds.BoundaryCondition.minimal())
    with pytest.raises(RuntimeError, match="after 1 sweeps"):
        ds.eigen_dirac(ops)


def test_rejects_what_it_cannot_solve():
    A = scipy.sparse.csr_array(np.diag(np.ones(6)) + np.diag(np.ones(4), 2))
    with pytest.raises(ValueError, match="not tridiagonal"):
        tridiagonal.eigensolve(A, np.arange(6.0), 2.0)
    ring = np.diag(np.ones(5), 1) + np.diag(np.ones(5), -1)
    ring[0, 5], ring[5, 0] = 1.0, 2.0
    with pytest.raises(ValueError, match="equal modulus"):
        tridiagonal.eigensolve(scipy.sparse.csr_array(ring), np.arange(6.0),
                               3.0)


@pytest.mark.parametrize("tag", FAMILIES)
def test_band_norms_match_dense(tag):
    rho, alpha = COEFFICIENTS["variable"]
    for n in (4, 16, 64):
        ops = ds.build_operator_set(n, rho, alpha, ds.parse_bc(tag))
        ref = np.linalg.norm(ops.dirac_frame(), 2)
        assert abs(ops.dirac_norm - ref) <= 1e-13 * ref
        ref = np.linalg.norm(frame(ops, ops.G, "generator"), 2)
        assert abs(ops.generator_norm - ref) <= 1e-13 * ref


@pytest.mark.parametrize("tag", ["max", "omega:1,0"])
def test_constant_damping_counts_ker_T_once(tag):
    """A vector of ker T gives D + B the root -i a alone, not also 0."""
    for a in (0.0, 0.7):
        ops = ds.build_operator_set(16, RHO1, ds.constant(a, "damping"),
                                    ds.parse_bc(tag))
        fast, spec = ds.constant_damping_dirac(ops), ds.eigen_dirac(ops)
        assert len(fast) == ops.n_nodes + ops.n_cells
        assert fast.zero_modes == spec.zero_modes
        assert (ds.multiset_distance(fast.eigenvalues, spec.eigenvalues)
                <= 1e-12 * ops.dirac_norm)


def test_exactly_zero_pivot_is_moved():
    """A start on a diagonal entry makes the first pivot exactly zero; the
    division by zero is caught and the pivot moved, not propagated."""
    rng = np.random.default_rng(1)
    b = rng.uniform(0.5, 1.5, 7)
    A = scipy.sparse.diags_array([b, b], offsets=[-1, 1]).astype(complex)
    lam = scipy.linalg.eigvalsh(A.toarray())
    start = lam + 0.01 * np.arange(1, 9)
    start[0] = 0.0
    z, res, _ = tridiagonal.eigensolve(A, start, float(np.abs(lam).max()))
    assert ds.multiset_distance(z, lam) <= 1e-13 * np.abs(lam).max()


def test_trace_check_catches_a_duplicate():
    """An eigenvalue found twice in place of its neighbour fails the trace
    check; the multiset as found passes.  First the path tridiagonal matrix
    of size 1024, whose top spacing 2.8e-5 lies below N sqrt(eps) ||A||,
    then D + B at n = 512: its top eigenvalue, and a low one."""
    N = 1024
    lam = 2 * np.cos(np.pi * np.arange(1, N + 1) / (N + 1)) + 0j
    res = np.full(N, 1e-16)
    tridiagonal._check_trace(lam, res, 0.0, 2.0)
    dup = lam.copy()
    dup[1] = lam[0]
    with pytest.raises(RuntimeError, match="sum to the trace"):
        tridiagonal._check_trace(dup, res, 0.0, 2.0)
    rho, alpha = COEFFICIENTS["variable"]
    ops = ds.build_operator_set(512, rho, alpha, ds.BoundaryCondition.minimal())
    spec = ds.eigen_dirac(ops)
    lam, res = spec.eigenvalues, spec.residuals
    trace = -1j * np.sum(ops.C)
    tridiagonal._check_trace(lam, res, trace, ops.dirac_norm)
    top = np.argsort(lam.real)[-2:]
    for i, j in (top, (0, 1)):
        dup = lam.copy()
        dup[j] = lam[i]
        with pytest.raises(RuntimeError, match="sum to the trace"):
            tridiagonal._check_trace(dup, res, trace, ops.dirac_norm)


def _dense_weighted_trace(P, w):
    """tr[diag(w) P^{-1}] from a dense inverse, and its first-order change
    under a perturbation of P of 2-norm eps: eps sum_k |w_k| times the norms
    of column k and row k of P^{-1}."""
    inv = np.linalg.inv(P)
    change = np.sum(np.abs(w) * np.linalg.norm(inv, axis=0)
                    * np.linalg.norm(inv, axis=1))
    return np.sum(w * np.diag(inv)), np.finfo(float).eps * change


@pytest.mark.parametrize("coefficients", COEFFICIENTS)
@pytest.mark.parametrize("tag", FAMILIES)
def test_resolvent_trace_matches_dense_oracle(tag, coefficients):
    """tr (A - z)^{-1} of the Dirac band and tr[(2z + iC) Q(z)^{-1}] of the
    pencil Q(z) = T*T - z^2 - i z C against dense inverses: within 1e-12
    relative, plus what a backward error of eps ||P(z)|| moves the trace
    by where P(z) is ill-conditioned (on max and omega:1,0, ker T puts an
    eigenvalue of Q(z) near -z^2 - i z <C>)."""
    rho, alpha = COEFFICIENTS[coefficients]
    z = np.array([0.1, -0.1, 0.37, 0.3 + 1.5j])
    for n in (4, 16, 64, 256):
        ops = ds.build_operator_set(n, rho, alpha, ds.parse_bc(tag))
        mu, C = ops.H1_eigvals[-1], ops.C
        c_max = np.abs(C).max()
        dirac = tridiagonal.resolvent_trace(ops.dirac_band(), z,
                                            np.sqrt(mu) + c_max)
        pencil = tridiagonal.resolvent_trace(ops.H1f, z, mu, damping=1j * C)
        band, H = ops.dirac_band().toarray(), ops.H1f.toarray()
        for k, zk in enumerate(z):
            ref, change = _dense_weighted_trace(
                band - zk * np.eye(len(band)), np.ones(len(band)))
            size = np.sqrt(mu) + c_max + abs(zk)
            assert abs(dirac[k] - ref) <= 1e-12 * abs(ref) + size * change
            ref, change = _dense_weighted_trace(
                H - zk * zk * np.eye(len(H)) - 1j * zk * np.diag(C),
                2 * zk + 1j * C)
            size = mu + abs(zk) * (c_max + abs(zk))
            assert abs(pencil[k] - ref) <= 1e-12 * abs(ref) + size * change


@pytest.mark.parametrize("tag, damping", [("min", False), ("max", True),
                                          ("omega:1,0", False),
                                          ("omega:1,0", True)])
def test_resolvent_trace_refuses_a_singular_polynomial(tag, damping):
    """At z = 0 the Dirac band of min and omega:1,0 is singular (ker T*;
    on the ring the null vector vanishes at the cut node), and so is the
    pencil of max and omega:1,0 (ker T); a nearby z is not refused."""
    rho, alpha = COEFFICIENTS["variable"]
    ops = ds.build_operator_set(32, rho, alpha, ds.parse_bc(tag))
    mu = ops.H1_eigvals[-1]

    def trace(z):
        if damping:
            return tridiagonal.resolvent_trace(ops.H1f, z, mu,
                                               damping=1j * ops.C)
        return tridiagonal.resolvent_trace(
            ops.dirac_band(), z, np.sqrt(mu) + np.abs(ops.C).max())
    with pytest.raises(np.linalg.LinAlgError,
                       match="too close to the spectrum"):
        trace([0.0])
    assert np.isfinite(trace([1e-3])).all()


RINGS = ["omega:1,0", "omega:-1,0", "omega:0,1"]


def _rolled(A, s):
    """P A P^T for the cyclic shift P e_k = e_(k+s mod N): the same ring
    with every position relabelled, so that its corners move inside."""
    N, coo = A.shape[0], A.tocoo()
    return scipy.sparse.csr_array(
        (coo.data, ((coo.row + s) % N, (coo.col + s) % N)), shape=A.shape)


def _ring_problem(tag, degree):
    """(A, damping, scale, start) of eigen_dirac (degree 1) or of
    eigen_generator (degree 2) on a ring family, or for "phases" a random
    ring whose couplings b_k, c_k of equal modulus differ in phase at every
    position, started near the dense eigenvalues."""
    if tag != "phases":
        rho, alpha = COEFFICIENTS["variable"]
        ops = ds.build_operator_set(24, rho, alpha, ds.parse_bc(tag))
        if degree == 1:
            return (ops.dirac_band(), None, ops.dirac_norm,
                    spectral._dirac_start(ops))
        radius = np.sqrt(ops.H1_eigvals[-1]) + np.abs(ops.C).max()
        return (ops.H1f, 1j * ops.C, ops.generator_norm,
                spectral._damped_start(ops, 0, 0, radius))
    rng = np.random.default_rng(7)
    N = 20
    size = rng.uniform(0.5, 2.0, N)
    b = size * np.exp(2j * np.pi * rng.random(N))
    c = size * np.exp(2j * np.pi * rng.random(N))
    A = np.diag(rng.normal(size=N) + 0.3j * rng.normal(size=N))
    A += np.diag(b[:-1], 1) + np.diag(c[:-1], -1)
    A[N - 1, 0], A[0, N - 1] = b[-1], c[-1]
    e = None
    if degree == 1:
        lam, scale = np.linalg.eigvals(A), np.linalg.norm(A, 2)
    else:
        e = rng.normal(size=N) + 1j * rng.normal(size=N)
        L = np.block([[np.zeros((N, N)), np.eye(N)], [A, -np.diag(e)]])
        lam, scale = np.linalg.eigvals(L), np.linalg.norm(L, 2)
    start = lam + 1e-2 * scale * np.exp(2j * np.pi * rng.random(len(lam)))
    return scipy.sparse.csr_array(A), e, scale, start


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("tag", RINGS + ["phases"])
def test_relabelled_ring_keeps_spectrum_vectors_and_trace(tag, degree):
    """Rolling a ring by s only relabels its positions, so the cut of every
    chain falls elsewhere along the same ring: the eigenvalues agree within
    1e-13 of the scale, each well separated eigenvalue's vector is the
    rolled one, and tr[-P'(z) P(z)^{-1}] agrees within 1e-12 relative."""
    A, e, scale, start = _ring_problem(tag, degree)
    N = A.shape[0]
    z, _, V = tridiagonal.eigensolve(A, start, scale, True, e)
    probes = np.array([0.37, 0.3 + 1.5j, -2.0 + 0.4j])
    trace = tridiagonal.resolvent_trace(A, probes, scale, damping=e)
    gaps = np.abs(z[:, None] - z[None, :]) + np.diag(np.full(len(z), np.inf))
    apart = np.flatnonzero(gaps.min(axis=1) > 1e-6 * scale)
    assert len(apart) >= len(z) // 4
    for s in (1, N // 2, N - 1):
        rolled = None if e is None else np.roll(e, s)
        zr, _, Vr = tridiagonal.eigensolve(_rolled(A, s), start, scale, True,
                                           rolled)
        assert ds.multiset_distance(z, zr) <= 1e-13 * scale, s
        match = np.argmin(np.abs(zr[None, :] - z[apart, None]), axis=1)
        overlap = np.abs(np.sum(np.conj(np.roll(V[:, apart], s, axis=0))
                                * Vr[:, match], axis=0))
        assert np.abs(overlap - 1).max() <= 1e-8, s
        again = tridiagonal.resolvent_trace(_rolled(A, s), probes, scale,
                                            damping=rolled)
        assert np.abs(again - trace).max() <= 1e-12 * np.abs(trace).max(), s


def test_ring_parts_mix_shared_and_own_cuts(monkeypatch):
    """Every other vector's cut moved to its second largest component: the
    parts of later sweeps mix iterates still at the cut they share with
    iterates at cuts of their own, so one eigensolve runs both layouts,
    and both spectra still match the dense oracles."""
    largest = tridiagonal._cuts

    def spread(X):
        cut = largest(X)
        cut[1::2] = np.argsort(np.abs(X), axis=0)[-2, 1::2]
        return cut
    monkeypatch.setattr(tridiagonal, "_cuts", spread)
    factor, cuts = tridiagonal._factor, []

    def recorded(ring, z, cut, *rest):
        cuts.append(cut.copy())
        return factor(ring, z, cut, *rest)
    monkeypatch.setattr(tridiagonal, "_factor", recorded)
    rho, alpha = COEFFICIENTS["variable"]
    for tag in RINGS:
        ops = ds.build_operator_set(32, rho, alpha, ds.parse_bc(tag))
        Mf = ops.dirac_frame()
        cuts.clear()
        spec = ds.eigen_dirac(ops)
        scale = np.linalg.norm(Mf, 2)
        assert (ds.multiset_distance(spec.eigenvalues,
                                     scipy.linalg.eigvals(Mf))
                <= 1e-12 * scale), tag
        gen = ds.eigen_generator(ops)
        m = ops.H1f.shape[0]
        L = np.block([[np.zeros((m, m)), np.eye(m)],
                      [ops.H1f.toarray(), -np.diag(1j * ops.C)]])
        assert (ds.multiset_distance(gen.eigenvalues, scipy.linalg.eigvals(L))
                <= 1e-12 * ops.generator_norm), tag
        shared = [len(np.unique(c)) == 1 for c in cuts]
        mixed = [np.bincount(c).max() > 1 and len(np.unique(c)) > 1
                 for c in cuts]
        assert any(shared) and any(mixed), tag
