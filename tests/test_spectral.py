import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment  # the oracle only

import dampedstring as ds
from dampedstring import spectral

from conftest import frame

MIN = ds.BoundaryCondition.minimal()
RHO1 = ds.constant(1.0, "density")


@pytest.fixture(scope="module")
def damped_ops():
    rho, alpha = ds.random_coefficients(9)
    return ds.build_operator_set(32, rho, alpha, MIN)


def test_spectrum_sorted_and_residuals_small(damped_ops):
    spec = ds.eigen_dirac(damped_ops)
    mags = np.abs(spec.eigenvalues)
    assert np.all(np.diff(mags) > -1e-9)
    scale = np.linalg.norm(damped_ops.dirac_frame(), 2)
    assert spec.residuals.max() < 1e-10 * scale


def test_eigen_pair_round_trip(damped_ops):
    gen = ds.eigen_generator(damped_ops, keep_vectors=True)
    m = damped_ops.n_nodes
    su = np.sqrt(damped_ops.wu)
    k = len(gen) // 2
    lam = gen.eigenvalues[k]
    v = gen.vectors[:, k] / np.concatenate([su, su])
    pair = spectral.EigenPair(lam, v, 0.0)
    fwd = ds.map_generator_to_dirac(pair, damped_ops)
    assert fwd.residual < 1e-8
    back = ds.map_dirac_to_generator(fwd, damped_ops)
    assert back.residual < 1e-8
    # same ray: normalized overlap is unimodular
    overlap = abs(np.vdot(back.vector, np.concatenate([damped_ops.wu] * 2) * v))
    norms = (np.sqrt(np.vdot(v, np.concatenate([damped_ops.wu] * 2) * v).real)
             * np.sqrt(np.vdot(back.vector,
                               np.concatenate([damped_ops.wu] * 2)
                               * back.vector).real))
    assert overlap / norms == pytest.approx(1.0, abs=1e-8)


def test_zero_mode_maps_rejected(damped_ops):
    spec = ds.eigen_dirac(damped_ops, keep_vectors=True)
    assert spec.zero_modes == 1
    k = int(np.argmin(np.abs(spec.eigenvalues)))
    sd = np.sqrt(damped_ops.weights())
    pair = spectral.EigenPair(spec.eigenvalues[k], spec.vectors[:, k] / sd,
                              0.0)
    with pytest.raises(ValueError):
        ds.map_dirac_to_generator(pair, damped_ops)


def test_undamped_spectrum_real_and_symmetric():
    ops = ds.build_operator_set(48, RHO1, ds.constant(0.0, "damping"), MIN)
    spec = ds.eigen_dirac(ops)
    assert np.abs(spec.eigenvalues.imag).max() < 1e-10
    assert ds.check_symmetry(spec)["distance"] < 1e-10


def test_constant_damping_fast_path_matches_dense():
    ops = ds.build_operator_set(64, RHO1, ds.constant(0.5, "damping"), MIN)
    fast = ds.constant_damping_dirac(ops)
    dense = ds.eigen_dirac(ops)
    scale = np.linalg.norm(ops.dirac_frame(), 2)
    assert ds.multiset_distance(fast.eigenvalues, dense.eigenvalues) < 1e-9 * scale


@pytest.mark.parametrize("tag", ["min", "omega:0.5,0.3"])
def test_selfadjoint_band_eigenpairs(tag):
    rho, alpha = ds.random_coefficients(5)
    ops = ds.build_operator_set(48, rho, alpha, ds.parse_bc(tag))
    mu, U = ops.frame_eigh("node", vectors=True)
    assert np.all(np.diff(mu) >= 0)
    assert np.abs(U.conj().T @ U - np.eye(len(mu))).max() < 1e-12
    H1f = frame(ops, ops.Tstar @ ops.T, "node")
    res = np.linalg.norm(H1f @ U - U * mu[None, :], axis=0).max()
    assert res <= 1e-12 * np.linalg.norm(H1f, 2)


def test_constant_damping_fast_path_rejects_variable_profile():
    ops = ds.build_operator_set(16, RHO1, ds.polynomial((0.5, 1.0), "damping"),
                                MIN)
    with pytest.raises(ValueError):
        ds.constant_damping_dirac(ops)


def test_closed_form_constant_damping_values():
    lam = ds.closed_form_constant_damping(0.0, 3)
    assert sorted(lam[:3].real) == pytest.approx(
        [np.pi, 2 * np.pi, 3 * np.pi][:3], rel=1e-12)
    # critical damping for j=1: double root at -i pi
    lam = ds.closed_form_constant_damping(2 * np.pi, 1)
    assert lam[0] == pytest.approx(-1j * np.pi)
    assert lam[1] == pytest.approx(-1j * np.pi)


def test_factorization_identity_random(damped_ops):
    for z in (0.0, 0.8 - 0.4j, -2.0 + 1.0j):
        out = spectral.verify_factorization_identity(z, damped_ops)
        assert out["factorization_residual"] < 1e-12
        assert out["E_inverse_defect"] < 1e-12
        assert out["F_inverse_defect"] < 1e-12


def _dense_factorization(z, ops):
    """The identity with every block factor assembled as a dense 2m x 2m
    matrix: the oracle of the blockwise check."""
    m = ops.n_nodes
    I, O, R = np.eye(m), np.zeros((m, m)), np.diag(ops.C)
    L = z * z * I + z * 1j * R - ops.sparse("H1").toarray()
    E = np.block([[-z * I - 1j * R, -1j * I], [I, O]])
    Einv = np.block([[O, I], [1j * I, -1j * (-z * I - 1j * R)]])
    F = np.block([[I, O], [-z * I, 1j * I]])
    Finv = np.block([[I, O], [-1j * z * I, -1j * I]])
    lhs = np.block([[L, O], [O, I]]) @ F
    rhs = E @ (1j * ops.G - z * np.eye(2 * m))
    I2 = np.eye(2 * m)
    return {
        "factorization_residual": np.linalg.norm(lhs - rhs)
        / max(np.linalg.norm(lhs), np.linalg.norm(rhs), 1.0),
        "E_inverse_defect": np.linalg.norm(E @ Einv - I2),
        "F_inverse_defect": np.linalg.norm(F @ Finv - I2),
    }


@pytest.mark.parametrize("z", [0.37 - 0.2j, 1.5, -0.4 + 2.0j])
@pytest.mark.parametrize("bc", ["min", "max", "omega:0.5,0.3"])
def test_factorization_identity_matches_dense_blocks(bc, z):
    rho, alpha = ds.random_coefficients(9)
    ops = ds.build_operator_set(24, rho, alpha, ds.parse_bc(bc))
    fast = spectral.verify_factorization_identity(z, ops)
    dense = _dense_factorization(z, ops)
    for key in fast:
        assert fast[key] < 1e-12
        assert abs(fast[key] - dense[key]) <= 1e-15


@pytest.mark.parametrize("block", ["G11", "G12", "G21", "G22"])
def test_factorization_identity_reads_every_block_of_G(damped_ops, block):
    """A wrong entry in any block of the assembled G fails the check."""
    ops = ds.build_operator_set(damped_ops.grid.n, damped_ops.rho,
                                damped_ops.alpha, damped_ops.bc)
    m = ops.n_nodes
    G = ops.G.copy()
    i, j = (int(block[1]) - 1) * m, (int(block[2]) - 1) * m
    G[i + 2, j + 3] += 1e-6 * np.abs(G).max()
    ops.__dict__["G"] = G
    out = spectral.verify_factorization_identity(0.37 - 0.2j, ops)
    assert out["factorization_residual"] > 1e-9


def test_factorization_identity_forms_no_2m_array():
    """The blockwise check stays below the memory of one complex 2m x 2m
    array, which the dense form needs for each of its block factors."""
    rho, alpha = ds.random_coefficients(9)
    ops = ds.build_operator_set(256, rho, alpha, MIN)
    ops.G
    m = ops.n_nodes
    tracemalloc.start()
    try:
        spectral.verify_factorization_identity(0.37 - 0.2j, ops)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (2 * m) ** 2 * 16


def _dense_generator(ops):
    """The oracle of `eigen_generator`: a dense eigensolve of the assembled G
    in the weighted frame, its residuals taken with the sparse
    `generator_frame` and gated as the library gates its own."""
    nu, V = scipy.linalg.eig(frame(ops, ops.G, "generator"))
    lam = 1j * nu
    V /= np.linalg.norm(V, axis=0)
    res = np.linalg.norm(1j * (ops.generator_frame @ V) - V * lam, axis=0)
    return spectral._spectrum(lam, res, V, ops.generator_norm, ops.tol_zero)


def test_generator_residuals_hold_assembled_G_to_the_bands(damped_ops):
    """The residuals of iG come from the sparse frame built from T*T and C,
    so an eigensolve of a wrong assembled G (the dense oracle's) fails the
    residual gate."""
    good = ds.eigen_generator(damped_ops, keep_vectors=True)
    Gf = frame(damped_ops, damped_ops.G, "generator")
    dense = (np.linalg.norm(1j * Gf @ good.vectors
                            - good.vectors * good.eigenvalues[None, :], axis=0)
             / np.linalg.norm(good.vectors, axis=0))
    assert np.abs(good.residuals - dense).max() <= 1e-12 * damped_ops.generator_norm
    ops = ds.build_operator_set(damped_ops.grid.n, damped_ops.rho,
                                damped_ops.alpha, damped_ops.bc)
    m = ops.n_nodes
    G = ops.G.copy()
    G[m + 2, 3] += 1e-3 * np.abs(G).max()
    ops.__dict__["G"] = G
    with pytest.raises(RuntimeError, match="residual"):
        _dense_generator(ops)


def test_fit_asymptotics_undamped():
    rho = ds.polynomial((1.0, 1.0), "density")
    ops = ds.build_operator_set(512, rho, ds.constant(0.0, "damping"), MIN)
    fit = ds.fit_asymptotics(ds.constant_damping_dirac(ops), rho)
    assert fit["target"] == pytest.approx(2 * np.pi / 3, rel=1e-12)
    assert fit["relative_deviation"] < 0.02


def test_fit_asymptotics_needs_enough_branch():
    ops = ds.build_operator_set(16, RHO1, ds.constant(0.0, "damping"), MIN)
    with pytest.raises(ValueError):
        ds.fit_asymptotics(ds.constant_damping_dirac(ops), RHO1)


def test_spectrum_csv_shape(damped_ops):
    spec = ds.eigen_dirac(damped_ops)
    csv = spectral.spectrum_to_csv(spec)
    lines = csv.strip().split("\n")
    assert lines[0] == "index,re_lambda,im_lambda,residual,zero_mode_flag,branch"
    assert len(lines) == len(spec) + 1
    assert sum(line.split(",")[4] == "1" for line in lines[1:]) == spec.zero_modes


def _coefficients(kind):
    if kind == "constant":
        return RHO1, ds.constant(0.7, "damping")
    if kind == "contrast":
        # density 1 on [0, 0.4) and 100 beyond
        rho = ds.CoefficientSpec((ds.Piece(0.0, 0.4, (1.0,)),
                                  ds.Piece(0.4, 1.0, (100.0,))), "density")
        return rho, ds.polynomial((0.5, 1.0), "damping")
    return ds.random_coefficients(kind)


@pytest.mark.parametrize("kind", ["constant", 1, 2, "contrast"])
@pytest.mark.parametrize("bc", ["min", "zero0", "zero1", "max", "omega:1,0",
                                "omega:-1,0", "omega:0,1", "omega:0.5,0.3"])
def test_selfadjoint_modes_match_the_eigenvectors(bc, kind):
    """Residuals and means of C, C^2 from the inverse iterates against those
    of the band solver's eigenvectors; on a repeated pair (gap at most
    1e-8 ||T*T||) only the pair's sum of means is defined."""
    rho, alpha = _coefficients(kind)
    for n in (4, 16, 64, 256):
        ops = ds.build_operator_set(n, rho, alpha, ds.parse_bc(bc))
        C = ops.C
        weights = np.stack([C, C**2])
        mu, res, means = spectral.selfadjoint_modes(ops, weights)
        _, res1, none = spectral.selfadjoint_modes(ops)
        mu_d, U = ops.frame_eigh("node", vectors=True)
        dense = weights @ np.abs(U) ** 2
        norm = np.linalg.norm(ops.H1f.toarray(), 2)
        assert none.shape == (0, len(mu))
        assert np.array_equal(mu, ops.H1_eigvals)
        assert np.abs(mu - mu_d).max() <= 1e-12 * norm
        assert res.max() <= 1e-10 * norm and res1.max() <= 1e-10 * norm
        tol = 1e-10 * np.abs(weights).max(axis=1)[:, None]
        close = np.diff(mu) <= 1e-8 * norm
        assert not np.any(close[1:] & close[:-1])      # at most pairs
        paired = np.append(close, False) | np.insert(close, 0, False)
        assert np.all(np.abs(means - dense)[:, ~paired] <= tol)
        first = np.flatnonzero(close)
        pair_sum = means[:, first] + means[:, first + 1]
        assert np.all(np.abs(pair_sum - dense[:, first] - dense[:, first + 1])
                      <= tol)


def test_mode_statistics_form_no_m_by_m_array():
    """The start of the Dirac eigensolve and the constant-damping path peak
    below half of one complex m x m array (the eigenvector matrix)."""
    omega = ds.parse_bc("omega:0,1")
    cases = ((spectral._dirac_start, ds.random_coefficients(3)),
             (ds.constant_damping_dirac, (RHO1, ds.constant(0.7, "damping"))))
    for run, (rho, alpha) in cases:
        ops = ds.build_operator_set(1024, rho, alpha, omega)
        ops.H1f, ops.H1_eigvals, ops.dirac_norm, ops.rank
        m = ops.n_nodes
        tracemalloc.start()
        try:
            run(ops)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < m * m * 16 / 2


def _corrupt_iterates(monkeypatch, rows):
    """Replace the iterates of the chosen shift rows (all when rows is None)
    by ones, for the calls of `_inverse_iterates` that are not retries;
    returns the list of (cut, steps) of every call."""
    real, calls = spectral._inverse_iterates, []

    def fake(ring, shifts, start, cut, steps, tiny):
        calls.append((cut, steps))
        x = real(ring, shifts, start, cut, steps, tiny)
        if len(calls) == 1 or rows is None:
            x[slice(None) if rows is None else rows] = 1.0
        return x
    monkeypatch.setattr(spectral, "_inverse_iterates", fake)
    return calls


@pytest.mark.parametrize("bc", ["min", "omega:0,1"])
def test_mode_above_the_gate_is_retried(monkeypatch, bc):
    ops = ds.build_operator_set(32, RHO1, ds.constant(0.7, "damping"),
                                ds.parse_bc(bc))
    calls = _corrupt_iterates(monkeypatch, [3, 5])
    mu, res, _ = spectral.selfadjoint_modes(ops, (ops.C,))
    assert res.max() <= 1e-10 * mu[-1]
    m = ops.n_nodes
    assert calls[-1] == ((m // 2, 2) if bc.startswith("omega") else (0, 3))


@pytest.mark.parametrize("bc", ["min", "omega:0,1"])
def test_mode_still_above_the_gate_raises(monkeypatch, bc):
    rho, alpha = ds.random_coefficients(3)
    ops = ds.build_operator_set(32, rho, alpha, ds.parse_bc(bc))
    _corrupt_iterates(monkeypatch, None)
    with pytest.raises(RuntimeError, match="mode 0 "):
        ds.eigen_dirac(ops)
    const = ds.build_operator_set(32, RHO1, ds.constant(0.7, "damping"),
                                  ds.parse_bc(bc))
    with pytest.raises(RuntimeError, match="mode 0 "):
        ds.constant_damping_dirac(const)


@pytest.mark.parametrize("bc", ["omega:1,0", "omega:-1,0"])
def test_selfadjoint_modes_on_exact_double_eigenvalues(bc):
    """Constant coefficients on the periodic families: every eigenvalue but
    the lowest of omega = 1 is double, and at these sizes rounding leaves
    the 2 x 2 corner system of some exactly singular."""
    for n in (12, 28, 196, 396):
        ops = ds.build_operator_set(n, RHO1, ds.constant(0.7, "damping"),
                                    ds.parse_bc(bc))
        for weights in ((), (ops.C,)):
            mu, res, _ = spectral.selfadjoint_modes(ops, weights)
            assert res.max() <= 1e-10 * mu[-1]


FAMILIES = ["min", "zero0", "zero1", "max", "omega:1,0", "omega:-1,0",
            "omega:0,1", "omega:0.5,0.3"]


@pytest.mark.parametrize("kind", ["constant", 1, "contrast"])
@pytest.mark.parametrize("bc", FAMILIES)
def test_generator_pencil_matches_dense_oracle(bc, kind):
    """The roots of det(T*T - z^2 - i z C) against a dense eigensolve of the
    assembled G: the multiset, and the zero modes counted alike (ker T gives
    the root 0 on max and omega:1,0)."""
    rho, alpha = _coefficients(kind)
    for n in (4, 16, 64, 256):
        ops = ds.build_operator_set(n, rho, alpha, ds.parse_bc(bc))
        gen, dense = ds.eigen_generator(ops), _dense_generator(ops)
        assert len(gen) == 2 * ops.n_nodes
        assert (ds.multiset_distance(gen.eigenvalues, dense.eigenvalues)
                <= 1e-12 * ops.generator_norm), n
        assert gen.zero_modes == dense.zero_modes, n
        if bc in ("max", "omega:1,0"):
            assert gen.zero_modes == ops.n_nodes - ops.rank == 1


@pytest.mark.parametrize("bc", FAMILIES)
def test_generator_vectors_carry_the_reported_residuals(bc):
    """``keep_vectors`` gives unit columns (u, -i lambda u) of the frame whose
    residuals under the dense frame of G are those reported."""
    rho, alpha = ds.random_coefficients(1)
    ops = ds.build_operator_set(16, rho, alpha, ds.parse_bc(bc))
    gen = ds.eigen_generator(ops, keep_vectors=True)
    V, lam, m = gen.vectors, gen.eigenvalues, ops.n_nodes
    assert np.allclose(np.linalg.norm(V, axis=0), 1.0, rtol=0, atol=1e-14)
    assert np.abs(V[m:] + 1j * lam * V[:m]).max() <= 1e-14 * np.abs(lam).max()
    Gf = frame(ops, ops.G, "generator")
    res = np.linalg.norm(1j * Gf @ V - V * lam, axis=0)
    assert np.abs(res - gen.residuals).max() <= 1e-12 * ops.generator_norm


def test_generator_critical_double_root():
    """At a = 2 sqrt(mu_1) the lowest pair of the pencil is a Jordan block:
    the generator spectrum stays within the 1e-8 ||Mf|| gate of the
    constant-damping roots, as the Dirac spectrum does."""
    undamped = ds.build_operator_set(64, RHO1, ds.constant(0.0, "damping"),
                                     MIN)
    a = 2 * np.sqrt(undamped.H1_eigvals[0])
    ops = ds.build_operator_set(64, RHO1, ds.constant(a, "damping"), MIN)
    gen = ds.eigen_generator(ops)
    scale = np.linalg.norm(ops.dirac_frame(), 2)
    exact = ds.constant_damping_dirac(ops)
    assert (ds.multiset_distance(gen.nonzero(), exact.nonzero())
            <= 1e-8 * scale)
    pair = gen.eigenvalues[np.argsort(np.abs(gen.eigenvalues + 0.5j * a))[:2]]
    assert np.abs(pair + 0.5j * a).max() <= 1e-8 * scale


def test_generator_forms_no_m_by_m_array():
    """Without ``keep_vectors`` the pencil path peaks below one complex
    m x m array, an eighth of the dense eigensolve's 2m x 2m vectors."""
    rho, alpha = ds.random_coefficients(3)
    ops = ds.build_operator_set(1024, rho, alpha, MIN)
    m = ops.n_nodes
    tracemalloc.start()
    try:
        gen = ds.eigen_generator(ops)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(gen) == 2 * m
    assert peak < m * m * 16


# -- the bottleneck multiset distance ---------------------------------------

def _brute_bottleneck(a, b) -> float:
    """Least largest gap over every permutation pairing a with b (k <= 7)."""
    a, b = np.asarray(a), np.asarray(b)
    if len(a) != len(b):
        return float("inf")
    if len(a) == 0:
        return 0.0
    gaps = np.abs(a[:, None] - b[None, :])
    perms = np.array(list(itertools.permutations(range(len(a)))))
    return float(gaps[np.arange(len(a)), perms].max(axis=1).min())


def _hungarian(a, b) -> float:
    """Largest gap of the min-sum assignment (the distance's old definition)."""
    gaps = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(gaps)
    return float(gaps[rows, cols].max())


def _draw(rng, kind: str, k: int):
    if kind == "complex":
        return rng.normal(size=k) + 1j * rng.normal(size=k)
    if kind == "ties":       # a small integer lattice: equal gaps everywhere
        return rng.integers(-2, 3, k) + 1j * rng.integers(-2, 3, k)
    if kind == "duplicates":
        return rng.choice([0.5, 1j, -1 + 1j], size=k)
    if kind == "rounded":
        return np.round(rng.normal(size=k) + 1j * rng.normal(size=k), 1)
    return rng.normal(size=k)   # real, as check_isospectral passes them


@pytest.mark.parametrize("kind", ["complex", "ties", "duplicates", "rounded",
                                  "real"])
def test_multiset_distance_matches_brute_force(kind):
    rng = np.random.default_rng(17)
    for _ in range(100):
        k = int(rng.integers(1, 8))
        a, b = _draw(rng, kind, k), _draw(rng, kind, k)
        if kind == "duplicates":   # the same multiset, shuffled and nudged
            b = rng.permutation(a) + 1e-3 * rng.integers(0, 2, k)
        assert ds.multiset_distance(a, b) == _brute_bottleneck(a, b)


def test_multiset_distance_empty_and_unequal_sizes():
    assert ds.multiset_distance([], []) == 0.0
    assert ds.multiset_distance([1.0], [1.0, 2.0]) == np.inf
    assert ds.multiset_distance(np.array([], complex), [1j]) == np.inf


def test_multiset_distance_window_survives_rounding():
    """|1 + 2^-60| rounds to 1 = r, and 1 - r = 0 lies above -2^-60: the
    window of real parts must still hold the sorted partner."""
    assert ds.multiset_distance([1.0], [-2.0**-60]) == 1.0
    assert ds.multiset_distance([1.0, 2.0], [-2.0**-60, 1.0]) == 1.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.inf)])
@pytest.mark.parametrize("side", ["a", "b"])
def test_multiset_distance_rejects_non_finite(bad, side):
    good = np.array([0.5, 1.0 + 1j, 2.0])
    broken = good.copy()
    broken[1] = bad
    args = (broken, good) if side == "a" else (good, broken)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"{side}\[1\] = .* not finite"):
            ds.multiset_distance(*args)


@pytest.mark.parametrize("n", [16, 64, 256, 1024])
@pytest.mark.parametrize("bc", ["min", "zero0", "max", "omega:0,1",
                                "omega:1,0"])
def test_multiset_distance_equals_the_assignment_on_spectra(bc, n):
    """Far below the eigenvalue spacing the bottleneck and the largest gap
    of the min-sum assignment are the same gap, to the last bit."""
    rho, alpha = ds.random_coefficients(3)
    ops = ds.build_operator_set(n, rho, alpha, ds.parse_bc(bc))
    spec, gen = ds.eigen_dirac(ops), ds.eigen_generator(ops)
    a, b = spec.nonzero(), gen.nonzero()
    assert ds.multiset_distance(a, b) == _hungarian(a, b)
    mirror = -np.conj(spec.eigenvalues)
    assert (ds.check_symmetry(spec)["distance"]
            == _hungarian(spec.eigenvalues, mirror))


def test_multiset_distance_bisects_when_sorted_pairing_is_not_optimal(
        monkeypatch):
    """Sorted pairing: largest gap sqrt 5; nearest partners: sqrt 2; the
    bottleneck, 2, needs the matching test."""
    a = np.array([1 + 3j, 1, 2 + 3j])
    b = np.array([2 + 2j, 1 + 1j, 2 + 1j])
    real, calls = spectral.maximum_bipartite_matching, []

    def counted(graph, perm_type):
        calls.append(graph.nnz)
        return real(graph, perm_type=perm_type)
    monkeypatch.setattr(spectral, "maximum_bipartite_matching", counted)
    assert ds.multiset_distance(a, b) == _brute_bottleneck(a, b) == 2.0
    assert calls


def test_multiset_distance_forms_no_n_by_n_array():
    """4096 points shaped like a Dirac spectrum against a shuffled, perturbed
    copy: the assignment's cost matrix alone would take 128 MB."""
    k = np.arange(1, 2049)
    plus = np.pi * k - 0.4j * (1 + np.sin(k))
    lam = np.concatenate([plus, -np.conj(plus)])
    rng = np.random.default_rng(5)
    other = rng.permutation(lam) + 1e-12 * rng.normal(size=4096)
    tracemalloc.start()
    try:
        d = ds.multiset_distance(lam, other)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0 < d < 1e-11
    assert peak < 8 * 2**20


def test_multiset_distance_stays_linear_on_overdamped_spectra():
    """rho = 1, alpha = 2000 on min at n = 1024: 664 of the 2047
    eigenvalues lie on the imaginary axis, where a window on the real parts
    makes every pair a candidate (a 20 MB peak).  Against the mirror image,
    exact, scaled and shifted, the distance equals the assignment's to the
    last bit, and the near pairs found on the cells of the plane stay
    few."""
    ops = ds.build_operator_set(1024, RHO1, ds.constant(2000.0, "damping"),
                                ds.BoundaryCondition.minimal())
    spec = ds.constant_damping_dirac(ops)
    assert np.sum(spec.branches() == "overdamped") == 664
    lam = spec.eigenvalues
    mirror = -np.conj(lam)
    for other in (mirror, mirror * (1 + 1e-12), mirror[::-1] + 1e-9):
        tracemalloc.start()
        try:
            d = ds.multiset_distance(lam, other)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert d == _hungarian(lam, other)
        assert peak < 2 * 2**20


def test_multiset_distance_pairs_axis_points_with_noisy_real_parts(
        monkeypatch):
    """850 points on the imaginary axis whose real parts are rounding noise
    of either sign, against a copy 1e-12 off with the signs flipped.  Sorted
    by real part first, the two lists pair the axis in two scrambled halves,
    r spans the whole axis and every pair becomes a candidate (723,350 on
    the same inputs before the snapped pairing); the candidates now stay a
    few per point, and the value is the assignment's."""
    rng = np.random.default_rng(1)
    n = 850
    y = -np.linspace(1, 1000, n)
    a = 1e-16 * rng.choice([-1, 1], n) + 1j * y
    b = -1e-16 * np.sign(a.real) + 1j * (y + 1e-12 * rng.normal(size=n))
    real, counts = spectral._near_pairs, []

    def counted(a, b, r):
        rows, cols = real(a, b, r)
        counts.append(len(rows))
        return rows, cols
    monkeypatch.setattr(spectral, "_near_pairs", counted)
    d = ds.multiset_distance(a, b)
    assert d == _hungarian(a, b)
    assert 0 < d < 1e-11
    assert counts and max(counts) <= 4 * n


_POINTS = st.one_of(
    st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                       allow_infinity=False),
    st.builds(complex, st.integers(-2, 2), st.integers(-2, 2)))


@st.composite
def _multiset_pairs(draw):
    k = draw(st.integers(0, 6))
    same_size = st.lists(_POINTS, min_size=k, max_size=k)
    return (np.array(draw(same_size), complex),
            np.array(draw(same_size), complex))


@given(pair=_multiset_pairs(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=2000, derandomize=True)
def test_multiset_distance_properties(pair, seed):
    a, b = pair
    d = ds.multiset_distance(a, b)
    assert ds.multiset_distance(b, a) == d
    rng = np.random.default_rng(seed)
    assert ds.multiset_distance(rng.permutation(a), rng.permutation(b)) == d
    if len(a):
        gaps = np.abs(a[:, None] - b[None, :])
        nearest = max(gaps.min(axis=0).max(), gaps.min(axis=1).max())
        sorted_pairing = np.abs(np.sort_complex(a) - np.sort_complex(b)).max()
        assert nearest <= d <= sorted_pairing
    assert d == _brute_bottleneck(a, b)
