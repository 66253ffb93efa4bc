import numpy as np
import pytest

import dampedstring as ds
from dampedstring import spectral

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


def test_pencil_residual_on_generator_pairs(damped_ops):
    gen = ds.eigen_generator(damped_ops, keep_vectors=True)
    m = damped_ops.n_nodes
    su = np.sqrt(damped_ops.wu)
    checked = 0
    for k in range(0, len(gen), 9):
        lam = gen.eigenvalues[k]
        if abs(lam) < gen.tol_zero:
            continue
        u = gen.vectors[:m, k] / su
        assert ds.pencil_residual(lam, u, damped_ops) < 1e-7
        checked += 1
    assert checked >= 3


def test_pencil_residual_negative_control(damped_ops):
    rng = np.random.default_rng(2)
    u = rng.standard_normal(damped_ops.n_nodes)
    assert ds.pencil_residual(1.0 + 1.0j, u, damped_ops) > 0.1


def test_eigen_pair_round_trip(damped_ops):
    gen = ds.eigen_generator(damped_ops, keep_vectors=True)
    m = damped_ops.n_nodes
    su = np.sqrt(damped_ops.wu)
    k = len(gen) // 2
    lam = gen.eigenvalues[k]
    v = gen.vectors[:, k] / np.concatenate([su, su])
    pair = spectral.EigenPair(lam, v, "node+node", 0.0)
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
                              "node+cell", 0.0)
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
    mu, U = spectral.eigen_selfadjoint(ops)
    assert np.all(np.diff(mu) >= 0)
    assert np.abs(U.conj().T @ U - np.eye(len(mu))).max() < 1e-12
    H1f = ops.frame(ops.Tstar @ ops.T, "node")
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
