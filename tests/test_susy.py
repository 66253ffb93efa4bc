import numpy as np
import pytest

import dampedstring as ds
from dampedstring import susy

MIN = ds.BoundaryCondition.minimal()


@pytest.fixture(scope="module")
def ops():
    rho, alpha = ds.random_coefficients(13)
    return ds.build_operator_set(16, rho, alpha, MIN)


def test_polar_reconstruction(ops):
    parts = susy.polar_decompose(ops)
    Tf = np.sqrt(ops.wv)[:, None] * ops.T / np.sqrt(ops.wu)[None, :]
    assert np.linalg.norm(Tf - parts.V @ parts.absT) < 1e-12 * np.linalg.norm(Tf)
    # V is an isometry here (trivial kernel)
    assert parts.rank == ops.n_nodes
    VhV = parts.V.conj().T @ parts.V
    assert np.linalg.norm(VhV - np.eye(ops.n_nodes)) < 1e-12


def test_polar_partial_isometry_with_kernel():
    rho, alpha = ds.random_coefficients(13)
    opsk = ds.build_operator_set(16, rho, alpha, ds.BoundaryCondition.quasi(1.0))
    parts = susy.polar_decompose(opsk)
    assert parts.rank == opsk.n_nodes - 1
    # V annihilates the kernel direction of |T|
    mu, U = np.linalg.eigh(parts.absT)
    assert np.linalg.norm(parts.V @ U[:, 0]) < 1e-9


def test_isospectrality_and_kernel_counts(ops):
    out = susy.check_isospectral(ops)
    assert out["relative_distance"] < 1e-12
    assert (out["ker_T"], out["ker_Tstar"]) == (0, 1)


def test_partner_eigenvectors(ops):
    H1f = ops.frame(ops.H1, "node")
    mu, U = np.linalg.eigh(0.5 * (H1f + H1f.conj().T))
    f = U[:, 3] / np.sqrt(ops.wu)
    g, res = susy.susy_partner_eigvec(f, mu[3], ops)
    assert res < 1e-10
    # norm relation ||Tf||^2 = mu ||f||^2
    assert (ops.weighted_norm(g, "cell") ** 2
            == pytest.approx(mu[3] * ops.weighted_norm(f, "node") ** 2,
                             rel=1e-10))


def test_dirac_eigenvector_from_h1_pair(ops):
    H1f = ops.frame(ops.H1, "node")
    mu, U = np.linalg.eigh(0.5 * (H1f + H1f.conj().T))
    f = U[:, 2] / np.sqrt(ops.wu)
    lam = np.sqrt(mu[2])
    psi, res = susy.dirac_from_h1(f, lam, ops)
    assert res < 1e-10
    # the sign-flipped companion is the (-lambda)-eigenvector
    psi_minus = psi.copy()
    psi_minus[ops.n_nodes:] *= -1
    r = ops.D @ psi_minus + lam * psi_minus
    assert ops.weighted_norm(r) / ops.weighted_norm(psi_minus) < 1e-10


def test_block_diagonalization(ops):
    out = susy.block_diagonalize(ops)
    assert out["off_block_norm"] < 1e-9
    assert out["diagonal_defect"] < 1e-9
    assert out["unitarity_defect"] < 1e-10


def test_intertwining_functions(ops):
    out = susy.check_intertwining(ops)
    assert max(out.values()) < 1e-10


def test_first_resolvent_identity(ops):
    assert susy.first_resolvent_identity(-0.7, ops) < 1e-10


def test_first_resolvent_identity_refuses_spectrum():
    rho, alpha = ds.random_coefficients(3)
    ops3 = ds.build_operator_set(32, rho, alpha, MIN)
    with pytest.raises(np.linalg.LinAlgError):
        susy.first_resolvent_identity(ops3.H1_eigvals[0], ops3)


def test_dirac_resolvent_blocks(ops):
    z = 0.3 + 0.1j
    dim = ops.n_nodes + ops.n_cells
    direct = np.linalg.solve(ops.D - z * np.eye(dim), np.eye(dim))
    blocks = susy.resolvent_dirac(z, ops).assemble()
    assert (np.linalg.norm(blocks - direct) / np.linalg.norm(direct)) < 1e-11


def test_dirac_resolvent_large_imaginary_limit(ops):
    z = 1e3j
    R = susy.resolvent_dirac(z, ops).assemble()
    dim = ops.n_nodes + ops.n_cells
    op_norm = np.linalg.norm(ops.D, 2)
    # R = -1/z - D/z^2 + O(|z|^-3), so the leading correction is bounded
    # by the operator norm over |z|^2
    assert np.linalg.norm(R + np.eye(dim) / z, 2) < 2.0 * op_norm / abs(z) ** 2


def test_dirac_resolvent_rejects_spectrum(ops):
    mu = np.linalg.eigvalsh(ops.frame(ops.H1, "node"))
    with pytest.raises(ValueError):
        susy.resolvent_dirac(np.sqrt(mu[0]), ops)


def test_perturbed_resolvent_blocks(ops):
    z = 0.2
    dim = ops.n_nodes + ops.n_cells
    direct = np.linalg.solve(ops.D + ops.B - z * np.eye(dim), np.eye(dim))
    blocks = susy.resolvent_perturbed(z, ops).assemble()
    assert (np.linalg.norm(blocks - direct) / np.linalg.norm(direct)) < 1e-11


def test_perturbed_reduces_to_dirac_when_undamped():
    rho, _ = ds.random_coefficients(13)
    ops0 = ds.build_operator_set(16, rho, ds.constant(0.0, "damping"), MIN)
    z = 0.4 + 0.2j
    a = susy.resolvent_perturbed(z, ops0).assemble()
    b = susy.resolvent_dirac(z, ops0).assemble()
    assert np.linalg.norm(a - b) < 1e-12 * np.linalg.norm(b)


def test_trace_ideal_decay():
    ops = ds.build_operator_set(128, ds.constant(1.0, "density"),
                                ds.constant(0.3, "damping"), MIN)
    out = susy.trace_ideal_decay(ops)
    assert out["exponent"] <= -1.8
