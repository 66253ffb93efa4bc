import numpy as np
import pytest

import dampedstring as ds
from dampedstring import cli, susy
from dampedstring.discretization import shifted, solve_band

from conftest import frame

MIN = ds.BoundaryCondition.minimal()


@pytest.fixture(scope="module")
def ops():
    rho, alpha = ds.random_coefficients(13)
    return ds.build_operator_set(16, rho, alpha, MIN)


def test_polar_reconstruction(ops):
    V, absT, _ = ops.polar
    Tf = np.sqrt(ops.wv)[:, None] * ops.T / np.sqrt(ops.wu)[None, :]
    assert np.linalg.norm(Tf - V @ absT) < 1e-12 * np.linalg.norm(Tf)
    # V is an isometry here (trivial kernel)
    assert ops.rank == ops.n_nodes
    VhV = V.conj().T @ V
    assert np.linalg.norm(VhV - np.eye(ops.n_nodes)) < 1e-12


def test_polar_partial_isometry_with_kernel():
    rho, alpha = ds.random_coefficients(13)
    opsk = ds.build_operator_set(16, rho, alpha, ds.BoundaryCondition.quasi(1.0))
    V, absT, _ = opsk.polar
    assert opsk.rank == opsk.n_nodes - 1
    # V annihilates the kernel direction of |T|
    mu, U = np.linalg.eigh(absT)
    assert np.linalg.norm(V @ U[:, 0]) < 1e-9


def test_isospectrality_and_kernel_counts(ops):
    out = susy.check_isospectral(ops)
    assert out["relative_distance"] < 1e-12
    assert (out["ker_T"], out["ker_Tstar"]) == (0, 1)


def test_block_diagonalization(ops):
    out = susy.block_diagonalize(ops)
    assert out["off_block_norm"] < 1e-9
    assert out["diagonal_defect"] < 1e-9
    assert out["unitarity_defect"] < 1e-10


def _dense_susy_defects(ops):
    """The oracle of `block_diagonalize` and of the band path of
    `check_intertwining`: the (m+n)^2 conjugation U Df U^H of the frame
    Dirac matrix by U = 2^{-1/2} [[I, V^H], [-V, I]], its Gram matrix
    U^H U, and V f(T*T) - f(TT*) V for f = x, x^2 from eigenvectors."""
    V, absT, absTstar = ops.polar
    m, n = ops.n_nodes, ops.n_cells
    U = np.sqrt(0.5) * np.block([[np.eye(m), V.conj().T], [-V, np.eye(n)]])
    A = U @ frame(ops, ops.D) @ U.conj().T
    P = np.block([[V.conj().T @ V, np.zeros((m, n))],
                  [np.zeros((n, m)), V @ V.conj().T]])
    out = {
        "off_block_norm": max(np.linalg.norm(A[:m, m:]),
                              np.linalg.norm(A[m:, :m])),
        "diagonal_defect": max(np.linalg.norm(A[:m, :m] - absT),
                               np.linalg.norm(A[m:, m:] + absTstar)),
        "unitarity_defect": np.linalg.norm(
            P @ (U.conj().T @ U - np.eye(m + n)) @ P),
    }
    mu1, U1 = np.linalg.eigh(frame(ops, ops.sparse("H1").toarray(), "node"))
    mu2, U2 = np.linalg.eigh(frame(ops, ops.sparse("H2").toarray(), "cell"))
    scale = max(np.abs(mu1).max(), 1.0)
    for name, p in (("x", 1), ("x2", 2)):
        F1 = (U1 * mu1 ** p) @ U1.conj().T
        F2 = (U2 * mu2 ** p) @ U2.conj().T
        out[name] = np.linalg.norm(V @ F1 - F2 @ V) / scale ** p
    return out


@pytest.mark.parametrize("bc", [MIN, ds.BoundaryCondition.maximal(),
                                ds.BoundaryCondition.quasi(1.0),
                                ds.BoundaryCondition.quasi(1j)],
                         ids=str)
def test_block_identities_match_dense_conjugation(bc):
    rho, alpha = ds.random_coefficients(13)
    opsb = ds.build_operator_set(16, rho, alpha, bc)
    dense = _dense_susy_defects(opsb)
    got = {**susy.block_diagonalize(opsb), **susy.check_intertwining(opsb)}
    for key, want in dense.items():
        assert abs(got[key] - want) < 1e-13, (key, got[key], want)
    if bc.tag == "max":      # V is a partial isometry: ker T is nontrivial
        assert opsb.rank < opsb.n_nodes


def test_susy_check_forms_the_polar_factors_once(tmp_path, monkeypatch):
    prop = vars(ds.DiscreteOperatorSet)["polar"]
    form, calls = prop.func, []

    def counted(ops):
        calls.append(ops)
        return form(ops)

    monkeypatch.setattr(prop, "func", counted)
    assert cli.main(["susy-check", "--n", "32", "--out", str(tmp_path)]) == 0
    assert len(calls) == 1


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
    mu = np.linalg.eigvalsh(frame(ops, ops.sparse("H1").toarray(), "node"))
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


def _full_pencil_blocks(zeta, ops):
    """The blocks of (D - zeta)^{-1} with the damped right-hand sides of
    the pencil solved as well, all zero at C = 0: the route of the damped
    resolvent."""
    m, C = ops.n_nodes, np.zeros(ops.n_nodes)
    z2 = zeta * zeta
    K2 = solve_band(shifted(ops.sparse("H2"), z2))
    TsK2 = ops.sparse("Tstar") @ K2
    X = solve_band(shifted(ops.sparse("H1"), z2 + 1j * zeta * C),
                   np.hstack([np.eye(m), 1j * (C[:, None] * TsK2)]))
    QI, QC = X[:, :m], X[:, m:]
    T = ops.sparse("T")
    return ((zeta * QI, zeta * QC + TsK2), (T @ QI, T @ QC + zeta * K2))


@pytest.mark.parametrize("bc", ["min", "max", "omega:0,1", "omega:1,0",
                                "omega:0.5,0.3"])
def test_dirac_resolvent_solves_only_identity_columns(bc, monkeypatch):
    """Without damping the pencil is solved for the m identity columns
    alone, and for a complex zeta the blocks are those of the full pencil,
    bit for bit."""
    rho, alpha = ds.random_coefficients(13)
    ops = ds.build_operator_set(32, rho, alpha, ds.parse_bc(bc))
    m = ops.n_nodes
    shapes = []
    solve = susy.solve_band

    def spy(A, b=None):
        shapes.append(None if b is None else b.shape)
        return solve(A, b)

    monkeypatch.setattr(susy, "solve_band", spy)
    z = 0.3 + 0.1j
    got = susy.resolvent_dirac(z, ops).blocks
    assert shapes == [None, (m, m)]        # K2, then the pencil
    for row, full_row in zip(got, _full_pencil_blocks(z, ops)):
        for block, full in zip(row, full_row):
            assert np.array_equal(block, full)
    # a real zeta on a real T*T is solved in real arithmetic
    assert (np.iscomplexobj(susy.resolvent_dirac(0.3, ops).blocks[0][0])
            == np.iscomplexobj(ops.sparse("H1").data))


def test_trace_ideal_decay():
    ops = ds.build_operator_set(128, ds.constant(1.0, "density"),
                                ds.constant(0.3, "damping"), MIN)
    out = susy.trace_ideal_decay(ops)
    assert out["exponent"] <= -1.8
