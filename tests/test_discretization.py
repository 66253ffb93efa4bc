import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

import dampedstring as ds
from dampedstring.discretization import (KernelAmbiguityError, _band_eigh,
                                         band_layout, band_lu, build_grid,
                                         build_operator_set, shifted,
                                         solve_band)

from conftest import frame

RHO1 = ds.constant(1.0, "density")
ALPHA1 = ds.constant(1.0, "damping")


@pytest.fixture(scope="module")
def random_coeffs():
    return ds.random_coefficients(42)


def test_boundary_condition_parsing_and_str():
    assert str(ds.BoundaryCondition.minimal()) == "min"
    assert str(ds.BoundaryCondition.quasi(0.5 + 0.25j)) == "omega:0.5,0.25"
    with pytest.raises(ValueError):
        ds.BoundaryCondition.quasi(0.0)


def test_grid_shapes_per_family():
    n = 16
    expected_nodes = {"min": n - 1, "zero0": n, "zero1": n, "max": n + 1}
    for tag, m in expected_nodes.items():
        grid = build_grid(n, RHO1, ds.parse_bc(tag))
        assert len(grid.nodes) == m
        assert len(grid.mids) == n
    grid = build_grid(n, RHO1, ds.BoundaryCondition.quasi(2.0))
    assert len(grid.nodes) == n


def test_adjoint_is_weighted_adjoint(random_coeffs):
    """<Tu, v>_Wv must equal <u, T*v>_Wu for all u, v (defining property)."""
    rho, alpha = random_coeffs
    for bc in map(ds.parse_bc, ("min", "zero0", "zero1", "max",
                                "omega:0.3,0.7")):
        ops = ds.build_operator_set(12, rho, alpha, bc)
        rng = np.random.default_rng(0)
        u = rng.standard_normal(ops.n_nodes) + 1j * rng.standard_normal(ops.n_nodes)
        v = rng.standard_normal(ops.n_cells) + 1j * rng.standard_normal(ops.n_cells)
        lhs = np.vdot(ops.T @ u, ops.wv * v)
        rhs = np.vdot(u, ops.wu * (ops.Tstar @ v))
        assert lhs == pytest.approx(rhs, rel=1e-13)


def test_dirac_frame_is_hermitian(random_coeffs):
    rho, alpha = random_coeffs
    ops = ds.build_operator_set(20, rho, alpha, ds.BoundaryCondition.zero0())
    Df = frame(ops, ops.D)
    assert np.linalg.norm(Df - Df.conj().T) < 1e-12 * np.linalg.norm(Df)


@pytest.mark.parametrize("tag", ["min", "zero0", "zero1", "max", "omega:1,0",
                                 "omega:0,1", "omega:0.5,0.3"])
def test_dirac_frame_from_the_band(random_coeffs, tag):
    """The dense Dirac frame is the band rearranged into block order: its
    undamped part is exactly Hermitian, its diagonal -iC on the nodes, and
    it equals the similarity transform of the assembled D + B to rounding."""
    rho, alpha = random_coeffs
    for n in (4, 16, 64):
        ops = ds.build_operator_set(n, rho, alpha, ds.parse_bc(tag))
        Mf = ops.dirac_frame()
        m = ops.n_nodes
        np.testing.assert_array_equal(np.diag(Mf)[:m], -1j * ops.C)
        undamped = Mf - np.diag(np.diag(Mf))
        np.testing.assert_array_equal(undamped, undamped.conj().T)
        ref = frame(ops, ops.D + ops.B)
        assert np.linalg.norm(Mf - ref) <= 4e-16 * np.linalg.norm(ref), n


@pytest.mark.parametrize("tag", ["min", "zero0", "zero1", "max",
                                 "omega:0.5,0.3"])
def test_dirac_frame_is_the_band_bit_for_bit(random_coeffs, tag):
    """The dense frame written from the frame entries is bit-identical to
    the band rearranged into block order and densified, signed zeros
    included (zero damping gives -1j * 0.0 on the diagonal)."""
    for rho, alpha in (random_coeffs, (RHO1, ds.constant(0.0, "damping"))):
        for n in (4, 17, 64):
            ops = ds.build_operator_set(n, rho, alpha, ds.parse_bc(tag))
            at = ops.interleave
            ref = ops.dirac_band()[at][:, at].toarray()
            got = ops.dirac_frame()
            assert got.shape == ref.shape and got.dtype == ref.dtype
            np.testing.assert_array_equal(got.view(np.uint64),
                                          ref.view(np.uint64))


def test_generator_and_dirac_nonzero_spectra_agree(random_coeffs):
    rho, alpha = random_coeffs
    ops = ds.build_operator_set(24, rho, alpha, ds.BoundaryCondition.zero1())
    d = ds.eigen_dirac(ops)
    g = ds.eigen_generator(ops)
    scale = np.linalg.norm(ops.dirac_frame(), 2)
    assert ds.multiset_distance(d.nonzero(), g.nonzero()) < 1e-10 * scale


def test_minimal_undamped_eigenvalues_near_continuum():
    ops = ds.build_operator_set(256, RHO1, ds.constant(0.0, "damping"),
                                ds.BoundaryCondition.minimal())
    spec = ds.eigen_dirac(ops)
    lam = np.sort(spec.nonzero()[spec.nonzero().real > 0].real)
    target = np.pi * np.arange(1, 6)
    assert lam[:5] == pytest.approx(target, rel=1e-3)
    assert spec.zero_modes == 1


def test_kernel_census_reference_values(random_coeffs):
    rho, alpha = random_coeffs
    table = {
        "min": (0, 1, 1), "zero0": (0, 0, 0), "zero1": (0, 0, 0),
        "max": (1, 0, 1),
    }
    for tag, dims in table.items():
        ops = ds.build_operator_set(16, rho, alpha, ds.parse_bc(tag))
        assert ds.kernel_dimensions(ops) == dims
    ops = ds.build_operator_set(16, rho, alpha, ds.BoundaryCondition.quasi(1.0))
    assert ds.kernel_dimensions(ops) == (1, 1, 2)
    # constant density: the constant node vector that spans ker T must not
    # zero the threshold
    ops = ds.build_operator_set(16, RHO1, ALPHA1, ds.BoundaryCondition.quasi(1.0))
    assert ds.kernel_dimensions(ops) == (1, 1, 2)
    # the square roots of the spectrum of T*T would put the zero singular
    # value here near sqrt(eps) ||T||, above tol_zero, and report ker T = 0
    ops = ds.build_operator_set(64, rho, alpha, ds.BoundaryCondition.quasi(1.0))
    assert ds.kernel_dimensions(ops) == (1, 1, 2)


FAMILIES = ["min", "zero0", "zero1", "max", "omega:1,0", "omega:0,1",
            "omega:0.5,0.3"]


@pytest.mark.parametrize("n", [4, 16, 64])
@pytest.mark.parametrize("tag", FAMILIES)
def test_band_singular_values_match_dense_svd(random_coeffs, tag, n):
    """The number of singular values below t, counted by inertia on the
    Golub-Kahan band, equals the dense SVD's at the zero thresholds and
    halfway (geometrically) across every gap of the dense singular values
    wider than 1e-8 s_0."""
    rho, alpha = random_coeffs
    ops = ds.build_operator_set(n, rho, alpha, ds.parse_bc(tag))
    s = np.linalg.svd(ops.Tf, compute_uv=False)
    gap = s[:-1] - s[1:] > 1e-8 * s[0]
    floor = np.finfo(float).eps * s[0]       # an exact zero has no midpoint
    mids = np.sqrt(s[:-1] * np.maximum(s[1:], floor))[gap]
    tol = ops.tol_zero
    assert len(mids) >= len(s) // 2
    for t in (*mids, tol / 10, tol, 10 * tol):
        assert ops.count_below(t) == np.sum(s < t)


RANK_FAMILIES = ["min", "zero0", "zero1", "max", "omega:1,0", "omega:-1,0",
                 "omega:0,1", "omega:0.5,0.3", "omega:1.0000001,0"]


@pytest.mark.parametrize("n", [4, 16, 64, 256])
@pytest.mark.parametrize("tag", RANK_FAMILIES)
def test_rank_matches_dense_svd(tag, n):
    """rank and its KernelAmbiguityError match the count of dense singular
    values at or above tol_zero, with the ambiguity window (tol/10, 10 tol),
    on four coefficient sets; omega = 1 + 1e-7 puts a singular value in the
    window once n is large enough."""
    sets = [(RHO1, ALPHA1), ds.random_coefficients(1),
            ds.random_coefficients(2), ds.random_coefficients(42)]
    raised = []
    for rho, alpha in sets:
        ops = ds.build_operator_set(n, rho, alpha, ds.parse_bc(tag))
        s = np.linalg.svd(ops.Tf, compute_uv=False)
        tol = ops.tol_zero
        if np.any((s > tol / 10) & (s < 10 * tol)):
            raised.append(True)
            with pytest.raises(KernelAmbiguityError):
                ops.rank
        else:
            raised.append(False)
            assert ops.rank == np.sum(s >= tol)
    if tag == "omega:1.0000001,0" and n >= 64:
        assert all(raised)
    elif tag != "omega:1.0000001,0":
        assert not any(raised)


def test_zero_threshold_and_rank_solve_no_golub_kahan_band(monkeypatch,
                                                          random_coeffs):
    """tol_zero, rank and kernel_dimensions solve no band of size m + n:
    the threshold comes from the spectrum of T*T (size m) and the rank
    from inertia counts."""
    eig_banded = scipy.linalg.eig_banded
    sizes = []

    def wrapped(ab, *args, **kwargs):
        sizes.append(ab.shape[1])
        return eig_banded(ab, *args, **kwargs)
    monkeypatch.setattr(scipy.linalg, "eig_banded", wrapped)
    rho, alpha = random_coeffs
    for tag in FAMILIES:
        ops = ds.build_operator_set(16, rho, alpha, ds.parse_bc(tag))
        ops.tol_zero
        ops.rank
        ds.kernel_dimensions(ops)
        assert sizes and ops.n_nodes + ops.n_cells not in sizes
        sizes.clear()


@pytest.mark.parametrize("tag", FAMILIES)
def test_dense_products_filled_from_bands(random_coeffs, tag):
    rho, alpha = random_coeffs
    ops = ds.build_operator_set(16, rho, alpha, ds.parse_bc(tag))
    for name, ref in (("H1", ops.Tstar @ ops.T), ("H2", ops.T @ ops.Tstar)):
        H = ops.sparse(name).toarray()
        assert np.linalg.norm(H - ref) <= 1e-14 * np.linalg.norm(ref)


@pytest.mark.parametrize("tag", FAMILIES)
def test_dense_operators_written_from_entries(random_coeffs, tag):
    """D, B and G written from the nonzeros equal their block definitions
    entry for entry."""
    rho, alpha = random_coeffs
    ops = ds.build_operator_set(12, rho, alpha, ds.parse_bc(tag))
    m, n = ops.n_nodes, ops.n_cells
    zm, zn = np.zeros((m, m)), np.zeros((n, n))
    np.testing.assert_array_equal(ops.D, np.block([[zm, ops.Tstar],
                                                   [ops.T, zn]]))
    np.testing.assert_array_equal(
        ops.B, np.block([[np.diag(-1j * ops.C), np.zeros((m, n))],
                         [np.zeros((n, m)), zn]]))
    H1 = ops.sparse("H1").toarray()
    np.testing.assert_array_equal(
        ops.G, np.block([[zm, np.eye(m)], [-H1, -np.diag(ops.C)]]))
    assert all(M.dtype == complex for M in (ops.D, ops.B, ops.G))


@pytest.mark.parametrize("undamped", [False, True])
@pytest.mark.parametrize("tag", FAMILIES)
def test_generator_frame_matches_block_assembly(random_coeffs, tag, undamped):
    """The CSR arrays built from COO triplets are those of the block
    assembly [[0, I], [-H1f, diag(-C)]], which stores no zero of C."""
    rho, alpha = random_coeffs
    if undamped:
        alpha = ds.constant(0.0, "damping")
    ops = ds.build_operator_set(16, rho, alpha, ds.parse_bc(tag))
    ref = scipy.sparse.block_array(
        [[None, scipy.sparse.eye_array(ops.n_nodes)],
         [-ops.H1f, scipy.sparse.diags_array(-ops.C)]]).tocsr()
    G = ops.generator_frame
    assert (G.shape, G.dtype) == (ref.shape, ref.dtype)
    for part in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(G, part), getattr(ref, part))


@pytest.mark.parametrize("tag", FAMILIES)
def test_K_exists_exactly_when_ker_T_is_trivial(random_coeffs, tag):
    """The Neumann path of the trace coefficients needs K = (T*T)^{-1}: it
    refuses on max and omega:1,0 and matches tr(C K) of the dense inverse
    on every other family."""
    rho, alpha = random_coeffs
    ops = ds.build_operator_set(16, rho, alpha, ds.parse_bc(tag))
    if tag in ("max", "omega:1,0"):
        with pytest.raises(np.linalg.LinAlgError, match="ker T"):
            ds.trace_coefficient(0, ops)
    else:
        K = np.linalg.inv(ops.Tstar @ ops.T)
        t0 = np.sum(ops.C * np.diag(K)).real
        assert abs(ds.trace_coefficient(0, ops) - t0) <= 1e-10 * abs(t0)


def test_solve_band_real_matrix_complex_rhs():
    """The LAPACK prefix follows b as well as A: a real-arithmetic solve
    would drop the imaginary part of b without a warning."""
    rng = np.random.default_rng(0)
    A = rng.standard_normal((12, 12)) + 6.0 * np.eye(12)
    b = rng.standard_normal((12, 3)) + 1j * rng.standard_normal((12, 3))
    ref = np.linalg.solve(A, b)
    got = solve_band(scipy.sparse.csr_array(A), b)
    assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("tag", ["min", "omega:0,1"])
def test_one_factorization_solves_every_shift(tag):
    """band_lu(layout, z) solves A - z_k for every shift, for the inverse
    as for a right-hand side, stacked in the shape of z, and solves again
    from the same factors; a real factorization refuses a complex b rather
    than drop its imaginary part."""
    ops = ds.build_operator_set(16, *ds.random_coefficients(5),
                                ds.parse_bc(tag))
    A = ops.sparse("H1")
    z = np.array([[-0.5, 0.25 + 0.5j, 2.0 - 1.0j]])
    b = np.random.default_rng(3).standard_normal((A.shape[0], 2))
    solve = band_lu(band_layout(A, complex), z)
    dense = [A.toarray() - zk * np.eye(A.shape[0]) for zk in z.ravel()]
    for rhs in (None, b, b[:, 0]):
        got = solve(rhs)
        ref = np.array([np.linalg.inv(D) if rhs is None
                        else np.linalg.solve(D, rhs) for D in dense])
        assert got.shape == z.shape + ref.shape[1:]
        assert np.abs(got.reshape(ref.shape) - ref).max() \
            <= 1e-13 * np.abs(ref).max()
    if tag == "min":
        with pytest.raises(TypeError):
            band_lu(band_layout(A, A.dtype), -0.5)(1j * b)


def test_solve_band_refuses_singular_matrix():
    with pytest.raises(np.linalg.LinAlgError, match="too close to the spectrum"):
        solve_band(scipy.sparse.csr_array(np.array([[1.0, 2.0], [2.0, 4.0]])))


SOLVE_FAMILIES = ["min", "zero0", "zero1", "max", "omega:1,0", "omega:-1,0",
                  "omega:0,1", "omega:0.5,0.3"]


@pytest.mark.parametrize("n", [4, 16, 64])
@pytest.mark.parametrize("tag", SOLVE_FAMILIES)
def test_solve_band_matches_dense_solve(tag, n):
    """solve_band of the frame band D + B - zeta, of H1 - zeta^2 and of the
    damped pencil Q(zeta) = H1 - zeta^2 - i zeta C against np.linalg.solve
    of the dense matrices, within n eps cond_1(A) of the largest entry, on
    random and on constant coefficients (where the omega = +-1 rings have
    exactly double eigenvalues); a real A and b are solved in real
    arithmetic."""
    zeta = 0.3 + 0.1j
    rng = np.random.default_rng(n)
    for rho, alpha in (ds.random_coefficients(5), (RHO1, ALPHA1)):
        ops = ds.build_operator_set(n, rho, alpha, ds.parse_bc(tag))
        m, H1 = ops.n_nodes, ops.sparse("H1")
        cases = [(shifted(ops.dirac_band(), zeta), None),
                 (shifted(H1, zeta ** 2), rng.standard_normal(m)),
                 (shifted(H1, zeta ** 2 + 1j * zeta * ops.C),
                  rng.standard_normal((m, 3))),
                 (shifted(H1, -0.5), rng.standard_normal((m, 2)))]
        for A, b in cases:
            dense = A.toarray()
            ref = np.linalg.solve(dense, np.eye(len(dense)) if b is None else b)
            got = solve_band(A, b)
            assert got.shape == ref.shape
            tol = n * np.finfo(float).eps * np.linalg.cond(dense, 1)
            assert np.abs(got - ref).max() <= tol * np.abs(ref).max()
        real = ops.bc.omega is None or ops.bc.omega.imag == 0
        assert (got.dtype == float) == real


@pytest.mark.parametrize("tag", ["min", "max", "omega:1,0", "omega:-1,0",
                                 "omega:0,1"])
def test_solve_band_refuses_an_eigenvalue_of_TstarT(tag):
    """zeta^2 at a simple eigenvalue of T*T, at its zero mode (max,
    omega:1,0) and at the exactly double eigenvalues of the constant
    coefficient omega = +-1 rings: LinAlgError."""
    ops = ds.build_operator_set(16, RHO1, ALPHA1, ds.parse_bc(tag))
    mu = ops.H1_eigvals
    if tag in ("omega:1,0", "omega:-1,0"):
        assert np.diff(mu[:3]).min() <= 1e-12 * mu[-1]
    rng = np.random.default_rng(0)
    for z2 in mu[:3]:
        # the inverse, and a solve whose condition is estimated
        for b in (None, rng.standard_normal(ops.n_nodes)):
            with pytest.raises(np.linalg.LinAlgError,
                               match="too close to the spectrum"):
                solve_band(shifted(ops.sparse("H1"), z2), b)


@pytest.mark.parametrize("tag", SOLVE_FAMILIES)
def test_band_norm_matches_dense_norm(random_coeffs, tag):
    """||D + B||_2 from the Gram band of the Dirac frame in block order,
    where the unknowns are not banded until reordered."""
    rho, alpha = random_coeffs
    ops = ds.build_operator_set(32, rho, alpha, ds.parse_bc(tag))
    frame_ = ops.dirac_frame()
    assert ds.discretization.band_norm(scipy.sparse.csr_array(frame_)) \
        == pytest.approx(np.linalg.norm(frame_, 2), rel=1e-12)


@pytest.mark.parametrize("tag", ["min", "omega:0.5,0.3"])
def test_band_eigh_takes_the_unknowns_in_any_order(random_coeffs, tag,
                                                  monkeypatch):
    """T*T with its unknowns randomly permuted, so that neither the chain
    nor the ring is banded: the spectrum of frame_eigh, eigenvectors in the
    permuted order, and a band of width at most 2 handed to eig_banded."""
    rho, alpha = random_coeffs
    ops = ds.build_operator_set(64, rho, alpha, ds.parse_bc(tag))
    mu = ops.frame_eigh("node")
    p = np.random.default_rng(3).permutation(ops.n_nodes)
    H = ops.H1f[p][:, p]
    rows, eig_banded = [], scipy.linalg.eig_banded

    def recording(a_band, *args, **kwargs):
        rows.append(len(a_band))
        return eig_banded(a_band, *args, **kwargs)
    monkeypatch.setattr(scipy.linalg, "eig_banded", recording)
    w, V = _band_eigh(H, vectors=True)
    assert rows == [2 if tag == "min" else 3]
    assert np.abs(w - mu).max() <= 1e-13 * mu[-1]
    assert np.linalg.norm(H @ V - V * w, axis=0).max() <= 1e-12 * mu[-1]


@pytest.mark.parametrize("tag", ["min", "zero0", "zero1", "max", "omega:0,1"])
def test_tol_zero_is_scaled_dirac_norm(random_coeffs, tag):
    rho, alpha = random_coeffs
    ops = ds.build_operator_set(64, rho, alpha, ds.parse_bc(tag))
    norm = np.linalg.norm(frame(ops, ops.D), 2)
    assert ops.tol_zero == pytest.approx(1e-10 * norm, rel=1e-12, abs=0)


def test_half_weights_at_retained_endpoints():
    grid = build_grid(10, RHO1, ds.BoundaryCondition.zero0())
    # node n is retained with half weight; interior nodes carry full weight
    assert grid.node_weights[-1] == pytest.approx(grid.node_weights[0] / 2)


def test_build_rejects_tiny_grids():
    with pytest.raises(ValueError):
        build_operator_set(3, RHO1, ALPHA1, ds.BoundaryCondition.minimal())


@given(n=st.integers(8, 24), seed=st.integers(0, 10**6))
@settings(max_examples=10, deadline=None, derandomize=True)
def test_adjoint_property_random_draws(n, seed):
    rho, alpha = ds.random_coefficients(seed)
    ops = ds.build_operator_set(n, rho, alpha, ds.BoundaryCondition.zero0())
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(ops.n_nodes)
    v = rng.standard_normal(ops.n_cells)
    lhs = np.vdot(ops.T @ u, ops.wv * v)
    rhs = np.vdot(u, ops.wu * (ops.Tstar @ v))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_adjoint_helper_matches_definition(random_coeffs):
    rho, alpha = random_coeffs
    ops = ds.build_operator_set(10, rho, alpha, ds.BoundaryCondition.quasi(1j))
    Tstar = (ops.T.conj().T * ops.wv[None, :]) / ops.wu[:, None]
    assert np.allclose(Tstar, ops.Tstar)
