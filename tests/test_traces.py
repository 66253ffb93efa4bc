import json

import numpy as np
import pytest
import scipy.linalg

import dampedstring as ds
from dampedstring import traces, tridiagonal
from dampedstring.discretization import solve_band

MIN = ds.BoundaryCondition.minimal()
RHO1 = ds.constant(1.0, "density")
ALPHA1 = ds.constant(1.0, "damping")


@pytest.fixture(scope="module")
def rand_setup():
    rho, alpha = ds.random_coefficients(21)
    ops = ds.build_operator_set(40, rho, alpha, ds.BoundaryCondition.zero0())
    return ops, ds.eigen_dirac(ops)


def test_t0_two_paths_agree(rand_setup):
    ops, spec = rand_setup
    contour = traces.build_ledger(ops, spec, n_max=0).t[0]
    neumann = traces.trace_coefficient(0, ops, "neumann")
    assert abs(contour - neumann) <= 1e-12 * abs(contour)


@pytest.mark.parametrize("bc", ["min", "zero0", "zero1", "omega:0,1",
                                "omega:0.5,0.3"])
def test_t2_two_paths_agree(bc):
    rho, alpha = ds.random_coefficients(21)
    ops = ds.build_operator_set(40, rho, alpha, ds.parse_bc(bc))
    contour = traces.build_ledger(ops, ds.eigen_dirac(ops), n_max=1).t[1]
    neumann = traces.trace_coefficient(1, ops, "neumann")
    assert abs(contour - neumann) <= 1e-10 * max(abs(contour), 1.0)


def test_ledger_reads_every_order_off_one_contour(rand_setup, monkeypatch):
    """One resolvent-trace call on the circle gives every order: a shorter
    ledger's t-values are the first of a longer one's, bit for bit."""
    ops, spec = rand_setup
    calls = []
    sample = tridiagonal.resolvent_trace

    def counted(A, z, *args, **kwargs):
        calls.append(len(z))
        return sample(A, z, *args, **kwargs)

    monkeypatch.setattr(tridiagonal, "resolvent_trace", counted)
    ledger = traces.build_ledger(ops, spec, n_max=4)
    assert calls == [128]
    assert traces.build_ledger(ops, spec, n_max=1).t == ledger.t[:2]


def test_higher_order_identities(rand_setup):
    """Orders n=2,3 via the Neumann path against the eigenvalue sums."""
    ops, spec = rand_setup
    disc = traces.build_ledger(ops, spec, n_max=3).discrepancies
    for n in (2, 3):
        d_even, d_odd = disc[2 * n], disc[2 * n + 1]
        scale = float(np.sum(np.abs(spec.nonzero()) ** -(2 * n + 1)))
        assert d_even <= 1e-8 * max(scale, 1e-6)
        assert d_odd <= 1e-8 * max(scale, 1e-6)


def test_undamped_sums_vanish():
    rho, _ = ds.random_coefficients(22)
    ops = ds.build_operator_set(32, rho, ds.constant(0.0, "damping"), MIN)
    spec = ds.eigen_dirac(ops)
    for m in range(4):
        assert abs(traces.eigen_sum(m, spec)) < 1e-10


def test_eigen_sum_continuum_value():
    ops = ds.build_operator_set(512, RHO1, ALPHA1, MIN)
    spec = ds.constant_damping_dirac(ops)
    assert traces.eigen_sum(0, spec) == pytest.approx(-1.0 / 6.0, abs=2e-5)


def test_ledger_serialization(rand_setup):
    ops, spec = rand_setup
    ledger = traces.build_ledger(ops, spec, n_max=1)
    payload = json.loads(ledger.to_json())
    assert payload["bc"] == "zero0"
    assert payload["n_grid"] == 40
    assert len(payload["t"]) == 2
    assert len(payload["lhs"]) == 4
    assert payload["zero_modes"] == spec.zero_modes
    assert "t0_analytic" in payload["continuum"]
    # floats round-trip through repr
    assert float(payload["t"][0]) == ledger.t[0]


def test_ledger_propagates_unexpected_continuum_errors(rand_setup, monkeypatch):
    """Only a family without a bounded inverse leaves t0_analytic empty."""
    ops, spec = rand_setup

    def broken(bc, alpha):
        raise RuntimeError("broken continuum path")

    monkeypatch.setattr(traces, "t0_analytic", broken)
    with pytest.raises(RuntimeError, match="broken continuum path"):
        traces.build_ledger(ops, spec, n_max=1)


def test_trace_coefficient_rejects_singular():
    rho, alpha = ds.random_coefficients(23)
    ops = ds.build_operator_set(16, rho, alpha, ds.BoundaryCondition.quasi(1.0))
    with pytest.raises(np.linalg.LinAlgError):
        traces.trace_coefficient(0, ops)


def test_resolvent_trace_identity_and_parity():
    ops = ds.build_operator_set(32, RHO1, ALPHA1, MIN)
    lhs, rhs, parity = traces.resolvent_trace_expansion(0.1, ops)
    assert abs(lhs - rhs) < 1e-10
    assert parity < 1e-10


def test_resolvent_trace_zero_matches_t0():
    ops = ds.build_operator_set(32, RHO1, ALPHA1, MIN)
    lhs, rhs, _ = traces.resolvent_trace_expansion(0.0, ops)
    assert rhs == pytest.approx(traces.trace_coefficient(0, ops), abs=1e-9)
    assert lhs == pytest.approx(rhs, abs=1e-9)


@pytest.mark.parametrize("bc", [ds.BoundaryCondition.maximal(),
                                ds.BoundaryCondition.quasi(1.0)],
                         ids=str)
def test_resolvent_trace_zero_rejects_singular_node_operator(bc):
    """ker T is nontrivial for max and omega:1,0, so T*T - zeta^2 - i zeta C
    is singular at zeta = 0 and the node-space side cannot be formed."""
    ops = ds.build_operator_set(32, RHO1, ALPHA1, bc)
    with pytest.raises(ValueError, match="too close to the spectrum"):
        traces.resolvent_trace_expansion(0.0, ops)


def test_regularized_sum_constant_damping():
    ops = ds.build_operator_set(128, RHO1, ds.constant(0.8, "damping"), MIN)
    spec = ds.constant_damping_dirac(ops)
    out = traces.regularized_sum_check(spec, ops)
    # every paired term vanishes for constant damping, so partial sums stay 0
    assert out["target"] == pytest.approx(0.0)
    assert np.abs(out["partial_sums"]).max() < 1e-8


def test_regularized_sum_linear_damping_trend():
    alpha = ds.polynomial((0.0, 1.0), "damping")
    gaps = []
    for n in (128, 256):
        ops = ds.build_operator_set(n, RHO1, alpha, MIN)
        spec = ds.eigen_dirac(ops)
        out = traces.regularized_sum_check(spec, ops, j_cut=n // 4)
        gaps.append(out["final_gap"])
        assert out["target"] == pytest.approx(0.0)
    assert gaps[1] < gaps[0]


def test_livsic_equality_and_inequality():
    rho, alpha = ds.random_coefficients(25)
    ops = ds.build_operator_set(24, rho, alpha, ds.BoundaryCondition.zero1())
    out = traces.livsic_check(ops, ds.eigen_dirac(ops))
    assert out["gap"] < 1e-9
    assert out["inequality_holds"]


def _dense_livsic_sum(ops, shift):
    """sum Im mu over the eigenvalues of R = (D + B - shift)^{-1} by a dense
    eigensolve of the dense inverse: the oracle of the spectral mapping."""
    Mf = ops.dirac_frame()
    R = np.linalg.inv(Mf - shift * np.eye(Mf.shape[0]))
    return float(np.sum(np.linalg.eigvals(R).imag))


def _critical_ops(n):
    """Constant damping a = 2 sqrt(mu_1) on min: the lowest pencil pair is
    a Jordan block at -ia/2."""
    undamped = ds.build_operator_set(n, RHO1, ds.constant(0.0, "damping"), MIN)
    a = 2 * np.sqrt(undamped.H1_eigvals[0])
    return ds.build_operator_set(n, RHO1, ds.constant(a, "damping"), MIN)


@pytest.mark.parametrize("n", [8, 16, 32])
@pytest.mark.parametrize("bc", ["min", "zero0", "zero1", "max", "omega:1,0"])
def test_livsic_sum_matches_dense_eigvals(bc, n):
    """The spectral-mapping sum over the Dirac spectrum agrees with the
    dense eigenvalues of R, on families with zero modes (max, omega:1,0)
    and an exactly double spectrum among them."""
    rho, alpha = ds.random_coefficients(25)
    ops = ds.build_operator_set(n, rho, alpha, ds.parse_bc(bc))
    out = traces.livsic_check(ops, ds.eigen_dirac(ops))
    oracle = _dense_livsic_sum(ops, out["shift"])
    assert abs(out["eig_im_sum"] - oracle) <= 1e-12 * abs(oracle)
    assert abs(out["trace_im"] - oracle) <= 1e-12 * abs(oracle)
    assert out["gap"] < 1e-9
    assert out["inequality_holds"]


@pytest.mark.parametrize("n", [8, 32])
def test_livsic_sum_at_critical_damping(n):
    ops = _critical_ops(n)
    out = traces.livsic_check(ops, ds.eigen_dirac(ops))
    oracle = _dense_livsic_sum(ops, out["shift"])
    assert abs(out["eig_im_sum"] - oracle) <= 1e-12 * abs(oracle)
    assert out["gap"] < 1e-9


def test_livsic_anchor_on_both_spectrum_sources():
    """On verify-all's continuum anchor (constant density and damping), the
    Hermitian spectrum of constant_damping_dirac and the general eigensolve
    each close the Livsic gap against the band LU trace, and the two sums
    agree."""
    ops = ds.build_operator_set(256, RHO1, ds.constant(1.0, "damping"), MIN)
    general = traces.livsic_check(ops, ds.eigen_dirac(ops))
    hermitian = traces.livsic_check(ops, ds.constant_damping_dirac(ops))
    assert general["gap"] < 1e-9 and hermitian["gap"] < 1e-9
    assert general["trace_im"] == hermitian["trace_im"]
    assert (abs(general["eig_im_sum"] - hermitian["eig_im_sum"])
            <= 1e-11 * abs(general["eig_im_sum"]))


def test_livsic_anchor_closes_to_rounding_on_the_hermitian_spectrum():
    """verify-all's livsic.equality anchor: the constant-damping roots come
    from the Rayleigh quotients ||Tf u||^2 of the inverse iterates, which
    are accurate relative to the small eigenvalues of T*T.  eig_banded's
    eigenvalues, accurate only to about eps ||T*T|| (6e-11 at n = 256),
    give a gap of 1.7e-12."""
    ops = ds.build_operator_set(256, RHO1, ds.constant(1.0, "damping"), MIN)
    assert traces.livsic_check(ops, ds.constant_damping_dirac(ops))["gap"] \
        <= 1e-14


def test_traces_use_no_dense_eigensolve(monkeypatch):
    """The Livsic sum comes from the tridiagonal Dirac spectrum, never from
    a dense eigensolve of the resolvent."""
    def forbidden(*args, **kwargs):
        raise AssertionError("dense eigensolve called")

    for mod, name in ((np.linalg, "eigvals"), (np.linalg, "eig"),
                      (scipy.linalg, "eigvals"), (scipy.linalg, "eig")):
        monkeypatch.setattr(mod, name, forbidden)
    rho, alpha = ds.random_coefficients(25)
    ops = ds.build_operator_set(16, rho, alpha, ds.BoundaryCondition.maximal())
    assert traces.livsic_check(ops, ds.eigen_dirac(ops))["gap"] < 1e-9
    lhs, rhs, _ = traces.resolvent_trace_expansion(0.1, ops)
    assert abs(lhs - rhs) < 1e-10 * max(abs(rhs), 1.0)


@pytest.mark.parametrize("bc", ["min", "max", "omega:1,0", "omega:0.5,0.3"])
def test_resolvent_trace_forms_no_dense_matrix(monkeypatch, bc):
    """Both sides of the resolvent-trace identity come from the bands, the
    zero-mode fallback at zeta = 0 included: no dense inverse, no dense
    Dirac frame and no assembled operator."""
    def forbidden(*args, **kwargs):
        raise AssertionError("dense matrix formed")

    for name in ("solve_band", "band_lu"):
        monkeypatch.setattr(traces, name, forbidden)
        monkeypatch.setattr(ds.discretization, name, forbidden)
    monkeypatch.setattr(ds.DiscreteOperatorSet, "dirac_frame", forbidden)
    for name in ("T", "Tstar", "Tf", "D", "B", "G"):
        monkeypatch.setattr(ds.DiscreteOperatorSet, name, property(forbidden))
    rho, alpha = ds.random_coefficients(27)
    ops = ds.build_operator_set(24, rho, alpha, ds.parse_bc(bc))
    lhs, rhs, parity = traces.resolvent_trace_expansion(0.1, ops)
    assert abs(lhs - rhs) < 1e-10 * max(abs(rhs), 1.0)
    assert parity < 1e-10 * max(abs(rhs), 1.0)
    if bc == "min":
        # D + B has the zero mode of ker T* at zeta = 0: the eigenvalue sum
        lhs, rhs, _ = traces.resolvent_trace_expansion(0.0, ops)
        assert abs(lhs - rhs) < 1e-10 * max(abs(rhs), 1.0)


@pytest.mark.parametrize("bc", ["min", "zero0", "omega:0.5,0.3"])
def test_traces_match_full_products(bc):
    """The Neumann traces, read off diagonals, and the banded resolvent
    traces equal the traces of the full products they replace."""
    rho, alpha = ds.random_coefficients(26)
    ops = ds.build_operator_set(24, rho, alpha, ds.parse_bc(bc))
    H1, C = ops.sparse("H1").toarray(), ops.C
    K = np.linalg.inv(H1)
    CK = C[:, None] * K
    t0 = np.trace(CK).real
    t2 = np.real(3.0 * np.trace(CK @ K) - np.trace(CK @ CK @ CK))
    assert traces.trace_coefficient(0, ops) == pytest.approx(t0, rel=1e-13)
    assert traces.trace_coefficient(1, ops) == pytest.approx(t2, rel=1e-12)
    z = 0.1
    m = ops.n_nodes
    inv = np.linalg.inv(H1 - z * z * np.eye(m) - 1j * z * np.diag(C))
    rhs = np.imag(np.trace((np.diag(1j * C) + 2 * z * np.eye(m)) @ inv))
    Mf = ops.dirac_frame()
    R = np.linalg.inv(Mf - z * np.eye(Mf.shape[0]))
    lhs = np.trace((R - R.conj().T) / 2j).real
    got_lhs, got_rhs, _ = traces.resolvent_trace_expansion(z, ops)
    assert got_rhs == pytest.approx(rhs, rel=1e-12)
    assert got_lhs == pytest.approx(lhs, rel=1e-12)


KERNEL_COEFFS = {"default": (RHO1, ALPHA1),
                 "seed0": ds.random_coefficients(0),
                 "seed3": ds.random_coefficients(3)}


@pytest.mark.parametrize("n", [8, 32, 256])
@pytest.mark.parametrize("coeffs", list(KERNEL_COEFFS))
@pytest.mark.parametrize("bc", ["max", "omega:1,0"])
def test_ledger_on_kernel_families(bc, coeffs, n):
    """ker T puts a pole at zeta = 0 into F, which the contour leaves in
    the 1/zeta term: the ledger of max and omega:1,0 passes both identities
    at the CLI's gate, with no continuum t0."""
    rho, alpha = KERNEL_COEFFS[coeffs]
    ops = ds.build_operator_set(n, rho, alpha, ds.parse_bc(bc))
    ledger = traces.build_ledger(ops, ds.eigen_dirac(ops))
    scale = max(abs(v) for v in ledger.t)
    assert max(ledger.discrepancies) <= 1e-6 * scale
    assert json.loads(ledger.to_json())["continuum"]["t0_analytic"] is None


@pytest.mark.parametrize("n", [16, 64, 256])
@pytest.mark.parametrize("bc", ["min", "zero0", "zero1", "omega:0,1",
                                "omega:0.5,0.3", "omega:-1,0"])
def test_contour_matches_neumann(bc, n):
    rho, alpha = ds.random_coefficients(3)
    ops = ds.build_operator_set(n, rho, alpha, ds.parse_bc(bc))
    contour = np.array(traces.build_ledger(ops, ds.eigen_dirac(ops)).t)
    neumann = np.array([traces.trace_coefficient(k, ops) for k in range(5)])
    assert np.abs(contour - neumann).max() <= 1e-10 * np.abs(contour).max()


@pytest.mark.parametrize("bc", ["min", "max"])
def test_ledger_forms_no_inverse(monkeypatch, bc):
    """The ledger reads the pivots of the pencil, never a band solve."""
    def forbidden(*args, **kwargs):
        raise AssertionError("K formed")

    rho, alpha = ds.random_coefficients(3)
    ops = ds.build_operator_set(32, rho, alpha, ds.parse_bc(bc))
    spec = ds.eigen_dirac(ops)
    monkeypatch.setattr(traces, "solve_band", forbidden)
    monkeypatch.setattr(traces, "band_lu", forbidden)
    ledger = traces.build_ledger(ops, spec)
    assert max(ledger.discrepancies) <= 1e-6 * max(abs(v) for v in ledger.t)
    if bc == "min":
        with pytest.raises(AssertionError, match="K formed"):
            traces.trace_coefficient(0, ops)


def _dense_neumann(n_max, ops):
    """t_0, t_2, ..., t_{2 n_max} from the dense Taylor recurrence R_0 = K,
    R_k = K (iC R_{k-1} + R_{k-2}), K = (T*T)^{-1} by a dense inverse: the
    oracle of the blocked band path."""
    K, C = np.linalg.inv(ops.sparse("H1").toarray()), ops.C
    R_prev, R = np.zeros_like(K), K            # R_{-1}, R_0
    t = []
    for k in range(2 * n_max + 1):
        if k % 2 == 0:
            t.append(float(np.imag(2.0 * np.trace(R_prev)
                                   + 1j * np.sum(C * np.diag(R)))))
        R_prev, R = R, K @ (1j * (C[:, None] * R) + R_prev)
    return t


def _spy_solves(monkeypatch) -> list:
    """The shape of every right-hand side (None for b=None) that
    trace_coefficient hands to its band LUs, in call order."""
    shapes = []

    def spy(layout, z=0.0):
        solve = ds.discretization.band_lu(layout, z)

        def spied(b=None):
            shapes.append(None if b is None else b.shape)
            return solve(b)
        return spied

    monkeypatch.setattr(traces, "band_lu", spy)
    return shapes


@pytest.mark.parametrize("bc", ["min", "zero0", "zero1", "omega:0,1",
                                "omega:-1,0", "omega:0.5,0.3"])
def test_neumann_blocks_match_dense_recurrence(bc, monkeypatch):
    """The recurrence on column blocks of the identity, at least three of
    them, gives t_0 ... t_8 of the dense recurrence, at the tolerances of
    test_traces_match_full_products."""
    rho, alpha = ds.random_coefficients(26)
    ops = ds.build_operator_set(24, rho, alpha, ds.parse_bc(bc))
    m = ops.n_nodes
    monkeypatch.setattr(traces, "_BLOCK_ENTRIES", m * (m // 3 - 1))
    shapes = _spy_solves(monkeypatch)
    oracle = _dense_neumann(4, ops)
    assert traces.trace_coefficient(0, ops) == pytest.approx(oracle[0],
                                                             rel=1e-13)
    widths = [cols for _, cols in shapes]
    assert len(widths) >= 3 and sum(widths) == m
    for n in range(1, 5):
        assert traces.trace_coefficient(n, ops) == pytest.approx(oracle[n],
                                                                 rel=1e-12)


@pytest.mark.parametrize("bc", ["min", "omega:0,1"])
def test_neumann_path_forms_no_inverse(bc, monkeypatch):
    """Every band solve of the Neumann path takes a block of at most
    max(1, _BLOCK_ENTRIES // m) columns, never the whole inverse."""
    rho, alpha = ds.random_coefficients(3)
    ops = ds.build_operator_set(300, rho, alpha, ds.parse_bc(bc))
    m = ops.n_nodes
    width = max(1, traces._BLOCK_ENTRIES // m)
    assert width < m
    shapes = _spy_solves(monkeypatch)
    traces.trace_coefficient(1, ops)
    assert shapes and None not in shapes
    assert all(rows == m and 1 <= cols <= width for rows, cols in shapes)


def _neumann_solve_by_solve(n, ops):
    """t_{2n} by trace_coefficient's recurrence with a fresh layout and band
    LU for every solve (`solve_band`): the factor-per-solve reference."""
    H1, C, m = ops.sparse("H1"), ops.C, ops.n_nodes
    width, t = max(1, traces._BLOCK_ENTRIES // m), 0.0
    for start in range(0, m, width):
        cols = np.arange(start, min(start + width, m))
        R = solve_band(H1, np.eye(m, len(cols), -start))
        R_prev = np.zeros_like(R)
        for _ in range(2 * n):
            R_prev, R = R, solve_band(H1, 1j * (C[:, None] * R) + R_prev)
        at = (cols, cols - start)
        t += float(np.imag(2.0 * np.sum(R_prev[at])
                           + 1j * np.sum(C[cols] * R[at])))
    return t


@pytest.mark.parametrize("bc", ["min", "omega:0,1"])
def test_neumann_path_factors_once(bc, monkeypatch):
    """However many column blocks run, trace_coefficient factors T*T at
    most twice per call (one ?gbtrf per arithmetic), and t_0 ... t_8 are
    bit-identical to a fresh factorization for every solve."""
    rho, alpha = ds.random_coefficients(3)
    ops = ds.build_operator_set(300, rho, alpha, ds.parse_bc(bc))
    assert max(1, traces._BLOCK_ENTRIES // ops.n_nodes) < ops.n_nodes
    reference = [_neumann_solve_by_solve(n, ops) for n in range(5)]
    factorizations = []
    lapack = scipy.linalg.get_lapack_funcs

    def counting(names, *args, **kwargs):
        funcs = lapack(names, *args, **kwargs)
        if names != ("gbtrf", "gbtrs"):
            return funcs
        gbtrf, gbtrs = funcs

        def counted(*a, **k):
            factorizations.append(a[0].shape)
            return gbtrf(*a, **k)
        return counted, gbtrs

    monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", counting)
    for n in range(5):
        factorizations.clear()
        assert traces.trace_coefficient(n, ops) == reference[n]
        assert 1 <= len(factorizations) <= 2
