import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.csgraph

import dampedstring as ds
from dampedstring import riesz
from dampedstring.discretization import band_layout, band_lu

MIN = ds.BoundaryCondition.minimal()
RHO1 = ds.constant(1.0, "density")


@pytest.fixture(scope="module")
def small_ops():
    return ds.build_operator_set(24, RHO1, ds.constant(1.0, "damping"), MIN)


@pytest.fixture(scope="module")
def small_resolution(small_ops):
    spec = ds.eigen_dirac(small_ops)
    clusters = riesz.cluster_eigenvalues(spec, small_ops)
    out = riesz.verify_resolution_of_identity(clusters,
                                              small_ops.dirac_frame())
    return spec, clusters, out


def assert_gap_clusters(spec, ops, clusters):
    """Eigenvalues within the gap threshold share a cluster, and no contour
    encloses a member of another cluster."""
    lam = spec.eigenvalues
    owner = np.empty(len(lam), dtype=int)
    for c in clusters:
        owner[c.members] = c.cluster_id
    thr = riesz.GAP_FRACTION * np.pi / ds.integrate_product([ops.rho])
    i, j = np.nonzero(np.abs(lam[:, None] - lam[None, :]) <= thr)
    assert np.array_equal(owner[i], owner[j])
    for c in clusters:
        assert not c.contour.encloses(lam[owner != c.cluster_id]).any()


def test_single_eigenvalue_projection(small_ops):
    op = small_ops.dirac_frame()
    lam = np.linalg.eigvals(op)
    lam0 = lam[np.argmin(np.abs(lam - np.pi))]
    gap = np.sort(np.abs(lam - lam0))[1]
    P = riesz.riesz_projection(op, riesz.Contour("circle", lam0, gap / 4))
    assert abs(np.trace(P) - 1.0) < 1e-9
    assert np.linalg.norm(P @ P - P, 2) < 1e-9


def test_full_contour_gives_identity(small_ops):
    op = small_ops.dirac_frame()
    lam = np.linalg.eigvals(op)
    lo = complex(lam.real.min() - 1, lam.imag.min() - 1)
    hi = complex(lam.real.max() + 1, lam.imag.max() + 1)
    P = riesz.riesz_projection(
        op, riesz.Contour("rectangle", (lo + hi) / 2, lo=lo, hi=hi))
    assert np.linalg.norm(P - np.eye(op.shape[0]), 2) < 1e-9


def test_circle_quadrature_reuses_nested_nodes(small_ops, monkeypatch):
    """The 64 trapezoid nodes of a circle contain the 32 of the first pass,
    so a circle that settles at 64 nodes solves 64 shifted systems, not 96,
    one band LU per level."""
    op = small_ops.dirac_frame()
    lam = np.linalg.eigvals(op)
    lam0 = lam[np.argmin(np.abs(lam - np.pi))]
    gap = np.sort(np.abs(lam - lam0))[1]
    nodes = []

    def counting(layout, z):
        nodes.append(len(z))
        return band_lu(layout, z)

    monkeypatch.setattr(riesz, "band_lu", counting)
    P = riesz.riesz_projection(op, riesz.Contour("circle", lam0, gap / 4))
    assert nodes == [32, 32]
    assert abs(np.trace(P) - 1.0) < 1e-9


def test_near_critical_damping_cluster():
    """Near a = 2 pi the lowest pair nearly collides; the clusterer must
    merge it and the projection rank must count both members."""
    a = 2 * np.pi - 0.05
    ops = ds.build_operator_set(64, RHO1, ds.constant(a, "damping"), MIN)
    spec = ds.constant_damping_dirac(ops)
    clusters = riesz.cluster_eigenvalues(spec, ops)
    sizes = {}
    for c in clusters:
        for i in c.members:
            sizes[i] = len(c.members)
    near = [i for i, lam in enumerate(spec.eigenvalues)
            if abs(lam + 1j * np.pi) < 1.0]
    assert len(near) == 2
    assert all(sizes[i] >= 2 for i in near)
    assert_gap_clusters(spec, ops, clusters)


def test_clusters_merge_when_a_box_captures_an_eigenvalue():
    """A diagonal chain (steps 1.56 < pi/2) is one gap cluster whose box
    holds 3 + 0.3i, which is 2.06 from the chain; the two must merge."""
    lam = np.array([0, 1.1 + 1.1j, 2.2 + 2.2j, 3.3 + 3.3j, 3.0 + 0.3j])
    spec = ds.Spectrum(lam, np.zeros(len(lam)), 0, 1e-10)
    ops = ds.build_operator_set(8, RHO1, ds.constant(0.0, "damping"), MIN)
    clusters = riesz.cluster_eigenvalues(spec, ops)
    assert [c.members for c in clusters] == [[0, 1, 2, 3, 4]]
    assert clusters[0].contour.kind == "rectangle"


def test_resolution_of_identity_undamped():
    ops = ds.build_operator_set(32, RHO1, ds.constant(0.0, "damping"), MIN)
    spec = ds.eigen_dirac(ops)
    clusters = riesz.cluster_eigenvalues(spec, ops)
    out = riesz.verify_resolution_of_identity(clusters, ops.dirac_frame())
    assert out["sum_defect"] < 1e-8
    assert out["max_idempotency_defect"] < 1e-8
    assert out["total_rank"] == ops.n_nodes + ops.n_cells


def test_resolution_of_identity_random_quasi():
    rho, alpha = ds.random_coefficients(31)
    ops = ds.build_operator_set(32, rho, alpha, ds.BoundaryCondition.quasi(1j))
    spec = ds.eigen_dirac(ops)
    clusters = riesz.cluster_eigenvalues(spec, ops)
    assert_gap_clusters(spec, ops, clusters)
    out = riesz.verify_resolution_of_identity(clusters, ops.dirac_frame())
    assert out["sum_defect"] < 1e-6
    assert out["max_cross_product"] < 1e-7


def test_projection_traces_near_integer(small_ops):
    op = small_ops.dirac_frame()
    spec = ds.eigen_dirac(small_ops)
    clusters = riesz.cluster_eigenvalues(spec, small_ops)
    for c in clusters[:5]:
        P = riesz.riesz_projection(op, c.contour)
        tr = np.trace(P)
        assert abs(tr - round(tr.real)) < 1e-6


def test_clusters_keep_thin_factors(small_ops, small_resolution):
    _, clusters, _ = small_resolution
    dim = small_ops.n_nodes + small_ops.n_cells
    for c in clusters:
        k = len(c.members)
        assert c.L.shape == (dim, k) and c.R.shape == (k, dim)
        # a view would keep the cluster's whole dim x dim Schur basis alive
        assert c.L.base is None


def test_cross_product_bound_dominates_spectral_norms(small_resolution):
    _, clusters, out = small_resolution
    direct = max(np.linalg.norm(a.L @ a.R @ b.L @ b.R, 2)
                 for a in clusters for b in clusters if a is not b)
    assert out["max_cross_product"] >= direct


def test_direct_projections_match_quadrature(small_ops, small_resolution):
    """Every stored projection, rectangles included, against the contour
    integral of the resolvent."""
    _, clusters, out = small_resolution
    op = small_ops.dirac_frame()
    for c in clusters:
        P = riesz.riesz_projection(op, c.contour)
        assert np.linalg.norm(P - c.L @ c.R, 2) < 1e-9
    assert out["max_quadrature_deviation"] < 1e-9
    assert out["max_commutator"] < 1e-9


def test_critical_damping_jordan_pair():
    """At a = 2 sqrt(mu_1) the lowest pair of the discrete pencil forms a
    Jordan block; its cluster still projects onto a rank-2 subspace."""
    undamped = ds.build_operator_set(64, RHO1, ds.constant(0.0, "damping"),
                                     MIN)
    a = 2 * np.sqrt(undamped.H1_eigvals[0])
    ops = ds.build_operator_set(64, RHO1, ds.constant(a, "damping"), MIN)
    spec = ds.eigen_dirac(ops)
    clusters = riesz.cluster_eigenvalues(spec, ops)
    out = riesz.verify_resolution_of_identity(clusters, ops.dirac_frame())
    pair = min(clusters,
               key=lambda c: abs(c.contour.center + 0.5j * a))
    assert len(pair.members) == 2
    assert pair.rank == 2
    P = riesz.riesz_projection(ops.dirac_frame(), pair.contour)
    assert np.linalg.norm(P - pair.L @ pair.R, 2) < 1e-9
    assert out["sum_defect"] < 1e-8
    # the pair's eigenvectors are nearly parallel: it takes the Schur path
    assert out["schur_clusters"] == 1


def test_contour_enclosing_wrong_count_is_rejected(small_ops):
    spec = ds.eigen_dirac(small_ops)
    clusters = riesz.cluster_eigenvalues(spec, small_ops)
    c = clusters[len(clusters) // 2]
    c.contour = riesz.Contour("circle", c.contour.center, 1e3)
    with pytest.raises(riesz.ContourError, match="encloses"):
        riesz.verify_resolution_of_identity(clusters,
                                            small_ops.dirac_frame())


def test_whole_spectrum_cluster_is_identity(small_ops):
    op = small_ops.dirac_frame()
    lam = np.linalg.eigvals(op)
    lo = complex(lam.real.min() - 1, lam.imag.min() - 1)
    hi = complex(lam.real.max() + 1, lam.imag.max() + 1)
    c = riesz.RieszCluster(0, "plus", list(range(len(lam))),
                           riesz.Contour("rectangle", (lo + hi) / 2,
                                         lo=lo, hi=hi))
    out = riesz.verify_resolution_of_identity([c], op)
    np.testing.assert_array_equal(c.L @ c.R, np.eye(len(lam)))
    assert c.s == 1.0
    assert c.rank == len(lam)
    assert out["sum_defect"] == 0.0


def test_cluster_csv_format(small_resolution):
    spec, clusters, _ = small_resolution
    csv = riesz.clusters_to_csv(clusters)
    lines = csv.strip().split("\n")
    assert lines[0] == ("cluster_id,branch,member_count,center_re,center_im,"
                        "rank,idempotency_defect,s")
    assert len(lines) == len(clusters) + 1
    total_members = sum(int(line.split(",")[2]) for line in lines[1:])
    assert total_members == len(spec)
    s = np.array([float(line.split(",")[7]) for line in lines[1:]])
    assert np.all((s > 0) & (s <= 1))


FAMILIES = ["min", "zero0", "max", "omega:1,0", "omega:0,1", "omega:0.5,0.3"]


def _resolution(n, tag, coefficients):
    ops = ds.build_operator_set(n, *coefficients, ds.parse_bc(tag))
    clusters = riesz.cluster_eigenvalues(ds.eigen_dirac(ops), ops)
    op = ops.dirac_frame()
    return op, clusters, riesz.verify_resolution_of_identity(clusters, op)


@pytest.mark.parametrize("n", [8, 24])
@pytest.mark.parametrize("tag", FAMILIES)
def test_vector_projections_match_quadrature(n, tag):
    """Every cluster's projection from the eigenvectors, rectangles and
    zero modes included, against the full contour integral."""
    op, clusters, out = _resolution(n, tag, ds.random_coefficients(5))
    for c in clusters:
        P = riesz.riesz_projection(op, c.contour)
        assert np.linalg.norm(P - c.L @ c.R, 2) < 1e-9
    assert out["schur_clusters"] == 0
    assert out["max_projection_norm"] == pytest.approx(
        max(np.linalg.norm(c.L @ c.R, 2) for c in clusters), rel=1e-12)


@pytest.mark.parametrize("n", [24, 32])
@pytest.mark.parametrize("tag", ["min", "omega:0,1"])
@pytest.mark.parametrize("damping", ["variable", "constant"])
def test_well_separated_clusters_never_reorder_schur(monkeypatch, n, tag,
                                                     damping):
    """No cluster needs the Schur fallback, so no Schur form is built: the
    probe oracle solves on the band."""
    calls = []
    ztrsen = scipy.linalg.lapack.ztrsen

    def counting(*args, **kwargs):
        calls.append(1)
        return ztrsen(*args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("Schur form built")

    monkeypatch.setattr(scipy.linalg.lapack, "ztrsen", counting)
    monkeypatch.setattr(scipy.linalg, "schur", forbidden)
    rho, alpha = ds.random_coefficients(n)
    if damping == "constant":
        rho, alpha = RHO1, ds.constant(0.7, "damping")
    _, clusters, out = _resolution(n, tag, (rho, alpha))
    assert calls == []
    assert out["schur_clusters"] == 0
    assert out["total_rank"] == sum(len(c.members) for c in clusters)


@pytest.mark.parametrize("tag", ["min", "max", "omega:0.5,0.3"])
def test_s_matches_schur_reordering(tag):
    """s = (1 + ||R||_F^2 - k)^(-1/2) from the vector factors equals
    1/sqrt(1 + ||X||_F^2) of the Sylvester solution."""
    op, clusters, _ = _resolution(24, tag, ds.random_coefficients(7))
    schur = scipy.linalg.schur(np.asarray(op, dtype=complex),
                               output="complex")
    for c in clusters:
        select = c.contour.encloses(np.diag(schur[0]))
        L, R, s = riesz._direct_projection(select, schur)
        assert abs(c.s - s) < 1e-12
        assert np.linalg.norm(L @ R - c.L @ c.R, 2) < 1e-12


def test_probe_bound_dominates_quadrature_distance(small_ops,
                                                   small_resolution):
    """The probe record bounds ||P_quad - P||_2 of every sampled cluster."""
    _, clusters, out = small_resolution
    op = small_ops.dirac_frame()
    sample = riesz._oracle_sample(clusters)
    assert sample
    direct = max(np.linalg.norm(riesz.riesz_projection(op, c.contour)
                                - c.L @ c.R, 2) for c in sample)
    assert out["max_quadrature_deviation"] >= direct


def _reference_clusters(spec, ops):
    """The member-by-member cluster build: each group's gap from its own
    outer product with the eigenvalues outside it, and each contour's
    enclosure tested one contour at a time."""
    spacing = np.pi / ds.integrate_product([ops.rho])
    lam = spec.eigenvalues
    labels = spec.branches()
    near = np.abs(lam[:, None] - lam[None, :]) <= riesz.GAP_FRACTION * spacing
    n_groups, group = scipy.sparse.csgraph.connected_components(
        near, directed=False)
    groups = [np.flatnonzero(group == k).tolist() for k in range(n_groups)]

    def build(members):
        vals = lam[members]
        outside = np.delete(lam, members)
        gap = (np.min(np.abs(outside[:, None] - vals[None, :]))
               if len(outside) else spacing)
        margin = gap / 4.0
        if len(members) == 1:
            c = riesz.Contour("circle", complex(vals[0]), margin)
        else:
            lo = complex(vals.real.min() - margin, vals.imag.min() - margin)
            hi = complex(vals.real.max() + margin, vals.imag.max() + margin)
            c = riesz.Contour("rectangle", (lo + hi) / 2, lo=lo, hi=hi)
        return riesz.RieszCluster(0, str(labels[members[0]]), list(members), c)

    clusters = [build(g) for g in groups]
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


def _merge_case():
    lam = np.array([0, 1.1 + 1.1j, 2.2 + 2.2j, 3.3 + 3.3j, 3.0 + 0.3j])
    ops = ds.build_operator_set(8, RHO1, ds.constant(0.0, "damping"), MIN)
    return ds.Spectrum(lam, np.zeros(len(lam)), 0, 1e-10), ops


def _near_critical_case():
    ops = ds.build_operator_set(64, RHO1,
                                ds.constant(2 * np.pi - 0.05, "damping"), MIN)
    return ds.constant_damping_dirac(ops), ops


def _family_case(tag):
    ops = ds.build_operator_set(32, *ds.random_coefficients(5),
                                ds.parse_bc(tag))
    return ds.eigen_dirac(ops), ops


def _bits(z):
    return np.array([z], dtype=complex).view(np.uint64).tolist()


@pytest.mark.parametrize("case", [
    _near_critical_case, _merge_case,
    lambda: _family_case("max"), lambda: _family_case("omega:0.5,0.3")],
    ids=["near-critical", "merged-box", "max", "omega:0.5,0.3"])
def test_clusters_match_member_by_member_build(case):
    """Members, branches and every contour float, bit for bit."""
    spec, ops = case()
    got = riesz.cluster_eigenvalues(spec, ops)
    ref = _reference_clusters(spec, ops)
    assert len(got) == len(ref)
    for a, b in zip(got, ref):
        assert (a.cluster_id, a.branch, a.members) == \
            (b.cluster_id, b.branch, b.members)
        assert a.contour.kind == b.contour.kind
        for field in ("center", "radius", "lo", "hi"):
            assert _bits(getattr(a.contour, field)) == \
                _bits(getattr(b.contour, field)), field
    if case is _merge_case:
        assert [c.members for c in got] == [[0, 1, 2, 3, 4]]
    if case is _near_critical_case:
        assert any(len(c.members) == 2 for c in got)


def _block_diagonal_solves(op, z, rhs):
    """solve_band of the assembled block-diagonal system diag(op - z_k)."""
    dim = len(op)
    blocks = scipy.sparse.block_diag(
        [scipy.sparse.csr_array(op - zk * np.eye(dim)) for zk in z],
        format="csr")
    return ds.discretization.solve_band(blocks, np.tile(rhs, (len(z), 1))).reshape(
        len(z), dim, -1)


@pytest.mark.parametrize("tag", ["min", "omega:0,1"])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_level_solves_match_assembled_block_system(tag, kind):
    """The tiled one-block band layout solves every node's system as
    solve_band does on the assembled block-diagonal matrix, on a chain and
    on a ring."""
    ops = ds.build_operator_set(24, *ds.random_coefficients(5),
                                ds.parse_bc(tag))
    op = ops.dirac_frame()
    rng = np.random.default_rng(1)
    rhs = rng.standard_normal((len(op), 3))
    if kind == "complex":
        rhs = rhs + 1j * rng.standard_normal(rhs.shape)
    z = riesz.Contour("circle", 3.0 - 0.4j, 1.5).points(16)[0]
    got = band_lu(band_layout(op, complex), z)(rhs)
    ref = _block_diagonal_solves(op, z, rhs)
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("tag", ["min", "omega:0,1"])
def test_level_node_on_an_eigenvalue_is_refused(tag):
    ops = ds.build_operator_set(24, *ds.random_coefficients(5),
                                ds.parse_bc(tag))
    op = ops.dirac_frame()
    lam = scipy.linalg.eigvals(op)
    z = np.array([lam[3] + 0.5, lam[3], lam[3] - 0.5j])
    with pytest.raises(np.linalg.LinAlgError,
                       match="too close to the spectrum"):
        band_lu(band_layout(op, complex), z)(np.ones((len(op), 2)))


def test_level_split_over_several_solves_matches_one_solve(small_ops,
                                                           monkeypatch):
    """With MAX_LEVEL_ENTRIES small enough that a level of 32 nodes takes
    several band LUs, P W is the one-solve result."""
    op = small_ops.dirac_frame()
    lam = np.linalg.eigvals(op)
    lam0 = lam[np.argmin(np.abs(lam - np.pi))]
    contour = riesz.Contour("circle", lam0, np.sort(np.abs(lam - lam0))[1] / 4)
    probes = np.random.default_rng(2).standard_normal((len(op), 4))
    whole = riesz.riesz_projection(op, contour, probes)
    calls = []

    def counting(layout, z):
        calls.append(len(z))
        return band_lu(layout, z)

    monkeypatch.setattr(riesz, "band_lu", counting)
    monkeypatch.setattr(riesz, "MAX_LEVEL_ENTRIES", 5 * probes.size)
    split = riesz.riesz_projection(op, contour, probes)
    assert max(calls) == 5 and len(calls) > 2
    assert np.abs(split - whole).max() <= 1e-14 * np.abs(whole).max()
