"""Grids, weighted norms, operator application, ratio tables."""

import dataclasses
import itertools

import numpy as np
import pytest

from hlkernels import domain, forms, kernels, quad
from hlkernels.quad import (QuadError, anti_keys, apply_kernel, batch_nq,
                            field_from_function, make_grid, ratio_table,
                            weighted_lp_norm)

BALL2 = domain.ball(2)
BALL3 = domain.ball(3)
BALL4 = domain.ball(4)


class Constant:
    """A field with the same coefficients at every point."""

    def __init__(self, *coef):
        self.coef = np.array(coef, dtype=complex)

    def batch(self, pts):
        return np.tile(self.coef, (len(pts), 1))


class Noise:
    """Seeded complex normal coefficients, drawn once per distinct point, in
    the order the points are first asked for."""

    def __init__(self, rng, ncomp):
        self.rng, self.ncomp, self.drawn = rng, ncomp, {}

    def batch(self, pts):
        keys = [p.tobytes() for p in np.asarray(pts)]
        new = [k for k in dict.fromkeys(keys) if k not in self.drawn]
        parts = self.rng.standard_normal((len(new), self.ncomp, 2))
        self.drawn.update(zip(new, parts[..., 0] + 1j * parts[..., 1]))
        return np.array([self.drawn[k] for k in keys]).reshape(len(keys), self.ncomp)


def test_grid_deterministic_and_inside():
    g1 = make_grid(BALL2, 0.2)
    g2 = make_grid(BALL2, 0.2)
    assert np.array_equal(g1.centers, g2.centers)
    assert len(g1) > 0
    rvals = [BALL2.r(cc) for cc in g1.centers[:50]]
    assert max(rvals) < -g1.eps


def test_grid_rejects_bad_h():
    with pytest.raises(QuadError):
        make_grid(BALL2, -0.1)
    with pytest.raises(QuadError):
        make_grid(BALL2, float("inf"))
    with pytest.raises(QuadError):
        make_grid(BALL2, 0.05, eps=0.999)


def test_grid_rejects_negative_or_nan_eps():
    # a negative eps would keep cells outside the domain, where r >= 0
    for eps in (-0.1, float("nan")):
        with pytest.raises(QuadError, match="eps >= 0"):
            make_grid(BALL2, 0.17, eps=eps)


def test_constant_field_l2_matches_volume():
    g = make_grid(BALL2, 0.1)
    f = field_from_function(g, Constant(1.0))
    vol_exact = 4 * np.pi ** 2 * (1 - g.eps) ** 2 / 2
    assert weighted_lp_norm(f, 0, 2) == pytest.approx(np.sqrt(vol_exact), rel=0.05)


def test_norm_inequalities_and_zero():
    g = make_grid(BALL2, 0.15)
    rng = np.random.default_rng(0)
    f = field_from_function(g, Noise(rng, 1))
    vol = g.total_volume()
    assert weighted_lp_norm(f, 0, 1) <= np.sqrt(vol) * weighted_lp_norm(f, 0, 2) + 1e-9
    z = field_from_function(g, Constant(0.0))
    assert weighted_lp_norm(z, 0, 2) == 0.0
    assert weighted_lp_norm(f, 0, np.inf) == pytest.approx(f.norm_pointwise().max())


def test_inner_product_norm_consistency():
    g = make_grid(BALL2, 0.2)
    rng = np.random.default_rng(1)
    f = field_from_function(g, Noise(rng, len(anti_keys(2, 1))))
    ip = np.sum(np.abs(f.data) ** 2) * g.cell_volume
    assert weighted_lp_norm(f, 0, 2) == pytest.approx(np.sqrt(ip), rel=1e-12)


def test_apply_type_mismatch_is_zero_field():
    g = make_grid(BALL2, 0.25)
    scalar_kernel = kernels.gamma0q(BALL2, 0)
    z = np.array([0.1, 0.0], dtype=complex)
    out = quad.pair_operator(scalar_kernel, Constant(1.0, 0.0), g, z, q=1)
    assert out.is_zero()


def test_pair_operator_constant_kernel():
    g = make_grid(BALL2, 0.12)
    cval = 0.8 - 0.3j
    k = kernels.KernelEvaluator(
        "const", 2, lambda zeta, z: forms.DoubleForm.scalar(2, cval))
    z = np.array([0.05, 0.0], dtype=complex)
    out = quad.pair_operator(k, Constant(1.0), g, z, q=0)
    got = out.component(((), (), (), ()))
    want = np.conj(cval) * g.total_volume()
    assert got == pytest.approx(want, rel=0.02)


def test_pair_operator_outside_domain():
    g = make_grid(BALL2, 0.25)
    k = kernels.gamma0q(BALL2, 0)
    with pytest.raises(QuadError):
        quad.pair_operator(k, Constant(1.0), g,
                           np.array([1.5, 0.0], dtype=complex), q=0)


def test_apply_linearity():
    g = make_grid(BALL2, 0.2)
    batch = quad.batch_isotropic_model(BALL2)
    t = np.array([[0.1, -0.05]], dtype=complex)
    f1 = quad.random_test_field(BALL2, 0, seed=3)
    f2 = quad.random_test_field(BALL2, 0, seed=4)

    class Sum:
        def batch(self, pts):
            return f1.batch(pts) + f2.batch(pts)

    o1 = apply_kernel(None, f1, g, t, 0, batch_eval=batch)
    o2 = apply_kernel(None, f2, g, t, 0, batch_eval=batch)
    o12 = apply_kernel(None, Sum(), g, t, 0, batch_eval=batch)
    assert np.allclose(o12, o1 + o2, rtol=1e-12)


def test_gamma00_on_bump_stable_under_refinement():
    f = quad.random_test_field(BALL2, 0, seed=7)
    z = np.array([[0.12, 0.03]], dtype=complex)
    vals = []
    for h in (0.2, 0.1):
        g = make_grid(BALL2, h, eps=0.4)
        out = apply_kernel(kernels.gamma0q(BALL2, 0), f, g, z, 0)
        vals.append(abs(out[0, 0]))
    assert abs(vals[1] - vals[0]) <= 0.10 * max(vals)


@pytest.mark.parametrize("model, q", [(BALL3, 1), (BALL4, 2)])
def test_batch_nq_matches_pointwise(model, q):
    n = model.n
    batch = batch_nq(model, q)
    rng = np.random.default_rng(3)
    pts = []
    while len(pts) < 4:
        cand = rng.uniform(-0.7, 0.7, 2 * n)
        zc = cand[0::2] + 1j * cand[1::2]
        if model.r(zc) < -0.1:
            pts.append(zc)
    # dr is along dzeta_1 here, so the frame skips that coordinate candidate
    pts.append(np.array([0.5] + [0] * (n - 1), dtype=complex))
    pts = np.asarray(pts)
    z = np.array([0.3 + 0.1j, -0.2] + [0.15j] * (n - 2))
    K = batch(pts, z)
    keys = anti_keys(n, q)
    nk = kernels.nq(model, q)
    for i, cc in enumerate(pts):
        v = nk.eval(cc, z)
        for b, kb in enumerate(keys):
            for a, ka in enumerate(keys):
                assert K[i, b, a] == pytest.approx(v.component(((), kb, ka, ())), abs=1e-12)


def test_batch_nq_and_pointwise_raise_alike_beyond_the_diagonal_radius():
    # both points are interior to pinched(3), 1.31 apart: past its radius 0.75
    model = domain.pinched(3)
    zeta = np.array([0.7 + 0.05j, 0.1, 0.1j])
    z = np.array([-0.6 + 0.1j, 0.1j, 0.05])
    assert model.r(zeta) < 0 and model.r(z) < 0
    with pytest.raises(domain.DiagonalRadiusExceeded):
        kernels.nq(model, 1).eval(zeta, z)
    with pytest.raises(domain.DiagonalRadiusExceeded):
        batch_nq(model, 1)(zeta[None], z)


def test_adjointness_residual_near_machine_zero():
    res = quad.adjointness_residual(BALL2, 1.0 / 8)
    assert res < 1e-12


@pytest.mark.parametrize("model, h", [(BALL2, 1 / 5), (BALL2, 1 / 8), (BALL3, 1 / 3),
                                      (domain.pinched(2), 1 / 8)],
                         ids=["ball2-h5", "ball2-h8", "ball3-h3", "pinched2-h8"])
@pytest.mark.parametrize("seed", [5, 0])
def test_adjointness_residual_is_the_per_point_assembly(model, h, seed):
    # the bump times fixed forms gives the residual of the per-point
    # assembly through forms.differential and hodge_star, bit for bit
    assert quad.adjointness_residual(model, h, seed=seed) == \
        _adjointness_residual_per_point(model, h, seed)


@pytest.mark.parametrize("model", [BALL2, BALL3], ids=["ball2", "ball3"])
def test_bump_parts_on_rows_are_the_per_point_parts(model):
    # rows inside the support, outside it, and on |zeta| = 0.75 (amplitude 0)
    n = model.n
    rng = np.random.default_rng(7)
    rows = rng.uniform(-0.8, 0.8, (64, n)) + 1j * rng.uniform(-0.8, 0.8, (64, n))
    rows = np.concatenate([rows, 0.75 * np.eye(n), -0.75j * np.eye(n)])
    parts = quad._field_forms(model, seed=3, q=1)[3]
    want = [_bump_parts_per_point(z) for z in rows]
    assert {w[0] > 0 for w in want} == {True, False}
    assert all(want[-k][0] == 0.0 for k in range(1, 2 * n + 1))
    for got, col in zip(parts(rows), zip(*want)):
        assert got.tobytes() == np.array(col).tobytes()
    # at one point: the amplitude and two (n,) vectors, as before
    for z in (rows[0], 0.75 * np.eye(n)[0], np.full(n, 0.1 + 0.1j)):
        amp, dz, dzb = parts(z)
        want = _bump_parts_per_point(z)
        assert np.ndim(amp) == 0 and dz.shape == dzb.shape == (n,)
        assert amp == want[0] and np.array_equal(dz, want[1]) and np.array_equal(dzb, want[2])


def test_adjointness_residual_visits_only_the_support(monkeypatch):
    # two inner products per cell where a bump is nonzero, none elsewhere
    calls = []
    inner = forms.inner

    def counted(f, g):
        calls.append(1)
        return inner(f, g)

    monkeypatch.setattr(forms, "inner", counted)
    quad.adjointness_residual(BALL2, 1.0 / 8)
    support = np.count_nonzero(quad._field_forms(BALL2, 5, 0)[3](
        make_grid(BALL2, 1.0 / 8).centers)[0])
    assert len(calls) == 2 * support == 12_960


def test_adjointness_residual_without_support_cells_is_degenerate():
    # no cell of pinched(2) at h = 1/6 lies in the bumps' support |zeta| < 0.75
    with pytest.raises(QuadError, match="degenerate test fields"):
        quad.adjointness_residual(domain.pinched(2), 1.0 / 6)


def _max_coeff_diff(f, g):
    return max((abs(f.component(k) - g.component(k)) for k in f.coeffs.keys() | g.coeffs.keys()),
               default=0.0)


@pytest.mark.parametrize("model", [BALL2, BALL3, domain.pinched(3)],
                         ids=["ball2", "ball3", "pinched3"])
@pytest.mark.parametrize("q", [0, 1])
def test_certificate_operators_are_the_kernel_operators(model, q):
    # the certificate's exact dbar and vartheta of a field against the
    # kernels' finite-difference operators on K(zeta, z) = field(zeta)
    F, dbar_forms, vartheta_forms, parts = quad._field_forms(model, seed=3, q=q)

    def value(zeta):
        return F.scale(parts(zeta)[0])

    def dbar(zeta):
        return quad._combination(dbar_forms, parts(zeta)[2])

    def vartheta(zeta):
        return quad._combination(vartheta_forms, parts(zeta)[1])

    k = kernels.KernelEvaluator("field", model.n, lambda zeta, z: value(zeta))
    k_dbar = kernels.kernel_derivative(k, "dbar", "zeta")
    k_vartheta = kernels.kernel_vartheta_zeta(k)
    z = np.full(model.n, 1.5 + 0.5j)
    for zeta in (np.array([0.2 + 0.1j, -0.15j, 0.1])[:model.n],
                 np.array([-0.3, 0.1 + 0.2j, -0.05 + 0.1j])[:model.n]):
        d, v = dbar(zeta), vartheta(zeta)
        assert _max_coeff_diff(d, k_dbar.eval(zeta, z)) <= 1e-9 * d.norm()
        assert _max_coeff_diff(v, k_vartheta.eval(zeta, z)) <= 1e-9 * v.norm()
        # vartheta of a function is 0, of a (0,1) form it is not
        assert d.norm() > 0 and (v.norm() > 0 if q else v.is_zero())


@pytest.mark.parametrize("seed", [0, 5, 11])
def test_certificate_symbols_are_adjoint(seed):
    """V_k = -D_k^H, exactly, at every 1 <= q <= n <= 5: D_k F = dzetabar_k ^ F
    on (q-1)-forms and V_k G = -*(dzeta_k ^ *G) on q-forms, the fixed forms
    of the certificate's dbar and vartheta.  The pairing with D_k is kept
    away from 0, so a negated or zeroed vartheta fails here."""
    for n in range(1, 6):
        model = domain.ball(n)
        for q in range(1, n + 1):
            F, dbar_u, _, _ = quad._field_forms(model, seed, q - 1)
            G, _, vartheta_v, _ = quad._field_forms(model, seed + 1, q)
            d = [forms.inner(dbar_u[k], G) for k in range(n)]
            v = [forms.inner(F, vartheta_v[k]) for k in range(n)]
            scale = max(abs(x) for x in d)
            assert scale >= 0.1, (n, q)
            assert max(abs(x + y) for x, y in zip(d, v)) <= 1e-14 * scale, (n, q)


@pytest.mark.parametrize("build, model, q", [
    (kernels.nq, BALL3, 1), (kernels.nq, BALL4, 2), (kernels.nq, domain.pinched(4), 1),
    (kernels.gamma0q, BALL3, 0), (kernels.gamma0q, BALL3, 1), (kernels.gamma0q, BALL3, 2),
], ids=["Nq-ball3-1", "Nq-ball4-2", "Nq-pinched4-1", "Gamma0q-0", "Gamma0q-1", "Gamma0q-2"])
def test_packed_contraction_is_the_pairing(build, model, q):
    # apply_kernel's einsum against one packed kernel value is the pointwise
    # pairing f ^ *_zeta conj(K) of the forms algebra, node by node
    n = model.n
    kernel = build(model, q)
    keys = anti_keys(n, q)
    rng = np.random.default_rng(4)
    z = np.array([0.2 + 0.1j, -0.1] + [0.05j] * (n - 2))
    for zeta in (np.array([0.1, 0.2j] + [-0.1] * (n - 2)),
                 np.array([-0.15 + 0.1j, 0.05] + [0.1 - 0.05j] * (n - 2))):
        fc = rng.standard_normal(len(keys)) + 1j * rng.standard_normal(len(keys))
        v = kernel.eval(zeta, z)
        got = np.einsum("b,ba->a", fc, kernels.packed_coefficients(v, q).conj())
        f = forms.DoubleForm(n, {((), kb, (), ()): fc[j] for j, kb in enumerate(keys)})
        pv = forms.pair_pointwise(f, v)
        want = np.array([pv.component(((), (), (), ka)) for ka in keys])
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


def test_pair_operator_is_the_sum_of_pointwise_pairings():
    g = make_grid(BALL2, 0.3, eps=0.2)
    k = kernels.gamma0q(BALL2, 1)
    f_func = quad.random_test_field(BALL2, 1, seed=6)
    z = np.array([0.1 - 0.05j, 0.2j])
    far, far_vols, sub, sub_vols, _ = _split_nodes_per_target(g, z)
    nodes = np.concatenate([g.centers[far], sub])
    vols = np.concatenate([far_vols, sub_vols])
    want = forms.DoubleForm.zero(2)
    for c, fc, vol in zip(nodes, f_func.batch(nodes), vols):
        f = forms.DoubleForm(2, {((), kb, (), ()): fc[j] for j, kb in enumerate(anti_keys(2, 1))})
        want = want + forms.pair_pointwise(f, k.eval(c, z)).scale(vol)
    got = quad.pair_operator(k, f_func, g, z, q=1)
    assert want.norm() > 0
    assert _max_coeff_diff(got, want) <= 1e-12 * want.norm()


def test_pair_operator_of_nq_is_the_batch_nq_path():
    # the pointwise kernel's packed rows go straight into the contraction
    g = make_grid(BALL3, 0.45, eps=0.2)
    f_func = quad.random_test_field(BALL3, 1, seed=2)
    z = np.array([0.1 - 0.05j, 0.2j, -0.1])
    got = quad.pair_operator(kernels.nq(BALL3, 1), f_func, g, z, q=1)
    want = apply_kernel(None, f_func, g, z[None, :], 1, batch_eval=batch_nq(BALL3, 1))[0]
    assert np.any(want != 0)
    assert [got.component(((), (), (), k)) for k in anti_keys(3, 1)] == list(want)


@pytest.mark.parametrize("kernel, q", [
    (kernels.KernelEvaluator("dzbar", 2, lambda zeta, z: forms.DoubleForm.monomial(2, aw=(1,))), 0),
    (kernels.gq(BALL3, 1), 1),
], ids=["aw-slot", "gq-adapted"])
def test_packing_rejects_what_it_cannot_pack(kernel, q):
    # two far cells and no subcells, so the error comes from packing
    n = kernel.n
    centers = np.array([[0.3] + [0.0] * (n - 1), [0.0, 0.3j] + [0.0] * (n - 2)])
    g = quad.Grid(domain.ball(n), 0.1, 0.2, centers, 0.01)
    with pytest.raises(QuadError):
        apply_kernel(kernel, Constant(*([1.0] * len(anti_keys(n, q)))), g,
                     np.array([[-0.3] + [0.0] * (n - 1)]), q)


def test_ratio_table_deterministic_and_metadata():
    rep1 = ratio_table(BALL2, "E", 0, a=0, b=0, p=2, s=3.5, trials=2,
                       resolutions=[8, 10], seed=11)
    rep2 = ratio_table(BALL2, "E", 0, a=0, b=0, p=2, s=3.5, trials=2,
                       resolutions=[8, 10], seed=11)
    r1 = [(r.resolution, r.trial, r.ratio) for r in rep1["rows"]]
    r2 = [(r.resolution, r.trial, r.ratio) for r in rep2["rows"]]
    assert r1 == r2
    assert set(rep1["meta"]["max_ratio_by_resolution"]) == {8, 10}


def _per_trial_ratios(model, kernel_name, q, a, b, p, s, trials, res, seed, n_targets):
    """ratio_table's rows rebuilt one trial at a time with single-field
    apply_kernel calls, so every trial evaluates its own kernels."""
    n = model.n
    rng = np.random.default_rng(seed)
    targets = []
    while len(targets) < n_targets:
        cand = rng.uniform(-0.45, 0.45, 2 * n)
        zc = cand[0::2] + 1j * cand[1::2]
        if model.r(zc) < -0.3:
            targets.append(zc)
    targets = np.asarray(targets)
    batch = (quad.batch_isotropic_model(model) if kernel_name == "E"
             else batch_nq(model, q))
    h = 2.0 * quad.GRID_BOX / res
    grid = make_grid(model, h, eps=2.0 * h)
    gam_t = np.array([model.gamma(z) for z in targets])
    tw = grid.total_volume() / len(targets)
    out = []
    for trial in range(trials):
        f_func = quad.random_test_field(model, q, seed=seed + 100 * trial)
        f = field_from_function(grid, f_func)
        denom = weighted_lp_norm(f, b, p) + weighted_lp_norm(f, 0.0, 2)
        vals = np.linalg.norm(apply_kernel(None, f_func, grid, targets, q,
                                           batch_eval=batch), axis=1)
        out.append(quad.norm_values(vals, gam_t, tw, a, s) / denom)
    return out


@pytest.mark.parametrize("model, kernel_name, q, a, b, res", [
    (BALL2, "E", 0, 0.0, 0.0, 8),
    (BALL3, "Nq", 1, 15.0, 2.0, 6),
    (BALL4, "Nq", 2, 15.0, 2.0, 6),
])
def test_ratio_table_kernel_reuse_keeps_the_numbers(model, kernel_name, q, a, b, res):
    # an n = 4 target meets up to 42k subcells, so that case takes fewer
    trials, seed, n_targets = (3, 5, 12) if model.n < 4 else (2, 5, 2)
    rep = ratio_table(model, kernel_name, q, a=a, b=b, p=2, s=3.5, trials=trials,
                      resolutions=[res], seed=seed, n_targets=n_targets)
    want = _per_trial_ratios(model, kernel_name, q, a, b, 2, 3.5, trials, res, seed,
                             n_targets)
    assert [(r.resolution, r.trial) for r in rep["rows"]] == \
        [(res, t) for t in range(trials)]
    np.testing.assert_allclose([r.ratio for r in rep["rows"]], want, rtol=1e-12, atol=0)


def test_field_from_function_batch_equals_pointwise():
    g = make_grid(BALL3, 0.3)
    f_func = quad.random_test_field(BALL3, 1, seed=2)
    f = field_from_function(g, f_func)
    # one point at a time, as the blocked kernel application samples subsets
    want = np.array([f_func.batch(c[None, :])[0] for c in g.centers])
    np.testing.assert_allclose(f.data, want, rtol=1e-14, atol=0)


def test_make_grid_matches_dense_lattice():
    # the grid is built slab by slab; the dense box masked at once is the reference
    for model, h, eps in ((BALL2, 0.15, None), (domain.pinched(3), 0.3, 0.2)):
        g = make_grid(model, h, eps=eps)
        m = int(np.ceil(quad.GRID_BOX / h))
        axis = (np.arange(-m, m) + 0.5) * h
        reals = np.stack(np.meshgrid(*([axis] * (2 * model.n)), indexing="ij"),
                         axis=-1).reshape(-1, 2 * model.n)
        dense = reals[:, 0::2] + 1j * reals[:, 1::2]
        want = dense[model.r(dense) < -g.eps]
        assert np.array_equal(g.centers, want)


# -- the slow paths that the fast ones replace, kept as oracles ----------------


def _bump_parts_per_point(zeta):
    """The bump's (b, db/dzeta_k, db/dzetabar_k) at one point, as the
    certificate computed it one cell at a time."""
    zeta = np.asarray(zeta, dtype=complex)
    n = len(zeta)
    R = 0.75
    u = float(np.sum(np.abs(zeta) ** 2)) / R ** 2
    if u >= 1.0:
        return 0.0, np.zeros(n, dtype=complex), np.zeros(n, dtype=complex)
    amp = np.exp(-1.0 / (1.0 - u) + 1.0)
    du_dz = zeta.conj() / R ** 2
    du_dzb = zeta / R ** 2
    return amp, -amp / (1.0 - u) ** 2 * du_dz, -amp / (1.0 - u) ** 2 * du_dzb


def _field_forms_per_point(model, seed, q):
    """The certificate's field as it was assembled before its constant forms
    were built once: value, dbar and vartheta closures that build the value
    form, forms.differential and hodge_star at each point."""
    rng = np.random.default_rng(seed)
    n = model.n
    keys = anti_keys(n, q)
    coef = rng.standard_normal(len(keys)) + 1j * rng.standard_normal(len(keys))

    def form(c):
        return forms.DoubleForm(n, {((), k, (), ()): coef[j] * c for j, k in enumerate(keys)})

    parts = _bump_parts_per_point

    def value(zeta):
        return form(parts(zeta)[0])

    def dbar(zeta):
        return forms.differential(n, "az", [form(c) for c in parts(zeta)[2]])

    def vartheta(zeta):
        dsv = forms.differential(n, "hz", [forms.hodge_star(form(c), "zeta")
                                           for c in parts(zeta)[1]])
        return forms.hodge_star(dsv, "zeta").scale(-1.0)

    return value, dbar, vartheta


def _adjointness_residual_per_point(model, h, seed):
    """adjointness_residual over the per-point assembly above."""
    grid = make_grid(model, h)
    u_val, u_dbar, _ = _field_forms_per_point(model, seed, 0)
    v_val, _, v_vth = _field_forms_per_point(model, seed + 1, 1)
    ip1 = ip2 = 0.0 + 0.0j
    nu = nv = 0.0
    for c in grid.centers:
        du, vv, uu, tv = u_dbar(c), v_val(c), u_val(c), v_vth(c)
        ip1 += forms.inner(du, vv)
        ip2 += forms.inner(uu, tv)
        nu += uu.norm() ** 2
        nv += vv.norm() ** 2
    vol = grid.cell_volume
    nu, nv = np.sqrt(nu * vol), np.sqrt(nv * vol)
    return float(abs(ip1 - ip2) * vol / (nu * nv))


def _sampled_one_by_one(fields, pts):
    """The test fields sampled one at a time from d = x - c, as TestField.batch
    did before one formula sampled the whole stack: (points, nfields, ncomp)."""
    out = []
    for f in fields:
        d = pts - f.c[None, :]
        amp = np.exp(-np.sum(np.abs(d) ** 2, axis=1) / (2 * quad.FIELD_SCALE ** 2))
        poly = 1.0 + np.concatenate([d.real, d.imag], axis=1) @ f.lin
        out.append((amp * poly)[:, None] * f.coef[None, :])
    return np.stack(out, axis=1)


def _split_nodes_per_target(grid, z):
    """_split_nodes as it was before the grid cached its subcell geometry:
    every cell's real coordinates, and r at every near subcell, rebuilt for
    the target.  Also returns the number of subcells that r < -eps drops."""
    n, h = grid.n, grid.h
    reals = np.concatenate([np.stack([grid.centers.real[:, j], grid.centers.imag[:, j]],
                                     axis=1) for j in range(n)], axis=1)
    zr = np.concatenate([[z.real[j], z.imag[j]] for j in range(n)])
    near = np.max(np.abs(reals - zr), axis=1) <= 1.5 * h
    far = ~near
    far_vols = np.full(int(np.count_nonzero(far)), grid.cell_volume)
    offs = np.array(list(itertools.product((-h / 4, h / 4), repeat=2 * n)))
    sub = (reals[near][:, None, :] + offs[None, :, :]).reshape(-1, 2 * n)
    sub_c = sub[:, 0::2] + 1j * sub[:, 1::2]
    dist = np.linalg.norm(sub_c - z[None, :], axis=1)
    rvals = grid.model.r(sub_c)
    keep = (dist >= h / 2) & (rvals < -grid.eps)
    sub_c = sub_c[keep]
    sub_vols = np.full(len(sub_c), grid.cell_volume / (2 ** (2 * n)))
    dropped = int(np.count_nonzero((dist >= h / 2) & ~keep))
    return far, far_vols, sub_c, sub_vols, dropped


def _split_and_kept_subcells(grid, z):
    """One target's far-cell mask and kept subcells, as `apply_kernel` takes
    them: `_split_nodes`, then the near cells' subcells in r < -eps less
    those within h/2 of z."""
    far, near = quad._split_nodes(grid, z)
    counts, sub = quad._subcells(grid, near)
    return far, sub[quad._outside_half_cell(grid, z, near, counts, sub)]


def _apply_per_target(kernel_batch, f_func, grid, targets):
    """apply_kernel as it was before the near cells were walked in blocks:
    per target, the scanned split and one batch_eval call on the far cells
    and the kept subcells together, the profile moments of the subcells in
    BLOCK_NODES blocks.  (ntargets, ..., ncomp)."""
    profiles = f_func.profiles if hasattr(f_func, "profiles") else f_func.batch
    base = profiles(grid.centers)
    coef = getattr(f_func, "coefficients", np.eye(base.shape[1]))
    out = np.empty((len(targets),) + coef.shape[:-2] + coef.shape[-1:], dtype=complex)
    sub_vol = grid.cell_volume / 4 ** grid.n
    for ti, z in enumerate(np.asarray(targets, dtype=complex)):
        far, _, sub, _, _ = _split_nodes_per_target(grid, z)
        far_rows = base[far]
        K = kernel_batch(np.concatenate([grid.centers[far], sub]), z)
        k_far, k_sub = np.split(K.reshape(len(K), -1), [len(far_rows)])
        moments = grid.cell_volume * (far_rows.conj().T @ k_far)
        for lo in range(0, len(sub), quad.BLOCK_NODES):
            rows = profiles(sub[lo:lo + quad.BLOCK_NODES])
            moments += sub_vol * (rows.conj().T @ k_sub[lo:lo + quad.BLOCK_NODES])
        out[ti] = np.tensordot(coef, moments.conj().reshape(-1, *K.shape[1:]), 2)
    return out


def _apply_by_einsum(sample, grid, targets, batch_eval):
    """apply_kernel as it was: the per-target split, the field's values
    sample(points) -> (points, ..., ncomp) and one einsum over all of a
    target's nodes.  (ntargets, ..., ncomp)."""
    out = []
    for z in targets:
        far, far_vols, sub, sub_vols, _ = _split_nodes_per_target(grid, z)
        nodes = np.concatenate([grid.centers[far], sub])
        vols = np.concatenate([far_vols, sub_vols])
        out.append(np.einsum("i...b,iba->...a", sample(nodes),
                             batch_eval(nodes, z).conj() * vols[:, None, None],
                             optimize=True))
    return np.array(out)


def _near_the_edge(grid, count):
    """Points a third of a cell off the grid's outermost cells, where some
    refined subcells leave r < -eps."""
    edge = grid.centers[np.argsort(grid.model.r(grid.centers))[-count:]]
    return edge + grid.h / 3 * (1 - 0.5j)


@pytest.mark.parametrize("model, q", [(BALL2, 0), (BALL3, 1)], ids=["n2q0", "n3q1"])
def test_field_stack_is_the_fields_one_by_one(model, q):
    g = make_grid(model, 0.3, eps=0.2)
    sub = _split_and_kept_subcells(g, _near_the_edge(g, 1)[0])[1]
    pts = np.concatenate([g.centers, sub])
    fields = [quad.random_test_field(model, q, seed=s) for s in range(8)]
    want = _sampled_one_by_one(fields, pts)
    # the affine factor crosses zero, so each field is compared at its own scale
    scale = np.max(np.abs(want), axis=0)
    stack = quad._FieldStack(fields)
    got = np.einsum("pm,fmb->pfb", stack.profiles(pts), stack.coefficients)
    assert np.all(np.abs(got - want) <= 1e-13 * scale)
    assert np.all(np.abs(fields[3].batch(pts) - want[:, 3]) <= 1e-13 * scale[3])


def _lattice_targets(grid, seed):
    """Targets for the near-cell lookup, by kind: seeded interior points,
    points near the grid's edge, points whose 1.5h box runs past the
    outermost lattice values (the last one beyond the lattice altogether),
    and points with a coordinate exactly 1.5h from a cell's coordinate, the
    inclusive tie of the near test."""
    n, h = grid.n, grid.h
    rng = np.random.default_rng(seed)
    cand = rng.uniform(-0.8, 0.8, (400, 2 * n)).view(complex)
    reals = grid.centers.view(float)
    clipped = []
    for k, side, past in ((0, 1, 0.2), (3, -1, 0.7), (2 * n - 1, -1, 0.4)):
        z = reals[np.argmax(side * reals[:, k])] + 0.1 * h
        z[k] += side * past * h
        clipped.append(z.view(complex))
    clipped.append(np.full(n, 2.0 * np.abs(reals).max() + 3 * h, dtype=complex))
    ties = []
    for i, c in enumerate(grid.centers[rng.choice(len(grid), 6, replace=False)]):
        z = (c + rng.uniform(-0.3, 0.3, 2 * n).view(complex) * h).view(float)
        z[i % (2 * n)] = c.view(float)[i % (2 * n)] + (1.5 if i % 2 else -1.5) * h
        ties.append(z.view(complex))
    return {"seeded": cand[grid.model.r(cand) < 0][:6], "edge": _near_the_edge(grid, 6),
            "clipped": np.array(clipped), "ties": np.array(ties)}


@pytest.mark.parametrize("model, h, eps", [
    (BALL2, 0.15, 0.3), (BALL3, 0.3, 0.2), (domain.pinched(3), 0.3, 0.2)],
    ids=["ball2", "ball3", "pinched3"])
def test_split_nodes_is_the_per_target_split(model, h, eps):
    # the near cells come from the lattice index, the oracle scans them
    g = make_grid(model, h, eps=eps)
    reals = g.centers.view(float)
    dropped = 0
    for kind, targets in _lattice_targets(g, 3).items():
        for i, z in enumerate(targets):
            far, sub = _split_and_kept_subcells(g, z)
            want_far, _, want_sub, _, out = _split_nodes_per_target(g, z)
            assert np.array_equal(far, want_far) and np.array_equal(sub, want_sub), (kind, i)
            dropped += out
            if kind == "clipped":
                assert far.all() == (i == 3)
        if kind == "ties":
            # the targets do sit exactly 1.5h from some cells
            dist = np.abs(reals[:, None, :] - targets.view(float)[None, :, :]).max(axis=2)
            assert np.any(dist == 1.5 * h)
    # the edge targets do meet subcells that r < -eps drops
    assert dropped > 0


@pytest.mark.parametrize("model, q, h, eps", [
    (BALL2, 0, 0.15, 0.3), (BALL3, 1, 0.3, 0.3), (BALL4, 2, 0.45, 0.5)],
    ids=["E-ball2", "Nq-ball3-1", "Nq-ball4-2"])
def test_blocked_walk_is_the_per_target_path(monkeypatch, model, q, h, eps):
    # a small walk budget cuts the union of near cells inside the first
    # complex coordinate too; the trial stack has complex noise beside the
    # real profiles through its coefficients
    batch = quad.batch_isotropic_model(model) if q == 0 else batch_nq(model, q)
    g = make_grid(model, h, eps=eps)
    cand = np.random.default_rng(5).uniform(-0.4, 0.4, (200, 2 * model.n)).view(complex)
    targets = np.concatenate([cand[model.r(cand) < -eps][:2], _near_the_edge(g, 1)])
    stack = quad._FieldStack([quad.random_test_field(model, q, seed=s) for s in range(3)])
    want = _apply_per_target(batch, stack, g, targets)
    for walk in (quad.WALK_NODES, 997):
        monkeypatch.setattr(quad, "WALK_NODES", walk)
        np.testing.assert_allclose(apply_kernel(None, stack, g, targets, q, batch_eval=batch),
                                   want, rtol=1e-14, atol=0)
    assert apply_kernel(None, stack, g, targets[:0], q, batch_eval=batch).shape == \
        (0,) + want.shape[1:]


@pytest.mark.parametrize("kernel_name", ["E", "Nq"])
def test_blocked_evaluation_matches_one_block(monkeypatch, kernel_name):
    # blocks of 97 nodes split the far cells, the subcells and the boundary
    # between them unevenly; one einsum over all of a target's nodes, with
    # the fields sampled one at a time, is the reference for any block size,
    # for a stack of trial fields and for a complex field with no profiles
    block = 97
    model, q = (BALL2, 0) if kernel_name == "E" else (BALL3, 1)
    batch = quad.batch_isotropic_model(model) if q == 0 else batch_nq(model, q)
    g = make_grid(model, 0.3, eps=0.3)
    z = np.array([[0.05, -0.1j] + [0.0] * (model.n - 2),
                  [0.2j, 0.1] + [0.0] * (model.n - 2)], dtype=complex)
    for zz in z:
        far, sub = _split_and_kept_subcells(g, zz)
        nfar = int(np.count_nonzero(far))
        assert nfar % block != 0 and len(sub) > block
    evaluated, calls = {}, []

    def once(nodes, zz):
        # each (nodes, target) kernel array is evaluated once and handed to
        # every contraction below, which must only read it
        key = (nodes.tobytes(), zz.tobytes())
        calls.append(key)
        if key not in evaluated:
            K = batch(nodes, zz)
            evaluated[key] = (K, K.copy())
        return evaluated[key][0]

    fields = [quad.random_test_field(model, q, seed=s) for s in range(1, 9)]
    want = _apply_by_einsum(lambda pts: _sampled_one_by_one(fields, pts), g, z, once)
    noise = Noise(np.random.default_rng(2), len(anti_keys(model.n, q)))
    want_noise = _apply_by_einsum(noise.batch, g, z, once)
    # the reference takes each target's nodes in one call
    whole = calls[:len(z)]
    assert len(evaluated) == len(z) and calls == whole + whole
    nodes = g.centers[::3]
    assert len(nodes) > block
    want_k = batch(nodes, z[0])
    for size in (quad.BLOCK_NODES, block):
        monkeypatch.setattr(quad, "BLOCK_NODES", size)
        runs = []
        for f_func, ref in ((quad._FieldStack(fields), want), (fields[5], want[:, 5]),
                            (noise, want_noise)):
            calls.clear()
            np.testing.assert_allclose(apply_kernel(None, f_func, g, z, q, batch_eval=once),
                                       ref, rtol=1e-13, atol=0)
            runs.append(list(calls))
        # every apply makes the same calls, and a target's calls, in order,
        # hold the reference's nodes for it, each node once
        assert runs[0] == runs[1] == runs[2]
        for zz, (all_nodes, target) in zip(z, whole):
            assert target == zz.tobytes()
            assert b"".join(k for k, t in runs[0] if t == target) == all_nodes
        assert len(runs[0]) > len(z)
        np.testing.assert_array_equal(batch(nodes, z[0]), want_k)
    assert all(np.array_equal(k, k0) for k, k0 in evaluated.values())


def test_ratio_table_unknown_kernel():
    with pytest.raises(QuadError, match="no vectorized kernel 'X'"):
        ratio_table(BALL2, "X", 0, a=0, b=0, p=2, s=3.5, trials=1, resolutions=[8])


@pytest.mark.parametrize("model", [domain.pinched(3), BALL3], ids=["pinched3", "ball3"])
def test_ratio_table_checks_the_kernel_name_before_drawing_targets(model):
    # pinched(3) has fewer than 32 targets in the draws; the name is still
    # what is reported
    with pytest.raises(QuadError, match="no vectorized kernel 'Xq'"):
        ratio_table(model, "Xq", 1, a=0, b=0, p=2, s=3.5, trials=1, resolutions=[8])


def test_norms_reject_nan_p():
    with pytest.raises(QuadError, match="p must be >= 1"):
        quad.norm_values(np.ones(3), np.ones(3), 1.0, 0.0, float("nan"))
    f = field_from_function(make_grid(BALL2, 0.3), Constant(1.0))
    with pytest.raises(QuadError, match="p must be >= 1"):
        weighted_lp_norm(f, 0, float("nan"))
    assert quad.norm_values(np.ones(3), np.ones(3), 1.0, 0.0, np.inf) == 1.0


@pytest.mark.parametrize("p, s, admissible", [
    (2, 3.5, True), (2, 5, False), (2, np.inf, False), (np.inf, np.inf, True)])
def test_ratio_table_works_out_admissibility(p, s, admissible):
    # E at n=2 is isotropic type 1: s is admissible where 1/s > 1/p - 1/4, so
    # below 4 at p=2, and at every s at p=inf
    rep = ratio_table(BALL2, "E", 0, a=0, b=0, p=p, s=s, trials=1, resolutions=[8])
    assert rep["meta"]["admissible"] is admissible


def test_isotropic_model_follows_the_levi_matrix():
    # rho^2 = 2 <levi d, d>: with a non-identity Levi matrix it is not 2 |d|^2
    levi = np.array([[2.0, 0.5j], [-0.5j, 1.0]])
    model = dataclasses.replace(BALL2, levi_const=levi)
    z = np.array([0.1 + 0.05j, -0.2j])
    nodes = make_grid(BALL2, 0.3).centers
    d = nodes - z
    rho2 = 2 * np.real(np.einsum("pi,ij,pj->p", d.conj(), levi, d))
    np.testing.assert_allclose(quad.batch_isotropic_model(model)(nodes, z)[:, 0, 0],
                               rho2 ** -1.5, rtol=1e-13, atol=0)


def test_apply_translation_consistency():
    z = np.array([[0.05, -0.02]], dtype=complex)
    batch = quad.batch_isotropic_model(BALL2)
    f = quad.random_test_field(BALL2, 0, seed=9)
    diffs = []
    for h in (0.2, 0.1):
        g = make_grid(BALL2, h, eps=0.4)

        class Shifted:
            def batch(self, pts):
                return f.batch(pts - h)

        o1 = apply_kernel(None, f, g, z, 0, batch_eval=batch)
        o2 = apply_kernel(None, Shifted(), g, z + h, 0, batch_eval=batch)
        diffs.append(abs(o2[0, 0] - o1[0, 0]) / abs(o1[0, 0]))
    assert diffs[1] <= 0.75 * diffs[0] + 1e-9
