"""Grids, weighted norms, operator application, ratio tables."""

import numpy as np
import pytest

from hlkernels import domain, forms, kernels, quad
from hlkernels.quad import (QuadError, anti_keys, apply_kernel, batch_nq,
                            field_from_function, make_grid, ratio_table,
                            weighted_lp_norm)

BALL2 = domain.ball(2)
BALL3 = domain.ball(3)


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
        make_grid(BALL2, 0.05, eps=0.999)


def test_constant_field_l2_matches_volume():
    g = make_grid(BALL2, 0.1)
    f = field_from_function(g, 0, lambda c: {(): 1.0})
    vol_exact = 4 * np.pi ** 2 * (1 - g.eps) ** 2 / 2
    assert weighted_lp_norm(f, 0, 2) == pytest.approx(np.sqrt(vol_exact), rel=0.05)


def test_norm_inequalities_and_zero():
    g = make_grid(BALL2, 0.15)
    rng = np.random.default_rng(0)
    f = field_from_function(
        g, 0, lambda c: {(): complex(rng.standard_normal(), rng.standard_normal())})
    vol = g.total_volume()
    assert weighted_lp_norm(f, 0, 1) <= np.sqrt(vol) * weighted_lp_norm(f, 0, 2) + 1e-9
    z = field_from_function(g, 0, lambda c: {(): 0.0})
    assert weighted_lp_norm(z, 0, 2) == 0.0
    assert weighted_lp_norm(f, 0, np.inf) == pytest.approx(f.norm_pointwise().max())


def test_inner_product_norm_consistency():
    g = make_grid(BALL2, 0.2)
    rng = np.random.default_rng(1)
    f = field_from_function(
        g, 1, lambda c: {k: complex(rng.standard_normal(), rng.standard_normal())
                         for k in anti_keys(2, 1)})
    ip = np.sum(np.abs(f.data) ** 2) * g.cell_volume
    assert weighted_lp_norm(f, 0, 2) == pytest.approx(np.sqrt(ip), rel=1e-12)


def test_apply_type_mismatch_is_zero_field():
    g = make_grid(BALL2, 0.25)
    scalar_kernel = kernels.gamma0q(BALL2, 0)
    z = np.array([0.1, 0.0], dtype=complex)
    out = quad.pair_operator(scalar_kernel, lambda c: {(1,): 1.0, (2,): 0.0},
                             g, z, q=1)
    assert out.is_zero()


def test_pair_operator_constant_kernel():
    g = make_grid(BALL2, 0.12)
    cval = 0.8 - 0.3j
    k = kernels.KernelEvaluator(
        "const", 2, lambda zeta, z: forms.DoubleForm.scalar(2, cval))
    z = np.array([0.05, 0.0], dtype=complex)
    out = quad.pair_operator(k, lambda c: {(): 1.0}, g, z, q=0)
    got = out.component(((), (), (), ()))
    want = np.conj(cval) * g.total_volume()
    assert got == pytest.approx(want, rel=0.02)


def test_pair_operator_outside_domain():
    g = make_grid(BALL2, 0.25)
    k = kernels.gamma0q(BALL2, 0)
    with pytest.raises(QuadError):
        quad.pair_operator(k, lambda c: {(): 1.0}, g,
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
        gam = kernels.gamma0q(BALL2, 0)
        batch = lambda nodes, zz: np.array(
            [[[gam.eval(cc, zz).component(((), (), (), ())) ]] for cc in nodes])
        out = apply_kernel(None, f, g, z, 0, batch_eval=batch)
        vals.append(abs(out[0, 0]))
    assert abs(vals[1] - vals[0]) <= 0.10 * max(vals)


def test_batch_nq_matches_pointwise():
    batch = batch_nq(BALL3, 1)
    rng = np.random.default_rng(3)
    pts = []
    while len(pts) < 4:
        cand = rng.uniform(-0.7, 0.7, 6)
        zc = cand[0::2] + 1j * cand[1::2]
        if BALL3.r(zc) < -0.1:
            pts.append(zc)
    # dr is along dzeta_1 here, so the frame skips that coordinate candidate
    pts.append(np.array([0.5, 0, 0], dtype=complex))
    pts = np.asarray(pts)
    z = np.array([0.3 + 0.1j, -0.2, 0.15j])
    K = batch(pts, z)
    n1 = kernels.nq(BALL3, 1)
    for i, cc in enumerate(pts):
        v = n1.eval(cc, z)
        for b in range(3):
            for a in range(3):
                assert K[i, b, a] == pytest.approx(
                    v.component(((), (b + 1,), (a + 1,), ())), abs=1e-12)


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
    tw = np.full(len(targets), grid.total_volume() / len(targets))
    out = []
    for trial in range(trials):
        f_func = quad.random_test_field(model, q, seed=seed + 100 * trial)
        f = field_from_function(grid, q, f_func)
        denom = weighted_lp_norm(f, b, p) + weighted_lp_norm(f, 0.0, 2)
        vals = np.linalg.norm(apply_kernel(None, f_func, grid, targets, q,
                                           batch_eval=batch), axis=1)
        out.append(quad.norm_values(vals, gam_t, tw, a, s) / denom)
    return out


@pytest.mark.parametrize("model, kernel_name, q, a, b, res", [
    (BALL2, "E", 0, 0.0, 0.0, 8),
    (BALL3, "Nq", 1, 15.0, 2.0, 6),
])
def test_ratio_table_kernel_reuse_keeps_the_numbers(model, kernel_name, q, a, b, res):
    trials, seed, n_targets = 3, 5, 12
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
    f = field_from_function(g, 1, f_func)
    keys = anti_keys(3, 1)
    want = np.array([[f_func(c)[k] for k in keys] for c in g.centers])
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


@pytest.mark.parametrize("kernel_name", ["E", "Nq"])
def test_blocked_evaluation_matches_one_block(monkeypatch, kernel_name):
    # blocks of 7 nodes split the far cells, the subcells and the boundary
    # between them unevenly
    model, q = (BALL2, 0) if kernel_name == "E" else (BALL3, 1)
    batch = quad.batch_isotropic_model(model) if q == 0 else batch_nq(model, q)
    g = make_grid(model, 0.3, eps=0.3)
    z = np.array([[0.05, -0.1j] + [0.0] * (model.n - 2),
                  [0.2j, 0.1] + [0.0] * (model.n - 2)], dtype=complex)
    fields = quad._FieldStack([quad.random_test_field(model, q, seed=s) for s in (1, 2)])
    nodes = g.centers[::3]
    monkeypatch.setattr(quad, "BLOCK_NODES", 10 ** 9)
    want_out = apply_kernel(None, fields, g, z, q, batch_eval=batch)
    want_k = batch(nodes, z[0])
    monkeypatch.setattr(quad, "BLOCK_NODES", 7)
    np.testing.assert_allclose(apply_kernel(None, fields, g, z, q, batch_eval=batch),
                               want_out, rtol=1e-12, atol=0)
    np.testing.assert_array_equal(batch(nodes, z[0]), want_k)


def test_ratio_table_unknown_kernel():
    with pytest.raises(QuadError):
        ratio_table(BALL2, "X", 0, a=0, b=0, p=2, s=3.5, trials=1, resolutions=[8])


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
