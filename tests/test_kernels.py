"""Kernel constructions, derivative operators, and their structural checks.

The rate-based comparisons against the printed main terms live in the verify
suites; here we pin exact values, degrees, and the small derivative facts.
"""

import dataclasses
import inspect
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hlkernels import domain, forms, kernels, verify
from hlkernels.forms import DoubleForm
from hlkernels.kernels import (KernelError, PoleOnDiagonal, adjoint_kernel,
                               coefficient_a, coefficient_c)

BALL2 = domain.ball(2)
BALL3 = domain.ball(3)


def c(*vals):
    return np.array(vals, dtype=complex)


ZETA = c(1.0, 0.0)
Z = c(0.9, 0.0)


# -- building blocks ---------------------------------------------------------------


def test_alpha_frozen_value():
    v = kernels.alpha(BALL2).eval(ZETA, Z)
    assert v.component(((1,), (), (), ())) == pytest.approx(10.0)
    assert v.component(((2,), (), (), ())) == pytest.approx(0.0)


def test_alpha_vanishes_outside_patch():
    deep = c(0.2, 0.0)       # |r| = 0.96 > 3 delta / 2
    assert kernels.alpha(BALL2).eval(deep, Z).is_zero()


def test_beta_frozen_value():
    v = kernels.beta(BALL2).eval(ZETA, Z)
    r2 = BALL2.rho2(ZETA, Z)
    assert v.component(((1,), (), (), ())) == pytest.approx(2 * 0.1 / r2)


def test_beta_pole_on_diagonal():
    with pytest.raises(PoleOnDiagonal):
        kernels.beta(BALL2).eval(ZETA, ZETA)


def test_coefficients():
    assert coefficient_a(3, 1, 0, 0) == pytest.approx((1 / (2j * np.pi)) ** 3)
    assert coefficient_a(3, 1, 0, 1) == pytest.approx((1 / (2j * np.pi)) ** 3)
    # n = 2q+2 makes q-nu and q-mu agree; these tell the two indices apart
    assert coefficient_a(5, 1, 0, 1) == pytest.approx((1 / (2j * np.pi)) ** 5)
    assert coefficient_a(5, 1, 1, 0) == pytest.approx(2 * (1 / (2j * np.pi)) ** 5)
    assert coefficient_a(3, 0, 1, 0) == pytest.approx((1 / (2j * np.pi)) ** 3)
    assert coefficient_c(3, 1) == pytest.approx(2 / (2 * np.pi) ** 3)
    with pytest.raises(KernelError):
        coefficient_a(3, 1, 5, 0)
    with pytest.raises(KernelError):
        coefficient_c(3, 2)


def test_c0_degenerate_single_term():
    # n=2, q=0: single term alpha ^ beta
    k = kernels.cq(BALL2, 0)
    v = k.eval(ZETA, Z)
    al = kernels.alpha(BALL2).eval(ZETA, Z)
    be = kernels.beta(BALL2).eval(ZETA, Z)
    want = forms.wedge(al, be).scale(coefficient_a(2, 0, 0, 0))
    assert (v - want).norm() < 1e-9 * max(v.norm(), 1.0)


def test_cq_bidegree():
    n, q = 3, 1
    v = kernels.cq(BALL3, q).eval(c(0.98, 0.1, 0.05), c(0.9, 0.12, 0.04))
    assert v.zeta_degree() == (n, n - q - 2)
    assert v.z_degree() == (0, q)


def test_lq_bidegree_and_claimed_type():
    k = kernels.lq(BALL3, 1)
    v = k.eval(c(0.98, 0.1, 0.05), c(0.9, 0.12, 0.04))
    assert v.zeta_degree() == (0, 3)
    assert v.z_degree() == (1, 0)


# -- closed-form jets against the finite-difference oracle --------------------------

JET_MODELS = [domain.make_domain(name, n) for name in ("ball", "pinched") for n in (2, 3, 4)]
JET_DEPTHS = {"xi=1": -0.08, "band": -0.19, "xi=0": -0.3}   # r at zeta; delta = 0.15


def _pair_at_depth(model, r_target, seed=0):
    """zeta inward from a boundary base point with r(zeta) = r_target, and a
    z near the boundary beside it."""
    p = verify._base_point(model, seed)
    nu = model.inward_normal(p)
    lo, hi = 0.0, 0.5
    for _ in range(60):
        t = 0.5 * (lo + hi)
        lo, hi = (t, hi) if model.r(p + t * nu) > r_target else (lo, t)
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(model.n) + 1j * rng.standard_normal(model.n)
    return p + lo * nu, p + 0.03 * nu + 0.04 * w / np.linalg.norm(w)


def _rel(got, want):
    """Largest coefficient error relative to the largest coefficient of want."""
    scale = max([abs(v) for v in want.coeffs.values()] + [0.0])
    diff = (got - want).coeffs.values()
    err = max([abs(v) for v in diff] + [0.0])
    return err / scale if scale else err


def _model_id(model):
    return f"{model.name}{model.n}"


@pytest.mark.parametrize("depth", sorted(JET_DEPTHS))
@pytest.mark.parametrize("model", JET_MODELS, ids=_model_id)
def test_alpha_jet_matches_oracle(model, depth):
    """The jet against the finite-difference dbar alpha, modulo alpha:
    alpha ^ dbar alpha = (xi / Phi) alpha ^ Omega(H), the identity C_q and
    K_q rest on."""
    zeta, z = _pair_at_depth(model, JET_DEPTHS[depth])
    xi = model.xi_patch(zeta)
    assert (xi == 1.0, 0.0 < xi < 1.0, xi == 0.0) == (depth == "xi=1", depth == "band",
                                                       depth == "xi=0")
    al = kernels.alpha(model)
    a, s = kernels.alpha_jet(model, zeta, z)
    dal = kernels.kernel_derivative(al, "dbar", "zeta").eval(zeta, z)
    if depth == "xi=0":
        assert dal.is_zero() and s == 0.0 and not a.any()
        return
    assert s == pytest.approx(xi / model.phi(zeta, z), rel=1e-14)
    av = al.eval(zeta, z)
    want = forms.wedge(av, dal)
    got = forms.wedge(av, kernels._jet_dbar(model.n, "az", model.levi_const)).scale(s)
    assert _rel(got, want) < 1e-7
    # alpha is holomorphic in z: the oracle's dbar_z is roundoff against dbar_zeta
    dz = kernels.kernel_derivative(al, "dbar", "z").eval(zeta, z)
    assert dz.norm() < 1e-7 * dal.norm()


@pytest.mark.parametrize("depth", sorted(JET_DEPTHS))
@pytest.mark.parametrize("model", JET_MODELS, ids=_model_id)
def test_beta_jet_matches_oracle(model, depth):
    """The jet against the finite-difference dbar beta, modulo beta:
    beta ^ dbar_zeta beta = (2 / rho^2) beta ^ Omega(H^T) and
    beta ^ dbar_z beta = -(2 / rho^2) beta ^ Omega_z(H^T)."""
    zeta, z = _pair_at_depth(model, JET_DEPTHS[depth])
    be = kernels.beta(model)
    _, s = kernels.beta_jet(model, zeta, z)
    assert s == pytest.approx(2.0 / model.rho2(zeta, z), rel=1e-14)
    bv = be.eval(zeta, z)
    n, ht = model.n, model.levi_const.T
    for var, slot, m in (("zeta", "az", ht), ("z", "aw", -ht)):
        want = forms.wedge(bv, kernels.kernel_derivative(be, "dbar", var).eval(zeta, z))
        got = forms.wedge(bv, kernels._jet_dbar(n, slot, m)).scale(s)
        assert _rel(got, want) < 1e-7


def _fd_cq(model, q, zeta, z):
    """C_q assembled from the evaluators and their finite-difference dbar
    factors, with the full nu-sum."""
    n = model.n
    al, be = kernels.alpha(model), kernels.beta(model)
    av, bv = al.eval(zeta, z), be.eval(zeta, z)
    d = {(f.id, var): kernels.kernel_derivative(f, "dbar", var).eval(zeta, z)
         for f in (al, be) for var in ("zeta", "z")}
    out = DoubleForm.zero(n)
    for mu in range(n - q - 1):
        for nu in range(q + 1):
            t = forms.wedge(forms.wedge(av, bv), forms.wedge_power(d["alpha", "zeta"], mu))
            t = forms.wedge(t, forms.wedge_power(d["beta", "zeta"], n - q - mu - 2))
            t = forms.wedge(t, forms.wedge_power(d["alpha", "z"], nu))
            t = forms.wedge(t, forms.wedge_power(d["beta", "z"], q - nu))
            out = out + t.scale(coefficient_a(n, q, mu, nu))
    return out


def _fd_kq(model, q, zeta, z):
    n = model.n
    al = kernels.alpha(model)
    out = forms.wedge(al.eval(zeta, z), forms.wedge_power(
        kernels.kernel_derivative(al, "dbar", "zeta").eval(zeta, z), n - q - 1))
    out = forms.wedge(out, forms.wedge_power(
        kernels.kernel_derivative(al, "dbar", "z").eval(zeta, z), q))
    const = (-1.0) ** (q * (q - 1) // 2) * comb(n - 1, q) * (1.0 / (2j * np.pi)) ** n
    return out.scale(const)


@pytest.mark.parametrize("depth", ["xi=1", "band"])
@pytest.mark.parametrize("model", [m for m in JET_MODELS if m.n >= 3], ids=_model_id)
def test_cq_and_kq_match_finite_difference_assembly(model, depth):
    zeta, z = _pair_at_depth(model, JET_DEPTHS[depth], seed=1)
    n = model.n
    for q in range(n - 1):
        got, want = kernels.cq(model, q).eval(zeta, z), _fd_cq(model, q, zeta, z)
        assert not want.is_zero() and _rel(got, want) < 1e-8
    got, want = kernels.kq(model, 0).eval(zeta, z), _fd_kq(model, 0, zeta, z)
    assert _rel(got, want) < 1e-8
    for q in range(1, n):
        # (dbar_z alpha)^q = 0: exactly zero here, roundoff in the assembly
        assert kernels.kq(model, q).eval(zeta, z).is_zero()
        assert _fd_kq(model, q, zeta, z).norm() < 1e-8 * want.norm()


# -- C_q and L_q on rows against the dict algebra ----------------------------------


def _cq_dict(model, q):
    """C_q = alpha ^ beta ^ sum_mu a_{q mu 0} (xi / Phi)^mu (2 / rho^2)^(n-2-mu) W_mu,
    assembled pointwise with dict wedges: the oracle of `kernels.cq`."""
    n, h = model.n, model.levi_const
    da, db = kernels._jet_dbar(n, "az", h), kernels._jet_dbar(n, "az", h.T)
    tail = forms.wedge_power(kernels._jet_dbar(n, "aw", -h.T), q)
    ws = [forms.wedge(forms.wedge(forms.wedge_power(da, mu),
                                  forms.wedge_power(db, n - q - 2 - mu)), tail)
          .scale(coefficient_a(n, q, mu, 0)) for mu in range(n - q - 1)]

    def ev(zeta, z):
        a, sa = kernels.alpha_jet(model, zeta, z)
        av = kernels._one_form(n, a)
        if av.is_zero():
            return DoubleForm.zero(n)
        b, sb = kernels.beta_jet(model, zeta, z)
        series = DoubleForm.zero(n)
        for mu, w in enumerate(ws):
            series = series + w.scale(sa ** mu * sb ** (n - 2 - mu))
        return forms.wedge(forms.wedge(av, kernels._one_form(n, b)), series)

    return ev


def _lq_dict(model, q):
    """(-1)^(q+1) *_zeta conj(C_q) of the dict oracle."""
    c = _cq_dict(model, q)
    return lambda zeta, z: forms.hodge_star(forms.conj_form(c(zeta, z)), "zeta").scale(
        (-1.0) ** (q + 1))


def _row_cases(model, q):
    """(rows evaluator, dict oracle) for C_q, L_q and *_zeta L_q."""
    lq_dict = _lq_dict(model, q)
    return [(kernels.cq(model, q), _cq_dict(model, q)), (kernels.lq(model, q), lq_dict),
            (kernels.kernel_star_zeta(kernels.lq(model, q)),
             lambda zeta, z: forms.hodge_star(lq_dict(zeta, z), "zeta"))]


def _assert_rows_match(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.frame == w.frame and g.coeffs.keys() <= w.coeffs.keys()
        assert _rel(g, w) <= 1e-13


@pytest.mark.parametrize("model", [m for m in JET_MODELS if m.n >= 3] + [
    domain.make_domain(name, 5) for name in ("ball", "pinched")], ids=_model_id)
def test_cq_and_lq_rows_match_the_dict_oracle(model):
    """Stencil rows of zeta at a fixed z, and of z at a fixed zeta, on the
    seed-0 path from t = 2^-3 to 2^-10, for every q."""
    path = verify.PathSpec(model, verify._base_point(model, 0), "parabolic",
                           (2.0 ** -3, 2.0 ** -6, 2.0 ** -10), 0)
    for q in range(model.n - 1):
        for k, oracle in _row_cases(model, q):
            for _, zeta, z in path.pairs():
                h = kernels._fd_scale(zeta, z)
                zetas, zs = kernels._stencil(zeta, h), kernels._stencil(z, h)
                _assert_rows_match(k.rows(zetas, z), [oracle(p, z) for p in zetas])
                _assert_rows_match(k.rows(zs, zeta, "z"), [oracle(zeta, p) for p in zs])
                _assert_rows_match([k.eval(zeta, z)], [oracle(zeta, z)])


@pytest.mark.parametrize("model", [m for m in JET_MODELS if m.n >= 3], ids=_model_id)
def test_rows_through_the_patch_cutoff(model):
    """One row where xi = 1, one in the C^2 band delta < |r| < 1.5 delta and
    one where xi = 0, whose value is zero; in either variable."""
    rows = {depth: _pair_at_depth(model, r, seed=2) for depth, r in JET_DEPTHS.items()}
    zetas = np.array([rows[d][0] for d in ("xi=1", "band", "xi=0")])
    xi = model.xi_patch(zetas)
    assert xi[0] == 1.0 and 0.0 < xi[1] < 1.0 and xi[2] == 0.0
    z = rows["xi=1"][1]
    for q in range(model.n - 1):
        for k, oracle in _row_cases(model, q):
            got = k.rows(zetas, z)
            assert not got[1].is_zero() and got[2].coeffs == {}
            _assert_rows_match(got, [oracle(p, z) for p in zetas])
            # z in the band or where xi = 0: the cutoff is taken at zeta only
            got = k.rows(zetas[::-1], z, "z")
            _assert_rows_match(got, [oracle(z, p) for p in zetas[::-1]])


def test_rows_pole_on_diagonal():
    zeta, z = _frozen_pair(BALL3)
    deep = _pair_at_depth(BALL3, JET_DEPTHS["xi=0"])[0]
    for k, _ in _row_cases(BALL3, 1):
        with pytest.raises(PoleOnDiagonal):
            k.rows(np.array([zeta, z]), z)
        with pytest.raises(PoleOnDiagonal):
            k.rows(np.array([z, zeta]), zeta, "z")
        # where xi = 0 the value is zero, and the pole is not reached
        assert k.rows(np.array([zeta, deep]), deep)[1].coeffs == {}


def _xi_scalar(model, zeta):
    """The cutoff at one point, branch by branch."""
    s = abs(model.r(zeta))
    if s <= model.delta:
        return 1.0
    if s >= 1.5 * model.delta:
        return 0.0
    t = (s - model.delta) / (0.5 * model.delta)
    return 1.0 - (10 * t ** 3 - 15 * t ** 4 + 6 * t ** 5)


@pytest.mark.parametrize("model", JET_MODELS, ids=_model_id)
def test_xi_patch_rows_match_the_one_point_call(model):
    rng = np.random.default_rng(model.n)
    pts = np.concatenate([[_pair_at_depth(model, r, seed=s)[0] for r in np.linspace(-0.3, 0.0, 40)]
                          for s in range(3)])
    pts = np.concatenate([pts, 0.9 * rng.standard_normal((20, model.n))])
    one = np.array([model.xi_patch(p) for p in pts])
    assert one.tolist() == [_xi_scalar(model, p) for p in pts]
    # r on rows and at one point may differ in the last bit of |zeta|^2 (einsum
    # against matmul), which the cutoff's slope, up to 25 in r, amplifies
    np.testing.assert_allclose(model.xi_patch(pts), one, rtol=0, atol=1e-14)
    assert ((one > 0) & (one < 1)).sum() > 10
    assert np.array_equal(model.xi_patch(pts) == 1.0, one == 1.0)
    assert np.array_equal(model.xi_patch(pts) == 0.0, one == 0.0)


def test_cq_is_zero_where_xi_vanishes():
    zeta, z = _pair_at_depth(BALL3, JET_DEPTHS["xi=0"])
    assert kernels.cq(BALL3, 1).eval(zeta, z).is_zero()
    assert kernels.kq(BALL3, 0).eval(zeta, z).is_zero()


def test_cq_errors_from_the_base_point():
    zeta = c(0.98, 0.1, 0.05)
    with pytest.raises(PoleOnDiagonal):
        kernels.cq(BALL3, 1).eval(zeta, zeta)       # beta's pole
    # r = 0 there, so xi = 1, but |zeta| > domain.BOUNDING_RADIUS
    with pytest.raises(domain.OutsideDomain):
        kernels.cq(domain.pinched(3), 1).eval(c(1.5, 1.5, 0.0), c(1.3, 1.3, 0.1))


# -- parametrix ---------------------------------------------------------------------


def test_gamma00_frozen_value():
    zeta, z = c(0.5, 0.1), c(0.3, -0.2)
    v = kernels.gamma0q(BALL2, 0).eval(zeta, z)
    r2 = BALL2.rho2(zeta, z)
    assert v.component(((), (), (), ())) == pytest.approx(1 / (2 * np.pi ** 2) / r2)


def test_gamma0q_harmonic_in_zeta():
    g00 = kernels.gamma0q(BALL2, 0)
    zeta, z = c(0.6, 0.1), c(0.2, -0.3)
    scalar = lambda p: g00.eval(p, z).component(((), (), (), ()))
    hs = [0.02, 0.01, 0.005]
    resid = []
    for h in hs:
        lap = 0.0
        for k in range(4):
            e = np.zeros(2, dtype=complex)
            e[k // 2] = h if k % 2 == 0 else 1j * h
            lap += scalar(zeta + e) + scalar(zeta - e) - 2 * scalar(zeta)
        resid.append(abs(lap) / h ** 2)
    assert resid[-1] < 1e-6 * abs(scalar(zeta))


def test_gamma0q_self_adjoint_on_ball():
    g01 = kernels.gamma0q(BALL3, 1)
    zeta, z = c(0.7, 0.1, 0.0), c(0.6, 0.05, 0.1)
    v = g01.eval(zeta, z)
    w = adjoint_kernel(g01).eval(zeta, z)
    assert (v - w).norm() < 1e-12 * v.norm()


def test_parametrix_interlock_exact():
    """vartheta of the (0,1) parametrix equals the adjoint of dbar of the
    scalar parametrix; this pins the normalization."""
    zeta, z = c(0.8, 0.15, 0.05), c(0.7, 0.1, 0.12)
    a = kernels.kernel_vartheta_zeta(kernels.gamma0q(BALL3, 1)).eval(zeta, z)
    dg = kernels.kernel_derivative(kernels.gamma0q(BALL3, 0), "dbar", "zeta")
    b = adjoint_kernel(dg).eval(zeta, z)
    assert (a - b).norm() < 1e-8 * b.norm()


# -- derivative operators --------------------------------------------------------------


def test_dbar_of_constant_kernel_vanishes():
    const = kernels.KernelEvaluator(
        "const", 2, lambda zeta, z: DoubleForm.monomial(2, az=(1,), value=2.0 - 1.0j))
    v = kernels.kernel_derivative(const, "dbar", "zeta").eval(c(0.5, 0.1), c(0.3, -0.2))
    assert v.norm() < 1e-9


def test_dbar_squared_vanishes():
    def smooth(zeta, z):
        return DoubleForm.scalar(2, np.exp(zeta[0] + 2 * np.conj(zeta[1]))
                                 * (1 + zeta[1] * np.conj(zeta[0])))

    k = kernels.KernelEvaluator("smooth", 2, smooth)
    d = kernels.kernel_derivative(k, "dbar", "zeta")
    dd = kernels.kernel_derivative(d, "dbar", "zeta")
    v = dd.eval(c(0.4, 0.2), c(0.1, -0.1))
    ref = d.eval(c(0.4, 0.2), c(0.1, -0.1)).norm()
    assert v.norm() < 1e-5 * max(ref, 1.0)


def test_dbar_vartheta_dbar_r_vanishes():
    """The composition dbar vartheta applied to the conormal one-form."""
    def dbar_r(zeta, z):
        grad = BALL3.jet(zeta).grad
        return DoubleForm(3, {((), (j,), (), ()): np.conj(grad[j - 1])
                              for j in range(1, 4)})

    k = kernels.KernelEvaluator("dbar-r", 3, dbar_r)
    comp = kernels.kernel_derivative(kernels.kernel_vartheta_zeta(k), "dbar", "zeta")
    zeta, z = c(0.7, 0.2, 0.1), c(0.55, 0.1, 0.05)
    v = comp.eval(zeta, z)
    scale = kernels.kernel_vartheta_zeta(k).eval(zeta, z).norm()
    assert v.norm() < 1e-5 * max(scale, 1.0)


def _poly(zeta, z):
    """A scalar polynomial kernel of degree 3 in zeta, z and their conjugates."""
    zc, wc = np.conj(zeta), np.conj(z)
    return DoubleForm.scalar(2, zeta[0] ** 2 * zc[1] + 3 * zc[0] ** 2 * z[1]
                             + z[0] ** 2 * wc[1] * zeta[1] + 2 * wc[0] * z[0] * zc[0])


# (op, var) -> (evaluator id prefix, slot of the differential, exact Wirtinger
# derivatives of _poly: d/dzeta_j, d/dzetabar_j, d/dz_j or d/dzbar_j)
POLY_DERIVATIVES = {
    ("dbar", "zeta"): ("dbar_z", "az", lambda zeta, z, zc, wc: (
        6 * zc[0] * z[1] + 2 * wc[0] * z[0], zeta[0] ** 2)),
    ("del", "zeta"): ("del_z", "hz", lambda zeta, z, zc, wc: (
        2 * zeta[0] * zc[1], z[0] ** 2 * wc[1])),
    ("dbar", "z"): ("dbar_w", "aw", lambda zeta, z, zc, wc: (
        2 * z[0] * zc[0], z[0] ** 2 * zeta[1])),
    ("del", "z"): ("del_w", "hw", lambda zeta, z, zc, wc: (
        2 * z[0] * wc[1] * zeta[1] + 2 * wc[0] * zc[0], 3 * zc[0] ** 2)),
}


@pytest.mark.parametrize("op,var", sorted(POLY_DERIVATIVES))
def test_kernel_derivative_matches_wirtinger(op, var):
    prefix, slot, exact = POLY_DERIVATIVES[(op, var)]
    k = kernels.kernel_derivative(kernels.KernelEvaluator("poly", 2, _poly), op, var)
    assert k.id == f"{prefix}[poly]"
    zeta, z = c(0.4 + 0.3j, -0.2 + 0.5j), c(0.1 - 0.2j, 0.3 + 0.1j)
    want = DoubleForm.zero(2)
    for j, d in enumerate(exact(zeta, z, np.conj(zeta), np.conj(z)), start=1):
        want = want + DoubleForm.monomial(2, **{slot: (j,)}, value=d)
    assert (k.eval(zeta, z) - want).norm() < 1e-9 * want.norm()


def test_kernel_derivative_rejects_unknown_operator():
    k = kernels.KernelEvaluator("poly", 2, _poly)
    with pytest.raises(KernelError):
        kernels.kernel_derivative(k, "d", "zeta")
    with pytest.raises(KernelError):
        kernels.kernel_derivative(k, "dbar", "w")


def _gq_in_coordinates(model, q):
    """gq with its adapted z slots changed to coordinates."""
    g = kernels.gq(model, q)

    def ev(zeta, z):
        return forms.change_frame_z(g.eval(zeta, z), model.frame(z), forms.COORD)

    return kernels.KernelEvaluator("Gq_coord", model.n, ev)


@pytest.mark.parametrize("name,n,q", [("ball", 3, 1), ("pinched", 4, 2)])
def test_dbar_zeta_commutes_with_the_adapted_z_frame(name, n, q):
    # the adapted coframe at a fixed z does not move with zeta
    model = domain.make_domain(name, n)
    zeta, z = _frozen_pair(model)
    adapted = kernels.kernel_derivative(kernels.gq(model, q), "dbar", "zeta").eval(zeta, z)
    assert adapted.frame == (forms.COORD, forms.ADAPTED)
    coord = kernels.kernel_derivative(_gq_in_coordinates(model, q), "dbar", "zeta").eval(zeta, z)
    want = forms.change_frame_z(adapted, model.frame(z), forms.COORD)
    # equal up to the roundoff of the frame change, which the difference
    # quotient amplifies by 1 / FD_REL_STEP: about 2e-12 relative
    assert (coord - want).norm() <= 1e-11 * want.norm()


def test_derivative_in_z_of_adapted_z_slots_raises():
    zeta, z = _frozen_pair(BALL3)
    with pytest.raises(KernelError, match="coordinate z slots"):
        kernels.kernel_derivative(kernels.gq(BALL3, 1), "dbar", "z").eval(zeta, z)


def test_fd_step_guard():
    const = kernels.KernelEvaluator("c", 2, lambda a, b: DoubleForm.scalar(2, 1.0))
    with pytest.raises(kernels.StepTooLarge):
        kernels.kernel_derivative(const, "dbar", "zeta").eval(ZETA, ZETA)


# -- the batched stencil against the per-point one ---------------------------------


def _directional(evalf, base, other, j, delta, h, var):
    """Richardson-extrapolated central difference along one real direction,
    one pointwise evaluation per step."""

    def shifted(step):
        pt = base.copy()
        pt[j] += step * delta
        return evalf(pt, other) if var == "zeta" else evalf(other, pt)

    d1 = (shifted(h) - shifted(-h)).scale(1.0 / (2 * h))
    d2 = (shifted(h / 2) - shifted(-h / 2)).scale(1.0 / h)
    return d2.scale(4.0 / 3.0) - d1.scale(1.0 / 3.0)


def _pointwise_derivative(evalf, n, op, var):
    """The derivative of `kernels.kernel_derivative`, stepped point by point."""
    _, slot = kernels._DERIVATIVES[(op, var)]

    def ev(zeta, z):
        h = kernels._fd_scale(zeta, z)
        base, other = (zeta, z) if var == "zeta" else (z, zeta)
        parts = []
        for j in range(n):
            dx = _directional(evalf, base, other, j, 1.0, h, var)
            dy = _directional(evalf, base, other, j, 1.0j, h, var).scale(1.0j)
            parts.append((dx + dy if op == "dbar" else dx - dy).scale(0.5))
        return forms.differential(n, slot, parts)

    return ev


def _pointwise_vartheta(k):
    inner = _pointwise_derivative(lambda zeta, z: forms.hodge_star(k.eval(zeta, z), "zeta"),
                                  k.n, "del", "zeta")
    return lambda zeta, z: forms.hodge_star(inner(zeta, z), "zeta").scale(-1.0)


STENCIL_CASES = {
    "dbar-Nq": (kernels.nq, lambda k: kernels.kernel_derivative(k, "dbar", "zeta"),
                lambda k: _pointwise_derivative(k.eval, k.n, "dbar", "zeta")),
    "dbar-Gamma0q": (kernels.gamma0q, lambda k: kernels.kernel_derivative(k, "dbar", "zeta"),
                     lambda k: _pointwise_derivative(k.eval, k.n, "dbar", "zeta")),
    "vartheta-Nq": (kernels.nq, kernels.kernel_vartheta_zeta, _pointwise_vartheta),
    "vartheta-Lq": (kernels.lq, kernels.kernel_vartheta_zeta, _pointwise_vartheta),
    "del_z-Lq": (kernels.lq, lambda k: kernels.kernel_derivative(k, "del", "z"),
                 lambda k: _pointwise_derivative(k.eval, k.n, "del", "z")),
}


@pytest.mark.parametrize("case", sorted(STENCIL_CASES))
@pytest.mark.parametrize("name,n,q", [(name, n, q) for name in ("ball", "pinched")
                                      for n, q in ((3, 1), (4, 1), (4, 2))])
def test_batched_stencil_matches_pointwise(case, name, n, q):
    build, batched, pointwise = STENCIL_CASES[case]
    model = domain.make_domain(name, n)
    k = build(model, q)
    assert k.zeta_rows is not None
    got, want = batched(k), pointwise(k)
    path = verify.PathSpec(model, verify._base_point(model, 0), "parabolic",
                           (2.0 ** -3, 2.0 ** -6, 2.0 ** -10), 0)
    for _, zeta, z in path.pairs():
        w = want(zeta, z)
        assert (got.eval(zeta, z) - w).norm() <= 1e-13 * w.norm()


ROW_ENTRY_POINTS = ("zeta_rows", "z_rows", "star_zeta_rows")


def _counted(k, log):
    """k with each native row entry point logging (entry point, number of
    rows) per call, and a pointwise eval that fails."""
    def counted(entry, rows):
        def f(zeta, z):
            log.append((entry, len(zeta) if np.ndim(zeta) == 2 else len(z)))
            return rows(zeta, z)

        return f

    def no_eval(zeta, z):
        raise AssertionError("pointwise eval called")

    return dataclasses.replace(k, eval=no_eval, **{
        entry: counted(entry, getattr(k, entry)) for entry in ROW_ENTRY_POINTS
        if getattr(k, entry) is not None})


def _dbar_zeta(k):
    return kernels.kernel_derivative(k, "dbar", "zeta")


# derivative-kernel: (kernel builder, derivative, the row entry point it calls);
# vartheta L_q and d_z L_(q-1) are the two L-stencils of T_q
ROW_CALL_CASES = {
    "dbar-Nq": (kernels.nq, _dbar_zeta, "zeta_rows"),
    "dbar-Gamma0q": (kernels.gamma0q, _dbar_zeta, "zeta_rows"),
    "vartheta-Nq": (kernels.nq, kernels.kernel_vartheta_zeta, "zeta_rows"),
    "vartheta-Gamma0q": (kernels.gamma0q, kernels.kernel_vartheta_zeta, "zeta_rows"),
    "vartheta-Lq": (kernels.lq, kernels.kernel_vartheta_zeta, "star_zeta_rows"),
    "del_z-Lq": (kernels.lq, lambda k: kernels.kernel_derivative(k, "del", "z"), "z_rows"),
}


@pytest.mark.parametrize("case", sorted(ROW_CALL_CASES))
def test_one_row_call_per_derivative_evaluation(case):
    build, derivative, entry = ROW_CALL_CASES[case]
    zeta, z = _frozen_pair(BALL3)
    log = []
    d = derivative(_counted(build(BALL3, 1), log))
    d.eval(zeta, z)
    d.eval(z, zeta)
    assert log == [(entry, 8 * 3)] * 2


def _wrap_builders(monkeypatch, calls):
    """Patch every kernel builder as bench/tracer.py does: the evaluator it
    returns becomes dataclasses.replace(k, eval=wrapper), and the wrapper logs
    the evaluator id.  Builders reach each other through module globals, so
    nested evaluators are wrapped too."""
    for name, fn in list(vars(kernels).items()):
        if inspect.isfunction(fn) and fn.__annotations__.get("return") == "KernelEvaluator":
            def build(*args, _builder=fn, **kwargs):
                k = _builder(*args, **kwargs)

                def ev(zeta, z, _ev=k.eval, _id=k.id):
                    calls.append(_id)
                    return _ev(zeta, z)

                return dataclasses.replace(k, eval=ev)

            monkeypatch.setattr(kernels, name, build)


@pytest.mark.parametrize("name,n,q", [("ball", 3, 1), ("pinched", 4, 2)])
def test_wrapped_builders_keep_values_and_rows(monkeypatch, name, n, q):
    """A traced pass reads the same bits and keeps the L_q row calls."""
    model = domain.make_domain(name, n)
    zeta, z = _frozen_pair(model)
    want = [k.eval(zeta, z) for k in (kernels.tq(model, q),
                                      adjoint_kernel(kernels.tq(model, q - 1)))]
    calls = []
    _wrap_builders(monkeypatch, calls)
    got = [kernels.tq(model, q), kernels.adjoint_kernel(kernels.tq(model, q - 1))]
    for k, w in zip(got, want):
        calls.clear()
        assert k.eval(zeta, z).coeffs == w.coeffs
        assert any(c.startswith("vartheta[Lq") for c in calls)
        assert [c for c in calls if c.startswith(("Lq", "star_z[Lq"))] == []


def test_kernels_without_rows_evaluate_each_stencil_point():
    calls = []

    def ev(zeta, z):
        calls.append(zeta)
        return _poly(zeta, z)

    k = kernels.KernelEvaluator("poly", 2, ev)
    assert k.zeta_rows is None and kernels.kernel_star_zeta(k).zeta_rows is None
    zeta, z = c(0.4 + 0.3j, -0.2 + 0.5j), c(0.1 - 0.2j, 0.3 + 0.1j)
    kernels.kernel_derivative(k, "dbar", "zeta").eval(zeta, z)
    assert len(calls) == 8 * 2


# -- adjoint wrapper ---------------------------------------------------------------


def test_adjoint_kernel_involution_pointwise():
    k = kernels.gamma0q(BALL3, 1)
    kk = adjoint_kernel(adjoint_kernel(k))
    zeta, z = c(0.7, 0.1, 0.05), c(0.5, 0.2, 0.1)
    assert (k.eval(zeta, z) - kk.eval(zeta, z)).norm() < 1e-13


def test_adjoint_of_gamma_scalar():
    k = kernels.KernelEvaluator(
        "gam", 2, lambda zeta, z: DoubleForm.scalar(2, BALL2.gamma(zeta)))
    v = adjoint_kernel(k).eval(c(0.5, 0.1), c(0.8, 0.0))
    assert v.component(((), (), (), ())) == pytest.approx(BALL2.gamma(c(0.8, 0.0)))


# -- assembled kernels ---------------------------------------------------------------


def test_tq_bidegrees():
    t1 = kernels.tq(BALL3, 1)
    v = t1.eval(c(0.97, 0.12, 0.06), c(0.9, 0.1, 0.05))
    assert v.zeta_degree() == (0, 2)
    assert v.z_degree() == (1, 0)


def test_t0_variant_constructs():
    t0 = kernels.tq(BALL3, 0)
    v = t0.eval(c(0.97, 0.12, 0.06), c(0.9, 0.1, 0.05))
    assert v.zeta_degree() == (0, 1)
    assert v.z_degree() == (0, 0)


def test_nq_requires_range():
    with pytest.raises(KernelError):
        kernels.nq(BALL2, 1)       # needs n >= 3
    with pytest.raises(KernelError):
        kernels.nq(BALL3, 0)


def test_nq_errors_in_order():
    model = domain.pinched(3)
    inside, far = c(0.5, 0.1, 0.1j), c(-0.5, 0.1j, 0.05)
    with pytest.raises(domain.OutsideDomain):
        kernels.nq(model, 1).eval(c(1.5, 1.5, 0.0), c(0.0, 0.0, 2.0))
    with pytest.raises(domain.SingularFramePoint):
        kernels.nq(model, 1).eval(c(0.0, 0.0, 0.0), far)
    with pytest.raises(domain.DiagonalRadiusExceeded):
        kernels.nq(model, 1).eval(inside, far)
    with pytest.raises(PoleOnDiagonal):
        kernels.nq(model, 1).eval(inside, inside)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, 5), st.data())
def test_compound_is_multiplicative(n, data):
    q = data.draw(st.integers(0, n))
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    x, y = (rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
            for _ in range(2))
    compound = kernels.compound
    np.testing.assert_allclose(compound(x @ y, q), compound(x, q) @ compound(y, q),
                               rtol=0, atol=1e-9)
    np.testing.assert_array_equal(compound(np.eye(n), q), np.eye(comb(n, q)))
    np.testing.assert_array_equal(compound(x, 1), x)
    np.testing.assert_allclose(compound(x, n)[:, 0, 0], np.linalg.det(x), rtol=0, atol=1e-9)


def _nq_assembled(model, q, zeta, z):
    """N_q built the long way: the tau / nu split of the mixed form in the
    adapted frames, wedge powers and frame changes of double forms, and the
    wedge power of the mixed form for the parametrix."""
    n = model.n
    pair = model.geo_pair(zeta, z)
    P = pair.big_p
    s = kernels.neumann_tangential_scalar(n, q, pair.gamma, pair.gamma_star, pair.phi, P)
    Uz, Uw = model.frame(zeta), model.frame(z)
    tau, nu = kernels.tau_nu_split(model, zeta, z, Uz, Uw)
    pref = 2.0 ** (n - 2) / (2 * np.pi) ** n * factorial(n - q - 2)
    nu_const = -(2.0 ** (n - 1)) * factorial(n - 2) / (factorial(q - 1) * (2 * np.pi) ** n)
    body = forms.wedge_power(tau, q).scale(pref * s)
    body = body + forms.wedge(forms.wedge_power(tau, q - 1), nu).scale(nu_const * P ** (1 - n))
    body = forms.change_frame_z(forms.change_frame_zeta(body, Uz, forms.COORD), Uw, forms.COORD)
    return body + _gamma0q_assembled(model, q, zeta, z)


def _gamma0q_assembled(model, q, zeta, z):
    n = model.n
    const = factorial(n - 2) / (2.0 * np.pi ** n) * model.rho2(zeta, z) ** (1 - n)
    return forms.wedge_power(kernels.mixed_rho2_form(model, zeta, z), q).scale(
        const / factorial(q))


def _max_diff(a, b):
    return max(abs(a.component(k) - b.component(k)) for k in a.coeffs.keys() | b.coeffs.keys())


def _oracle_points(model):
    """A target z inside both models, nodes near it, and the node (0.5, 0, ...),
    where dr lies along dzeta_1 and the frame skips that candidate."""
    n = model.n
    z = np.array([0.45 + 0.05j, 0.1] + [0.05j] * (n - 2))
    rng = np.random.default_rng(n)
    pts = [np.array([0.5] + [0.0] * (n - 1), dtype=complex)]
    while len(pts) < 3:
        zc = z + rng.uniform(-0.2, 0.2, n) + 1j * rng.uniform(-0.2, 0.2, n)
        if model.r(zc) < -0.05:
            pts.append(zc)
    return pts, z


@pytest.mark.parametrize("name", ["ball", "pinched"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_packed_nq_and_gamma0q_match_the_assembly(name, n):
    model = domain.make_domain(name, n)
    pts, z = _oracle_points(model)
    for q in range(1, n - 1):
        nk = kernels.nq(model, q)
        for zeta in pts:
            want = _nq_assembled(model, q, zeta, z)
            scale = max(abs(v) for v in want.coeffs.values())
            assert _max_diff(nk.eval(zeta, z), want) <= 1e-13 * scale
    for q in range(0, n + 1):
        g = kernels.gamma0q(model, q)
        want = _gamma0q_assembled(model, q, pts[1], z)
        scale = max(abs(v) for v in want.coeffs.values())
        assert _max_diff(g.eval(pts[1], z), want) <= 1e-13 * scale


@pytest.mark.parametrize("name", ["ball", "pinched"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_nq_does_not_depend_on_the_tangential_coframe(monkeypatch, name, n):
    # N_q is a form, so a unitary change of omega^1 .. omega^(n-1), the same
    # at every point, leaves its coordinate coefficients as they are
    model = domain.make_domain(name, n)
    pts, z = _oracle_points(model)
    pts = np.asarray(pts)
    want = {q: kernels.nq_rows(model, q)(pts, z) for q in range(1, n - 1)}
    g = np.random.default_rng(7).standard_normal((n - 1, n - 1, 2))
    unitary = np.linalg.qr(g[..., 0] + 1j * g[..., 1])[0]
    frame = domain.DomainModel.frame

    def rotated(self, zeta):
        rows = frame(self, zeta)
        return np.concatenate([unitary @ rows[..., :-1, :], rows[..., -1:, :]], axis=-2)

    monkeypatch.setattr(domain.DomainModel, "frame", rotated)
    assert not np.allclose(model.frame(pts), frame(model, pts))
    for q, w in want.items():
        got = kernels.nq_rows(model, q)(pts, z)
        np.testing.assert_allclose(got, w, rtol=1e-13, atol=1e-13 * np.max(np.abs(w)))


def test_nq_bidegree_and_gnq_value():
    nk = kernels.nq(BALL3, 1)
    zeta, z = c(0.97, 0.12, 0.06), c(0.9, 0.1, 0.05)
    v = nk.eval(zeta, z)
    assert v.zeta_degree() == (0, 1)
    assert v.z_degree() == (1, 0)
    # printed conormal-block coefficient, checked through G_L for L = (3,)
    vv = kernels.theta_coefficient(kernels.gq(BALL3, 1).eval(zeta, z), (3,))
    P = BALL3.big_p(zeta, z)
    const = -(2.0 ** 2) * 1 / (2 * np.pi) ** 3 * P ** (1 - 3)
    U = BALL3.frame(zeta)
    vad = forms.change_frame_zeta(vv, U, forms.ADAPTED)
    assert vad.component(((), (3,), (), ())) == pytest.approx(const)


def test_nq_main_terms_have_type_two():
    from hlkernels import typecalc as tc
    assert all(tc.admissible_type(d, 3) == 2 for d in tc.neumann_main_terms(3, 1))


def test_make_kernel_registry():
    k = kernels.make_kernel("Gamma0q", BALL2, 0)
    assert k.id.startswith("Gamma0q")
    with pytest.raises(KernelError):
        kernels.make_kernel("Zq", BALL2, 0)


def test_wedge_power_beyond_slots_vanishes():
    v = forms.DoubleForm.monomial(2, az=(1,), hw=(1,))
    assert forms.wedge_power(v, 3).is_zero()


def test_lq_main_matches_definition_at_sample():
    # same-order agreement of the definition-built kernel and the printed
    # main term at a boundary-adjacent pair (rates live in the verify suite)
    zeta = np.array([0.98, 0.1, 0.05], dtype=complex)
    zeta /= np.linalg.norm(zeta)
    nu = BALL3.inward_normal(zeta)
    tv = BALL3.tangent_direction(zeta)
    z1 = zeta + 0.0009765625 * nu
    z2 = BALL3.project_boundary(zeta + 0.03125 * tv) + 0.0009765625 * nu
    a = kernels.lq(BALL3, 1).eval(z1, z2)
    b = kernels.lq_main(BALL3, 1).eval(z1, z2)
    assert (a - b).norm() < 0.25 * b.norm()


# Printed main terms at the seed-0 parabolic pair t = 2^-5: the norm and the
# largest coefficient, as the term-by-term sum over mu gives them.
# (domain, n, q): (norm, key, coefficient at key)
LQ_MAIN_FROZEN = {
    ("ball", 3, 0): (96877.81916746218, ((), (1, 3), (), ()),
        (70007.07683441111+44506.26514168745j)),
    ("ball", 3, 1): (53727.61161974598, ((), (1, 2, 3), (2,), ()),
        (-38758.90455033485-24427.169053680227j)),
    ("ball", 4, 0): (42737346.25488915, ((), (3, 4), (), ()),
        (-13642081.966728747+21229966.190620787j)),
    ("ball", 4, 1): (34601780.06435121, ((), (1, 3, 4), (1,), ()),
        (-7817296.593749091+12165367.631722366j)),
    ("ball", 4, 2): (17457029.330154344, ((), (1, 2, 3, 4), (1, 3), ()),
        (-4253471.506383616-9408145.902196463j)),
    ("pinched", 3, 0): (102190.25748102533, ((), (1, 2), (), ()),
        (60964.65982146195-25183.123419821644j)),
    ("pinched", 3, 1): (50166.472881993745, ((), (1, 2, 3), (3,), ()),
        (27560.258577729717-13713.046396883463j)),
    ("pinched", 4, 0): (41673396.573733725, ((), (2, 4), (), ()),
        (-7981424.723620689-19904819.712385803j)),
    ("pinched", 4, 1): (34487640.11812817, ((), (1, 2, 4), (1,), ()),
        (-4617949.502741449-11617974.440180892j)),
    ("pinched", 4, 2): (17592887.63206227, ((), (1, 2, 3, 4), (1, 3), ()),
        (3288327.4206438344+8201349.2152301995j)),
}
# (domain, n, q, L): (norm, key, coefficient at key)
H_L_MAIN_FROZEN = {
    ("ball", 3, 1, (1,)): (12905961.791514097, ((), (1, 2), (), ()),
        (8553677.82065247+948228.9788621487j)),
    ("ball", 3, 1, (3,)): (267852.9880100796, ((), (1, 3), (), ()),
        (-193559.31907936925-123053.30782439536j)),
    ("ball", 4, 1, (1,)): (12776544653.650078, ((), (1, 3), (), ()),
        (-9726209270.43388-886804391.9875993j)),
    ("ball", 4, 1, (4,)): (130545095.72159342, ((), (3, 4), (), ()),
        (41670975.20672016-64848854.956774j)),
    ("ball", 4, 2, (1, 2)): (5555105806.337241, ((), (1, 2, 3), (), ()),
        (4266777920.2749486+461597621.95007807j)),
    ("ball", 4, 2, (3, 4)): (84361488.48101145, ((), (2, 3, 4), (), ()),
        (29691282.315950748+71841987.20227727j)),
    ("pinched", 3, 1, (1,)): (16292814.050691193, ((), (2, 3), (), ()),
        (-10482209.044787087-5133918.751750987j)),
    ("pinched", 3, 1, (3,)): (268605.43750398123, ((), (1, 2), (), ()),
        (-153961.92476506156+79722.23585959482j)),
    ("pinched", 4, 1, (1,)): (12768369812.136478, ((), (2, 4), (), ()),
        (-5174684977.168765-5342881844.952215j)),
    ("pinched", 4, 1, (4,)): (130529917.59678958, ((), (2, 4), (), ()),
        (24374026.312931083+62593298.05684844j)),
    ("pinched", 4, 2, (1, 2)): (3721998611.916314, ((), (2, 3, 4), (), ()),
        (2469584036.0526495+1248991782.0020785j)),
    ("pinched", 4, 2, (3, 4)): (112770520.96579657, ((), (2, 3, 4), (), ()),
        (-23519838.96633959-69754603.27313429j)),
}


def _frozen_pair(model):
    path = verify.PathSpec(model, verify._base_point(model, 0), "parabolic", (2.0 ** -5,), 0)
    return path.pairs()[0][1:]


def _assert_frozen(v, frozen):
    norm, key, coeff = frozen
    assert v.norm() == pytest.approx(norm, rel=1e-12, abs=0)
    assert abs(v.component(key) - coeff) <= 1e-12 * abs(coeff)


@pytest.mark.parametrize("name,n,q", sorted(LQ_MAIN_FROZEN))
def test_lq_main_frozen_values(name, n, q):
    model = domain.make_domain(name, n)
    v = kernels.lq_main(model, q).eval(*_frozen_pair(model))
    _assert_frozen(v, LQ_MAIN_FROZEN[name, n, q])


@pytest.mark.parametrize("name,n,q,L", sorted(H_L_MAIN_FROZEN))
def test_h_l_main_frozen_values(name, n, q, L):
    model = domain.make_domain(name, n)
    v = kernels.theta_coefficient(kernels.hq_main(model, q).eval(*_frozen_pair(model)), L)
    _assert_frozen(v, H_L_MAIN_FROZEN[name, n, q, L])
