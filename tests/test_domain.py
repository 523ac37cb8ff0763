"""Model-domain geometry: jets, gamma, frames, distances, support function."""

import numpy as np
import pytest

from hlkernels import domain
from hlkernels.domain import (DiagonalRadiusExceeded, OutsideDomain,
                              SingularFramePoint, ball, make_domain, pinched)

BALL2 = ball(2)
BALL3 = ball(3)
PIN2 = pinched(2)


def c(*vals):
    return np.array(vals, dtype=complex)


# -- jets ------------------------------------------------------------------------


def test_ball_jet_frozen_values():
    j = BALL2.jet(c(0.8, 0.0))
    assert j.value == pytest.approx(-0.36)
    assert np.allclose(j.grad, [0.8, 0.0])
    assert np.allclose(j.levi, np.eye(2))
    assert np.allclose(j.hol2, 0.0)


def test_pinched_jet_frozen_values():
    j = PIN2.jet(c(0.1, 0.0))
    assert j.value == pytest.approx(-0.01)
    assert j.grad[0] == pytest.approx(-0.1)
    H = PIN2.jet(c(0.0, 0.0)).real_hessian()
    assert np.allclose(np.sort(np.linalg.eigvalsh(H)), [-2.0, 2.0, 2.0, 6.0],
                       atol=1e-12)


def test_pinched_is_morse_critical_at_origin():
    j = PIN2.jet(c(0.0, 0.0))
    assert j.value == 0.0
    assert np.allclose(j.grad, 0.0)
    assert abs(np.linalg.det(j.real_hessian())) > 1.0


def test_jet_outside_halo_errors():
    with pytest.raises(OutsideDomain):
        BALL2.jet(c(2.0, 0.0))


def test_second_order_expansion_matches_value():
    # r is quadratic, so the jet reproduces r exactly
    rng = np.random.default_rng(0)
    for model in (BALL3, PIN2):
        z0 = 0.2 * (rng.standard_normal(model.n) + 1j * rng.standard_normal(model.n))
        j = model.jet(z0)
        for _ in range(5):
            dz = 0.1 * (rng.standard_normal(model.n) + 1j * rng.standard_normal(model.n))
            pred = (j.value + 2 * np.real(j.grad @ dz)
                    + np.real(dz.conj() @ (j.levi @ dz))
                    + np.real(dz @ (j.hol2 @ dz)))
            assert model.r(z0 + dz) == pytest.approx(pred, abs=1e-12)


# -- gamma and frames -------------------------------------------------------------


def test_gamma_values():
    assert BALL2.gamma(c(0.8, 0.0)) == pytest.approx(0.8)
    assert PIN2.gamma(c(0.1, 0.0)) == pytest.approx(0.1)
    assert PIN2.gamma(c(0.1j, 0.0)) == pytest.approx(0.3)
    assert PIN2.gamma(c(0.0, 0.0)) == 0.0


def test_frame_orthonormal_and_conormal():
    zeta = c(0.0, 0.0, 1.0)
    U = BALL3.frame(zeta)
    assert np.abs(U @ U.conj().T - np.eye(3)).max() < 1e-12
    assert np.allclose(U[-1], BALL3.jet(zeta).grad / BALL3.gamma(zeta))
    rng = np.random.default_rng(3)
    for _ in range(5):
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        p = v / np.linalg.norm(v)
        U = BALL3.frame(p)
        assert np.abs(U @ U.conj().T - np.eye(3)).max() < 1e-12


def test_frame_singular_point_raises():
    with pytest.raises(SingularFramePoint):
        PIN2.frame(c(0.0, 0.0))


# -- distances and support function ------------------------------------------------


def test_rho2_values_and_symmetry():
    assert BALL2.rho2(c(1.0, 0.0), c(0.9, 0.0)) == pytest.approx(0.02)
    assert BALL2.rho2(c(0.5, 0.1), c(0.5, 0.1)) == 0.0
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = 0.4 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        b = a + 0.2 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        assert PIN2.rho2(a, b) == pytest.approx(PIN2.rho2(b, a), rel=1e-13)
        assert PIN2.rho2(a, b) >= 0


def test_rho2_diagonal_radius():
    with pytest.raises(DiagonalRadiusExceeded):
        PIN2.rho2(c(0.9, 0.0), c(-0.9, 0.0))


def test_levi_polynomial_values():
    assert BALL2.geo_pair(c(1.0, 0.0), c(1.0, 0.0)).f == 0.0
    assert BALL2.geo_pair(c(1.0, 0.0), c(0.9, 0.0)).f == pytest.approx(0.1)
    zz = c(0.3 + 0.1j, 0.2j)
    ww = c(0.25 + 0.12j, 0.1j)
    manual = ((np.conj(zz[0]) - 2 * zz[0]) * (zz[0] - ww[0])
              + np.conj(zz[1]) * (zz[1] - ww[1]) + (zz[0] - ww[0]) ** 2)
    assert PIN2.geo_pair(zz, ww).f == pytest.approx(manual)


def test_phi_and_big_p_values():
    assert BALL2.phi(c(1.0, 0.0), c(0.9, 0.0)) == pytest.approx(0.1)
    p = c(1.0, 0.0)
    assert BALL2.phi(p, p) == pytest.approx(-BALL2.r(p))
    assert BALL2.big_p(c(0.8, 0.0), c(0.8, 0.0)) == pytest.approx(0.405)


def test_big_p_symmetry_exact():
    rng = np.random.default_rng(2)
    done = 0
    while done < 10:
        a = 0.4 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        b = a + 0.1 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        if not (PIN2.in_halo(a) and PIN2.in_halo(b)):
            continue
        if PIN2.gamma(a) < 1e-6 or PIN2.gamma(b) < 1e-6:
            continue
        assert PIN2.big_p(a, b) == pytest.approx(PIN2.big_p(b, a), rel=1e-12)
        done += 1


def test_big_p_singular_gamma_raises():
    with pytest.raises(SingularFramePoint):
        PIN2.big_p(c(0.0, 0.0), c(0.1, 0.0))


def test_phi_holomorphic_in_z():
    rng = np.random.default_rng(4)
    h = 1e-5
    for model in (BALL2, PIN2):
        zeta = model.project_boundary(c(0.7 + 0.1j, 0.6))
        z = zeta + 0.1 * model.inward_normal(zeta)
        for k in range(2):
            e = np.zeros(2, dtype=complex)
            e[k] = 1.0
            dx = (model.phi(zeta, z + h * e) - model.phi(zeta, z - h * e)) / (2 * h)
            dy = (model.phi(zeta, z + 1j * h * e) - model.phi(zeta, z - 1j * h * e)) / (2 * h)
            assert abs(0.5 * (dx + 1j * dy)) < 1e-10


def test_patching_function_profile():
    m = ball(2, delta=0.2)
    on_bdry = m.project_boundary(c(0.3, 0.9))
    assert m.xi_patch(on_bdry) == 1.0
    deep = c(0.1, 0.0)          # r = -0.99, |r| > 3 delta/2
    assert m.xi_patch(deep) == 0.0
    mid = m.project_boundary(c(0.3, 0.9)) * np.sqrt(1 - 0.25)   # r = -0.25
    val = m.xi_patch(mid)
    assert 0.0 < val < 1.0


def test_project_boundary_and_normal():
    p = BALL2.project_boundary(c(0.4, 0.7))
    assert BALL2.r(p) == pytest.approx(0.0, abs=1e-12)
    nu = BALL2.inward_normal(p)
    assert BALL2.r(p + 0.05 * nu) < 0
    tv = BALL2.tangent_direction(p)
    assert abs(BALL2.r(p + 1e-5 * tv)) < 1e-8


def test_make_domain_registry():
    assert make_domain("ball", 3).name == "ball"
    assert make_domain("PINCHED", 2).name == "pinched"
    with pytest.raises(domain.DomainError):
        make_domain("torus", 2)
    with pytest.raises(domain.DomainError):
        pinched(1)


def test_levi_positive_on_collar_samples():
    rng = np.random.default_rng(6)
    for model in (BALL2, PIN2):
        count = 0
        while count < 20:
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            p = v / np.linalg.norm(v) * rng.uniform(0.8, 1.1)
            if not -0.5 < model.r(p) < 0.5:
                continue
            count += 1
            eigs = np.linalg.eigvalsh(model.jet(p).levi)
            assert eigs.min() > 0


def test_geo_pair_bundle():
    zeta, z = c(1.0, 0.0), c(0.9, 0.0)
    g = BALL2.geo_pair(zeta, z)
    assert g.phi == pytest.approx(0.1)
    assert g.rho2 == pytest.approx(0.02)
    assert g.big_p == pytest.approx(g.rho2 + 2 * (g.r / g.gamma) * (g.r_star / g.gamma_star))
    assert g.phi == pytest.approx(g.f - g.r)
    # the single-scalar methods give the bundle's numbers
    assert (g.big_p, g.phi, g.rho2) == (
        BALL2.big_p(zeta, z), BALL2.phi(zeta, z), BALL2.rho2(zeta, z))
    assert (g.gamma, g.gamma_star, g.r, g.r_star) == (
        BALL2.gamma(zeta), BALL2.gamma(z), BALL2.r(zeta), BALL2.r(z))


def test_geo_pair_singular_gamma_raises():
    # P is undefined where a gamma vanishes, for one point and for rows
    with pytest.raises(SingularFramePoint):
        PIN2.geo_pair(c(0.0, 0.0), c(0.1, 0.0))
    with pytest.raises(SingularFramePoint):
        PIN2.geo_pair(c(0.1, 0.0), c(0.0, 0.0))
    with pytest.raises(SingularFramePoint):
        PIN2.geo_pair(np.array([c(0.1, 0.0), c(0.0, 0.0)]), c(0.1, 0.1))


def test_no_critical_points_off_boundary_sampled():
    rng = np.random.default_rng(11)
    for model in (BALL2, PIN2):
        count = 0
        while count < 40:
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            p = v / np.linalg.norm(v) * rng.uniform(0.7, 1.1)
            if not -0.5 < model.r(p) < 0.5 or abs(model.r(p)) < 1e-3:
                continue
            count += 1
            assert model.gamma(p) > 1e-3


# -- point arrays: rows (P, n) against a loop of single-point calls ------------------

POINT_METHODS = ("r", "grad", "in_halo", "gamma", "frame", "dual_frame")
PAIR_METHODS = ("rho2", "d_zeta_rho2", "dbar_zeta_rho2", "phi", "phi_star", "big_p")
GEO_FIELDS = ("r", "r_star", "grad", "gamma", "gamma_star", "rho2", "f", "phi",
              "big_p")
ROW_MODELS = [ball(2), ball(3), pinched(2), pinched(3)]


def _interior_rows(model, seed, count=12):
    """A target z and seeded interior points within 0.6 of it (inside the
    diagonal radius of both models), with gamma well away from 0."""
    rng = np.random.default_rng(seed)
    z = c(0.35 + 0.1j, -0.2j, *([0.1] * (model.n - 2)))
    rows = []
    while len(rows) < count:
        v = rng.standard_normal(model.n) + 1j * rng.standard_normal(model.n)
        p = z + v / np.linalg.norm(v) * rng.uniform(0.05, 0.6)
        if model.r(p) < -0.05 and model.gamma(p) > 0.05:
            rows.append(p)
    return np.array(rows), z


def _outcome(fn):
    try:
        return fn(), None
    except domain.DomainError as e:
        return None, type(e)


def _check_rows_against_loop(rows_call, point_call, pts):
    got, got_exc = _outcome(lambda: rows_call(pts))
    loop = [_outcome(lambda p=p: point_call(p)) for p in pts]
    want_exc = next((exc for _, exc in loop if exc is not None), None)
    assert got_exc is want_exc
    if want_exc is None:
        want = np.array([v for v, _ in loop])
        if want.dtype == bool:
            assert np.array_equal(got, want)
        else:
            _assert_rows_close(got, want)


def _assert_rows_close(got, want, rtol=1e-13):
    """Relative error of each point's value (a scalar, vector or frame) in
    the max norm; frames hold roundoff-sized entries that an elementwise rtol
    would measure against themselves."""
    got = np.broadcast_to(got, want.shape).reshape(len(want), -1)
    want = want.reshape(len(want), -1)
    err = np.abs(got - want).max(axis=1)
    assert np.all(err <= rtol * np.abs(want).max(axis=1)), err


@pytest.mark.parametrize("model", ROW_MODELS, ids=lambda m: f"{m.name}{m.n}")
@pytest.mark.parametrize("method", POINT_METHODS + PAIR_METHODS)
def test_rows_equal_pointwise(model, method):
    pts, z = _interior_rows(model, 17)
    fn = getattr(model, method)
    if method in POINT_METHODS:
        _check_rows_against_loop(fn, fn, pts)
    else:
        _check_rows_against_loop(lambda p: fn(p, z), lambda p: fn(p, z), pts)


@pytest.mark.parametrize("model", ROW_MODELS, ids=lambda m: f"{m.name}{m.n}")
@pytest.mark.parametrize("method", POINT_METHODS + PAIR_METHODS + ("geo_pair",))
def test_rows_with_a_point_outside_the_halo(model, method):
    # the same exception as the loop; methods without a halo check still agree
    pts, z = _interior_rows(model, 23, count=5)
    outside = z.copy()
    if model.name == "ball":
        outside[0] += 0.9
    else:
        # within the diagonal radius of z, so the pair methods meet the halo
        outside[-1] += -0.6j if model.n == 2 else 0.7
    assert not model.in_halo(outside)
    pts = np.concatenate([pts[:2], outside[None], pts[2:]])
    fn = getattr(model, method)
    if method in POINT_METHODS:
        _check_rows_against_loop(fn, fn, pts)
    else:
        _check_rows_against_loop(lambda p: fn(p, z), lambda p: fn(p, z), pts)


@pytest.mark.parametrize("model", ROW_MODELS, ids=lambda m: f"{m.name}{m.n}")
def test_geo_pair_rows_equal_pointwise(model):
    pts, z = _interior_rows(model, 29)
    rows = model.geo_pair(pts, z)
    loop = [model.geo_pair(p, z) for p in pts]
    for name in GEO_FIELDS:
        _assert_rows_close(getattr(rows, name), np.array([getattr(g, name) for g in loop]))


def test_pair_rows_beyond_the_diagonal_radius_raise():
    z = c(0.6, 0.0, 0.0)
    pts = np.array([c(0.5, 0.1, 0.0), c(-0.6, 0.1j, 0.05)])
    model = pinched(3)
    for method in ("rho2", "phi", "phi_star", "big_p", "geo_pair"):
        with pytest.raises(DiagonalRadiusExceeded):
            getattr(model, method)(pts, z)


def test_frame_skips_a_candidate_along_the_conormal():
    # at (0.5, 0, 0) on the ball dr is along dzeta_1, so the frame is built
    # from dzeta_2 and dzeta_3, for one point and inside rows
    p = c(0.5, 0.0, 0.0)
    U = BALL3.frame(p)
    assert np.allclose(U, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    rows = BALL3.frame(np.array([c(0.1, 0.2, 0.3j), p]))
    np.testing.assert_array_equal(rows[1], U)
    np.testing.assert_array_equal(rows[0], BALL3.frame(c(0.1, 0.2, 0.3j)))
