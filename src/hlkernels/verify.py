"""Approach paths, slope fitting, and the identity/rate suites.

Every check fits a log-log slope of a quantity along a geometric t-grid of
boundary approach paths and compares it against the required rate.  Slope
margins: 0.1 for clean geometric claims, 0.2 (folded into the +0.8 contracts)
for finite-difference kernel claims.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from . import forms, kernels, quad
from .domain import DomainError, DomainModel, make_domain

ZERO_FLOOR = 1e-13
DEFAULT_TGRID = tuple(2.0 ** (-k) for k in range(3, 11))

# Versioned defaults for every suite threshold; reports embed the values used.
# Clean geometric claims carry a 0.1 slope margin; finite-difference kernel
# claims carry 0.2 (one Richardson level leaves O(h^2) noise in fitted slopes).
THRESHOLDS = {
    "phisymm_slope": 2.9,
    "phi_upper_slope": 2.0,
    "lphi_slope": 0.9,
    "dbarz_phi_abs": 1e-10,
    "lower_bound_stability": 0.2,
    "rate_gap": 0.8,
    "adjointness_slope": 0.9,
    "morse_abs": 1e-10,
    "type_window": 0.2,
    "envelope_growth": 0.2,
    "harmonic_slope": 1.0,
}


class VerifyError(Exception):
    pass


@dataclass
class PathSpec:
    """Base boundary point with mode tangential | transversal | parabolic and
    a geometric t-grid; produces the pair list (zeta_t, z_t)."""

    model: DomainModel
    base: np.ndarray
    mode: str = "parabolic"
    t_grid: tuple[float, ...] = DEFAULT_TGRID
    seed: int = 0

    def pairs(self) -> list[tuple[float, np.ndarray, np.ndarray]]:
        zeta0 = self.model.project_boundary(self.base)
        nu = self.model.inward_normal(zeta0)
        tv = self.model.tangent_direction(zeta0, seed=self.seed)
        out = []
        for t in self.t_grid:
            if self.mode == "tangential":
                zeta = zeta0
                z = self.model.project_boundary(zeta0 + t * tv)
            elif self.mode == "transversal":
                zeta = zeta0
                z = zeta0 + t * nu
            elif self.mode == "parabolic":
                zeta = zeta0 + (t * t) * nu
                z = self.model.project_boundary(zeta0 + t * tv) + (t * t) * nu
            else:
                raise VerifyError(f"unknown path mode {self.mode!r}")
            out.append((t, zeta, z))
        return out


def slope_fit(ts, values) -> tuple[float, float]:
    """Least-squares slope of log|value| against log t, with RMS residual.

    Nonpositive (or floor-level) samples are dropped; fewer than five left is
    an error.  Returns (slope, rms_residual).
    """
    ts = np.asarray(ts, dtype=float)
    vals = np.asarray(values, dtype=float)
    scale = np.max(vals) if len(vals) else 0.0
    keep = vals > max(ZERO_FLOOR * scale, 0.0)
    keep &= vals > 0
    if np.count_nonzero(keep) < 5:
        raise VerifyError("fewer than five positive samples")
    x = np.log(ts[keep])
    y = np.log(vals[keep])
    coef = np.polyfit(x, y, 1)
    resid = y - np.polyval(coef, x)
    return float(coef[0]), float(np.sqrt(np.mean(resid ** 2)))


def slope_or_exact(ts, values, reference,
                   tol: float = 1e-12) -> tuple[float, bool, float | None]:
    """Slope of values, or (+inf, True) when values sit at roundoff relative
    to the reference magnitudes (an exact identity at working precision).
    Returns (slope, exact, rms_residual), the residual None when exact.

    tol is the relative exactness floor; finite-difference comparisons use a
    looser floor matching the Richardson noise level."""
    vals = np.asarray(values, dtype=float)
    ref = np.asarray(reference, dtype=float)
    if np.all(vals <= tol * np.maximum(ref, 1e-300)):
        return float("inf"), True, None
    s, rms = slope_fit(ts, vals)
    return s, False, rms


@dataclass
class CheckResult:
    suite: str
    check: str
    passed: bool
    slope_measured: float
    slope_required: float
    details: dict = field(default_factory=dict)

    def row(self):
        return [self.suite, self.check, self.slope_measured, self.slope_required,
                "pass" if self.passed else "FAIL"]


def _rate_check(suite: str, check: str, ts, mains, diffs,
                exact_tol: float | None = None) -> CheckResult:
    """The difference series must decay at least `rate_gap` faster than the
    main series.  With exact_tol, a difference at roundoff relative to the
    main series passes as exact (`slope_or_exact`), and the details say so.
    The details keep the RMS residual of each slope fit (`main_rms`,
    `diff_rms`; None where the difference is exact and nothing was fitted)."""
    sm, main_rms = slope_fit(ts, mains)
    need = sm + THRESHOLDS["rate_gap"]
    details = {"main_slope": sm, "main_rms": main_rms}
    if exact_tol is None:
        sd, details["diff_rms"] = slope_fit(ts, diffs)
        return CheckResult(suite, check, sd >= need, sd, need, details)
    sd, exact, details["diff_rms"] = slope_or_exact(ts, diffs, mains, tol=exact_tol)
    details["exact"] = exact
    return CheckResult(suite, check, exact or sd >= need, sd, need, details)


@dataclass(frozen=True)
class RateLine:
    """One line of a kernel suite's table, naming kernels by their keys in
    the table.  Its series are norms of `project`ed values, times
    gamma(zeta) gamma(z) where `weighted`.  With a target, `_rate_check`
    judges |definition - target| against |target| (|definition| where
    `definition_is_main`); with none, the slope of |definition| must lie
    within `type_window` of `predicted`."""

    check: str
    definition: str
    target: str | None = None
    project: Callable = lambda v: v
    weighted: bool = False
    exact_tol: float | None = None
    definition_is_main: bool = False
    predicted: float | None = None


def _run_lines(suite: str, model: DomainModel, pairs, kerns: dict,
               lines: list[RateLine]) -> list[CheckResult]:
    """Evaluate each kernel of `kerns` once per path pair, in table order,
    then judge every line on those values."""
    values = {name: [] for name in kerns}
    for _, zeta, z in pairs:
        for name, k in kerns.items():
            values[name].append(k.eval(zeta, z))
    ts = [t for t, _, _ in pairs]
    if any(line.weighted for line in lines):
        gg = [model.gamma(zeta) * model.gamma(z) for _, zeta, z in pairs]
    out = []
    for line in lines:
        a = list(map(line.project, values[line.definition]))
        if line.target is None:
            s, _ = slope_fit(ts, [v.norm() for v in a])
            ok = abs(s - line.predicted) <= THRESHOLDS["type_window"]
            out.append(CheckResult(suite, line.check, ok, s, line.predicted,
                                   {"comparison": "|measured-predicted|<=0.2"}))
            continue
        b = list(map(line.project, values[line.target]))
        ws = gg if line.weighted else [1.0] * len(ts)
        mains = [w * v.norm() for w, v in zip(ws, a if line.definition_is_main else b)]
        diffs = [w * (x - y).norm() for w, x, y in zip(ws, a, b)]
        out.append(_rate_check(suite, line.check, ts, mains, diffs, line.exact_tol))
    return out


BASE_POINT_TRIES = 1000


def _base_point(model: DomainModel, seed: int = 0) -> np.ndarray:
    """Deterministic non-singular boundary base point."""
    rng = np.random.default_rng(7 + seed)
    for _ in range(BASE_POINT_TRIES):
        v = rng.standard_normal(model.n) + 1j * rng.standard_normal(model.n)
        v = v / np.linalg.norm(v)
        try:
            p = model.project_boundary(0.9 * v + 0.1)
        except DomainError:
            continue
        if model.gamma(p) > 0.3:
            return p
    raise VerifyError(f"no boundary base point with gamma > 0.3 on {model.name} "
                      f"after {BASE_POINT_TRIES} tries")


# -- geometric suites ------------------------------------------------------------


def suite_phisymm(model: DomainModel, n: int, q: int, seed: int,
                  t_grid) -> list[CheckResult]:
    path = PathSpec(model, _base_point(model, seed), "tangential", tuple(t_grid), seed)
    ts, diffs, phis = [], [], []
    for t, zeta, z in path.pairs():
        ts.append(t)
        diffs.append(abs(model.phi(zeta, z) - model.phi_star(zeta, z)))
        phis.append(abs(model.phi(zeta, z)))
    # both built-in defining functions are quadratic, so the symmetry defect
    # cancels exactly; roundoff is absolute (unit-scale intermediates)
    s, exact, _ = slope_or_exact(ts, diffs, [1.0] * len(ts))
    res = [CheckResult("phisymm", "phi-minus-phistar-slope", s >= THRESHOLDS["phisymm_slope"], s, THRESHOLDS["phisymm_slope"],
                       {"exact_zero": exact})]
    sphi, _ = slope_fit(ts, phis)
    res.append(CheckResult("phisymm", "phi-slope-upper", sphi <= THRESHOLDS["phi_upper_slope"] + 1e-9, sphi, THRESHOLDS["phi_upper_slope"],
                           {"comparison": "upper bound"}))
    return res


def _dphi_dz(model: DomainModel, zeta: np.ndarray, z: np.ndarray) -> np.ndarray:
    jet = model.jet(zeta)
    d = zeta - z
    return -(jet.grad - jet.hol2 @ d)


def suite_lphi(model: DomainModel, n: int, q: int, seed: int,
               t_grid) -> list[CheckResult]:
    path = PathSpec(model, _base_point(model, seed), "parabolic", tuple(t_grid), seed)
    ts = []
    lam_n = []
    lam_tan = []
    dbarz = []
    for t, zeta, z in path.pairs():
        ts.append(t)
        dphi = _dphi_dz(model, zeta, z)
        V = model.dual_frame(z)
        lam_n.append(abs(V[:, n - 1] @ dphi + model.gamma(zeta)))
        vals = [abs(V[:, j] @ dphi) for j in range(n - 1)]
        lam_tan.append(max(vals))
        # dbar_z Phi by central differences: exact holomorphy
        worst = 0.0
        for k in range(n):
            worst = max(worst, abs(_wirtinger_fd(lambda w: model.phi(zeta, w), z, k, 1e-5)[1]))
        dbarz.append(worst)
    out = []
    s, _ = slope_fit(ts, lam_n)
    out.append(CheckResult("lphi", "normal-frame-derivative-rate", s >= THRESHOLDS["lphi_slope"], s, THRESHOLDS["lphi_slope"]))
    s, _ = slope_fit(ts, lam_tan)
    out.append(CheckResult("lphi", "tangential-frame-derivative-rate", s >= THRESHOLDS["lphi_slope"], s, THRESHOLDS["lphi_slope"]))
    worst = max(dbarz)
    out.append(CheckResult("lphi", "dbar-z-phi-vanishes", bool(worst <= THRESHOLDS["dbarz_phi_abs"]), worst, THRESHOLDS["dbarz_phi_abs"],
                           {"comparison": "absolute"}))
    return out


def suite_phibound(model: DomainModel, n: int, q: int, seed: int,
                   t_grid) -> list[CheckResult]:
    """Re Phi > 0 off the boundary and the lower bound with a stable constant."""
    rng = np.random.default_rng(31 + seed)
    base = _base_point(model, seed)
    out = []
    repos = True
    cs = []
    for refine in (1.0, 0.5):
        ratios = []
        for trial in range(40):
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            v *= 0.25 * refine / np.linalg.norm(v)
            zeta = base
            z = base + v
            if not model.in_halo(z):
                continue
            if model.r(z) > -1e-9:
                z = model.project_boundary(z) + 0.02 * refine * model.inward_normal(base)
            phi = model.phi(zeta, z)
            if model.r(z) < 0 and phi.real <= 0:
                repos = False
            rhs = (model.rho2(zeta, z) + abs(model.r(zeta)) + abs(model.r(z))
                   + abs(phi.imag))
            if rhs > 0:
                ratios.append(abs(phi) / rhs)
        cs.append(min(ratios) if ratios else None)
    out.append(CheckResult("phibound", "re-phi-positive", repos, 1.0 if repos else 0.0,
                           1.0, {"comparison": "sign"}))
    if None in cs:
        out.append(CheckResult("phibound", "lower-bound-constant-stable", False, 0.0, 0.0,
                               {"c_fits": cs, "comparison": "stability<=20%",
                                "reason": "every trial point left the halo at one "
                                          "refinement, so no constant was fitted"}))
        return out
    stable = abs(cs[1] - cs[0]) <= THRESHOLDS["lower_bound_stability"] * max(cs)
    out.append(CheckResult("phibound", "lower-bound-constant-stable",
                           bool(stable and cs[0] > 0), min(cs), 0.0,
                           {"c_fits": cs, "comparison": "stability<=20%"}))
    return out


def suite_morse(model: DomainModel, n: int, q: int, seed: int,
                t_grid) -> list[CheckResult]:
    if not model.critical_points:
        return [CheckResult("morse", "no-critical-points", True, 0.0, 0.0,
                            {"note": "model has no boundary Morse points"})]
    p = np.asarray(model.critical_points[0], dtype=complex)
    H = model.jet(p).real_hessian()
    eigs = np.sort(np.linalg.eigvalsh(-H))
    want = np.sort(np.concatenate([[2.0], -np.array([6.0] + [2.0] * (2 * n - 2))]))
    err = float(np.max(np.abs(eigs - want)))
    return [CheckResult("morse", "hessian-signature", err <= THRESHOLDS["morse_abs"], err, THRESHOLDS["morse_abs"],
                        {"eigs": eigs.tolist(), "comparison": "absolute"})]


# -- kernel suites -----------------------------------------------------------------


def suite_gamma_harmonic(model: DomainModel, n: int, q: int, seed: int,
                         t_grid) -> list[CheckResult]:
    """FD Laplacian of the scalar parametrix vanishes off the diagonal."""
    g00 = kernels.gamma0q(model, 0)
    base = _base_point(model, seed)
    zeta = 0.85 * base
    z = 0.55 * base + 0.1
    center = g00.eval(zeta, z).component(((), (), (), ()))
    val = abs(center)
    hs = [0.02 / (2 ** k) for k in range(5)]
    resid = []
    for h in hs:
        lap = 0.0
        for k in range(2 * n):
            e = np.zeros(n, dtype=complex)
            e[k // 2] = h if k % 2 == 0 else 1j * h
            lap += (g00.eval(zeta + e, z).component(((), (), (), ()))
                    + g00.eval(zeta - e, z).component(((), (), (), ()))
                    - 2 * center)
        resid.append(abs(lap) / (np.abs(h) ** 2) / val)
    s, exact, _ = slope_or_exact(hs, resid, [val] * len(hs))
    return [CheckResult("gamma-harmonic", "fd-laplacian-residual",
                        exact or s >= THRESHOLDS["harmonic_slope"], s, THRESHOLDS["harmonic_slope"], {"residuals": resid})]


def suite_lemmalq(model: DomainModel, n: int, q: int, seed: int,
                  t_grid) -> list[CheckResult]:
    pairs = PathSpec(model, _base_point(model, seed), "parabolic", tuple(t_grid), seed).pairs()
    kerns = {"L": kernels.lq(model, q), "L main": kernels.lq_main(model, q)}
    return _run_lines("lemmalq", model, pairs, kerns,
                      [RateLine("definition-vs-main-rate", "L", "L main")])


def suite_dgh(model: DomainModel, n: int, q: int, seed: int,
              t_grid) -> list[CheckResult]:
    """First-order system: dbar of the printed potentials against the printed
    main terms, per index case, plus the case-c smallness of the numeric
    homotopy difference."""
    pairs = PathSpec(model, _base_point(model, seed), "parabolic", tuple(t_grid), seed).pairs()
    # one dbar G and one H per pair; each L line reads its Theta^L coefficient
    kerns = {"dbar G": kernels.kernel_derivative(kernels.gq(model, q), "dbar", "zeta"),
             "H": kernels.hq_main(model, q)}
    out = _run_lines("dgh", model, pairs, kerns, [
        RateLine(f"dbar-G-vs-H-{'nQ' if n in L else 'ab'}-L={''.join(map(str, L))}",
                 "dbar G", "H", partial(kernels.theta_coefficient, L=L), exact_tol=1e-9)
        for L in forms.anti_keys(n, q)])
    # case c: numeric homotopy components on omega-bar^{nJ}, J != L, from
    # the Theta^L coefficient of vartheta L_q - del_z L_{q-1}
    L = tuple(range(1, q + 1))     # n not in L
    hn = kernels.h_numeric(model, q)
    mains, offs = [], []
    for _, zeta, z in pairs:
        v = forms.change_frame_z(hn.eval(zeta, z), model.frame(z), forms.ADAPTED)
        had = forms.change_frame_zeta(kernels.theta_coefficient(v, L), model.frame(zeta),
                                      forms.ADAPTED)
        mains.append(had.norm())
        offs.append(had.filter_keys(lambda k: n in k[1] and not set(L) <= set(k[1])).norm())
    out.append(_rate_check("dgh", "case-c-components-small", [t for t, _, _ in pairs], mains,
                           offs, exact_tol=1e-12))
    return out


def suite_nkern(model: DomainModel, n: int, q: int, seed: int,
                t_grid) -> list[CheckResult]:
    """The four statements about the principal Neumann kernel: dbar N = T,
    vartheta N = T*_(q-1) (both up to lower order), symmetry of N, and decay
    of the normal components at the boundary."""
    base = _base_point(model, seed)
    pairs = PathSpec(model, base, "parabolic", tuple(t_grid), seed).pairs()
    nk = kernels.nq(model, q)
    kerns = {"dbar N": kernels.kernel_derivative(nk, "dbar", "zeta"), "T": kernels.tq(model, q),
             "vartheta N": kernels.kernel_vartheta_zeta(nk),
             "T*_(q-1)": kernels.adjoint_kernel(kernels.tq(model, q - 1)),
             "N": nk, "N*": kernels.adjoint_kernel(nk)}
    out = _run_lines("nkern", model, pairs, kerns, [
        RateLine("dbar-N-vs-T-rate", "dbar N", "T", weighted=True),
        RateLine("vartheta-N-vs-Tprev-adj-rate", "vartheta N", "T*_(q-1)", weighted=True),
        RateLine("N-symmetry-rate", "N", "N*", exact_tol=1e-9, definition_is_main=True)])
    # boundary condition: normal components decay along the inward normal
    zeta0 = model.project_boundary(base)
    nu_in = model.inward_normal(zeta0)
    zfix = model.project_boundary(base + 0.3 * model.tangent_direction(zeta0, seed))
    zfix = zfix + 0.35 * model.inward_normal(zfix)
    tsb, fracs = np.geomspace(0.3, 0.004, 8), []
    for t in tsb:
        zz = zeta0 + t * nu_in
        U = model.frame(zz)
        vad = forms.change_frame_zeta(nk.eval(zz, zfix), U, forms.ADAPTED)
        fracs.append((vad - forms.restrict_boundary(vad, U)).norm())
    sb, _ = slope_fit(tsb, fracs)
    out.append(CheckResult("nkern", "boundary-normal-decay", sb > 0.0, sb, 0.0))
    return out


def suite_tq_type(model: DomainModel, n: int, q: int, seed: int,
                  t_grid) -> list[CheckResult]:
    """Measured homotopy-kernel decay against the type-calculus prediction."""
    from . import typecalc as tc

    pairs = PathSpec(model, _base_point(model, seed), "parabolic", tuple(t_grid), seed).pairs()
    pred = float(min(tc.exponent_along_path(d, n) for d in tc.h_main_terms(n, q)))
    return _run_lines("tq-type", model, pairs, {"T": kernels.tq(model, q)},
                      [RateLine("leading-slope-matches-type", "T", predicted=pred)])


def suite_lp_morse(model: DomainModel, n: int, q: int, seed: int,
                   t_grid) -> list[CheckResult]:
    """Structural splits near the Morse point: residuals controlled by the
    printed gamma-weighted envelopes, with stable fitted constants."""
    if not model.critical_points:
        return [CheckResult("lp-morse", "skipped-no-morse-point", True, 0.0, 0.0)]
    w = np.zeros(n, dtype=complex)
    w[0] = (np.sqrt(3.0) + 1j) / 2.0          # boundary cone direction
    ratios_i, ratios_iii = [], []
    for t in np.geomspace(0.2, 0.01, 8):
        zeta = t * w
        z = 1.08 * t * w + 0.03 * t * 1j * w
        g = model.gamma(zeta)
        gs = model.gamma(z)
        if min(g, gs) < 1e-10 or abs(model.r(zeta)) > 0.2:
            continue
        lamP = _fd_dual_derivative(model, zeta, z, n - 1)
        resid_i = abs(g * lamP + 2 * np.conj(model.phi(zeta, z)))
        env_i = (g / gs) * (model.big_p(zeta, z) + model.rho2(zeta, z)) \
            + model.rho2(zeta, z)
        ratios_i.append(resid_i / env_i)
        # third identity: gamma gamma* (2P - sum |L_j rho2|^2) vs 4|Phi|^2
        lbar = kernels.lbar_rho2(model, zeta, z, model.dual_frame(zeta))[:n - 1]
        lsum = sum(abs(x) ** 2 for x in lbar)
        lhs = g * gs * (2 * model.big_p(zeta, z) - lsum)
        resid_iii = abs(lhs - 4 * abs(model.phi(zeta, z)) ** 2)
        rho = np.sqrt(model.rho2(zeta, z))
        env_iii = (abs(model.r(zeta)) * rho ** 2 + gs * rho ** 3 + rho ** 4)
        ratios_iii.append(resid_iii / env_iii)
    half = len(ratios_i) // 2
    grow = 1.0 + THRESHOLDS["envelope_growth"]
    stable_i = max(ratios_i[half:]) <= grow * max(max(ratios_i[:half]), 1e-12)
    stable_iii = max(ratios_iii[half:]) <= grow * max(max(ratios_iii[:half]), 1e-12)
    return [
        CheckResult("lp-morse", "normal-derivative-envelope", bool(stable_i),
                    max(ratios_i), 0.0, {"ratios": ratios_i,
                                         "comparison": "envelope stability"}),
        CheckResult("lp-morse", "norm-identity-envelope", bool(stable_iii),
                    max(ratios_iii), 0.0, {"ratios": ratios_iii,
                                           "comparison": "envelope stability"}),
    ]


def _wirtinger_fd(f, z: np.ndarray, k: int, h: float) -> tuple[complex, complex]:
    """(df/dz_k, df/dzbar_k) of a scalar function f at z by central
    differences of step h along the real and the imaginary axis."""
    e = np.zeros(len(z), dtype=complex)
    e[k] = h
    dx = (f(z + e) - f(z - e)) / (2 * h)
    dy = (f(z + 1j * e) - f(z - 1j * e)) / (2 * h)
    return 0.5 * (dx - 1j * dy), 0.5 * (dx + 1j * dy)


def _fd_dual_derivative(model, zeta, z, j):
    """Frame derivative Lambda_j P by central differences of step 1e-6 in z."""
    V = model.dual_frame(z)
    der = 0.0 + 0.0j
    for k in range(model.n):
        if abs(V[k, j]) >= 1e-15:
            der += V[k, j] * _wirtinger_fd(lambda w: model.big_p(zeta, w), z, k, 1e-6)[0]
    return der


def suite_adjointness(model: DomainModel, n: int, q: int, seed: int,
                      t_grid) -> list[CheckResult]:
    hs = [1.0 / k for k in (8, 10, 12, 14, 16)]
    res = [quad.adjointness_residual(model, h, seed=seed + 5) for h in hs]
    s, exact, _ = slope_or_exact(hs, res, [1.0] * len(hs))
    return [CheckResult("adjointness", "discrete-residual-slope",
                        exact or s >= THRESHOLDS["adjointness_slope"], s,
                        THRESHOLDS["adjointness_slope"],
                        {"residuals": res, "exact": exact})]


SUITES = {
    "phisymm": suite_phisymm,
    "lphi": suite_lphi,
    "phibound": suite_phibound,
    "morse": suite_morse,
    "gamma-harmonic": suite_gamma_harmonic,
    "lemmalq": suite_lemmalq,
    "dgh": suite_dgh,
    "nkern": suite_nkern,
    "tq-type": suite_tq_type,
    "lp-morse": suite_lp_morse,
    "adjointness": suite_adjointness,
}

# Least form degree q each kernel suite is defined for; all of them need
# q <= n - 2 as well.  The other suites do not read q.
KERNEL_SUITE_MIN_Q = {"lemmalq": 0, "dgh": 1, "nkern": 1, "tq-type": 0}


def check_suite_args(name: str, n: int, q: int) -> None:
    """Raise VerifyError unless suite `name` is defined at dimension n, degree q."""
    if name not in SUITES:
        raise VerifyError(f"unknown suite {name!r}; have {sorted(SUITES)}")
    qmin = KERNEL_SUITE_MIN_Q.get(name)
    if qmin is not None and not qmin <= q <= n - 2:
        raise VerifyError(f"suite {name!r} needs {qmin} <= q <= n - 2; "
                          f"got n={n}, q={q}")


def run_suite(name: str, domain_name: str, n: int, q: int = 1, seed: int = 0,
              t_grid=DEFAULT_TGRID, delta: float = 0.15) -> dict:
    """Run one named suite; returns a JSON-ready report."""
    check_suite_args(name, n, q)
    model = make_domain(domain_name, n, delta=delta)
    checks = SUITES[name](model, n, q, seed, t_grid)
    return {
        "suite": name, "domain": domain_name, "n": n, "q": q, "seed": seed,
        "t_grid": list(t_grid), "thresholds": THRESHOLDS,
        "checks": [asdict(c) for c in checks],
        "passed": all(c.passed for c in checks),
    }
