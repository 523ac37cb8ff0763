"""Slope fitting and the suite runner."""

import json

import numpy as np
import pytest

from hlkernels import verify
from hlkernels.verify import PathSpec, VerifyError, run_suite, slope_fit


def test_slope_fit_exact_cubic():
    ts = [2.0 ** (-k) for k in range(3, 10)]
    s, resid = slope_fit(ts, [t ** 3 for t in ts])
    assert s == pytest.approx(3.0, abs=1e-10)
    assert resid < 1e-10


def test_slope_fit_noisy_linear():
    ts = np.array([2.0 ** (-k) for k in range(3, 11)])
    vals = ts * (1 + 0.1 * np.sin(np.log(ts)))
    s, _ = slope_fit(ts, vals)
    assert abs(s - 1.0) <= 0.05


def test_slope_fit_rejects_all_zero():
    ts = [2.0 ** (-k) for k in range(3, 10)]
    with pytest.raises(VerifyError):
        slope_fit(ts, [0.0] * len(ts))


def test_slope_fit_drops_nonpositive():
    ts = [2.0 ** (-k) for k in range(3, 12)]
    vals = [t ** 2 for t in ts]
    vals[2] = 0.0
    s, _ = slope_fit(ts, vals)
    assert s == pytest.approx(2.0, abs=1e-9)


def test_pathspec_modes():
    from hlkernels.domain import ball
    m = ball(2)
    base = m.project_boundary(np.array([0.6, 0.7], dtype=complex))
    for mode in ("tangential", "transversal", "parabolic"):
        spec = PathSpec(m, base, mode, tuple(2.0 ** (-k) for k in range(3, 8)))
        pairs = spec.pairs()
        assert len(pairs) == 5
        for t, zeta, z in pairs:
            assert np.linalg.norm(zeta - z) <= 3 * t
    with pytest.raises(VerifyError):
        PathSpec(m, base, "radial").pairs()


def test_run_suite_unknown():
    with pytest.raises(VerifyError):
        run_suite("nosuch", "ball", 2)


def test_suite_deterministic():
    r1 = run_suite("lphi", "ball", 2, seed=3)
    r2 = run_suite("lphi", "ball", 2, seed=3)
    assert r1 == r2


def test_suite_report_shape():
    rep = run_suite("morse", "pinched", 2)
    assert rep["passed"] is True
    assert rep["suite"] == "morse"
    for c in rep["checks"]:
        assert {"suite", "check", "passed", "slope_measured",
                "slope_required"} <= set(c)


def test_phisymm_exact_on_quadratic_models():
    rep = run_suite("phisymm", "ball", 2)
    main = [c for c in rep["checks"] if c["check"] == "phi-minus-phistar-slope"][0]
    assert main["passed"] and main["details"]["exact_zero"]


def test_tq_slope_matches_type_prediction():
    rep = run_suite("tq-type", "ball", 3, 1)
    c = rep["checks"][0]
    assert c["passed"], c
    assert abs(c["slope_measured"] - c["slope_required"]) <= 0.2
    assert c["slope_required"] == -7       # -2n-1, case a of H at mu = 0


# dgh on ball n=3, q=1, seed 0: (check, slope, exact), recorded when every
# frame change took its minors from forms.compound (Laplace expansion) and
# H its conormal constants from kernels.conormal_weight; case c re-recorded
# when L_q went onto rows: that line is fitted down to the Richardson noise
# floor of h_numeric, so last-bit changes in L_q move it
DGH_FROZEN = [
    ("dbar-G-vs-H-ab-L=1", -5.993491522683619, False),
    ("dbar-G-vs-H-ab-L=2", -6.011264351818629, False),
    ("dbar-G-vs-H-nQ-L=3", float("inf"), True),
    ("case-c-components-small", -4.607708326363094, False),
]


def test_dgh_frozen_slopes():
    rep = run_suite("dgh", "ball", 3, 1, seed=0)
    assert rep["passed"] is True
    assert [(c["check"], c["details"]["exact"]) for c in rep["checks"]] == [
        (name, exact) for name, _, exact in DGH_FROZEN]
    for c, (_, slope, _) in zip(rep["checks"], DGH_FROZEN):
        assert c["slope_measured"] == pytest.approx(slope, rel=1e-12, abs=0)


def test_rate_checks_keep_their_fit_residuals():
    rep = run_suite("nkern", "ball", 3, 1, seed=0)
    rates = [c for c in rep["checks"] if "main_slope" in c["details"]]
    assert [c["check"] for c in rates] == [
        "dbar-N-vs-T-rate", "vartheta-N-vs-Tprev-adj-rate", "N-symmetry-rate"]
    for c in rates:
        d = c["details"]
        assert np.isfinite(d["main_rms"]) and d["main_rms"] >= 0, c["check"]
        if d.get("exact"):
            assert d["diff_rms"] is None
        else:
            assert np.isfinite(d["diff_rms"]) and d["diff_rms"] >= 0, c["check"]
    assert all(type(c["details"]["diff_rms"]) is float for c in rates[:2])


def test_reports_embed_thresholds():
    rep = run_suite("morse", "pinched", 2)
    assert rep["thresholds"]["rate_gap"] == 0.8


def test_base_point_gives_up_with_verify_error(monkeypatch):
    from hlkernels.domain import DomainModel, SingularFramePoint, ball

    def always_singular(self, zeta, iters=60):
        raise SingularFramePoint("projection hit a critical point")

    monkeypatch.setattr(DomainModel, "project_boundary", always_singular)
    with pytest.raises(VerifyError):
        verify._base_point(ball(2))


def test_phibound_with_every_trial_outside_the_halo(monkeypatch):
    from hlkernels.domain import DomainModel, ball
    base = verify._base_point(ball(2))
    monkeypatch.setattr(verify, "_base_point", lambda model, seed=0: base)
    monkeypatch.setattr(DomainModel, "in_halo", lambda self, zeta: False)
    rep = run_suite("phibound", "ball", 2)
    check = [c for c in rep["checks"] if c["check"] == "lower-bound-constant-stable"][0]
    assert not check["passed"]
    assert "halo" in check["details"]["reason"]
    assert rep["passed"] is False


@pytest.mark.parametrize("domain_name, n, q", [
    ("ball", 2, 0), ("pinched", 2, 0), ("ball", 3, 1), ("pinched", 3, 1)])
def test_verdicts_are_python_bools(domain_name, n, q):
    # a numpy bool would reach suite_report.json only through a fallback
    # encoder, as the string "True"; adjointness is left out for its cost
    for name in sorted(verify.SUITES):
        if name == "adjointness":
            continue
        try:
            verify.check_suite_args(name, n, q)
        except VerifyError:
            continue
        rep = run_suite(name, domain_name, n, q, seed=0)
        assert type(rep["passed"]) is bool, name
        for c in rep["checks"]:
            assert type(c["passed"]) is bool, (name, c["check"])
        json.dumps(rep)
