"""Acceptance criteria, one test per criterion (criterion 3 split per line).

Each test prints one pass/fail line, and every criterion must pass at its
stated tolerance.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from hlkernels import domain, kernels, quad, typecalc as tc, verify, zalg


def report(num, name, ok, detail=""):
    print(f"\nACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'} {detail}")
    return ok


def checks_pass(rep, names=None):
    out = {}
    for c in rep["checks"]:
        if names is None or c["check"] in names:
            out[c["check"]] = (c["passed"], c["slope_measured"], c["slope_required"])
    return out


# -- 1: type arithmetic -------------------------------------------------------------


def test_acceptance_1_type_arithmetic():
    t0 = time.time()
    ok = True
    for n in range(3, 7):
        for q in range(1, n - 1):
            ok &= all(tc.admissible_type(d, n) == 2 for d in tc.neumann_main_terms(n, q))
            ok &= all(tc.admissible_type(d, n) == 2 for d in tc.neumann_ratio_terms(n, q))
            ok &= tc.admissible_type(tc.neumann_nu_term(n, q), n) == 2
            ok &= all(tc.admissible_type(d, n) == 2 for d in tc.lq_main_terms(n, q))
            ok &= min(tc.admissible_type(d, n) for d in tc.h_main_terms(n, q)) == 1
            adm, iso = tc.tq_main_descriptors(n, q)
            ok &= min(tc.admissible_type(d, n) for d in adm) == 1
            ok &= tc.isotropic_type(iso, n) == 1
            ok &= tc.isotropic_type(tc.gamma0q_descriptor(n, q), n) == 2
    dt = time.time() - t0
    ok &= dt < 1.0
    assert report(1, "type arithmetic", ok, f"({dt:.3f}s, all n=3..6)")


# -- 2: geometric rates -------------------------------------------------------------


def test_acceptance_2_geometric_rates():
    t0 = time.time()
    ok = True
    lines = []
    for dom in ("ball", "pinched"):
        for n in (2, 3):
            for suite in ("phisymm", "lphi", "phibound"):
                rep = verify.run_suite(suite, dom, n, q=1)
                ok &= rep["passed"]
                for c in rep["checks"]:
                    lines.append(f"{dom}/n={n}/{c['check']}:"
                                 f"{'ok' if c['passed'] else 'FAIL'}")
    dt = time.time() - t0
    ok &= dt < 60.0
    assert report(2, "geometric rates", ok, f"({dt:.1f}s) " + " ".join(
        l for l in lines if "FAIL" in l))


# -- 3: Neumann kernel rates --------------------------------------------------------


@pytest.fixture(scope="module")
def nkern_reports():
    return {dom: verify.run_suite("nkern", dom, 3, 1) for dom in ("ball", "pinched")}


def test_acceptance_3a_dbar_direction(nkern_reports):
    ok = True
    det = []
    for dom, rep in nkern_reports.items():
        c = checks_pass(rep, {"dbar-N-vs-T-rate"})["dbar-N-vs-T-rate"]
        ok &= c[0]
        det.append(f"{dom}: slope {c[1]:.3f} >= {c[2]:.3f}")
    assert report("3a", "dbar N = T rate", ok, "; ".join(det))


def test_acceptance_3b_adjoint_direction(nkern_reports):
    """Faithful implementation of the adjoint-direction line.

    The right-hand side T*_(q-1) is built from C_q through L_q, so this line
    depends on every term of the a_{q mu nu} expansion (see the README section
    "Adjoint direction").  The criterion is asserted as stated.
    """
    ok = True
    det = []
    for dom, rep in nkern_reports.items():
        c = checks_pass(rep, {"vartheta-N-vs-Tprev-adj-rate"})[
            "vartheta-N-vs-Tprev-adj-rate"]
        ok &= c[0]
        det.append(f"{dom}: slope {c[1]:.3f} needs >= {c[2]:.3f}")
    report("3b", "vartheta N = T*_(q-1) rate", ok,
           "; ".join(det))
    assert ok, ("adjoint-direction identity vartheta N = T*_(q-1) fails at "
                "main order; see README, Adjoint direction")


def test_acceptance_3c_symmetry(nkern_reports):
    ok = True
    det = []
    for dom, rep in nkern_reports.items():
        c = checks_pass(rep, {"N-symmetry-rate"})["N-symmetry-rate"]
        ok &= c[0]
        det.append(f"{dom}: slope {c[1]:.3f}")
    assert report("3c", "N symmetry rate", ok, "; ".join(det))


def test_acceptance_3d_boundary(nkern_reports):
    ok = True
    det = []
    for dom, rep in nkern_reports.items():
        c = checks_pass(rep, {"boundary-normal-decay"})["boundary-normal-decay"]
        ok &= c[0]
        det.append(f"{dom}: slope {c[1]:.3f} > 0")
    assert report("3d", "boundary condition decay", ok, "; ".join(det))


# -- 4: first-order system ----------------------------------------------------------


def test_acceptance_4_dgh_rates():
    t0 = time.time()
    rep = verify.run_suite("dgh", "ball", 3, 1)
    ok = rep["passed"]
    dt = time.time() - t0
    ok &= dt < 300.0
    det = "; ".join(f"{c['check']}:{'ok' if c['passed'] else 'FAIL'}"
                    for c in rep["checks"])
    assert report(4, "dbar G = H rates (all cases)", ok, f"({dt:.1f}s) {det}")


# -- 5: symbolic derivations --------------------------------------------------------


def test_acceptance_5_symbolic():
    t0 = time.time()
    ok = True
    for j in range(1, 6):
        for part in ("i", "ii", "iii"):
            ok &= zalg.derive_mainint(j, part) == zalg.expected_mainint(j, part)
            g = zalg.simplify(zalg.derive_mainint(j, part).set_gamma_one(),
                              expand_identities=False)
            w = zalg.simplify(zalg.expected_mainint(j, part).set_gamma_one(),
                              expand_identities=False)
            ok &= g == w
        for kind in ("N", "dbarN", "dbarstarN"):
            ok &= zalg.compare_modulo_ledger(zalg.derive_intmain(kind, j),
                                             zalg.expected_intmain(kind, j))
    for j in (1, 2, 3):
        ok &= zalg.principal_part_type(
            zalg.derive_intmain("N", j),
            zalg.ZExpr.pair("Nq", inner="id", gstar=False, out_g=3 * j)) == 3
        ok &= zalg.principal_part_type(
            zalg.derive_intmain("dbarN", j),
            zalg.ZExpr.pair("Tq*", inner="id", gstar=False, out_g=3 * j)) == 2
        ok &= zalg.principal_part_type(
            zalg.derive_intmain("dbarstarN", j),
            zalg.ZExpr.pair("Tq-1", inner="id", gstar=False, out_g=3 * j)) == 2
    dt = time.time() - t0
    ok &= dt < 1.0
    assert report(5, "symbolic derivations", ok,
                  f"({dt:.3f}s, j<=5, collapse + principal parts)")


# -- 6: adjointness of vartheta ------------------------------------------------------


def test_acceptance_6_adjointness():
    t0 = time.time()
    rep = verify.run_suite("adjointness", "ball", 2, 1)
    c = rep["checks"][0]
    dt = time.time() - t0
    ok = c["passed"] and dt < 120.0
    res = c["details"]["residuals"]
    assert report(6, "discrete adjointness of vartheta", ok,
                  f"({dt:.1f}s) residuals {min(res):.2e}..{max(res):.2e}"
                  + (" exact at machine precision" if c["details"].get("exact")
                     else f" slope {c['slope_measured']:.3f}"))


# -- 7: mapping-ratio trends ---------------------------------------------------------


def test_acceptance_7_mapping_ratios():
    t0 = time.time()
    ok = True
    det = []
    # borderline isotropic class on the ball, n=2: s below the threshold 4
    assert 1 / zalg.type_threshold(quad.RATIO_KERNELS["E"][2](tc, 2, 0), 2, 2) == 4
    rep = quad.ratio_table(domain.ball(2), "E", 0, a=0.0, b=0.0, p=2, s=3.5,
                           trials=8, resolutions=[12, 16, 20], seed=11)
    mr = rep["meta"]["max_ratio_by_resolution"]
    ks = sorted(mr)
    growth = [mr[ks[i]] / mr[ks[i - 1]] - 1 for i in range(1, len(ks))]
    ok &= all(g <= 0.15 for g in growth)
    det.append(f"E: growths {[f'{g:.1%}' for g in growth]}")
    # principal Neumann operator on the ball, n=3: s below 1/(1/p - 1/(n+1)) = 4
    assert 1 / zalg.type_threshold(quad.RATIO_KERNELS["Nq"][2](tc, 3, 1), 2, 3) == 4
    rep = quad.ratio_table(domain.ball(3), "Nq", 1, a=15.0, b=2.0, p=2, s=3.5,
                           trials=8, resolutions=[8, 10, 12], seed=11)
    mr = rep["meta"]["max_ratio_by_resolution"]
    ks = sorted(mr)
    growth = [mr[ks[i]] / mr[ks[i - 1]] - 1 for i in range(1, len(ks))]
    ok &= all(g <= 0.15 for g in growth)
    det.append(f"Nq: growths {[f'{g:.1%}' for g in growth]}")
    dt = time.time() - t0
    ok &= dt < 1800.0
    assert report(7, "mapping-ratio trends", ok, f"({dt:.1f}s) " + "; ".join(det))


# -- 8: Morse structure ---------------------------------------------------------------


def test_acceptance_8_morse_signature():
    m = domain.pinched(2)
    H = m.jet(np.zeros(2, dtype=complex)).real_hessian()
    eigs = np.sort(np.linalg.eigvalsh(-H))
    want = np.array([-6.0, -2.0, -2.0, 2.0])
    err = float(np.max(np.abs(eigs - np.sort(want))))
    ok = err <= 1e-10
    assert report(8, "Morse signature at the pinch", ok,
                  f"eigs of -r Hessian = {eigs.tolist()} (err {err:.1e})")
