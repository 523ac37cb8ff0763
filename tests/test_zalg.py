"""Rewrite engine: normal forms, derivations, principal parts, exponents."""

import json
from fractions import Fraction

import numpy as np
import pytest

from hlkernels import quad, typecalc, zalg
from hlkernels.zalg import (NotComparable, Term, ZExpr, compare_modulo_ledger,
                            derive_intmain, derive_mainint, expected_intmain,
                            expected_mainint, gamma3_axiom, map_exponent,
                            principal_part_type, simplify, strip_ledger,
                            transcript_json, type_threshold)


def test_gamma3_axioms_are_weight3_normal_forms():
    for part in ("i", "ii", "iii"):
        assert derive_mainint(1, part) == expected_mainint(1, part)


@pytest.mark.parametrize("j", range(1, 6))
@pytest.mark.parametrize("part", ["i", "ii", "iii"])
def test_mainint_matches_displays(j, part):
    assert derive_mainint(j, part) == expected_mainint(j, part)


def test_mainint_j2_explicit():
    got = derive_mainint(2, "i")
    want = (ZExpr.pair("Nq", arg_g=5, inner="box")
            + ZExpr.z(3, arg_g=2, inner="box")
            + ZExpr.z(3, inner="dbar") + ZExpr.z(3, inner="dbarstar")
            + ZExpr.z(2, inner="id"))
    assert got == want


def test_mainint_j3_part_ii_explicit():
    got = derive_mainint(3, "ii")
    want = (ZExpr.z(1, arg_g=8, inner="box") + ZExpr.z(2, arg_g=5, inner="box")
            + ZExpr.z(3, arg_g=2, inner="box")
            + ZExpr.z(3, inner="dbar") + ZExpr.z(3, inner="dbarstar"))
    assert got == want


@pytest.mark.parametrize("j", range(1, 6))
@pytest.mark.parametrize("kind", ["N", "dbarN", "dbarstarN"])
def test_intmain_matches_displays(j, kind):
    got = derive_intmain(kind, j)
    assert compare_modulo_ledger(got, expected_intmain(kind, j))
    led = [t for t in got.terms if t.kind() == "LEDGER"]
    assert len(led) == 1
    assert led[0].head[1] == j and led[0].head[2] == j
    assert all(k >= j for k, _ in led[0].head[3])


def test_intmain_head_kernels():
    assert any(t.head == ("PAIR", "Nq", True) for t in derive_intmain("N", 2).terms)
    assert any(t.head == ("PAIR", "Tq-1", True)
               for t in derive_intmain("dbarstarN", 2).terms)
    assert any(t.head == ("PAIR", "Tq*", True)
               for t in derive_intmain("dbarN", 2).terms)


def test_composition_rule():
    # Z1 applied after Z2-type content composes additively
    e = simplify(ZExpr.z(1).scale_gamma_out(0) + ZExpr.z(2))
    assert sorted(t.head for t in e.terms) == [("Z", 1)]  # absorption: Z1+Z2 -> Z1


def test_gamcom_example():
    e = simplify(ZExpr.z(2).scale_gamma_out(3), expand_identities=False)
    want = ZExpr.z(2, arg_g=3) + ZExpr.z(3)
    assert e == want


def test_harmonic_absorption_example():
    e = simplify(ZExpr.single(("ID",), 0, 4, "H"))
    assert e == ZExpr([Term(("Z", 2), 0, 0, "H", 1)])


def test_box_neumann_split():
    e = simplify(ZExpr.single(("Z", 1), 0, 0, "boxN"), expand_identities=False)
    kinds = sorted((t.head, t.inner, t.coef) for t in e.terms)
    assert (("Z", 1), "H", 1) in kinds     # generic class absorbs the sign
    assert (("Z", 1), "id", 1) in kinds


def test_gamma_one_collapse():
    for j in range(1, 6):
        for part in ("i", "ii", "iii"):
            g = simplify(derive_mainint(j, part).set_gamma_one(),
                         expand_identities=False)
            w = simplify(expected_mainint(j, part).set_gamma_one(),
                         expand_identities=False)
            assert g == w


def test_confluence_randomized_orders():
    for j in (2, 3, 4, 5):
        for part in ("i", "ii", "iii"):
            base = derive_mainint(j, part)
            for s in range(4):
                rng = np.random.default_rng(50 + s)
                e = gamma3_axiom(part)
                for _ in range(j - 1):
                    e = simplify(e.scale_gamma_out(3), rng=rng)
                assert simplify(e) == base


def test_termination_budget():
    rng = np.random.default_rng(0)
    inners = ["id", "dbar", "dbarstar", "box"]
    terms = []
    for _ in range(200):
        terms.append(Term(("Z", int(rng.integers(1, 5))), int(rng.integers(0, 4)),
                          int(rng.integers(0, 7)), inners[rng.integers(0, 4)],
                          int(rng.choice([-1, 1]))))
    simplify(ZExpr(terms))   # must terminate within the step budget


def test_principal_part_certifications():
    for j in (1, 2, 3):
        a = derive_intmain("N", j)
        b = ZExpr.pair("Nq", inner="id", gstar=False, out_g=3 * j)
        assert principal_part_type(a, b) == 3          # difference type m+1 = 3
        a = derive_intmain("dbarN", j)
        b = ZExpr.pair("Tq*", inner="id", gstar=False, out_g=3 * j)
        assert principal_part_type(a, b) == 2
        a = derive_intmain("dbarstarN", j)
        b = ZExpr.pair("Tq-1", inner="id", gstar=False, out_g=3 * j)
        assert principal_part_type(a, b) == 2


def test_principal_part_trivial_cases():
    a = derive_intmain("N", 2)
    assert principal_part_type(a, a) == float("inf")
    assert principal_part_type(ZExpr.z(1), ZExpr.z(2)) == 1
    with pytest.raises(NotComparable):
        principal_part_type(ZExpr.z(1, inner="dbar"), ZExpr.z(1, inner="id"))


def test_map_exponent_values():
    e_terms = quad.RATIO_KERNELS["E"][2](typecalc, 2, 0)
    nq_terms = {n: quad.RATIO_KERNELS["Nq"][2](typecalc, n, 1) for n in (3, 4)}
    assert map_exponent(2, 2, 3) == Fraction(1, 4)                  # s < 4
    assert type_threshold(e_terms, 2, 2) == Fraction(1, 4)          # isotropic type 1
    assert type_threshold(nq_terms[3], 2, 3) == Fraction(1, 4)      # admissible type 2
    assert type_threshold(nq_terms[4], 2, 4) == Fraction(3, 10)     # s < 10/3
    assert type_threshold(nq_terms[3], 2, 3) == map_exponent(2, 2, 3)
    with pytest.raises(zalg.ZalgError):
        map_exponent(2, 1, 3)
    # between p = 1 and p = 2 only the kernel rule applies
    assert type_threshold(e_terms, 1, 2) == Fraction(3, 4)
    assert type_threshold(e_terms, np.inf, 2) == Fraction(-1, 4)
    for p in (Fraction(1, 2), np.nan):
        with pytest.raises(zalg.ZalgError):
            type_threshold(e_terms, p, 2)


def test_type_threshold_takes_the_term_of_least_type():
    # T_q: admissible H terms of type 1 beside the isotropic dbar Gamma_0q of
    # type 1; 1/(2n+2) < 1/(2n), so the admissible terms set the threshold
    for n in (3, 4):
        adm, iso = typecalc.tq_main_descriptors(n, 1)
        want = Fraction(1, 2) - Fraction(1, 2 * n + 2)
        assert type_threshold([*adm, iso], 2, n) == want
        assert type_threshold([iso], 2, n) == Fraction(1, 2) - Fraction(1, 2 * n)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_kernel_types_are_the_descriptors_least_types(n):
    # the pairing types of the rewrite engine are stated again in KERNEL_TYPE;
    # they must stay the least types of the kernels' typecalc descriptors
    for q in range(1, n - 1):
        nq = [*typecalc.neumann_main_terms(n, q), *typecalc.neumann_ratio_terms(n, q),
              typecalc.neumann_nu_term(n, q)]
        tq = typecalc.h_main_terms(n, q)
        assert zalg.KERNEL_TYPE["Nq"] == min(typecalc.admissible_type(d, n) for d in nq)
        for name in ("Tq-1", "Tq*"):
            assert zalg.KERNEL_TYPE[name] == min(typecalc.admissible_type(d, n) for d in tq)


def test_transcript_roundtrip():
    data = json.loads(transcript_json("N", 2))
    assert data["match"] is True
    assert data["steps"]
    data = json.loads(transcript_json("ii", 3))
    assert data["match"] is True
    assert "normal_form" in data


def test_ledger_strip():
    e = derive_intmain("N", 2)
    bare, led = strip_ledger(e)
    assert led and not any(t.kind() == "LEDGER" for t in bare.terms)
