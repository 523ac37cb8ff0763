"""Admissible/isotropic type arithmetic and path-exponent predictions."""

from fractions import Fraction

import pytest

from hlkernels import typecalc as tc
from hlkernels.typecalc import (AdmissibleDescriptor, DescriptorError,
                                IsotropicDescriptor, PathExponents, PARABOLIC,
                                admissible_type, exponent_along_path,
                                isotropic_type)


def test_neumann_main_term_types():
    for n in range(3, 7):
        for q in range(1, n - 1):
            for mu in range(0, n - q - 1):
                d = AdmissibleDescriptor(N=2, j=0, t0=n - mu - 2, t2=-(mu + 2))
                assert admissible_type(d, n) == 2


def test_lq_main_term_types():
    for n in range(3, 7):
        for q in range(0, n - 1):
            for mu in range(0, n - q - 1):
                d = AdmissibleDescriptor(N=1, j=1, t0=n - mu - 1, t2=-(mu + 1))
                assert admissible_type(d, n) == 2


def test_h_term_type():
    d = AdmissibleDescriptor(N=2, j=1, t0=2, t2=-2)
    assert admissible_type(d, 3) == 1


def test_h_conormal_block_descriptor():
    """`kernels.hq_main`'s block const conj(L_j) rho^2, const ~ P^-n, for L
    holding n: type 1, and tq-type's predicted slope stays that of case a."""
    for n in range(3, 7):
        for q in range(0, n - 1):
            terms = tc.h_main_terms(n, q)
            nu = terms[-1]
            assert nu == AdmissibleDescriptor(N=0, j=1, t0=n, label=f"H-nu n={n} q={q}")
            assert admissible_type(nu, n) == 1
            assert exponent_along_path(nu, n) == 1 - 2 * n
            assert min(exponent_along_path(d, n) for d in terms) == -2 * n - 1
            assert min(exponent_along_path(d, n) for d in terms[:-1]) == -2 * n - 1


def test_table_sweep():
    for n in range(3, 7):
        for q in range(1, n - 1):
            assert all(admissible_type(x, n) == 2 for x in tc.neumann_main_terms(n, q))
            assert all(admissible_type(x, n) == 2 for x in tc.neumann_ratio_terms(n, q))
            assert admissible_type(tc.neumann_nu_term(n, q), n) == 2
            assert all(admissible_type(x, n) == 2 for x in tc.lq_main_terms(n, q))
            hs = [admissible_type(x, n) for x in tc.h_main_terms(n, q)]
            assert min(hs) == 1
            adm, iso = tc.tq_main_descriptors(n, q)
            assert min(admissible_type(x, n) for x in adm) == 1
            assert isotropic_type(iso, n) == 1


def test_isotropic_examples():
    for n in range(2, 6):
        assert isotropic_type(tc.gamma0q_descriptor(n, 1), n) == 2
        assert isotropic_type(tc.dbar_gamma0q_descriptor(n, 1), n) == 1
        assert isotropic_type(IsotropicDescriptor(m=1, k=Fraction(n)), n) == 1


def test_type_increases_with_sigma_order():
    base = AdmissibleDescriptor(N=2, j=0, t0=1, t2=-2)
    for n in (3, 4):
        t0 = admissible_type(base, n)
        for dj in range(1, 4):
            d = AdmissibleDescriptor(N=2, j=dj, t0=1, t2=-2)
            assert admissible_type(d, n) == t0 + dj


def test_type_swap_invariance():
    a = AdmissibleDescriptor(N=2, M=0, j=1, t0=1, t1=-1, t2=-1, l=1, m=0)
    b = AdmissibleDescriptor(N=0, M=2, j=1, t0=1, t3=-1, t4=-1, l=0, m=1)
    for n in (3, 4, 5):
        assert admissible_type(a, n) == admissible_type(b, n)


def test_constraint_violations():
    with pytest.raises(DescriptorError):
        admissible_type(AdmissibleDescriptor(j=-1), 3)
    with pytest.raises(DescriptorError):
        admissible_type(AdmissibleDescriptor(t1=1), 3)     # t = -1 < 0
    with pytest.raises(DescriptorError):
        admissible_type(AdmissibleDescriptor(l=2), 3)      # l + m > t + 1
    with pytest.raises(DescriptorError):
        isotropic_type(IsotropicDescriptor(m=-1, k=Fraction(1)), 3)


def test_positive_individual_exponent_with_balancing():
    # ratio structure Phi / Phibar: individual exponents may be positive as
    # long as the total weight stays nonnegative
    d = AdmissibleDescriptor(N=1, j=0, t0=2, t1=1, t2=-1, inv_gamma_star=1)
    assert admissible_type(d, 3) == 2


def test_exponent_along_path_examples():
    d = AdmissibleDescriptor(N=2, j=0, t0=1, t2=-2)
    assert exponent_along_path(d, 3, PARABOLIC) == -6
    d = AdmissibleDescriptor(N=2, j=1, t0=2, t2=-2)
    assert exponent_along_path(d, 3, PARABOLIC) == -7
    assert exponent_along_path(AdmissibleDescriptor(), 3, PARABOLIC) == 0


def test_exponent_with_prefactors_and_r_powers():
    d = AdmissibleDescriptor(j=1, t0=1, t2=-1, l=1, inv_gamma=1, inv_gamma_star=2)
    path = PathExponents(a=Fraction(1), b=Fraction(2), c=Fraction(2),
                         p=Fraction(2), f=Fraction(2))
    # j*a + l*b - t0*p - t*f - ig*b/2 - igs*c/2
    assert exponent_along_path(d, 3, path) == 1 + 2 - 2 - 2 - 1 - 2


def test_exponent_path_validation():
    d = AdmissibleDescriptor()
    with pytest.raises(DescriptorError):
        exponent_along_path(d, 3, PathExponents(a=Fraction(0)))
