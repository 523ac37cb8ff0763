"""Exterior algebra, Hodge star, pairing, and adjoint conventions.

The star is cross-checked against an independent oracle that expands every
monomial over the underlying real orthonormal coframe and applies the real
Hodge star there.
"""

import itertools

import numpy as np
import pytest

from hlkernels import forms
from hlkernels.forms import (DoubleForm, adjoint_value, change_frame_zeta,
                             conj_form, hodge_star, inner,
                             merge_sign, pair_pointwise,
                             restrict_boundary, swap_variables, volume_coeff,
                             wedge, wedge_power)


def idx(n, k):
    return list(itertools.combinations(range(1, n + 1), k))


def random_form(n, p, q, rng, frame=forms.COORD_FRAME):
    f = DoubleForm.zero(n, frame)
    for A in idx(n, p):
        for B in idx(n, q):
            f = f + DoubleForm.monomial(
                n, A, B, value=complex(rng.standard_normal(), rng.standard_normal()),
                frame=frame)
    return f


# -- permutation signs -------------------------------------------------------


def perm_sign(sub: tuple[int, ...], sup: tuple[int, ...]) -> int:
    """Sign of the permutation taking sub to sup; 0 if not a permutation.

    An oracle independent of `forms.merge_sign`, for the real Hodge star."""
    if len(sub) != len(sup) or len(set(sub)) != len(sub):
        return 0
    if sorted(sub) != sorted(sup):
        return 0
    pos = {v: i for i, v in enumerate(sup)}
    perm = [pos[v] for v in sub]
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def test_perm_sign_examples():
    assert perm_sign((1, 2), (1, 2)) == 1
    assert perm_sign((2, 1), (1, 2)) == -1
    assert perm_sign((1, 1), (1, 2)) == 0
    assert perm_sign((3, 1, 2), (1, 2, 3)) == 1


def test_perm_sign_antisymmetry():
    rng = np.random.default_rng(0)
    for _ in range(25):
        sup = tuple(rng.permutation(5) + 1)
        sub = list(rng.permutation(sup))
        i, j = rng.choice(5, size=2, replace=False)
        swapped = sub.copy()
        swapped[i], swapped[j] = swapped[j], swapped[i]
        assert perm_sign(tuple(sub), sup) == -perm_sign(tuple(swapped), sup)


def test_merge_sign_collision():
    assert merge_sign((1, 2), (2, 3)) == (0, ())
    assert merge_sign((2,), (1, 3)) == (-1, (1, 2, 3))


# -- wedge --------------------------------------------------------------------


def test_wedge_unit_and_nilpotent():
    n = 2
    one = DoubleForm.scalar(n, 1.0)
    w1 = DoubleForm.monomial(n, az=(1,))
    assert (wedge(one, w1) - w1).is_zero()
    assert wedge(w1, w1).is_zero()


def test_wedge_anticommutation():
    n = 2
    a = DoubleForm.monomial(n, az=(1,))
    b = DoubleForm.monomial(n, az=(2,))
    assert (wedge(a, b) + wedge(b, a)).is_zero()


def test_wedge_dimension_mismatch():
    with pytest.raises(forms.DimensionMismatch):
        wedge(DoubleForm.scalar(2, 1.0), DoubleForm.scalar(3, 1.0))


def test_wedge_frame_mismatch():
    a = DoubleForm.monomial(2, az=(1,))
    b = DoubleForm.monomial(2, az=(2,), frame=(forms.ADAPTED, forms.COORD))
    with pytest.raises(forms.FrameMismatch):
        wedge(a, b)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_wedge_associative_graded_anticommutative(n):
    rng = np.random.default_rng(n)
    for _ in range(6):
        degs = rng.integers(0, 2, size=6)
        f = random_form(n, degs[0], degs[1], rng)
        g = random_form(n, degs[2], degs[3], rng)
        h = random_form(n, degs[4], degs[5], rng)
        lhs = wedge(wedge(f, g), h)
        rhs = wedge(f, wedge(g, h))
        assert (lhs - rhs).norm() < 1e-12
        sign = (-1) ** ((degs[0] + degs[1]) * (degs[2] + degs[3]))
        assert (wedge(f, g) - wedge(g, f).scale(sign)).norm() < 1e-12


# -- Hodge star ----------------------------------------------------------------


def _real_star_oracle(n):
    """Monomial star map computed over the real orthonormal coframe."""
    dim = 2 * n

    def real_star(subset):
        comp = tuple(i for i in range(dim) if i not in subset)
        sign = perm_sign(tuple(subset) + comp, tuple(range(dim)))
        return comp, sign

    # complex 1-forms over real basis: omega^j = (e_{2j} + i e_{2j+1})/sqrt2
    def expand(hol, anti):
        terms = {(): 1.0}
        factors = []
        for j in hol:
            factors.append({(2 * (j - 1),): 1 / np.sqrt(2),
                            (2 * (j - 1) + 1,): 1j / np.sqrt(2)})
        for j in anti:
            factors.append({(2 * (j - 1),): 1 / np.sqrt(2),
                            (2 * (j - 1) + 1,): -1j / np.sqrt(2)})
        for fac in factors:
            new = {}
            for sub, c in terms.items():
                for one, c2 in fac.items():
                    if one[0] in sub:
                        continue
                    merged = sub + one
                    sign = 1
                    m = sorted(merged)
                    # count inversions of appending one[0]
                    inv = sum(1 for x in sub if x > one[0])
                    sign = (-1) ** inv
                    new_key = tuple(sorted(merged))
                    new[new_key] = new.get(new_key, 0) + c * c2 * sign
            terms = new
        return terms

    basis = {}
    for p in range(n + 1):
        for q in range(n + 1):
            for A in idx(n, p):
                for B in idx(n, q):
                    basis[(A, B)] = expand(A, B)

    def star(A, B):
        out_real = {}
        for sub, c in basis[(A, B)].items():
            comp, sign = real_star(sub)
            out_real[comp] = out_real.get(comp, 0) + c * sign
        # project back onto complex monomials of complementary bidegree
        result = {}
        p, q = len(A), len(B)
        for A2 in idx(n, n - q):
            for B2 in idx(n, n - p):
                target = basis[(A2, B2)]
                # coefficient = <out, target> over the real orthonormal basis
                coef = sum(out_real.get(k, 0) * np.conj(v) for k, v in target.items())
                if abs(coef) > 1e-12:
                    result[(A2, B2)] = coef
        return result

    return star


@pytest.mark.parametrize("n", [1, 2])
def test_star_matches_real_coframe_oracle(n):
    oracle = _real_star_oracle(n)
    for p in range(n + 1):
        for q in range(n + 1):
            for A in idx(n, p):
                for B in idx(n, q):
                    got = hodge_star(DoubleForm.monomial(n, A, B), "zeta")
                    want = oracle(A, B)
                    keys = {(k[0], k[1]) for k in got.coeffs}
                    assert keys == set(want), (A, B)
                    for (A2, B2), c in want.items():
                        assert got.coeffs[(A2, B2, (), ())] == pytest.approx(c)


def test_star_of_one_is_volume():
    for n in (1, 2, 3):
        dV = hodge_star(DoubleForm.scalar(n, 1.0), "zeta")
        full = tuple(range(1, n + 1))
        assert set(dV.coeffs) == {(full, full, (), ())}
        assert dV.coeffs[(full, full, (), ())] == pytest.approx(volume_coeff(n))
        back = hodge_star(dV, "zeta")
        assert (back - DoubleForm.scalar(n, 1.0)).norm() < 1e-14


def test_star_star_sign_euclidean_n2():
    n = 2
    for p in range(n + 1):
        for q in range(n + 1):
            for A in idx(n, p):
                for B in idx(n, q):
                    f = DoubleForm.monomial(n, A, B)
                    ss = hodge_star(hodge_star(f, "zeta"), "zeta")
                    deg = p + q
                    assert (ss - f.scale((-1.0) ** (deg * (4 - deg)))).norm() < 1e-13


def test_star_isometry_identity_metric():
    n = 3
    rng = np.random.default_rng(5)
    full = tuple(range(1, n + 1))
    for _ in range(15):
        p, q = rng.integers(0, n + 1, 2)
        f = random_form(n, p, q, rng)
        g = random_form(n, p, q, rng)
        lhs = inner(f, g) * volume_coeff(n)
        w = wedge(f, hodge_star(conj_form(g), "zeta"))
        assert abs(lhs - w.component((full, full, (), ()))) < 1e-11
        assert inner(f, f).real >= 0


def test_star_rejects_inhomogeneous():
    n = 2
    f = DoubleForm.monomial(n, az=(1,)) + DoubleForm.scalar(n, 1.0)
    with pytest.raises(forms.NotHomogeneous):
        hodge_star(f, "zeta")


# -- conjugation, swap, adjoint -------------------------------------------------


def test_conj_involution_and_degree():
    rng = np.random.default_rng(2)
    f = random_form(3, 2, 1, rng)
    assert (conj_form(conj_form(f)) - f).norm() < 1e-14
    assert conj_form(f).zeta_degree() == (1, 2)


def test_adjoint_involution_and_gamma():
    K = DoubleForm.monomial(2, (1,), (2,), (1, 2), (), value=0.3 + 2.0j)
    assert (adjoint_value(adjoint_value(K)) - K).norm() == 0.0
    c = 1.7 - 0.4j
    Kc = DoubleForm.scalar(2, c)
    assert adjoint_value(Kc).component(((), (), (), ())) == pytest.approx(np.conj(c))


@pytest.mark.parametrize("n", [2, 3])
def test_adjoint_is_signed_swap_of_conjugate(n):
    """adjoint_value(f) = (-1)^(deg_zeta deg_z) swap_variables(conj_form(f)),
    key by key, on random homogeneous forms of every bidegree."""
    rng = np.random.default_rng(11 + n)
    for degs in itertools.product(range(n + 1), repeat=4):
        coeffs = {}
        for _ in range(4):
            key = tuple(tuple(sorted(rng.choice(np.arange(1, n + 1), d, replace=False).tolist()))
                        for d in degs)
            coeffs[key] = complex(rng.standard_normal(), rng.standard_normal())
        f = DoubleForm(n, coeffs, (forms.COORD, forms.ADAPTED))
        sign = (-1) ** ((degs[0] + degs[1]) * (degs[2] + degs[3]))
        want = swap_variables(conj_form(f)).scale(sign)
        got = adjoint_value(f)
        assert got.frame == want.frame == (forms.ADAPTED, forms.COORD)
        assert got.coeffs == want.coeffs


@pytest.mark.parametrize("combo", list(itertools.product(range(3), repeat=4)))
def test_adjoint_matches_pairing_transpose(combo):
    """<Kf, g> = <f, K*g> for every bidegree combination at n=2."""
    n = 2
    p1, q1, p2, q2 = combo
    A = idx(n, p1)[0]
    B = idx(n, q1)[0]
    C = idx(n, p2)[0]
    D = idx(n, q2)[0]
    K = DoubleForm.monomial(n, A, B, C, D, value=1.3 - 0.4j)
    f = DoubleForm.monomial(n, A, B, value=0.7 + 0.2j)
    g_z = DoubleForm.monomial(n, hw=D, aw=C, value=-0.3 + 1.1j)
    s1 = inner(pair_pointwise(f, K), g_z)
    Kad = adjoint_value(K)
    g_zeta = DoubleForm.monomial(n, hz=D, az=C, value=-0.3 + 1.1j)
    f_z = DoubleForm.monomial(n, hw=A, aw=B, value=0.7 + 0.2j)
    s2 = inner(f_z, pair_pointwise(g_zeta, Kad))
    assert s1 == pytest.approx(s2, abs=1e-12)


def test_pairing_zero_on_type_mismatch():
    n = 2
    f = DoubleForm.monomial(n, az=(1,))          # (0,1)
    K = DoubleForm.scalar(n, 3.0)                # (0,0)
    assert pair_pointwise(f, K) is None


def test_pairing_scalar_kernel_linearity():
    n = 2
    rng = np.random.default_rng(1)
    K = DoubleForm.scalar(n, 2.0 - 1.0j)
    f = DoubleForm.scalar(n, 0.5 + 0.25j)
    g = DoubleForm.scalar(n, -1.0 + 2.0j)
    pf = pair_pointwise(f, K)
    pg = pair_pointwise(g, K)
    pfg = pair_pointwise(f + g, K)
    assert (pfg - (pf + pg)).norm() < 1e-14
    # scalar kernel: density is f * conj(K)
    assert pf.component(((), (), (), ())) == pytest.approx(
        (0.5 + 0.25j) * np.conj(2.0 - 1.0j))


# -- boundary restriction ---------------------------------------------------------


def test_restrict_boundary_examples():
    n = 2
    U = np.eye(n, dtype=complex)    # adapted frame = coordinate frame
    dr = DoubleForm.monomial(n, hz=(n,), value=0.8)     # gamma * omega^n
    assert restrict_boundary(dr, U).is_zero()
    tang = DoubleForm.monomial(n, az=(1,))
    assert (restrict_boundary(tang, U) -
            DoubleForm.monomial(n, az=(1,), frame=(forms.ADAPTED, forms.COORD))).is_zero()
    mixed = wedge(DoubleForm.monomial(n, hz=(n,)), DoubleForm.monomial(n, az=(1,)))
    assert restrict_boundary(mixed, U).is_zero()


def test_swap_variables_involution():
    rng = np.random.default_rng(4)
    f = random_form(2, 1, 1, rng)
    g = wedge(f, DoubleForm.monomial(2, hw=(1,)))
    assert (swap_variables(swap_variables(g)) - g).norm() < 1e-14


def det_minor_transform(f, slot, V):
    """The frame change with each k x k minor taken by np.linalg.det: the
    oracle for `forms.transform_slot`, which reads them from `compound`."""
    out = {}
    for key, v in f.coeffs.items():
        old = key[slot]
        for new in idx(f.n, len(old)):
            sub = V[np.ix_([r - 1 for r in old], [c - 1 for c in new])]
            nk = key[:slot] + (new,) + key[slot + 1:]
            out[nk] = out.get(nk, 0.0) + (np.linalg.det(sub) if old else 1.0) * v
    return out


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("slot", range(4))
def test_transform_slot_matches_det_minors(n, slot):
    rng = np.random.default_rng(10 * n + slot)
    V = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

    def subset(k):
        return tuple(sorted(rng.choice(np.arange(1, n + 1), k, replace=False).tolist()))

    coeffs = {}
    for k in range(n + 1):          # every degree in the slot, twice
        for _ in range(2):
            key = [subset(rng.integers(0, n + 1)) for _ in range(4)]
            key[slot] = subset(k)
            coeffs[tuple(key)] = complex(rng.standard_normal(), rng.standard_normal())
    f = DoubleForm(n, coeffs)
    got = forms.transform_slot(f, slot, V).coeffs
    want = det_minor_transform(f, slot, V)
    scale = max(abs(v) for v in want.values())
    assert {len(key[slot]) for key in f.coeffs} == set(range(n + 1))
    for key in got.keys() | want.keys():
        assert abs(got.get(key, 0.0) - want.get(key, 0.0)) <= 1e-13 * scale, key


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_compound_entries_are_minors(n):
    rng = np.random.default_rng(n)
    m = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
    for q in range(n + 1):
        keys = forms.anti_keys(n, q)
        c = forms.compound(m, q)
        assert c.shape == (3, len(keys), len(keys))
        for i, b in enumerate(keys):
            for j, a in enumerate(keys):
                sub = m[:, [r - 1 for r in b]][:, :, [s - 1 for s in a]]
                np.testing.assert_allclose(c[:, i, j], np.linalg.det(sub), rtol=1e-12,
                                           atol=1e-12)


def test_frame_change_roundtrip():
    n = 3
    rng = np.random.default_rng(8)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    f = random_form(n, 1, 2, rng)
    g = change_frame_zeta(f, q, forms.ADAPTED)
    back = change_frame_zeta(g, q, forms.COORD)
    assert (back - f).norm() < 1e-11
    # orthonormal change preserves the pointwise norm
    assert g.norm() == pytest.approx(f.norm(), rel=1e-10)
