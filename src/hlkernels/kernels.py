"""Explicit integral kernels on a model domain and their derivative operators.

Every evaluator is a pure function (zeta, z) -> DoubleForm in the coordinate
frame.  Exact jets are used inside the scalar building blocks (rho^2, the
support function, the extended distance); kernel-level dbar / del / vartheta
operators use central finite differences with one Richardson level, so the
error orders are measurable and controlled per path.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, factorial, pi
from typing import Callable

import numpy as np

from . import forms
from .domain import DomainModel
from .forms import ADAPTED, COORD, DoubleForm, conj_form, wedge, wedge_power


class KernelError(Exception):
    pass


class PoleOnDiagonal(KernelError):
    pass


class StepTooLarge(KernelError):
    pass


@dataclass(frozen=True)
class KernelEvaluator:
    """Named pure kernel (zeta, z) -> DoubleForm, coordinate frame."""

    id: str
    n: int
    eval: Callable[[np.ndarray, np.ndarray], DoubleForm]
    q: int | None = None
    claimed_type: int | None = None

    def __call__(self, zeta, z) -> DoubleForm:
        return self.eval(np.asarray(zeta, dtype=complex),
                         np.asarray(z, dtype=complex))


def adjoint_kernel(k: KernelEvaluator) -> KernelEvaluator:
    """(zeta, z) -> conj(K(z, zeta)) with form slots exchanged."""

    def ev(zeta, z):
        return forms.adjoint_value(k.eval(z, zeta))

    return KernelEvaluator(f"{k.id}*", k.n, ev, k.q, k.claimed_type)


# -- scalar building blocks ----------------------------------------------------


def alpha(model: DomainModel) -> KernelEvaluator:
    """Patching function times dr / Phi: a (1,0) zeta-form, holomorphic in z."""
    n = model.n

    def ev(zeta, z):
        xi = model.xi_patch(zeta)
        if xi == 0.0:
            return DoubleForm.zero(n)
        phi = model.phi(zeta, z)
        if abs(phi) < 1e-15:
            raise PoleOnDiagonal(f"Phi = 0 at {zeta}, {z}")
        grad = model.grad(zeta)
        coeffs = {((j,), (), (), ()): xi * grad[j - 1] / phi for j in range(1, n + 1)}
        return DoubleForm(n, coeffs)

    return KernelEvaluator("alpha", n, ev)


def beta(model: DomainModel) -> KernelEvaluator:
    """d_zeta rho^2 / rho^2."""
    n = model.n

    def ev(zeta, z):
        r2 = model.rho2(zeta, z)
        if r2 < 1e-30:
            raise PoleOnDiagonal("beta pole: zeta = z")
        grad = model.d_zeta_rho2(zeta, z)
        coeffs = {((j,), (), (), ()): grad[j - 1] / r2 for j in range(1, n + 1)}
        return DoubleForm(n, coeffs)

    return KernelEvaluator("beta", n, ev)


# -- finite-difference derivative operators ------------------------------------

FD_REL_STEP = 1e-4


def _fd_scale(zeta: np.ndarray, z: np.ndarray) -> float:
    d = float(np.linalg.norm(zeta - z))
    if d <= 0:
        raise StepTooLarge("finite difference at the diagonal")
    return FD_REL_STEP * d


def _directional(evalf, base: np.ndarray, other: np.ndarray, j: int,
                 delta: complex, h: float, var: str) -> DoubleForm:
    """Richardson-extrapolated central difference along one real direction."""

    def shifted(step):
        pt = base.copy()
        pt[j] += step * delta
        return evalf(pt, other) if var == "zeta" else evalf(other, pt)

    d1 = (shifted(h) - shifted(-h)).scale(1.0 / (2 * h))
    d2 = (shifted(h / 2) - shifted(-h / 2)).scale(1.0 / h)
    return d2.scale(4.0 / 3.0) - d1.scale(1.0 / 3.0)


# (op, var) -> (evaluator id prefix, DoubleForm.monomial slot of the new
# differential); the ids name z for zeta and w for z
_DERIVATIVES = {
    ("dbar", "zeta"): ("dbar_z", "az"),
    ("del", "zeta"): ("del_z", "hz"),
    ("dbar", "z"): ("dbar_w", "aw"),
    ("del", "z"): ("del_w", "hw"),
}


def kernel_derivative(k: KernelEvaluator, op: str, var: str) -> KernelEvaluator:
    """op = "dbar" or "del" of a kernel in var = "zeta" or "z": the sum over j
    of d(var)bar_j ^ dK/d(var)bar_j, or of d(var)_j ^ dK/d(var)_j, by central
    differences with one Richardson level and step FD_REL_STEP * |zeta - z|."""
    try:
        prefix, slot = _DERIVATIVES[(op, var)]
    except KeyError:
        raise KernelError(f"unknown derivative {op!r} in {var!r}") from None
    n = k.n

    def ev(zeta, z):
        h = _fd_scale(zeta, z)
        base, other = (zeta, z) if var == "zeta" else (z, zeta)
        out = DoubleForm.zero(n)
        for j in range(n):
            dx = _directional(k.eval, base, other, j, 1.0, h, var)
            dy = _directional(k.eval, base, other, j, 1.0j, h, var).scale(1.0j)
            der = (dx + dy if op == "dbar" else dx - dy).scale(0.5)
            if der.frame != forms.COORD_FRAME:
                raise KernelError("derivative operators require coordinate-frame values")
            out = out + wedge(DoubleForm.monomial(n, **{slot: (j + 1,)}), der)
        return out

    return KernelEvaluator(f"{prefix}[{k.id}]", n, ev, k.q)


def kernel_star_zeta(k: KernelEvaluator) -> KernelEvaluator:
    def ev(zeta, z):
        return forms.hodge_star(k.eval(zeta, z), None, "zeta")

    return KernelEvaluator(f"star_z[{k.id}]", k.n, ev, k.q)


def kernel_vartheta_zeta(k: KernelEvaluator) -> KernelEvaluator:
    """Formal adjoint of dbar in zeta: -*_zeta d_zeta *_zeta."""
    inner = kernel_derivative(kernel_star_zeta(k), "del", "zeta")

    def ev(zeta, z):
        return forms.hodge_star(inner.eval(zeta, z), None, "zeta").scale(-1.0)

    return KernelEvaluator(f"vartheta[{k.id}]", k.n, ev, k.q)


# -- Cauchy-Fantappie machinery -------------------------------------------------


def coefficient_a(n: int, q: int, mu: int, nu: int) -> complex:
    """Expansion coefficient of the double sum defining C_q.

    Expanding (dbar alpha)^(mu+nu) ^ (dbar beta)^(n-2-mu-nu) with
    dbar = dbar_zeta + dbar_z and keeping z-degree q picks nu of the alpha
    factors and q-nu of the beta factors in z (the 2-form factors commute).
    """
    if not (0 <= mu <= n - q - 2 and 0 <= nu <= q):
        raise KernelError(f"indices out of range: n={n} q={q} mu={mu} nu={nu}")
    return (1.0 / (2j * pi)) ** n * comb(mu + nu, mu) * comb(n - 2 - mu - nu, q - nu)


def coefficient_c(n: int, q: int) -> float:
    """Normalizing constant of the printed kernel main terms."""
    if not (0 <= q <= n - 2):
        raise KernelError(f"q={q} out of range for n={n}")
    return 2.0 ** (n - 2) / (2 * pi) ** n * factorial(q) * factorial(n - q - 2)


def cq(model: DomainModel, q: int) -> KernelEvaluator:
    """The double sum over a_{q mu nu} of wedge products of alpha, beta and
    their dbar factors (finite-difference derivatives)."""
    n = model.n
    if not 0 <= q <= n - 2:
        raise KernelError(f"q={q} out of range for n={n}")
    al = alpha(model)
    be = beta(model)
    d_al = kernel_derivative(al, "dbar", "zeta")
    d_be = kernel_derivative(be, "dbar", "zeta")
    dz_al = kernel_derivative(al, "dbar", "z")
    dz_be = kernel_derivative(be, "dbar", "z")

    def ev(zeta, z):
        av = al.eval(zeta, z)
        if av.is_zero():
            return DoubleForm.zero(n)
        bv = be.eval(zeta, z)
        dav = d_al.eval(zeta, z)
        dbv = d_be.eval(zeta, z)
        dzav = dz_al.eval(zeta, z)
        dzbv = dz_be.eval(zeta, z)
        base = wedge(av, bv)
        out = DoubleForm.zero(n)
        for mu in range(0, n - q - 1):
            pa = wedge(base, wedge_power(dav, mu))
            pa = wedge(pa, wedge_power(dbv, n - q - mu - 2))
            for nu in range(0, q + 1):
                term = wedge(pa, wedge_power(dzav, nu))
                term = wedge(term, wedge_power(dzbv, q - nu))
                out = out + term.scale(coefficient_a(n, q, mu, nu))
        return out

    return KernelEvaluator(f"Cq[q={q}]", n, ev, q)


def lq(model: DomainModel, q: int) -> KernelEvaluator:
    """(-1)^(q+1) *_zeta conj(C_q)."""
    c = cq(model, q)
    sign = (-1.0) ** (q + 1)

    def ev(zeta, z):
        return forms.hodge_star(conj_form(c.eval(zeta, z)), None, "zeta").scale(sign)

    return KernelEvaluator(f"Lq[q={q}]", model.n, ev, q, claimed_type=2)


def kq(model: DomainModel, q: int) -> KernelEvaluator:
    """Cauchy-Fantappie type kernel built from alpha alone."""
    n = model.n
    if not 0 <= q <= n - 1:
        raise KernelError(f"q={q} out of range for n={n}")
    al = alpha(model)
    d_al = kernel_derivative(al, "dbar", "zeta")
    dz_al = kernel_derivative(al, "dbar", "z")
    const = ((-1.0) ** (q * (q - 1) // 2)) * comb(n - 1, q) * (1.0 / (2j * pi)) ** n

    def ev(zeta, z):
        av = al.eval(zeta, z)
        if av.is_zero():
            return DoubleForm.zero(n)
        out = wedge(av, wedge_power(d_al.eval(zeta, z), n - q - 1))
        if q:
            out = wedge(out, wedge_power(dz_al.eval(zeta, z), q))
        return out.scale(const)

    return KernelEvaluator(f"Kq[q={q}]", n, ev, q)


# -- parametrix -----------------------------------------------------------------


def mixed_rho2_form(model: DomainModel, zeta, z) -> DoubleForm:
    """-(1/2) dbar_zeta d_z rho^2 as an (0,1)x(1,0) double form, exact for the
    constant-Levi models."""
    n = model.n
    h = model.levi_const
    coeffs = {}
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            # d_z rho^2 = -2 sum_k h[k,a] conj(d_k) dz_a ; dbar_zeta of it
            val = h[b - 1, a - 1]
            if val != 0:
                coeffs[((), (b,), (a,), ())] = val
    return DoubleForm(n, coeffs)


def gamma0q(model: DomainModel, q: int) -> KernelEvaluator:
    """Flat parametrix kernel: scalar rho^(2-2n) times the normalized q-th
    wedge power of the mixed second-order form (an identity matrix on
    (0,q) components up to first order)."""
    n = model.n
    if not 0 <= q <= n:
        raise KernelError(f"q={q} out of range for n={n}")
    const = factorial(n - 2) / (2.0 * pi ** n)

    def ev(zeta, z):
        r2 = model.rho2(zeta, z)
        if r2 < 1e-30:
            raise PoleOnDiagonal("parametrix pole")
        m = mixed_rho2_form(model, zeta, z)
        body = wedge_power(m, q).scale(1.0 / factorial(q)) if q else DoubleForm.scalar(n, 1.0)
        return body.scale(const * r2 ** (1 - n))

    return KernelEvaluator(f"Gamma0q[q={q}]", n, ev, q, claimed_type=2)


# -- homotopy kernels -----------------------------------------------------------


def tq(model: DomainModel, q: int) -> KernelEvaluator:
    """vartheta L_q - d_z L_{q-1} + dbar Gamma_{0q} for q >= 1; the q = 0
    variant replaces the middle term by -*_zeta conj(K_0)."""
    n = model.n
    vt = kernel_vartheta_zeta(lq(model, q))
    dg = kernel_derivative(gamma0q(model, q), "dbar", "zeta")
    if q >= 1:
        mid = kernel_derivative(lq(model, q - 1), "del", "z")

        def ev(zeta, z):
            return vt.eval(zeta, z) - mid.eval(zeta, z) + dg.eval(zeta, z)
    else:
        k0 = kq(model, 0)

        def ev(zeta, z):
            mid_v = forms.hodge_star(conj_form(k0.eval(zeta, z)), None, "zeta")
            return vt.eval(zeta, z) - mid_v + dg.eval(zeta, z)

    return KernelEvaluator(f"Tq[q={q}]", n, ev, q, claimed_type=1)


def h_numeric(model: DomainModel, q: int) -> KernelEvaluator:
    """vartheta L_q - d_z L_{q-1}: the part of T_q carrying the frame terms."""
    vt = kernel_vartheta_zeta(lq(model, q))
    mid = kernel_derivative(lq(model, q - 1), "del", "z")

    def ev(zeta, z):
        return vt.eval(zeta, z) - mid.eval(zeta, z)

    return KernelEvaluator(f"Hnum[q={q}]", model.n, ev, q)


# -- printed main terms -----------------------------------------------------------


def lbar_rho2(model: DomainModel, zeta, z, U_inv: np.ndarray) -> np.ndarray:
    """Frame derivatives conj(L_j) rho^2, j = 1..n."""
    db = model.dbar_zeta_rho2(zeta, z)
    return np.array([np.conj(U_inv[:, j]) @ db for j in range(model.n)])


def lq_main(model: DomainModel, q: int) -> KernelEvaluator:
    """Printed main term of L_q in the adapted frames."""
    n = model.n
    cnq = coefficient_c(n, q)

    def ev(zeta, z):
        Uz = model.frame(zeta)
        Uw = model.frame(z)
        pair = model.geo_pair(zeta, z)
        g, phib, P = pair.gamma, np.conj(pair.phi), pair.big_p
        lb = lbar_rho2(model, zeta, z, model.dual_frame(zeta))
        out = DoubleForm.zero(n, frame=(ADAPTED, ADAPTED))
        for mu in range(0, n - q - 1):
            coef = cnq * comb(n - 2 - mu, q) / (phib ** (mu + 1) * P ** (n - mu - 1)) * g
            for j in range(1, n):
                base = DoubleForm.monomial(n, az=(n,), value=coef * lb[j - 1],
                                           frame=(ADAPTED, ADAPTED))
                base = wedge(base, DoubleForm.monomial(n, az=(j,), frame=(ADAPTED, ADAPTED)))
                for L in combinations(range(1, n), q):
                    t = wedge(base, DoubleForm.monomial(n, az=L, frame=(ADAPTED, ADAPTED)))
                    t = wedge(t, DoubleForm.monomial(n, hw=L, frame=(ADAPTED, ADAPTED)))
                    out = out + t
        out = forms.change_frame_zeta(out, Uz, COORD)
        return forms.change_frame_z(out, Uw, COORD)

    return KernelEvaluator(f"Lq_main[q={q}]", n, ev, q, claimed_type=2)


def adapted_monomial(n: int, az=(), hw=(), value=1.0) -> DoubleForm:
    """Monomial with adapted zeta slots; the z tag stays coordinate unless
    z slots are present."""
    zf = ADAPTED if hw else COORD
    return DoubleForm.monomial(n, az=az, hw=hw, value=value, frame=(ADAPTED, zf))


def g_l(model: DomainModel, q: int, L: tuple[int, ...]) -> KernelEvaluator:
    """Printed solution form of the first-order system, for one index set L.

    Returns the omega-bar coefficient form of Theta^L as a (0, q) zeta-form.
    """
    n = model.n
    if q < 1:
        # the weight divides by n - mu - 2, which is 0 at mu = n - 2
        raise KernelError(f"G_L needs q >= 1, got q={q}")
    if len(L) != q:
        raise KernelError(f"|L| != q: {L} vs {q}")
    cnq = coefficient_c(n, q)

    def ev(zeta, z):
        Uz = model.frame(zeta)
        pair = model.geo_pair(zeta, z)
        P = pair.big_p
        if n in L:
            const = -(2.0 ** (n - 1)) * factorial(n - 2) / (2 * pi) ** n
            # omega-bar^{nQ} written with n first equals (-1)^{|Q|} sorted order
            val = const * P ** (1 - n) * (-1.0) ** (len(L) - 1)
            out = adapted_monomial(n, az=tuple(sorted(L)), value=val)
        else:
            s = neumann_tangential_scalar(n, q, pair.gamma, pair.gamma_star, pair.phi, P)
            out = adapted_monomial(n, az=tuple(sorted(L)), value=cnq * s)
        return forms.change_frame_zeta(out, Uz, COORD)

    return KernelEvaluator(f"G_L[q={q},L={L}]", n, ev, q, claimed_type=2)


def h_l_main(model: DomainModel, q: int, L: tuple[int, ...]) -> KernelEvaluator:
    """Printed main terms of the Theta^L coefficient of
    vartheta L_q - d_z L_{q-1}, as a (0, q+1) zeta-form."""
    n = model.n
    if len(L) != q:
        raise KernelError(f"|L| != q: {L} vs {q}")
    cnq = coefficient_c(n, q)

    def ev(zeta, z):
        Uz = model.frame(zeta)
        pair = model.geo_pair(zeta, z)
        g, gs, phi, P = pair.gamma, pair.gamma_star, pair.phi, pair.big_p
        phib = np.conj(phi)
        lb = lbar_rho2(model, zeta, z, model.dual_frame(zeta))
        out = DoubleForm.zero(n, frame=(ADAPTED, COORD))
        if n in L:
            Q = tuple(j for j in L if j != n)
            const = -(2.0 ** (n - 1)) / (2 * pi) ** n * factorial(n - 1) / P ** n
            for j in range(1, n):
                if j in Q:
                    continue
                t = adapted_monomial(n, az=(n,), value=const * lb[j - 1])
                t = wedge(t, adapted_monomial(n, az=(j,)))
                t = wedge(t, adapted_monomial(n, az=Q))
                out = out + t
        else:
            for j in range(1, n):
                if j in L:
                    continue
                s = 0.0 + 0.0j
                for mu in range(0, n - q - 1):
                    s += (comb(n - mu - 2, q) * g ** 2 * (mu + 1) * lb[j - 1]
                          / (phib ** (mu + 2) * P ** (n - mu - 1)))
                s += (2 * comb(n - 2, q) * (n - 1) * (g / gs)
                      * phi * lb[j - 1] / (phib * P ** n))
                t = adapted_monomial(n, az=(j,), value=-cnq * s)
                t = wedge(t, adapted_monomial(n, az=L))
                out = out + t
            cb = (2.0 ** (n - 2)) / (2 * pi) ** n * factorial(n - 1) * 4.0 * phi / (P ** n * g)
            t = adapted_monomial(n, az=(n,), value=cb)
            t = wedge(t, adapted_monomial(n, az=L))
            out = out + t
        return forms.change_frame_zeta(out, Uz, COORD)

    return KernelEvaluator(f"H_L[q={q},L={L}]", n, ev, q, claimed_type=1)


# -- principal Neumann kernel -----------------------------------------------------


def tau_nu_split(model: DomainModel, zeta, z) -> tuple[DoubleForm, DoubleForm]:
    """Split -(1/2) dbar_zeta d_z rho^2 into the components without (tau) and
    with (nu) the conormal frame label in either slot; both in adapted frames."""
    n = model.n
    m = mixed_rho2_form(model, zeta, z)
    Uz = model.frame(zeta)
    Uw = model.frame(z)
    mad = forms.change_frame_z(forms.change_frame_zeta(m, Uz, ADAPTED), Uw, ADAPTED)
    nu = mad.filter_keys(lambda k: n in k[1] or n in k[2])
    tau = mad - nu
    return tau, nu


def neumann_tangential_scalar(n: int, q: int, g, gs, phi, P):
    """Scalar weight on the tangential block of the Neumann kernel: the mu-sum
    plus the bounded weighted-ratio term.  g = gamma(zeta), gs = gamma(z),
    phi = Phi(zeta, z) and P = P(zeta, z) are scalars or arrays of one shape;
    the weight is taken elementwise."""
    phib = np.conj(phi)
    s = 0.0 + 0.0j
    for mu in range(0, n - q - 1):
        s += (g ** 2 * comb(n - mu - 2, q) * (mu + 1) / (n - mu - 2)
              / (phib ** (mu + 2) * P ** (n - mu - 2)))
    s += comb(n - 2, q) * (g / gs) * 2.0 * phi / (phib * P ** (n - 1))
    return s


def nq(model: DomainModel, q: int) -> KernelEvaluator:
    """Principal kernel of the Neumann operator: weighted tangential block
    tau^q, the conormal block on tau^(q-1) ^ nu, plus the parametrix."""
    n = model.n
    if n < 3:
        raise KernelError("requires n >= 3")
    if not (1 <= q <= n - 2):
        raise KernelError(f"q={q} out of range")
    pref = 2.0 ** (n - 2) / (2 * pi) ** n * factorial(n - q - 2)
    nu_const = -(2.0 ** (n - 1)) * factorial(n - 2) / (factorial(q - 1) * (2 * pi) ** n)
    gam = gamma0q(model, q)

    def ev(zeta, z):
        pair = model.geo_pair(zeta, z)
        P = pair.big_p
        s = neumann_tangential_scalar(n, q, pair.gamma, pair.gamma_star, pair.phi, P)
        tau, nu = tau_nu_split(model, zeta, z)
        body = wedge_power(tau, q).scale(pref * s)
        body = body + wedge(wedge_power(tau, q - 1), nu).scale(nu_const * P ** (1 - n))
        Uz = model.frame(zeta)
        Uw = model.frame(z)
        body = forms.change_frame_z(forms.change_frame_zeta(body, Uz, COORD), Uw, COORD)
        return body + gam.eval(zeta, z)

    return KernelEvaluator(f"Nq[q={q}]", n, ev, q, claimed_type=2)


def theta_coefficient(f: DoubleForm, L: tuple[int, ...]) -> DoubleForm:
    """Extract the zeta-form coefficient of Theta^L from a kernel value whose
    z slots are already in the adapted frame."""
    out = {}
    for (a, b, c, d), v in f.coeffs.items():
        if c == tuple(sorted(L)) and d == ():
            out[(a, b, (), ())] = v
    return DoubleForm(f.n, out, (f.frame[0], COORD))


KERNEL_BUILDERS = {
    "alpha": lambda model, q: alpha(model),
    "beta": lambda model, q: beta(model),
    "Cq": lambda model, q: cq(model, q),
    "Lq": lambda model, q: lq(model, q),
    "Kq": lambda model, q: kq(model, q),
    "Gamma0q": lambda model, q: gamma0q(model, q),
    "Tq": lambda model, q: tq(model, q),
    "Nq": lambda model, q: nq(model, q),
}


def make_kernel(name: str, model: DomainModel, q: int = 0) -> KernelEvaluator:
    try:
        builder = KERNEL_BUILDERS[name]
    except KeyError:
        raise KernelError(f"unknown kernel {name!r}; have {sorted(KERNEL_BUILDERS)}")
    return builder(model, q)
