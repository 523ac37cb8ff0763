"""Explicit integral kernels on a model domain and their derivative operators.

Every evaluator is a pure function (zeta, z) -> DoubleForm in the coordinate
frame, except the printed first-order system `gq` / `hq_main`, whose z slots
carry the adapted label L of Theta^L (frame (COORD, ADAPTED)).  Exact jets
are used inside the scalar building blocks (rho^2, the support function, the
extended distance) and for the dbar factors of alpha and beta, modulo the
form itself: a scalar times a constant form.  So C_q and K_q are closed-form,
a scalar mu-series times constant forms built once per kernel; kernel-level
dbar / del / vartheta operators use central finite differences with one
Richardson level, so the error orders are measurable and controlled per path.

A derivative evaluates its whole stencil, 2n real directions times the four
steps +-h, +-h/2, in one call of `KernelEvaluator.rows`.  `nq` (a point
stage per point, then a pair stage: `nq_stages`), `gamma0q` (through
`gamma0q_packed`) and `kernel_star_zeta` of either have native rows of zeta;
`cq` and `lq` have native rows of zeta and of z, and `lq` its own *_zeta on
rows, each one contraction of the jets' scalars with constant arrays.  Every
other kernel, the printed G among them, loops its pointwise `eval` over the
rows, in that one method only.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial, pi
from typing import Callable

import numpy as np

from . import forms
from .domain import TOL_FRAME, DomainModel, GeoPoint
from .forms import (ADAPTED, COORD, DoubleForm, anti_keys, compound, conj_form, wedge,
                    wedge_power)


class KernelError(Exception):
    pass


class PoleOnDiagonal(KernelError):
    pass


class StepTooLarge(KernelError):
    pass


@dataclass(frozen=True)
class KernelEvaluator:
    """Named pure kernel (zeta, z) -> DoubleForm, coordinate frame; the z
    slots of `gq` and `hq_main` are adapted.

    The row entry points, where a kernel has them, are called as (zeta, z)
    with one argument rows (P, n) and the other one point (n,): `zeta_rows`
    takes rows of zeta, `z_rows` rows of z, and `star_zeta_rows` gives
    *_zeta of the values at rows of zeta.  Each returns a list of P values
    or, when `packed_q` is set, the packed array (P, C(n,q), C(n,q)) of
    `_packed_form` with q = packed_q.  `stages`, where set, is the pair
    (point, pair) with zeta_rows(zeta_rows, z) = pair(point(zeta_rows),
    point(z)): point takes one point or rows to their `GeoPoint`, which
    indexes by rows, so one point stage serves many z.
    """

    id: str
    n: int
    eval: Callable[[np.ndarray, np.ndarray], DoubleForm]
    zeta_rows: Callable[[np.ndarray, np.ndarray], list | np.ndarray] | None = None
    packed_q: int | None = None
    z_rows: Callable[[np.ndarray, np.ndarray], list] | None = None
    star_zeta_rows: Callable[[np.ndarray, np.ndarray], list] | None = None
    stages: tuple[Callable, Callable] | None = None

    @classmethod
    def from_rows(cls, kid: str, n: int, rows, packed_q: int | None = None,
                  z_rows=None, star_zeta_rows=None, stages=None) -> "KernelEvaluator":
        """The kernel with these row entry points, `zeta_rows` = rows; its
        pointwise `eval` is the one-row case of rows."""

        def ev(zeta, z):
            val = rows(np.asarray(zeta)[None, :], z)[0]
            return val if packed_q is None else _packed_form(n, packed_q, val)

        return cls(kid, n, ev, rows, packed_q, z_rows, star_zeta_rows, stages)

    @classmethod
    def from_stages(cls, kid: str, n: int, point, pair,
                    packed_q: int | None = None) -> "KernelEvaluator":
        """The kernel with these `stages`; its rows of zeta are
        pair(point(zeta_rows), point(z)), with the errors of each in that
        order."""

        def rows(zeta_rows, z):
            return pair(point(zeta_rows), point(z))

        return cls.from_rows(kid, n, rows, packed_q, stages=(point, pair))

    def rows(self, pts: np.ndarray, other: np.ndarray, var: str = "zeta") -> list[DoubleForm]:
        """The values at (pts[i], other), or at (other, pts[i]) for var = "z":
        one call of `zeta_rows` or `z_rows` where the kernel has it, else
        `eval` per row."""
        if var == "zeta":
            native = self.zeta_rows
            vals = (native(pts, other) if native is not None
                    else [self.eval(p, other) for p in pts])
        else:
            native = self.z_rows
            vals = (native(other, pts) if native is not None
                    else [self.eval(other, p) for p in pts])
        if native is None or self.packed_q is None:
            return vals
        return [_packed_form(self.n, self.packed_q, k) for k in vals]


def adjoint_kernel(k: KernelEvaluator) -> KernelEvaluator:
    """(zeta, z) -> conj(K(z, zeta)) with form slots exchanged."""

    def ev(zeta, z):
        return forms.adjoint_value(k.eval(z, zeta))

    return KernelEvaluator(f"{k.id}*", k.n, ev)


# -- scalar building blocks: closed-form jets ------------------------------------
#
# Both models are quadratic (constant Levi matrix H and holomorphic Hessian),
# so alpha, beta and their dbar derivatives have short closed forms.  With
# Omega(M) = sum_k dzetabar_k ^ sum_j M[j, k] dzeta_j (`_jet_dbar`, slot "az";
# Omega_z uses slot "aw"), a jet returns the coefficients c_j of a (1,0)
# zeta-form sum_j c_j dzeta_j and the scalar s with dbar of that form equal to
# s Omega(M) for a constant M, modulo the form itself.


def alpha_jet(model: DomainModel, zeta, z) -> tuple[np.ndarray, complex | np.ndarray]:
    """alpha = xi dr / Phi as (a, xi / Phi); (0, 0) where xi = 0.  zeta and z
    are one point (n,) each, or either of them rows (P, n); then a is (P, n)
    and the scalar (P,).  Phi and the domain checks are taken only where
    xi != 0.

    With d = zeta - z, d a_j / dzetabar_k is (xi / Phi) H[j, k] plus
    grad_j (d xi / dzetabar_k) / Phi - a_j (dPhi / dzetabar_k) / Phi; the last
    two parts lie along alpha, so dbar_zeta alpha = (xi / Phi) Omega(H) modulo
    alpha.  Phi depends on z only through d, holomorphically, so
    dbar_z alpha = 0.
    """
    zeta, z = np.broadcast_arrays(np.asarray(zeta, dtype=complex), np.asarray(z, dtype=complex))
    shape = zeta.shape
    zeta, z = zeta.reshape(-1, model.n), z.reshape(-1, model.n)
    xi = model.xi_patch(zeta)
    a = np.zeros(zeta.shape, dtype=complex)
    s = np.zeros(len(zeta), dtype=complex)
    live = xi != 0.0
    if live.any():
        phi = model.phi(zeta[live], z[live])
        if (np.abs(phi) < 1e-15).any():
            raise PoleOnDiagonal(f"Phi = 0 at {zeta[live]}, {z[live]}")
        s[live] = xi[live] / phi
        a[live] = s[live, None] * model.grad(zeta[live])
    return a.reshape(shape), s.reshape(shape[:-1])[()]


def beta_jet(model: DomainModel, zeta, z) -> tuple[np.ndarray, float | np.ndarray]:
    """beta = d_zeta rho^2 / rho^2 as (b, 2 / rho^2), at one point pair or
    per row as `alpha_jet`.  d b_j / dzetabar_k is
    (2 / rho^2) H[k, j] - b_j (d rho^2 / dzetabar_k) / rho^2, and rho^2
    depends on zeta - z, so modulo beta dbar_zeta beta = (2 / rho^2)
    Omega(H^T) and dbar_z beta = -(2 / rho^2) Omega_z(H^T)."""
    r2 = model.rho2(zeta, z)
    if np.any(r2 < 1e-30):
        raise PoleOnDiagonal("beta pole: zeta = z")
    return model.d_zeta_rho2(zeta, z) / r2[..., None], 2.0 / r2


def _one_form(n: int, c: np.ndarray) -> DoubleForm:
    """sum_j c_j dzeta_j."""
    return DoubleForm(n, {((j + 1,), (), (), ()): c[j] for j in range(n)})


def _jet_dbar(n: int, slot: str, d: np.ndarray) -> DoubleForm:
    """sum_k dv_k ^ sum_j d[j, k] dzeta_j: the dbar of a jet's (1,0) form."""
    return forms.differential(n, slot, [_one_form(n, d[:, k]) for k in range(n)])


def alpha(model: DomainModel) -> KernelEvaluator:
    """Patching function times dr / Phi: a (1,0) zeta-form, holomorphic in z."""
    n = model.n

    def ev(zeta, z):
        return _one_form(n, alpha_jet(model, zeta, z)[0])

    return KernelEvaluator("alpha", n, ev)


def beta(model: DomainModel) -> KernelEvaluator:
    """d_zeta rho^2 / rho^2."""
    n = model.n

    def ev(zeta, z):
        return _one_form(n, beta_jet(model, zeta, z)[0])

    return KernelEvaluator("beta", n, ev)


# -- finite-difference derivative operators ------------------------------------

FD_REL_STEP = 1e-4


def _fd_scale(zeta: np.ndarray, z: np.ndarray) -> float:
    d = float(np.linalg.norm(zeta - z))
    if d <= 0:
        raise StepTooLarge("finite difference at the diagonal")
    return FD_REL_STEP * d


def _stencil(base: np.ndarray, h: float) -> np.ndarray:
    """The 8n points of the derivative stencil at base: for each coordinate
    j, along the real then the imaginary axis, the steps h, -h, h/2, -h/2."""
    n = len(base)
    shifts = [step * delta for delta in (1.0, 1.0j) for step in (h, -h, h / 2, -h / 2)]
    pts = np.tile(np.asarray(base, dtype=complex), (8 * n, 1))
    pts[np.arange(8 * n), np.repeat(np.arange(n), 8)] += np.tile(shifts, n)
    return pts


def _richardson(at_h, at_mh, at_h2, at_mh2, h: float) -> DoubleForm:
    """Richardson-extrapolated central difference from the values at the
    steps h, -h, h/2 and -h/2 along one real direction."""
    d1 = (at_h - at_mh).scale(1.0 / (2 * h))
    d2 = (at_h2 - at_mh2).scale(1.0 / h)
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
    differences with one Richardson level and step FD_REL_STEP * |zeta - z|.
    The whole stencil (`_stencil`) is evaluated in one `KernelEvaluator.rows`
    call.  The slots of var must be in coordinates; the other variable's
    slots may be adapted, since the coframe at the fixed point does not
    move."""
    try:
        prefix, slot = _DERIVATIVES[(op, var)]
    except KeyError:
        raise KernelError(f"unknown derivative {op!r} in {var!r}") from None
    n = k.n
    side = 0 if var == "zeta" else 1

    def ev(zeta, z):
        h = _fd_scale(zeta, z)
        base, other = (zeta, z) if var == "zeta" else (z, zeta)
        vals = k.rows(_stencil(base, h), other, var)
        parts = []
        for j in range(n):
            dx = _richardson(*vals[8 * j:8 * j + 4], h)
            dy = _richardson(*vals[8 * j + 4:8 * j + 8], h).scale(1.0j)
            der = (dx + dy if op == "dbar" else dx - dy).scale(0.5)
            if der.frame[side] != COORD:
                raise KernelError(f"a derivative in {var} needs coordinate {var} slots")
            parts.append(der)
        return forms.differential(n, slot, parts)

    return KernelEvaluator(f"{prefix}[{k.id}]", n, ev)


def kernel_star_zeta(k: KernelEvaluator) -> KernelEvaluator:
    """*_zeta of a kernel, with rows of zeta where k has them: k's own
    `star_zeta_rows`, else the star of each of k's rows."""
    kid = f"star_z[{k.id}]"
    if k.star_zeta_rows is not None:
        return KernelEvaluator.from_rows(kid, k.n, k.star_zeta_rows)

    def ev(zeta, z):
        return forms.hodge_star(k.eval(zeta, z), "zeta")

    def rows(zeta_rows, z):
        return [forms.hodge_star(v, "zeta") for v in k.rows(zeta_rows, z)]

    return KernelEvaluator(kid, k.n, ev, rows if k.zeta_rows is not None else None)


def kernel_vartheta_zeta(k: KernelEvaluator) -> KernelEvaluator:
    """Formal adjoint of dbar in zeta: -*_zeta d_zeta *_zeta."""
    inner = kernel_derivative(kernel_star_zeta(k), "del", "zeta")

    def ev(zeta, z):
        return forms.hodge_star(inner.eval(zeta, z), "zeta").scale(-1.0)

    return KernelEvaluator(f"vartheta[{k.id}]", k.n, ev)


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


def _cq_basis(model: DomainModel, q: int) -> list[list[DoubleForm]]:
    """The constant forms of C_q: E[c][mu] = dzeta_j ^ dzeta_k ^ W_mu for the
    pairs c = (j, k), j < k, in row-major order as `np.triu_indices` lists
    them (see `cq`)."""
    n = model.n
    if not 0 <= q <= n - 2:
        raise KernelError(f"q={q} out of range for n={n}")
    h = model.levi_const
    da, db = _jet_dbar(n, "az", h), _jet_dbar(n, "az", h.T)
    tail = wedge_power(_jet_dbar(n, "aw", -h.T), q)
    ws = [wedge(wedge(wedge_power(da, mu), wedge_power(db, n - q - 2 - mu)), tail)
          .scale(coefficient_a(n, q, mu, 0)) for mu in range(n - q - 1)]
    return [[wedge(DoubleForm.monomial(n, hz=(j, k)), w) for w in ws]
            for j in range(1, n + 1) for k in range(j + 1, n + 1)]


def _cq_series_rows(model: DomainModel, q: int, basis: list[list[DoubleForm]], conj: bool):
    """rows(zeta, z) of sum_(c, mu) p_c s_mu basis[c][mu], with
    p = a_j b_k - a_k b_j over the pairs c = (j, k) of `_cq_basis` and
    s_mu = (xi / Phi)^mu (2 / rho^2)^(n-2-mu) from the jets; with conj, the
    conjugates of p and s.  zeta or z is rows (P, n), the other one point.
    A row is zero where alpha is, and takes beta's pole check elsewhere."""
    n = model.n
    keys = sorted({key for terms in basis for f in terms for key in f.coeffs})
    E = np.array([[[f.component(key) for key in keys] for f in terms] for terms in basis])
    js, ks = np.triu_indices(n, 1)
    mus = np.arange(n - q - 1)

    def rows(zeta, z):
        zeta, z = np.broadcast_arrays(np.asarray(zeta, dtype=complex), np.asarray(z, dtype=complex))
        a, sa = alpha_jet(model, zeta, z)
        live = a.any(axis=1)
        coef = np.zeros((len(a), len(keys)), dtype=complex)
        if live.any():
            a = a[live]
            b, sb = beta_jet(model, zeta[live], z[live])
            p = a[:, js] * b[:, ks] - a[:, ks] * b[:, js]
            s = sa[live, None] ** mus * sb[:, None] ** (n - 2 - mus)
            if conj:
                p, s = p.conj(), s.conj()
            coef[live] = np.einsum("pc,pm,cmk->pk", p, s, E)
        return [DoubleForm(n, dict(zip(keys, row))) for row in coef]

    return rows


def cq(model: DomainModel, q: int) -> KernelEvaluator:
    """The double sum over a_{q mu nu} of wedge products of alpha, beta and
    their dbar factors.  dbar_z alpha = 0, so only the nu = 0 terms are
    nonzero, and inside alpha ^ beta the jets' scalars times Omega forms
    stand for the dbar factors:

        C_q = alpha ^ beta ^ sum_mu a_{q mu 0} (xi / Phi)^mu (2 / rho^2)^(n-2-mu) W_mu,
        W_mu = Omega(H)^mu ^ Omega(H^T)^(n-q-2-mu) ^ Omega_z(-H^T)^q.

    On rows of either variable this is one contraction of the jets' scalars
    with the constant forms of `_cq_basis`, built once per call."""
    rows = _cq_series_rows(model, q, _cq_basis(model, q), conj=False)
    return KernelEvaluator.from_rows(f"Cq[q={q}]", model.n, rows, z_rows=rows)


def lq(model: DomainModel, q: int) -> KernelEvaluator:
    """(-1)^(q+1) *_zeta conj(C_q): the contraction of `cq` with conjugated
    scalars and the constant forms (-1)^(q+1) *_zeta conj(E), and its own
    *_zeta from *_zeta of those, so no row is starred as a form."""
    sign = (-1.0) ** (q + 1)
    basis = [[forms.hodge_star(conj_form(f), "zeta").scale(sign) for f in terms]
             for terms in _cq_basis(model, q)]
    stars = [[forms.hodge_star(f, "zeta") for f in terms] for terms in basis]
    rows = _cq_series_rows(model, q, basis, conj=True)
    return KernelEvaluator.from_rows(f"Lq[q={q}]", model.n, rows, z_rows=rows,
                                     star_zeta_rows=_cq_series_rows(model, q, stars, conj=True))


def kq(model: DomainModel, q: int) -> KernelEvaluator:
    """Cauchy-Fantappie type kernel built from alpha alone: K_0 is
    (2 pi i)^-n (xi / Phi)^(n-1) alpha ^ Omega(H)^(n-1).  It carries
    (dbar_z alpha)^q = 0, so it vanishes for q >= 1."""
    n = model.n
    if not 0 <= q <= n - 1:
        raise KernelError(f"q={q} out of range for n={n}")
    w = wedge_power(_jet_dbar(n, "az", model.levi_const), n - 1).scale((1.0 / (2j * pi)) ** n)

    def ev(zeta, z):
        a, sa = alpha_jet(model, zeta, z)
        av = _one_form(n, a)
        if av.is_zero() or q:
            return DoubleForm.zero(n)
        return wedge(av, w.scale(sa ** (n - 1)))

    return KernelEvaluator(f"Kq[q={q}]", n, ev)


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


def _packed_form(n: int, q: int, k: np.ndarray) -> DoubleForm:
    """sum k[B, A] dzetabar^B ^ dz^A, B and A the q-subsets in
    `anti_keys` order."""
    keys = anti_keys(n, q)
    return DoubleForm(n, {((), b, a, ()): k[i, j] for i, b in enumerate(keys)
                          for j, a in enumerate(keys)})


def packed_coefficients(f: DoubleForm, q: int) -> np.ndarray:
    """The inverse of `_packed_form`: the (C(n,q), C(n,q)) array k of a
    coordinate-frame value sum k[B, A] dzetabar^B ^ dz^A.  KernelError on
    any other frame or coefficient key."""
    if f.frame != forms.COORD_FRAME:
        raise KernelError(f"packing needs coordinate frames, got {f.frame}")
    index = {key: i for i, key in enumerate(anti_keys(f.n, q))}
    k = np.zeros((len(index), len(index)), dtype=complex)
    for (a, b, c, d), v in f.coeffs.items():
        if a or d or b not in index or c not in index:
            raise KernelError(f"coefficient {(a, b, c, d)} is not of the form ((), B, A, ())")
        k[index[b], index[c]] = v
    return k


def gamma0q_packed(model: DomainModel, q: int, rho2) -> np.ndarray:
    """Gamma_0q packed as in `_packed_form`, for rho2 of any shape: the
    normalized q-th wedge power of the mixed form, (-1)^(q(q-1)/2) C_q(H),
    times (n-2)!/(2 pi^n) rho^(2-2n)."""
    rho2 = np.asarray(rho2)
    if np.any(rho2 < 1e-30):
        raise PoleOnDiagonal("parametrix pole")
    n = model.n
    const = (-1.0) ** (q * (q - 1) // 2) * factorial(n - 2) / (2.0 * pi ** n)
    return (const * rho2 ** (1 - n))[..., None, None] * compound(model.levi_const, q)


def gamma0q(model: DomainModel, q: int) -> KernelEvaluator:
    """Flat parametrix kernel: scalar rho^(2-2n) times the normalized q-th
    wedge power of the mixed second-order form (an identity matrix on
    (0,q) components up to first order)."""
    n = model.n
    if not 0 <= q <= n:
        raise KernelError(f"q={q} out of range for n={n}")

    def rows(zeta_rows, z):
        return gamma0q_packed(model, q, model.rho2(zeta_rows, z))

    return KernelEvaluator.from_rows(f"Gamma0q[q={q}]", n, rows, q)


# -- homotopy kernels -----------------------------------------------------------


def tq(model: DomainModel, q: int) -> KernelEvaluator:
    """vartheta L_q - d_z L_{q-1} + dbar Gamma_{0q}, the middle term as in
    `h_numeric`."""
    h = h_numeric(model, q)
    dg = kernel_derivative(gamma0q(model, q), "dbar", "zeta")

    def ev(zeta, z):
        return h.eval(zeta, z) + dg.eval(zeta, z)

    return KernelEvaluator(f"Tq[q={q}]", model.n, ev)


def h_numeric(model: DomainModel, q: int) -> KernelEvaluator:
    """vartheta L_q - d_z L_{q-1}: the part of T_q carrying the frame terms.
    At q = 0 the middle term is *_zeta conj(K_0)."""
    vt = kernel_vartheta_zeta(lq(model, q))
    if q:
        mid = kernel_derivative(lq(model, q - 1), "del", "z").eval
    else:
        k0 = kq(model, 0)

        def mid(zeta, z):
            return forms.hodge_star(conj_form(k0.eval(zeta, z)), "zeta")

    def ev(zeta, z):
        return vt.eval(zeta, z) - mid(zeta, z)

    return KernelEvaluator(f"Hnum[q={q}]", model.n, ev)


# -- printed main terms -----------------------------------------------------------


def lbar_rho2(model: DomainModel, zeta, z, U_inv: np.ndarray) -> np.ndarray:
    """Frame derivatives conj(L_j) rho^2, j = 1..n."""
    db = model.dbar_zeta_rho2(zeta, z)
    return np.array([np.conj(U_inv[:, j]) @ db for j in range(model.n)])


def _put_adapted(coeffs: dict, value, labels, L) -> None:
    """Store value omegabar^labels[0] ^ ... ^ Theta^L as one coefficient, signed
    by the rule of `forms.wedge`; nothing where two labels meet."""
    sign, az = 1, ()
    for idx in labels:
        s, az = forms.merge_sign(az, idx)
        sign *= s
    if sign:
        coeffs[((), az, L, ())] = sign * value


def _printed_mu_weights(n: int, q: int) -> list[tuple[int, int]]:
    """(mu, C(n-2-mu, q)) for 0 <= mu <= n-q-2: the one copy of the printed mu-range
    and mu-weights, which `lq_main`, `hq_main` and `neumann_tangential_scalar` sum over."""
    return [(mu, comb(n - 2 - mu, q)) for mu in range(n - q - 1)]


def lq_main(model: DomainModel, q: int) -> KernelEvaluator:
    """Printed main term of L_q in the adapted frames."""
    n = model.n
    cnq = coefficient_c(n, q)

    def ev(zeta, z):
        Uz = model.frame(zeta)
        Uw = model.frame(z)
        pair = model.geo_pair(zeta, z)
        g, phib, P = pair.gamma, np.conj(pair.phi), pair.big_p
        lb = lbar_rho2(model, zeta, z, np.linalg.inv(Uz))
        coef = cnq * g * sum(w / (phib ** (mu + 1) * P ** (n - mu - 1))
                             for mu, w in _printed_mu_weights(n, q))
        coeffs = {}
        for j in range(1, n):
            for L in anti_keys(n - 1, q):
                _put_adapted(coeffs, coef * lb[j - 1], ((n,), (j,), L), L)
        return forms.to_coord(DoubleForm(n, coeffs, (ADAPTED, ADAPTED)), Uz, Uw)

    return KernelEvaluator(f"Lq_main[q={q}]", n, ev)


def gq(model: DomainModel, q: int) -> KernelEvaluator:
    """Printed solution forms of the first-order system dbar G_L = H_L, as
    sum_L G_L ^ Theta^L over the q-subsets L: (0, q) zeta-forms in
    coordinates, with the z slots carrying the adapted label L."""
    n = model.n
    if q < 1:
        # the weight divides by n - mu - 2, which is 0 at mu = n - 2
        raise KernelError(f"G_L needs q >= 1, got q={q}")
    cnq = coefficient_c(n, q)
    all_L = anti_keys(n, q)

    def ev(zeta, z):
        Uz = model.frame(zeta)
        pair = model.geo_pair(zeta, z)
        P = pair.big_p
        # omega-bar^{nQ} written with n first equals (-1)^{|Q|} sorted order
        val_n = conormal_weight(n, P) * (-1.0) ** (q - 1)
        s = neumann_tangential_scalar(n, q, pair.gamma, pair.gamma_star, pair.phi, P)
        coeffs = {((), L, L, ()): val_n if n in L else cnq * s for L in all_L}
        return forms.change_frame_zeta(DoubleForm(n, coeffs, (ADAPTED, ADAPTED)), Uz, COORD)

    return KernelEvaluator(f"Gq[q={q}]", n, ev)


def hq_main(model: DomainModel, q: int) -> KernelEvaluator:
    """Printed main terms of vartheta L_q - d_z L_{q-1} as sum_L H_L ^ Theta^L
    over the q-subsets L: (0, q+1) zeta-forms in coordinates, with the z
    slots carrying the adapted label L."""
    n = model.n
    cnq = coefficient_c(n, q)
    all_L = anti_keys(n, q)

    def ev(zeta, z):
        Uz = model.frame(zeta)
        pair = model.geo_pair(zeta, z)
        g, gs, phi, P = pair.gamma, pair.gamma_star, pair.phi, pair.big_p
        phib = np.conj(phi)
        lb = lbar_rho2(model, zeta, z, np.linalg.inv(Uz))
        const = conormal_weight(n, P) * (n - 1) / P
        s = sum(w * g ** 2 * (mu + 1) / (phib ** (mu + 2) * P ** (n - mu - 1))
                for mu, w in _printed_mu_weights(n, q))
        s += 2 * comb(n - 2, q) * (n - 1) * (g / gs) * phi / (phib * P ** n)
        cb = -2 * phi / g * const
        coeffs = {}
        for L in all_L:
            if n in L:
                for j in range(1, n):
                    _put_adapted(coeffs, const * lb[j - 1], ((n,), (j,), L[:-1]), L)
            else:
                for j in range(1, n):
                    _put_adapted(coeffs, -cnq * s * lb[j - 1], ((j,), L), L)
                _put_adapted(coeffs, cb, ((n,), L), L)
        return forms.change_frame_zeta(DoubleForm(n, coeffs, (ADAPTED, ADAPTED)), Uz, COORD)

    return KernelEvaluator(f"Hq_main[q={q}]", n, ev)


# -- principal Neumann kernel -----------------------------------------------------


def tau_nu_split(model: DomainModel, zeta, z, Uz: np.ndarray,
                 Uw: np.ndarray) -> tuple[DoubleForm, DoubleForm]:
    """Split -(1/2) dbar_zeta d_z rho^2 into the components without (tau) and
    with (nu) the conormal frame label in either slot; both in adapted frames.
    Uz and Uw are the coframes at zeta and z."""
    n = model.n
    m = mixed_rho2_form(model, zeta, z)
    mad = forms.change_frame_z(forms.change_frame_zeta(m, Uz, ADAPTED), Uw, ADAPTED)
    nu = mad.filter_keys(lambda k: n in k[1] or n in k[2])
    tau = mad - nu
    return tau, nu


def conormal_weight(n: int, P):
    """-2^(n-1) (n-2)! / (2 pi)^n P^(1-n): the weight of the entries of G
    and N_q whose labels hold the conormal label n."""
    return -(2.0 ** (n - 1)) * factorial(n - 2) / (2 * pi) ** n * P ** (1 - n)


def neumann_tangential_scalar(n: int, q: int, g, gs, phi, P):
    """Scalar weight on the tangential block of the Neumann kernel: the mu-sum
    plus the bounded weighted-ratio term.  g = gamma(zeta), gs = gamma(z),
    phi = Phi(zeta, z) and P = P(zeta, z) are scalars or arrays of one shape;
    the weight is taken elementwise."""
    phib = np.conj(phi)
    s = sum(g ** 2 * w * (mu + 1) / (n - mu - 2) / (phib ** (mu + 2) * P ** (n - mu - 2))
            for mu, w in _printed_mu_weights(n, q))
    s += comb(n - 2, q) * (g / gs) * 2.0 * phi / (phib * P ** (n - 1))
    return s


@dataclass(frozen=True)
class FramedPoint(GeoPoint):
    """The point stage of `N_q`: a point's `GeoPoint`, its coframe U and
    conj(C_q(U)), at one point or per row."""

    frame: np.ndarray
    conj_cq: np.ndarray


def nq_stages(model: DomainModel, q: int):
    """The principal Neumann kernel in two stages: point(pts) is the
    `FramedPoint` of one point or of rows, and pair(zeta_points, z_point) is
    (P, C(n,q), C(n,q)), packed as in `_packed_form`.  `nq`'s rows of zeta
    are pair(point(zeta_rows), point(z)), and a point stage built once
    serves every z.

    In the adapted frames the mixed form -(1/2) dbar_zeta d_z rho^2 has the
    matrix A = U(zeta) H^-1 U(z)^H, and its q-th wedge power is
    (-1)^(q(q-1)/2) q! C_q(A).  The weighted tangential block tau^q keeps the
    entries whose labels both lack the conormal label n; tau^(q-1) ^ nu is
    (q-1)! times the rest of the q-th power, with A_nn C_(q-1) of the
    tangential block where both labels hold n.  The frame change to
    coordinates is conj(C_q(U(zeta)))^T body C_q(U(z)), plus Gamma_0q.
    Errors: point raises those of `DomainModel.geo_point`; pair those of
    `DomainModel.geo_pair_of`, then PoleOnDiagonal.  A point whose gamma
    vanishes gets a NaN frame, which pair never reads, since it raises on
    that gamma first.
    """
    n = model.n
    if n < 3:
        raise KernelError("requires n >= 3")
    if not (1 <= q <= n - 2):
        raise KernelError(f"q={q} out of range for n={n}")
    sign = (-1.0) ** (q * (q - 1) // 2)
    tan_const = sign * coefficient_c(n, q)
    has_n = np.array([n in key for key in anti_keys(n, q)])
    tan_keys = np.flatnonzero(~has_n)
    n_keys = np.flatnonzero(has_n)

    def point(pts) -> FramedPoint:
        geo = model.geo_point(pts)
        live = geo.gamma > TOL_FRAME
        if np.all(live):
            U = model.frame(geo.zeta)
        else:
            U = np.full(geo.zeta.shape + (n,), np.nan, dtype=complex)
            if np.any(live):
                U[live] = model.frame(geo.zeta[live])
        return FramedPoint(**vars(geo), frame=U, conj_cq=compound(U, q).conj())

    def pair(zp: FramedPoint, wp: FramedPoint) -> np.ndarray:
        geo = model.geo_pair_of(zp, wp)
        gam = gamma0q_packed(model, q, geo.rho2)
        P = geo.big_p
        s = neumann_tangential_scalar(n, q, geo.gamma, geo.gamma_star, geo.phi, P)
        Uc, Uw = zp.frame, wp.frame
        A = (Uc.reshape(-1, n) @ (model.levi_inv @ Uw.conj().T)).reshape(Uc.shape)
        CA = compound(A, q)
        nu_w = sign * conormal_weight(n, P)
        body = nu_w[:, None, None] * CA
        tan_block = (slice(None), tan_keys[:, None], tan_keys)
        body[tan_block] = (tan_const * s)[:, None, None] * CA[tan_block]
        if q >= 2:
            body[:, n_keys[:, None], n_keys] = ((nu_w * A[:, n - 1, n - 1])[:, None, None]
                                                * compound(A[:, :n - 1, :n - 1], q - 1))
        # the two per-node factors first: the path einsum's optimizer picks
        # for every n and block size, given here so no call searches for it
        K = np.einsum("cji,cjk,ka->cia", zp.conj_cq, body, wp.conj_cq.conj(),
                      optimize=["einsum_path", (0, 1), (0, 1)])
        return K + gam

    return point, pair


def nq(model: DomainModel, q: int) -> KernelEvaluator:
    """Principal kernel of the Neumann operator, from the stages of
    `nq_stages`."""
    return KernelEvaluator.from_stages(f"Nq[q={q}]", model.n, *nq_stages(model, q), q)


def theta_coefficient(f: DoubleForm, L: tuple[int, ...]) -> DoubleForm:
    """Extract the zeta-form coefficient of Theta^L from a kernel value whose
    z slots are already in the adapted frame, such as `gq` and `hq_main`."""
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
