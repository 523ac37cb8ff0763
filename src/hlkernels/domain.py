"""Model domains with strictly plurisubharmonic defining functions.

Both built-in models are quadratic in (zeta, zetabar), so every jet is
closed-form:

    BALL     r = |zeta|^2 - 1
    PINCHED  r = sum |zeta_j|^2 - 2 Re(zeta_1^2),  n >= 2

PINCHED has a single boundary critical point at the origin where the real
Hessian is nondegenerate, i.e. a Morse boundary singularity; its Levi matrix
is still the identity everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TOL_FRAME = 1e-8


class DomainError(Exception):
    pass


class OutsideDomain(DomainError):
    pass


class SingularFramePoint(DomainError):
    pass


class DiagonalRadiusExceeded(DomainError):
    pass


def _dot(a: np.ndarray, b: np.ndarray):
    """sum_i a_i b_i over the last axis, for one point or rows (a point
    broadcasts against rows).  A matmul for one point, where einsum's set-up
    would dominate; einsum for rows."""
    if a.ndim == 1 and b.ndim == 1:
        return a @ b
    return np.einsum("...i,...i->...", a, b)


@dataclass(frozen=True)
class Jet:
    """Defining-function data at a point: value, holomorphic gradient, and
    the constant second-order blocks (both models are quadratic, so all
    third and fourth derivatives vanish)."""

    value: float
    grad: np.ndarray          # dr/dzeta_j
    levi: np.ndarray          # d2r / dzeta_i dzetabar_j
    hol2: np.ndarray          # d2r / dzeta_i dzeta_j

    def real_hessian(self) -> np.ndarray:
        """Real 2n x 2n Hessian in coordinates (x1, y1, ..., xn, yn).

        Assembled from the Wirtinger blocks via d/dx = d/dz + d/dzbar,
        d/dy = i(d/dz - d/dzbar).
        """
        n = self.grad.shape[0]
        H = np.zeros((2 * n, 2 * n))
        for i in range(n):
            for j in range(n):
                a = self.levi[i, j]
                b = self.hol2[i, j]
                H[2 * i, 2 * j] = 2 * (a.real + b.real)
                H[2 * i + 1, 2 * j + 1] = 2 * (a.real - b.real)
                H[2 * i, 2 * j + 1] = 2 * (a.imag - b.imag)
                H[2 * i + 1, 2 * j] = 2 * (-a.imag - b.imag)
        return H


@dataclass(frozen=True)
class DomainModel:
    """A model domain: defining function r with exact jets, a boundary collar
    U = {r_lo < r < r_hi}, Morse critical points on the boundary, and the
    patching radius delta."""

    name: str
    n: int
    levi_const: np.ndarray
    hol2_const: np.ndarray
    r_const: float
    delta: float = 0.15
    diag_radius: float = 0.75
    r_lo: float = -0.5
    r_hi: float = 0.5
    critical_points: tuple[tuple[complex, ...], ...] = ()
    bounding_radius: float = 1.6

    def __post_init__(self):
        # the coframe Gram matrix, inverted once
        object.__setattr__(self, "_levi_inv", np.linalg.inv(self.levi_const))

    def r(self, zeta: np.ndarray):
        """r at one point (n,), or at each row of (P, n)."""
        zeta = np.asarray(zeta, dtype=complex)
        quad = np.real(_dot(zeta.conj(), zeta @ self.levi_const.T))
        hol = 2.0 * np.real(_dot(zeta, zeta @ self.hol2_const.T))
        return quad + hol + self.r_const

    def _grad_r(self, zeta: np.ndarray):
        """(dr/dzeta, r) at one point or per row; OutsideDomain unless every
        point lies in the halo."""
        zeta = np.asarray(zeta, dtype=complex)
        r = self.r(zeta)
        inside = self._in_halo(zeta, r)
        if not inside.all():
            bad = np.reshape(zeta, (-1, self.n))[~np.ravel(inside)][0]
            raise OutsideDomain(f"{bad} outside D union U for {self.name}")
        return zeta.conj() @ self.levi_const.T + 2.0 * (zeta @ self.hol2_const.T), r

    def grad(self, zeta: np.ndarray) -> np.ndarray:
        """Holomorphic gradient dr/dzeta_j at one point (n,) or per row (P, n)."""
        return self._grad_r(zeta)[0]

    def jet(self, zeta: np.ndarray, order: int = 4) -> Jet:
        """Exact derivatives of r at zeta, holomorphic type up to `order`."""
        if order > 4:
            raise DomainError("jets supported to order 4")
        grad, r = self._grad_r(zeta)
        return Jet(value=r, grad=grad, levi=self.levi_const.copy(), hol2=2 * self.hol2_const)

    # region predicates -------------------------------------------------

    def in_domain(self, zeta: np.ndarray, eps: float = 0.0) -> bool:
        return self.r(zeta) < -eps

    def in_halo(self, zeta: np.ndarray):
        """Inside D or its boundary collar (where jets are used), per point."""
        zeta = np.asarray(zeta, dtype=complex)
        return self._in_halo(zeta, self.r(zeta))

    def _in_halo(self, zeta: np.ndarray, r):
        norm2 = np.real(_dot(zeta.conj(), zeta))
        return (norm2 <= self.bounding_radius ** 2) & (r < self.r_hi)

    def in_collar(self, zeta: np.ndarray) -> bool:
        return self.r_lo < self.r(zeta) < self.r_hi

    # geometry -----------------------------------------------------------

    def gamma(self, zeta: np.ndarray):
        """Levi-metric length of dr: gamma = |dr|, zero exactly at critical
        points."""
        return self._gamma_of(self.grad(zeta))

    def _gamma_of(self, grad: np.ndarray):
        return np.sqrt(np.maximum(np.real(self._coframe_dot(grad, grad)), 0.0))

    def _coframe_dot(self, u: np.ndarray, v: np.ndarray):
        """Levi-metric inner product of coframe coefficient rows."""
        return _dot(u @ self._levi_inv, v.conj())

    def frame(self, zeta: np.ndarray) -> np.ndarray:
        """Orthonormal coframe rows (omega^1 .. omega^n) with dr = gamma omega^n,
        (n, n) at one point or (P, n, n) per row.

        Orthonormal for the Levi metric; deterministic Gram-Schmidt over the
        coordinate coframe in index order, skipping a candidate that lies
        along dr.
        """
        grad = self.grad(zeta)
        g = self._gamma_of(grad)
        if (g <= TOL_FRAME).any():
            raise SingularFramePoint(f"gamma={np.min(g):.2e} in {zeta}")
        n = self.n
        last = grad / g[..., None]
        rows, taken = [], []
        count = 0
        for j in range(n):
            cand = np.zeros_like(grad)
            cand[..., j] = 1.0
            for row in (last, *rows):
                cand = cand - self._coframe_dot(cand, row)[..., None] * row
            nrm = np.sqrt(np.abs(self._coframe_dot(cand, cand)))
            take = (nrm >= 1e-7) & (count < n - 1)
            # a candidate not taken becomes a zero row, which later
            # candidates are orthogonal to already
            rows.append(np.divide(cand, nrm[..., None], out=np.zeros_like(cand),
                                  where=take[..., None]))
            taken.append(take)
            count = count + take
            if (count == n - 1).all():
                break
        if (count < n - 1).any():
            raise SingularFramePoint(f"could not complete frame in {zeta}")
        if len(rows) == n:
            # each point left out one candidate: slot k holds candidate k
            # while every candidate up to k was taken, candidate k + 1 after
            kept = np.logical_and.accumulate(np.stack(taken, axis=-1), axis=-1)
            rows = [np.where(kept[..., k, None], rows[k], rows[k + 1]) for k in range(n - 1)]
        return np.stack([*rows, last], axis=-2)

    def dual_frame(self, zeta: np.ndarray) -> np.ndarray:
        """Columns are the dual (1,0) vector fields L_1..L_n of the coframe."""
        return np.linalg.inv(self.frame(zeta))

    # pairwise data: zeta one point (n,) or rows (P, n), z one point -----------

    def _pair_diff(self, zeta: np.ndarray, z: np.ndarray) -> np.ndarray:
        """zeta - z; DiagonalRadiusExceeded unless every pair is within
        diag_radius."""
        d = np.asarray(zeta, dtype=complex) - np.asarray(z, dtype=complex)
        if (np.real(_dot(d.conj(), d)) > self.diag_radius ** 2).any():
            raise DiagonalRadiusExceeded(
                f"|zeta-z| > {self.diag_radius}; kernels are local to the diagonal")
        return d

    def _rho2_of(self, d: np.ndarray):
        return 2.0 * np.real(_dot(d.conj(), d @ self.levi_const.T))

    def _support(self, grad: np.ndarray, d: np.ndarray):
        """The support function F from the gradient at its first point and
        d = first - second point."""
        return _dot(grad, d) - _dot(d, d @ self.hol2_const.T)

    def rho2(self, zeta: np.ndarray, z: np.ndarray):
        """Symmetrized squared distance 2 <h(m) d, d> with m the midpoint."""
        return self._rho2_of(self._pair_diff(zeta, z))

    def d_zeta_rho2(self, zeta: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Coefficients of d_zeta rho^2 along dzeta_j (exact: constant Levi)."""
        d = np.asarray(zeta, dtype=complex) - np.asarray(z, dtype=complex)
        return 2.0 * (d.conj() @ self.levi_const)

    def dbar_zeta_rho2(self, zeta: np.ndarray, z: np.ndarray) -> np.ndarray:
        d = np.asarray(zeta, dtype=complex) - np.asarray(z, dtype=complex)
        return 2.0 * (d @ self.levi_const.T)

    def levi_polynomial_f(self, zeta: np.ndarray, z: np.ndarray):
        """Second-order support function, holomorphic in z."""
        d = self._pair_diff(zeta, z)
        return self._support(self.grad(zeta), d)

    def phi(self, zeta: np.ndarray, z: np.ndarray):
        d = self._pair_diff(zeta, z)
        grad, r = self._grad_r(zeta)
        return self._support(grad, d) - r

    def phi_star(self, zeta: np.ndarray, z: np.ndarray):
        return np.conj(self.phi(z, zeta))

    def big_p(self, zeta: np.ndarray, z: np.ndarray):
        """Extended squared distance rho^2 + 2 (r/gamma)(r*/gamma*)."""
        return self.geo_pair(zeta, z).big_p

    def xi_patch(self, zeta: np.ndarray) -> float:
        """C^2 cutoff in |r|: 1 for |r| <= delta, 0 for |r| >= 1.5 delta."""
        s = abs(self.r(zeta))
        if s <= self.delta:
            return 1.0
        if s >= 1.5 * self.delta:
            return 0.0
        t = (s - self.delta) / (0.5 * self.delta)
        return 1.0 - (10 * t ** 3 - 15 * t ** 4 + 6 * t ** 5)

    def geo_pair(self, zeta: np.ndarray, z: np.ndarray) -> "GeoPair":
        """Every pair scalar, from one gradient and one r per point.

        Raises OutsideDomain, then SingularFramePoint where a gamma vanishes
        (P is undefined there), then DiagonalRadiusExceeded.
        """
        zeta = np.asarray(zeta, dtype=complex)
        z = np.asarray(z, dtype=complex)
        grad, r = self._grad_r(zeta)
        grad_s, r_s = self._grad_r(z)
        g = self._gamma_of(grad)
        g_s = self._gamma_of(grad_s)
        if (np.minimum(g, g_s) <= TOL_FRAME).any():
            raise SingularFramePoint("gamma vanishes; P undefined")
        d = self._pair_diff(zeta, z)
        rho2 = self._rho2_of(d)
        f = self._support(grad, d)
        return GeoPair(
            model=self, zeta=zeta, z=z, r=r, r_star=r_s, grad=grad,
            gamma=g, gamma_star=g_s, rho2=rho2, f=f, phi=f - r,
            phi_star=np.conj(self._support(grad_s, -d) - r_s),
            big_p=rho2 + 2.0 * (r / g) * (r_s / g_s),
        )

    # boundary helpers ----------------------------------------------------

    def project_boundary(self, zeta: np.ndarray, iters: int = 60) -> np.ndarray:
        """Newton projection onto {r = 0} along the real gradient."""
        z = np.asarray(zeta, dtype=complex).copy()
        for _ in range(iters):
            val = self.r(z)
            if abs(val) < 1e-14:
                break
            grad = self.grad(z)              # dr/dzeta
            gr2 = 2 * np.conj(grad)          # real gradient, complex packing
            denom = float(np.real(gr2.conj() @ gr2))
            if denom < 1e-30:
                raise SingularFramePoint("projection hit a critical point")
            z = z - gr2 * (val / denom)
        return z

    def inward_normal(self, zeta: np.ndarray) -> np.ndarray:
        grad = self.grad(zeta)
        v = 2 * np.conj(grad)     # real-gradient direction
        nv = np.linalg.norm(v)
        if nv < 1e-30:
            raise SingularFramePoint("normal undefined at critical point")
        return -v / nv

    def tangent_direction(self, zeta: np.ndarray, seed: int = 0) -> np.ndarray:
        """A deterministic unit vector tangent to {r = const} at zeta."""
        grad = self.grad(zeta)
        v = 2 * np.conj(grad)
        v = v / np.linalg.norm(v)
        rng = np.random.default_rng(1000 + seed)
        cand = rng.standard_normal(self.n) + 1j * rng.standard_normal(self.n)
        # orthogonalize against the real gradient in the real inner product
        t = cand - v * np.real(np.vdot(v, cand))
        t = t - 1j * v * np.real(np.vdot(1j * v, t))
        nt = np.linalg.norm(t)
        if nt < 1e-12:
            raise DomainError("degenerate tangent seed")
        return t / nt


def ball(n: int, delta: float = 0.15) -> DomainModel:
    # Re Phi = 1 - Re<zeta, z> > 0 holds globally on the ball, so the support
    # function needs no diagonal localization there.
    return DomainModel(name="ball", n=n,
                       levi_const=np.eye(n, dtype=complex),
                       hol2_const=np.zeros((n, n), dtype=complex),
                       r_const=-1.0, delta=delta, diag_radius=4.0)


def pinched(n: int, delta: float = 0.15) -> DomainModel:
    if n < 2:
        raise DomainError("pinched model needs n >= 2")
    hol2 = np.zeros((n, n), dtype=complex)
    hol2[0, 0] = -1.0       # r contains -2 Re(zeta_1^2) = -zeta_1^2 - conj^2
    return DomainModel(name="pinched", n=n,
                       levi_const=np.eye(n, dtype=complex),
                       hol2_const=hol2, r_const=0.0, delta=delta,
                       critical_points=((0.0,) * n,))


_BUILDERS = {"ball": ball, "pinched": pinched}


def make_domain(name: str, n: int, delta: float = 0.15) -> DomainModel:
    try:
        builder = _BUILDERS[name.lower()]
    except KeyError:
        raise DomainError(f"unknown domain {name!r}; have {sorted(_BUILDERS)}")
    return builder(n, delta=delta)


@dataclass(frozen=True)
class GeoPair:
    """All geometric data at a point pair; with rows of zeta, the zeta-side
    fields and the pair scalars are arrays over the rows."""

    model: DomainModel
    zeta: np.ndarray
    z: np.ndarray
    r: float
    r_star: float
    grad: np.ndarray
    gamma: float
    gamma_star: float
    rho2: float
    f: complex
    phi: complex
    phi_star: complex
    big_p: float
