"""Exterior algebra of double differential forms on C^n x C^n.

A double form lives at a point pair (zeta, z).  Coefficients are stored
sparsely, keyed by four strictly increasing multi-indices
(holo-zeta, anti-zeta, holo-z, anti-z) with 1-based frame labels.  All four
slots anticommute as in the exterior algebra of the product manifold.
Each variable carries its own frame tag, either the coordinate coframe
dzeta/dz or a boundary-adapted orthonormal coframe omega/Theta.

Frame convention: when the Levi matrix is the identity the coordinate
coframe {dzeta_j} is orthonormal (|dzeta_j| = 1), which puts the factor 2
into the squared distance.  The Hodge star below is normalized by *1 = dV
with dV the metric volume form.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

MultiIndex = tuple[int, ...]
Key = tuple[MultiIndex, MultiIndex, MultiIndex, MultiIndex]

COORD = "coord"
ADAPTED = "adapted"

_EMPTY: MultiIndex = ()


class FormError(Exception):
    pass


class DimensionMismatch(FormError):
    pass


class FrameMismatch(FormError):
    pass


class NotHomogeneous(FormError):
    pass


def validate_multi_index(idx: MultiIndex, n: int) -> None:
    if any(not (1 <= v <= n) for v in idx):
        raise FormError(f"index {idx} out of range 1..{n}")
    if any(idx[i] >= idx[i + 1] for i in range(len(idx) - 1)):
        raise FormError(f"index {idx} not strictly increasing")


def merge_sign(a: MultiIndex, b: MultiIndex) -> tuple[int, MultiIndex]:
    """Sign and result of sorting the concatenation of two increasing tuples.

    Returns (0, ()) when they share a label.
    """
    if not a:
        return 1, b
    if not b:
        return 1, a
    if set(a) & set(b):
        return 0, _EMPTY
    merged = tuple(sorted(a + b))
    inv = sum(1 for x in a for y in b if x > y)
    return (-1) ** inv, merged


def complement(idx: MultiIndex, n: int) -> MultiIndex:
    s = set(idx)
    return tuple(j for j in range(1, n + 1) if j not in s)


Frame = tuple[str, str]
COORD_FRAME: Frame = (COORD, COORD)


class DoubleForm:
    """Sparse double differential form value at one point pair."""

    __slots__ = ("n", "frame", "coeffs")

    def __init__(self, n: int, coeffs: dict[Key, complex] | None = None,
                 frame: Frame = COORD_FRAME):
        self.n = n
        self.frame = frame
        self.coeffs: dict[Key, complex] = {}
        if coeffs:
            for k, v in coeffs.items():
                if v != 0:
                    self.coeffs[k] = complex(v)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(n: int, frame: Frame = COORD_FRAME) -> "DoubleForm":
        return DoubleForm(n, {}, frame)

    @staticmethod
    def scalar(n: int, value: complex, frame: Frame = COORD_FRAME) -> "DoubleForm":
        return DoubleForm(n, {(_EMPTY, _EMPTY, _EMPTY, _EMPTY): value}, frame)

    @staticmethod
    def monomial(n: int, hz: MultiIndex = (), az: MultiIndex = (),
                 hw: MultiIndex = (), aw: MultiIndex = (),
                 value: complex = 1.0, frame: Frame = COORD_FRAME) -> "DoubleForm":
        """Single term value * dzeta^hz ^ dzetabar^az ^ dz^hw ^ dzbar^aw."""
        for idx in (hz, az, hw, aw):
            validate_multi_index(idx, n)
        return DoubleForm(n, {(tuple(hz), tuple(az), tuple(hw), tuple(aw)): value},
                          frame)

    # -- basic algebra ---------------------------------------------------

    def copy(self) -> "DoubleForm":
        return DoubleForm(self.n, dict(self.coeffs), self.frame)

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.coeffs.values())

    def __add__(self, other: "DoubleForm") -> "DoubleForm":
        self._check_compat(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            w = out.get(k, 0.0) + v
            if w == 0:
                out.pop(k, None)
            else:
                out[k] = w
        return DoubleForm(self.n, out, self.frame)

    def __sub__(self, other: "DoubleForm") -> "DoubleForm":
        return self + other.scale(-1.0)

    def scale(self, c: complex) -> "DoubleForm":
        if c == 0:
            return DoubleForm.zero(self.n, self.frame)
        return DoubleForm(self.n, {k: c * v for k, v in self.coeffs.items()},
                          self.frame)

    __mul__ = scale
    __rmul__ = scale

    def _check_compat(self, other: "DoubleForm") -> None:
        if self.n != other.n:
            raise DimensionMismatch(f"n mismatch: {self.n} vs {other.n}")
        if self.frame != other.frame:
            raise FrameMismatch(f"frame mismatch: {self.frame} vs {other.frame}")

    # -- structure -------------------------------------------------------

    def bidegrees(self) -> set[tuple[int, int, int, int]]:
        return {(len(k[0]), len(k[1]), len(k[2]), len(k[3])) for k in self.coeffs}

    def bidegree(self) -> tuple[int, int, int, int]:
        degs = self.bidegrees()
        if len(degs) > 1:
            raise NotHomogeneous(f"mixed degrees {degs}")
        return degs.pop() if degs else (0, 0, 0, 0)

    def zeta_degree(self) -> tuple[int, int]:
        degs = {(len(k[0]), len(k[1])) for k in self.coeffs}
        if len(degs) > 1:
            raise NotHomogeneous(f"mixed zeta degrees {degs}")
        return degs.pop() if degs else (0, 0)

    def z_degree(self) -> tuple[int, int]:
        degs = {(len(k[2]), len(k[3])) for k in self.coeffs}
        if len(degs) > 1:
            raise NotHomogeneous(f"mixed z degrees {degs}")
        return degs.pop() if degs else (0, 0)

    def norm(self) -> float:
        """Pointwise metric norm in an orthonormal frame: l2 of coefficients."""
        return float(np.sqrt(sum(abs(v) ** 2 for v in self.coeffs.values())))

    def component(self, key: Key) -> complex:
        return self.coeffs.get(key, 0.0)

    def filter_keys(self, pred) -> "DoubleForm":
        return DoubleForm(self.n, {k: v for k, v in self.coeffs.items() if pred(k)},
                          self.frame)

    def __repr__(self) -> str:
        items = ", ".join(f"{k}: {v:.3g}" for k, v in sorted(self.coeffs.items()))
        return f"DoubleForm(n={self.n}, frame={self.frame}, {{{items}}})"


def wedge(a: DoubleForm, b: DoubleForm) -> DoubleForm:
    """Graded-anticommutative exterior product; degrees add per slot."""
    a._check_compat(b)
    out: dict[Key, complex] = {}
    for (a1, b1, c1, d1), va in a.coeffs.items():
        tail = (len(b1), len(c1), len(d1))
        for (a2, b2, c2, d2), vb in b.coeffs.items():
            sign = 1
            s, am = merge_sign(a1, a2)
            if s == 0:
                continue
            sign *= s * ((-1) ** (len(a2) * (tail[0] + tail[1] + tail[2])))
            s, bm = merge_sign(b1, b2)
            if s == 0:
                continue
            sign *= s * ((-1) ** (len(b2) * (tail[1] + tail[2])))
            s, cm = merge_sign(c1, c2)
            if s == 0:
                continue
            sign *= s * ((-1) ** (len(c2) * tail[2]))
            s, dm = merge_sign(d1, d2)
            if s == 0:
                continue
            sign *= s
            key = (am, bm, cm, dm)
            w = out.get(key, 0.0) + sign * va * vb
            if w == 0:
                out.pop(key, None)
            else:
                out[key] = w
    return DoubleForm(a.n, out, a.frame)


def differential(n: int, slot: str, parts) -> DoubleForm:
    """sum_k dv_k ^ parts[k], dv_k the coordinate differential in the
    DoubleForm.monomial slot `slot`, in the parts' frame: dbar, del and the d
    of vartheta assembled from partials; `wedge` holds the sign convention."""
    out = DoubleForm.zero(n, parts[0].frame)
    for k, part in enumerate(parts, start=1):
        out = out + wedge(DoubleForm.monomial(n, **{slot: (k,)}, frame=part.frame), part)
    return out


def wedge_power(a: DoubleForm, k: int) -> DoubleForm:
    if k < 0:
        raise FormError("negative wedge power")
    out = DoubleForm.scalar(a.n, 1.0, a.frame)
    for _ in range(k):
        out = wedge(out, a)
    return out


def conj_form(f: DoubleForm) -> DoubleForm:
    """Complex conjugate: swaps holomorphic and antiholomorphic slots."""
    out: dict[Key, complex] = {}
    for (a, b, c, d), v in f.coeffs.items():
        sign = (-1) ** (len(a) * len(b) + len(c) * len(d))
        key = (b, a, d, c)
        out[key] = out.get(key, 0.0) + sign * np.conj(v)
    return DoubleForm(f.n, out, f.frame)


def swap_variables(f: DoubleForm) -> DoubleForm:
    """Relabel zeta-forms as z-forms and vice versa (argument swap)."""
    out: dict[Key, complex] = {}
    for (a, b, c, d), v in f.coeffs.items():
        sign = (-1) ** ((len(a) + len(b)) * (len(c) + len(d)))
        key = (c, d, a, b)
        out[key] = out.get(key, 0.0) + sign * v
    return DoubleForm(f.n, out, (f.frame[1], f.frame[0]))


def adjoint_value(kernel_at_swapped: DoubleForm) -> DoubleForm:
    """Adjoint kernel value from the kernel evaluated at swapped arguments:
    `conj_form`, then the unsigned exchange of the zeta and z slots.  That is
    (-1)^(deg_zeta * deg_z) times `swap_variables` of the conjugate, the sign
    that makes the result the kernel of the adjoint operator under the pairing
    below; certified against the pairing on every bidegree combination.
    """
    f = conj_form(kernel_at_swapped)
    return DoubleForm(f.n, {(c, d, a, b): v for (a, b, c, d), v in f.coeffs.items()},
                      (f.frame[1], f.frame[0]))


def volume_coeff(n: int) -> complex:
    """dV = volume_coeff(n) * dzeta^(1..n) ^ dzetabar^(1..n), orthonormal coframe."""
    return (1j ** n) * ((-1) ** (n * (n - 1) // 2))


def _star_factor(hol: MultiIndex, anti: MultiIndex, n: int) -> tuple[complex, MultiIndex, MultiIndex]:
    p = len(hol)
    hol_c = complement(hol, n)
    anti_c = complement(anti, n)
    eps_h, _ = merge_sign(hol, hol_c)
    eps_a, _ = merge_sign(anti, anti_c)
    mu = ((-1) ** (p * n)) * eps_a * eps_h * volume_coeff(n)
    return mu, anti_c, hol_c


def _star_orthonormal(f: DoubleForm, variable: str) -> DoubleForm:
    out: dict[Key, complex] = {}
    for (a, b, c, d), v in f.coeffs.items():
        if variable == "zeta":
            mu, new_h, new_a = _star_factor(a, b, f.n)
            key = (new_h, new_a, c, d)
        else:
            mu, new_h, new_a = _star_factor(c, d, f.n)
            key = (a, b, new_h, new_a)
        out[key] = out.get(key, 0.0) + mu * v
    return DoubleForm(f.n, out, f.frame)


def anti_keys(n: int, q: int) -> tuple[MultiIndex, ...]:
    """The q-subsets of 1..n in packed order: the rows and columns of
    `compound` and of every packed (0, q) coefficient array."""
    return tuple(combinations(range(1, n + 1), q))


def compound(m: np.ndarray, q: int) -> np.ndarray:
    """q-th compound of square matrices (..., n, n): the minors det m[B, A]
    for the q-subsets B, A of the indices in `anti_keys` order.  A q-fold
    wedge of sum m[b, a] dv_b ^ dw_a, and a frame change of a q-form, act on
    packed coefficients through it (Cauchy-Binet)."""
    if q == 1:
        return m
    if q == 0:
        return np.ones(m.shape[:-2] + (1, 1), dtype=m.dtype)
    n = m.shape[-1]
    keys = list(combinations(range(n), q))
    # Laplace expansion of each minor along its first row
    lower = compound(m, q - 1)
    pos = {key: i for i, key in enumerate(combinations(range(n), q - 1))}
    first = np.array([b[0] for b in keys])[:, None]
    rest = np.array([pos[b[1:]] for b in keys])[:, None]
    out = np.zeros(m.shape[:-2] + (len(keys), len(keys)), dtype=np.result_type(m, 1.0))
    for k in range(q):
        col = np.array([a[k] for a in keys])[None, :]
        minor = np.array([pos[a[:k] + a[k + 1:]] for a in keys])[None, :]
        term = m[..., first, col] * lower[..., rest, minor]
        out += -term if k % 2 else term
    return out


def transform_slot(f: DoubleForm, slot: int, V: np.ndarray) -> DoubleForm:
    """Rewrite one index slot under a basis change old_j = sum_a V[j,a] new_a:
    a label of degree k maps through its row of compound(V, k)."""
    n = f.n
    out: dict[Key, complex] = {}
    minors = {k: compound(V, k).tolist() for k in {len(key[slot]) for key in f.coeffs}}
    for key, v in f.coeffs.items():
        old = key[slot]
        keys = anti_keys(n, len(old))
        for new, m in zip(keys, minors[len(old)][keys.index(old)]):
            if m == 0:
                continue
            nk = list(key)
            nk[slot] = new
            tk = tuple(nk)
            w = out.get(tk, 0.0) + m * v
            if w == 0:
                out.pop(tk, None)
            else:
                out[tk] = w
    return DoubleForm(n, out, f.frame)


def _change_frame(f: DoubleForm, side: int, U: np.ndarray, to: str) -> DoubleForm:
    """Convert the slots of one variable (side 0: zeta, 1: z) between
    coordinate and adapted frames; U holds the adapted coframe rows in
    coordinate components (omega^a = sum_j U[a, j] dzeta_j)."""
    if f.frame[side] == to:
        return f
    V = U if to == COORD else np.linalg.inv(U)
    hol, anti = 2 * side, 2 * side + 1
    g = f
    if any(k[hol] for k in f.coeffs):
        g = transform_slot(g, hol, V)
    if any(k[anti] for k in g.coeffs):
        g = transform_slot(g, anti, np.conj(V))
    frame = (to, f.frame[1]) if side == 0 else (f.frame[0], to)
    return DoubleForm(g.n, g.coeffs, frame)


def change_frame_zeta(f: DoubleForm, U_zeta: np.ndarray, to: str) -> DoubleForm:
    """Convert the zeta slots between coordinate and adapted frames."""
    return _change_frame(f, 0, U_zeta, to)


def change_frame_z(f: DoubleForm, U_z: np.ndarray, to: str) -> DoubleForm:
    """Convert the z slots between coordinate and adapted frames."""
    return _change_frame(f, 1, U_z, to)


def to_coord(f: DoubleForm, U_zeta: np.ndarray, U_z: np.ndarray) -> DoubleForm:
    """Both variables' slots in coordinates; U_zeta and U_z as in `_change_frame`."""
    return change_frame_z(change_frame_zeta(f, U_zeta, COORD), U_z, COORD)


def hodge_star(f: DoubleForm, variable: str) -> DoubleForm:
    """Hodge star in one variable: a (p,q) component maps to (n-q, n-p).

    Satisfies f ^ *conj(f) = |f|^2 dV and *1 = dV, with the current frame
    taken to be orthonormal.
    """
    if variable not in ("zeta", "z"):
        raise FormError(f"variable must be zeta or z, got {variable!r}")
    degs = {(len(k[0]), len(k[1])) if variable == "zeta" else (len(k[2]), len(k[3]))
            for k in f.coeffs}
    if len(degs) > 1:
        raise NotHomogeneous(f"star of non-homogeneous form: degrees {degs}")
    return _star_orthonormal(f, variable)


def inner(f: DoubleForm, g: DoubleForm) -> complex:
    """Pointwise Hermitian inner product in an orthonormal frame."""
    f._check_compat(g)
    keys = f.coeffs.keys() & g.coeffs.keys()
    return complex(sum(f.coeffs[k] * np.conj(g.coeffs[k]) for k in keys))


def pair_pointwise(f: DoubleForm, kernel_val: DoubleForm) -> DoubleForm | None:
    """Integrand density of the kernel-operator pairing at one point pair.

    Computes f ^ *_zeta conj(K) and extracts the full zeta-degree coefficient
    relative to the metric volume.  Returns the resulting z-form, or None when
    the zeta-bidegrees do not match (the pairing is 0 by definition).
    """
    if f.is_zero():
        return DoubleForm.zero(f.n, f.frame)
    if f.zeta_degree() != kernel_val.zeta_degree():
        return None
    w = wedge(f, _star_orthonormal(conj_form(kernel_val), "zeta"))
    n = f.n
    full = tuple(range(1, n + 1))
    kappa = volume_coeff(n)
    out: dict[Key, complex] = {}
    for (a, b, c, d), v in w.coeffs.items():
        if a == full and b == full:
            key = (_EMPTY, _EMPTY, c, d)
            out[key] = out.get(key, 0.0) + v / kappa
    return DoubleForm(n, out, f.frame)


def restrict_boundary(f: DoubleForm, U_zeta: np.ndarray) -> DoubleForm:
    """Tangential pullback at a boundary point of the zeta variable.

    Drops every component carrying the conormal coframe direction or its
    conjugate (frame label n in either zeta slot).  Requires the
    boundary-adapted frame, so gamma must be bounded away from zero.
    """
    g = change_frame_zeta(f, U_zeta, ADAPTED)
    n = g.n
    return g.filter_keys(lambda k: n not in k[0] and n not in k[1])
