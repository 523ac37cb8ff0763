"""Grids on interior exhaustions, weighted norms, and kernel application.

Quadrature is the midpoint rule with diagonal-cell exclusion plus one level
of local 2x refinement in the 3^(2n)-cell neighborhood of each target; the
kernels applied here have positive type, so no singularity subtraction is
needed and first-order quadrature suffices for the rate-based checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product
from math import factorial, pi

import numpy as np

from . import forms, kernels
from .domain import DomainModel
from .forms import DoubleForm
from .kernels import KernelEvaluator


class QuadError(Exception):
    pass


@dataclass(frozen=True)
class Grid:
    """Midpoint grid over D_eps = {r < -eps} with the metric cell volume."""

    model: DomainModel
    h: float
    eps: float
    centers: np.ndarray          # (ncells, n) complex
    cell_volume: float           # metric volume of one cell

    @property
    def n(self) -> int:
        return self.model.n

    def __len__(self) -> int:
        return len(self.centers)

    @cached_property
    def gamma_values(self) -> np.ndarray:
        """gamma at each center, computed once per grid (read-only)."""
        gam = self.model.gamma(self.centers)
        gam.flags.writeable = False
        return gam

    def total_volume(self) -> float:
        return self.cell_volume * len(self.centers)


GRID_BOX = 1.02     # half-width of the lattice box; both models fit in it
BLOCK_NODES = 4096  # nodes per block of batched kernel evaluation and contraction
TARGET_DRAWS = 10000  # candidate points drawn for the ratio-table targets


def make_grid(model: DomainModel, h: float, eps: float | None = None) -> Grid:
    """Deterministic lattice of cell midpoints inside D_eps (eps default 2h)."""
    if h <= 0:
        raise QuadError("h must be positive")
    if eps is None:
        eps = 2.0 * h
    n = model.n
    m = int(np.ceil(GRID_BOX / h))
    axis = (np.arange(-m, m) + 0.5) * h
    # One slab of the lattice per value of the first real coordinate, masked
    # before the next is built, so the whole box is never held at once.  The
    # sparse axes broadcast straight into complex coordinates.
    rest = np.meshgrid(*([axis] * (2 * n - 1)), indexing="ij", sparse=True)
    shape = (len(axis),) * (2 * n - 1)
    slabs = []
    for x0 in axis:
        reals = [x0, *rest]
        slab = np.stack([np.broadcast_to(reals[2 * j] + 1j * reals[2 * j + 1], shape).ravel()
                         for j in range(n)], axis=1)
        slabs.append(slab[model.r(slab) < -eps])
    centers = np.concatenate(slabs)
    if len(centers) == 0:
        raise QuadError("empty grid")
    det = float(np.real(np.linalg.det(model.levi_const)))
    vol = (2.0 ** n) * det * h ** (2 * n)
    return Grid(model, h, eps, centers, vol)


@dataclass
class FormField:
    """Per-cell values of a (0,q) form, packed over the index basis."""

    grid: Grid
    q: int
    keys: tuple[tuple[int, ...], ...]
    data: np.ndarray             # (ncells, ncomp) complex

    def norm_pointwise(self) -> np.ndarray:
        return np.sqrt(np.sum(np.abs(self.data) ** 2, axis=1))


def anti_keys(n: int, q: int) -> tuple[tuple[int, ...], ...]:
    return tuple(combinations(range(1, n + 1), q))


def field_from_function(grid: Grid, q: int, func) -> FormField:
    """Sample a coefficient function func(point) -> dict[key, complex], or
    func.batch(points) -> (points, ncomp) when func has one."""
    keys = anti_keys(grid.n, q)
    index = {k: j for j, k in enumerate(keys)}
    return FormField(grid, q, keys, _sample_field(func, grid.centers, keys, index))


def weighted_lp_norm(f: FormField, a: float, p: float) -> float:
    """(sum |gamma^a f|^p vol)^(1/p) with the pointwise metric norm; p=inf max."""
    if len(f.grid) == 0:
        raise QuadError("empty grid")
    w = f.grid.gamma_values ** a * f.norm_pointwise()
    if p == np.inf:
        return float(np.max(w))
    if p < 1:
        raise QuadError("p must be >= 1")
    return float((np.sum(w ** p) * f.grid.cell_volume) ** (1.0 / p))


def norm_values(values: np.ndarray, gammas: np.ndarray, vol_weights: np.ndarray,
                a: float, p: float) -> float:
    """Weighted L^p norm of sampled pointwise norms with explicit weights."""
    w = gammas ** a * values
    if p == np.inf:
        return float(np.max(w))
    return float((np.sum(w ** p * vol_weights)) ** (1.0 / p))


# -- operator application -------------------------------------------------------


def _split_nodes(grid: Grid, z: np.ndarray):
    """Far cells plus locally 2x-refined subcells near one target, with the
    diagonal exclusion of subcells within h/2."""
    n = grid.n
    h = grid.h
    reals = np.concatenate([np.stack([grid.centers.real[:, j], grid.centers.imag[:, j]],
                                     axis=1) for j in range(n)], axis=1)
    zr = np.concatenate([[z.real[j], z.imag[j]] for j in range(n)])
    inf_dist = np.max(np.abs(reals - zr), axis=1)
    near = inf_dist <= 1.5 * h
    far = ~near
    far_vols = np.full(int(np.count_nonzero(far)), grid.cell_volume)
    if not np.any(near):
        return far, far_vols, np.zeros((0, n), dtype=complex), np.zeros(0)
    offs = np.array(list(product((-h / 4, h / 4), repeat=2 * n)))
    base = reals[near]
    sub = (base[:, None, :] + offs[None, :, :]).reshape(-1, 2 * n)
    sub_c = sub[:, 0::2] + 1j * sub[:, 1::2]
    dist = np.linalg.norm(sub_c - z[None, :], axis=1)
    rvals = grid.model.r(sub_c)
    keep = (dist >= h / 2) & (rvals < -grid.eps)
    sub_c = sub_c[keep]
    sub_vol = np.full(len(sub_c), grid.cell_volume / (2 ** (2 * n)))
    return far, far_vols, sub_c, sub_vol


def _sample_field(f_func, pts: np.ndarray, keys, index) -> np.ndarray:
    if hasattr(f_func, "batch"):
        return f_func.batch(pts)
    data = np.zeros((len(pts), len(keys)), dtype=complex)
    for i, c in enumerate(pts):
        for k, v in f_func(c).items():
            data[i, index[k]] = v
    return data


def apply_kernel(kernel: KernelEvaluator | None, f_func, grid: Grid,
                 targets: np.ndarray, q: int,
                 batch_eval=None) -> np.ndarray:
    """Apply the integral operator of `kernel` to the (0,q) field sampled from
    f_func, at each target point.  Returns (ntargets, ncomp) output components
    in the conjugate z basis.  batch_eval, when given, must return the packed
    kernel coefficient array (nodes, ncomp_in, ncomp_out) for fixed z; it is
    then evaluated once per target, and f_func.batch may return
    (points, ..., ncomp) to apply that one kernel to a stack of fields at
    once, giving (ntargets, ..., ncomp)."""
    n = grid.n
    keys = anti_keys(n, q)
    index = {k: j for j, k in enumerate(keys)}
    base_data = _sample_field(f_func, grid.centers, keys, index)
    out = np.zeros((len(targets),) + base_data.shape[1:], dtype=complex)
    for ti, z in enumerate(np.asarray(targets, dtype=complex)):
        far, far_vols, sub, sub_vols = _split_nodes(grid, z)
        nodes = np.concatenate([grid.centers[far], sub])
        vols = np.concatenate([far_vols, sub_vols])
        far_data = base_data[far]
        if batch_eval is not None:
            # The field is sampled and contracted in blocks of nodes, so the
            # working arrays have the same size whatever the target's node
            # count; only the kernel array itself spans all the nodes.
            K = batch_eval(nodes, z)
            for lo in range(0, len(nodes), BLOCK_NODES):
                hi = min(lo + BLOCK_NODES, len(nodes))
                fdata = _field_rows(f_func, far_data, sub, lo, hi, keys, index)
                out[ti] += np.einsum("i...b,iba->...a", fdata,
                                     K[lo:hi].conj() * vols[lo:hi, None, None],
                                     optimize=True)
            del K
        else:
            fdata = _field_rows(f_func, far_data, sub, 0, len(nodes), keys, index)
            acc = np.zeros(len(keys), dtype=complex)
            for i, c in enumerate(nodes):
                kv = kernel.eval(c, z)
                fv = DoubleForm(n, {((), k, (), ()): fdata[i, j]
                                    for j, k in enumerate(keys) if fdata[i, j] != 0})
                pv = forms.pair_pointwise(fv, kv)
                if pv is None:
                    continue
                for (_, _, _, d), v in pv.coeffs.items():
                    acc[index[d]] += v * vols[i]
            out[ti] = acc
    return out


def _field_rows(f_func, far_data: np.ndarray, sub: np.ndarray, lo: int, hi: int,
                keys, index) -> np.ndarray:
    """Rows lo:hi of the field at the far cells followed by the subcells,
    sampling only the subcells those rows cover."""
    nfar = len(far_data)
    rows = [far_data[lo:hi]]
    if hi > nfar:
        rows.append(_sample_field(f_func, sub[max(lo - nfar, 0):hi - nfar], keys, index))
    return np.concatenate(rows)


def pair_operator(kernel: KernelEvaluator, f_func, grid: Grid, z: np.ndarray,
                  q: int) -> DoubleForm:
    """Single-target quadrature of the kernel pairing; 0 on type mismatch."""
    if not grid.model.in_domain(np.asarray(z, dtype=complex)):
        raise QuadError("target outside the domain")
    probe = kernel.eval(grid.centers[0], np.asarray(z, dtype=complex))
    fv0 = DoubleForm(grid.n, {((), k, (), ()): 1.0 for k in anti_keys(grid.n, q)})
    if forms.pair_pointwise(fv0, probe) is None:
        return DoubleForm.zero(grid.n)
    vals = apply_kernel(kernel, f_func, grid, np.asarray([z], dtype=complex), q)
    keys = anti_keys(grid.n, q)
    return DoubleForm(grid.n, {((), (), (), k): vals[0, j]
                               for j, k in enumerate(keys) if vals[0, j] != 0})


# -- vectorized kernels ---------------------------------------------------------


def batch_frames(model: DomainModel, pts: np.ndarray) -> np.ndarray:
    """Coframes at the rows of pts, (P, n, n): `DomainModel.frame`.  Kept
    under this name only because the benchmark's tracer looks it up."""
    return model.frame(pts)


def batch_nq(model: DomainModel, q: int):
    """Vectorized principal Neumann kernel for q = 1, packed (nodes, b, a) with
    coefficient of dzetabar_b ^ dz_a.  Agrees with kernels.nq per point."""
    if q != 1:
        raise QuadError("vectorized path implemented for q = 1")
    n = model.n
    pref = 2.0 ** (n - 2) / (2 * pi) ** n * factorial(n - q - 2)
    nu_const = -(2.0 ** (n - 1)) * factorial(n - 2) / (factorial(q - 1) * (2 * pi) ** n)
    gam_const = factorial(n - 2) / (2.0 * pi ** n)

    def ev(nodes: np.ndarray, z: np.ndarray) -> np.ndarray:
        # in blocks of nodes, so the temporaries below (a dozen arrays of
        # nodes x n x n) have one size whatever the number of nodes
        z = np.asarray(z, dtype=complex)
        Uz = model.frame(z)
        out = np.empty((len(nodes), n, n), dtype=complex)
        for lo in range(0, len(nodes), BLOCK_NODES):
            out[lo:lo + BLOCK_NODES] = block(nodes[lo:lo + BLOCK_NODES], z, Uz)
        return out

    def block(nodes, z, Uz):
        pair = model.geo_pair(nodes, z)
        P = pair.big_p
        s = kernels.neumann_tangential_scalar(n, q, pair.gamma, pair.gamma_star, pair.phi, P)
        Uc = model.frame(nodes)
        A = (Uc.reshape(-1, n) @ Uz.conj().T).reshape(Uc.shape)   # M in adapted frames
        # the normal weight on the nu part of M, the tangential weight on the
        # tau block
        body_ad = nu_const * (P ** (1 - n))[:, None, None] * A
        body_ad[:, : n - 1, : n - 1] = (pref * s)[:, None, None] * A[:, : n - 1, : n - 1]
        body = np.einsum("cji,cjk,ka->cia", Uc.conj(), body_ad, Uz, optimize=True)
        gamma_part = gam_const * (pair.rho2 ** (1 - n))[:, None, None] * np.eye(n)[None]
        return body + gamma_part

    return ev


def batch_isotropic_model(model: DomainModel):
    """Scalar borderline isotropic kernel rho^-(2n-1), packed (nodes, 1, 1)."""

    def ev(nodes: np.ndarray, z: np.ndarray) -> np.ndarray:
        d = nodes - np.asarray(z, dtype=complex)[None, :]
        rho = np.sqrt(2.0 * np.sum(np.abs(d) ** 2, axis=1))
        return (rho ** (-(2 * model.n - 1)))[:, None, None].astype(complex)

    return ev


# -- seeded smooth test fields ---------------------------------------------------


class TestField:
    """Gaussian bump times affine polynomial frames, seeded; smoothness scale
    fixed well above the grid resolutions in use."""

    def __init__(self, model: DomainModel, q: int, seed: int, scale: float = 0.25,
                 margin: float = 0.4):
        rng = np.random.default_rng(seed)
        n = model.n
        center = rng.uniform(-margin / 2, margin / 2, 2 * n)
        self.c = center[0::2] + 1j * center[1::2]
        self.keys = anti_keys(n, q)
        self.coef = rng.standard_normal(len(self.keys)) \
            + 1j * rng.standard_normal(len(self.keys))
        self.lin = rng.standard_normal(2 * n) * 0.5
        self.scale = scale

    def batch(self, pts: np.ndarray) -> np.ndarray:
        d = np.atleast_2d(pts) - self.c[None, :]
        r2 = np.sum(np.abs(d) ** 2, axis=1)
        amp = np.exp(-r2 / (2 * self.scale ** 2))
        reals = np.concatenate([d.real, d.imag], axis=1)
        poly = 1.0 + reals @ self.lin
        return (amp * poly)[:, None] * self.coef[None, :]

    def __call__(self, zeta: np.ndarray) -> dict:
        row = self.batch(np.asarray(zeta, dtype=complex)[None, :])[0]
        return {k: row[j] for j, k in enumerate(self.keys)}


def random_test_field(model: DomainModel, q: int, seed: int, scale: float = 0.25,
                      margin: float = 0.4) -> TestField:
    return TestField(model, q, seed, scale, margin)


# -- ratio tables -----------------------------------------------------------------


class _FieldStack:
    """Fields with a batch method viewed as one: (points, nfields, ncomp)."""

    def __init__(self, fields):
        self.fields = fields

    def batch(self, pts: np.ndarray) -> np.ndarray:
        return np.stack([f.batch(pts) for f in self.fields], axis=1)


@dataclass
class RatioRow:
    resolution: int
    p: float
    s: float
    a: float
    b: float
    trial: int
    ratio: float


def ratio_table(model: DomainModel, kernel_name: str, q: int,
                a: float, b: float, p: float, s: float,
                trials: int, resolutions: list[int], seed: int = 11,
                n_targets: int = 32, admissible: bool | None = None,
                eps: float | None = None) -> dict:
    """Max weighted-norm ratios per resolution for seeded smooth fields.

    ||gamma^a K f||_(L^s, targets) / (||gamma^b f||_(L^p) + ||f||_(L^2)).
    Targets are drawn once and the exhaustion parameter is pinned to the
    coarsest grid, so the ratios compare like for like across refinements.
    """
    n = model.n
    cand = np.random.default_rng(seed).uniform(-0.45, 0.45, (TARGET_DRAWS, 2 * n))
    cand = cand[:, 0::2] + 1j * cand[:, 1::2]
    targets = cand[model.r(cand) < -0.3][:n_targets]
    if len(targets) < n_targets:
        raise QuadError(f"{model.name}: fewer than {n_targets} targets with r < -0.3 "
                        f"in {TARGET_DRAWS} draws from the box |Re|, |Im| < 0.45")
    if kernel_name == "E":
        batch = batch_isotropic_model(model)
        kq = 0
    elif kernel_name == "Nq":
        batch = batch_nq(model, q)
        kq = q
    else:
        raise QuadError(f"no vectorized kernel {kernel_name!r}")
    if eps is None:
        eps = 2.0 * (2.0 * GRID_BOX / min(resolutions))
    keys = anti_keys(n, kq)
    fields = [random_test_field(model, kq, seed=seed + 100 * trial)
              for trial in range(trials)]
    gam_t = model.gamma(targets)
    rows: list[RatioRow] = []
    for res in resolutions:
        h = 2.0 * GRID_BOX / res
        grid = make_grid(model, h, eps=eps)
        tw = np.full(len(targets), grid.total_volume() / len(targets))
        sampled = _FieldStack(fields).batch(grid.centers)
        kept, denoms = [], []
        for trial in range(trials):
            f = FormField(grid, kq, keys, sampled[:, trial])
            denom = weighted_lp_norm(f, b, p) + weighted_lp_norm(f, 0.0, 2)
            if denom >= 1e-14:
                kept.append(trial)
                denoms.append(denom)
        if not kept:
            continue
        # one kernel evaluation per target, contracted against every kept trial
        out = apply_kernel(None, _FieldStack([fields[t] for t in kept]), grid, targets,
                           kq, batch_eval=batch)
        vals = np.sqrt(np.sum(np.abs(out) ** 2, axis=2))
        for j, trial in enumerate(kept):
            num = norm_values(vals[:, j], gam_t, tw, a, s)
            rows.append(RatioRow(res, p, s, a, b, trial, num / denoms[j]))
    by_res = {}
    for r in rows:
        by_res.setdefault(r.resolution, []).append(r.ratio)
    summary = {res: max(v) for res, v in sorted(by_res.items())}
    meta = {"kernel": kernel_name, "domain": model.name, "n": n, "q": q,
            "p": p, "s": s, "a": a, "b": b, "seed": seed,
            "admissible": admissible, "max_ratio_by_resolution": summary}
    return {"rows": rows, "meta": meta}


# -- discrete adjointness ----------------------------------------------------------


def _field_forms(model: DomainModel, seed: int, q: int, scale: float = 0.28):
    """Compactly supported smooth (0,q) field with exact first derivatives."""
    rng = np.random.default_rng(seed)
    n = model.n
    keys = anti_keys(n, q)
    coef = rng.standard_normal(len(keys)) + 1j * rng.standard_normal(len(keys))
    R = 0.75

    def parts(zeta):
        zeta = np.asarray(zeta, dtype=complex)
        u = float(np.sum(np.abs(zeta) ** 2)) / R ** 2
        if u >= 1.0:
            return 0.0, np.zeros(n, dtype=complex), np.zeros(n, dtype=complex)
        amp = np.exp(-1.0 / (1.0 - u) + 1.0)
        du_dz = zeta.conj() / R ** 2
        du_dzb = zeta / R ** 2
        return amp, -amp / (1.0 - u) ** 2 * du_dz, -amp / (1.0 - u) ** 2 * du_dzb

    def value(zeta) -> DoubleForm:
        amp, _, _ = parts(zeta)
        return DoubleForm(model.n, {((), k, (), ()): coef[j] * amp
                                    for j, k in enumerate(keys)})

    def dbar(zeta) -> DoubleForm:
        _, _, dzb = parts(zeta)
        out = DoubleForm.zero(n)
        for j, k in enumerate(keys):
            for m in range(1, n + 1):
                mono = forms.wedge(DoubleForm.monomial(n, az=(m,)),
                                   DoubleForm.monomial(n, az=k))
                out = out + mono.scale(coef[j] * dzb[m - 1])
        return out

    def vartheta(zeta) -> DoubleForm:
        _, dz, _ = parts(zeta)
        dsv = DoubleForm.zero(n)
        for m in range(1, n + 1):
            comp = forms.hodge_star(
                DoubleForm(n, {((), k, (), ()): coef[j] * dz[m - 1]
                               for j, k in enumerate(keys)}), None, "zeta")
            dsv = dsv + forms.wedge(DoubleForm.monomial(n, hz=(m,)), comp)
        return forms.hodge_star(dsv, None, "zeta").scale(-1.0)

    return value, dbar, vartheta


def adjointness_residual(model: DomainModel, h: float, seed: int = 5) -> float:
    """|<dbar u, v> - <u, vartheta v>| / (||u|| ||v||) on one grid."""
    grid = make_grid(model, h)
    u_val, u_dbar, _ = _field_forms(model, seed, 0)
    v_val, _, v_vth = _field_forms(model, seed + 1, 1)
    ip1 = 0.0 + 0.0j
    ip2 = 0.0 + 0.0j
    nu = 0.0
    nv = 0.0
    for c in grid.centers:
        du = u_dbar(c)
        vv = v_val(c)
        uu = u_val(c)
        tv = v_vth(c)
        ip1 += forms.inner(du, vv)
        ip2 += forms.inner(uu, tv)
        nu += uu.norm() ** 2
        nv += vv.norm() ** 2
    vol = grid.cell_volume
    nu = np.sqrt(nu * vol)
    nv = np.sqrt(nv * vol)
    if nu * nv == 0:
        raise QuadError("degenerate test fields")
    return float(abs(ip1 - ip2) * vol / (nu * nv))
