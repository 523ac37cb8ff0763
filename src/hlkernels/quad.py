"""Grids on interior exhaustions, weighted norms, and kernel application.

Quadrature is the midpoint rule with diagonal-cell exclusion plus one level
of local 2x refinement in the 3^(2n)-cell neighborhood of each target; the
kernels applied here have positive type, so no singularity subtraction is
needed and first-order quadrature suffices for the rate-based checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product

import numpy as np

from . import forms, kernels
from .domain import DomainModel
from .forms import DoubleForm, anti_keys
from .kernels import KernelError, KernelEvaluator


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

    @cached_property
    def subcell_offsets(self) -> np.ndarray:
        """(2^(2n), n) complex offsets of the 2x-refined subcell midpoints
        from their cell's center (read-only)."""
        offs = np.array(list(product((-self.h / 4, self.h / 4), repeat=2 * self.n)))
        offs = offs[:, 0::2] + 1j * offs[:, 1::2]
        offs.flags.writeable = False
        return offs

    @cached_property
    def subcell_inside(self) -> np.ndarray:
        """(ncells, 2^(2n)) mask of the subcells whose midpoint lies in
        r < -eps, built a chunk of cells at a time so the subcells'
        coordinates are never all held at once (read-only)."""
        offs = self.subcell_offsets
        inside = np.empty((len(self), len(offs)), dtype=bool)
        step = max(1, BLOCK_NODES // len(offs))
        for lo in range(0, len(self), step):
            sub = self.centers[lo:lo + step, None, :] + offs
            inside[lo:lo + step] = self.model.r(sub.reshape(-1, self.n)).reshape(
                -1, len(offs)) < -self.eps
        inside.flags.writeable = False
        return inside

    def total_volume(self) -> float:
        return self.cell_volume * len(self.centers)


GRID_BOX = 1.02     # half-width of the lattice box; both models fit in it
BLOCK_NODES = 4096  # nodes per block of batched kernel evaluation and contraction
TARGET_DRAWS = 10000  # candidate points drawn for the ratio-table targets


def make_grid(model: DomainModel, h: float, eps: float | None = None) -> Grid:
    """Deterministic lattice of cell midpoints inside D_eps (eps default 2h)."""
    if eps is None:
        eps = 2.0 * h
    if not (0 < h < np.inf and eps >= 0):    # also rejects NaN
        raise QuadError(f"make_grid needs finite h > 0 and eps >= 0; got h={h}, eps={eps}")
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
        raise QuadError(f"empty grid: no cell of {model.name}({n}) at h={h:g} "
                        f"lies in r < -eps, eps={eps:g}")
    det = float(np.real(np.linalg.det(model.levi_const)))
    vol = (2.0 ** n) * det * h ** (2 * n)
    return Grid(model, h, eps, centers, vol)


@dataclass
class FormField:
    """Per-cell values of a (0,q) form, packed over the index basis."""

    grid: Grid
    data: np.ndarray             # (ncells, ncomp) complex

    def norm_pointwise(self) -> np.ndarray:
        return np.sqrt(np.sum(np.abs(self.data) ** 2, axis=1))


def field_from_function(grid: Grid, func) -> FormField:
    """Sample a field, func.batch(points) -> (points, ncomp), at the cells."""
    return FormField(grid, func.batch(grid.centers))


def weighted_lp_norm(f: FormField, a: float, p: float) -> float:
    """(sum |gamma^a f|^p vol)^(1/p) with the pointwise metric norm; p=inf max."""
    if len(f.grid) == 0:
        raise QuadError("empty grid")
    return norm_values(f.norm_pointwise(), f.grid.gamma_values, f.grid.cell_volume, a, p)


def norm_values(values: np.ndarray, gammas: np.ndarray, vol: float,
                a: float, p: float) -> float:
    """(sum |gamma^a values|^p vol)^(1/p) of sampled pointwise norms, each
    sample carrying the volume vol; p=inf max."""
    if not p >= 1:                           # also rejects NaN
        raise QuadError("p must be >= 1")
    w = gammas ** a * values
    if p == np.inf:
        return float(np.max(w))
    return float((np.sum(w ** p) * vol) ** (1.0 / p))


# -- operator application -------------------------------------------------------


def _split_nodes(grid: Grid, z: np.ndarray):
    """Far cells plus locally 2x-refined subcells near one target, with the
    diagonal exclusion of subcells within h/2: the far-cell mask and the
    kept subcells.  Only the near-cell test and the exclusion depend on the
    target; the rest is cached on the grid."""
    h = grid.h
    reals = np.asarray(grid.centers, dtype=complex).view(float)  # Re z_1, Im z_1, ...
    inf_dist = np.max(np.abs(reals - z.view(float)), axis=1)
    near = inf_dist <= 1.5 * h
    cells, offs = np.nonzero(grid.subcell_inside[near])
    cells = np.flatnonzero(near)[cells]
    sub = grid.centers[cells] + grid.subcell_offsets[offs]
    # a subcell within h/2 of z has its cell's center within 3h/4 of z in
    # every coordinate, so only the cells nearer than h need the distance
    close = np.flatnonzero(inf_dist[cells] < h)
    keep = np.ones(len(sub), dtype=bool)
    keep[close] = np.linalg.norm(sub[close] - z, axis=1) >= h / 2
    return ~near, sub[keep]


def apply_kernel(kernel: KernelEvaluator | None, f_func, grid: Grid,
                 targets: np.ndarray, q: int,
                 batch_eval=None) -> np.ndarray:
    """Apply the integral operator of `kernel` to the (0,q) field f_func, at
    each target point.  The field is profiles times constant coefficients:
    f_func.profiles(points) is (points, m), real or complex, and
    f_func.coefficients is (..., m, ncomp), with (...) = () for one field
    and the field axis for a stack.  A field with only f_func.batch(points)
    -> (points, ncomp) is its ncomp components times identity coefficients.
    Returns (ntargets, ..., ncomp) output components in the conjugate z
    basis.  batch_eval returns the packed kernel coefficient array (nodes,
    ncomp_in, ncomp_out) for fixed z, which is only read; without it,
    `batch_kernel(kernel, q)`.  The kernel is evaluated once per target.
    One matrix product of profiles against kernel values gives the moments
    sum_i conj(p[i, m]) K[i, b, a], for the far cells at once and for the
    subcells a block of nodes at a time, so that only the kernel array spans
    all of a target's nodes; the two volumes, the conjugation and the
    coefficients then act on the small (m, b, a) sums."""
    if batch_eval is None:
        batch_eval = batch_kernel(kernel, q)
    profiles = f_func.profiles if hasattr(f_func, "profiles") else f_func.batch
    base = profiles(grid.centers)
    coef = getattr(f_func, "coefficients", np.eye(base.shape[1]))
    out = np.empty((len(targets),) + coef.shape[:-2] + coef.shape[-1:], dtype=complex)
    sub_vol = grid.cell_volume / 4 ** grid.n
    for ti, z in enumerate(np.asarray(targets, dtype=complex)):
        far, sub = _split_nodes(grid, z)
        far_rows = base[far]
        K = batch_eval(np.concatenate([grid.centers[far], sub]), z)
        k_far, k_sub = np.split(K.reshape(len(K), -1), [len(far_rows)])
        moments = grid.cell_volume * (far_rows.conj().T @ k_far)
        for lo in range(0, len(sub), BLOCK_NODES):
            rows = profiles(sub[lo:lo + BLOCK_NODES])
            moments += sub_vol * (rows.conj().T @ k_sub[lo:lo + BLOCK_NODES])
        out[ti] = np.tensordot(coef, moments.conj().reshape(-1, *K.shape[1:]), 2)
    return out


def pair_operator(kernel: KernelEvaluator, f_func, grid: Grid, z: np.ndarray,
                  q: int) -> DoubleForm:
    """Single-target quadrature of the kernel pairing; 0 on type mismatch,
    which the zeta degree of one kernel value tells."""
    z = np.asarray(z, dtype=complex)
    if not grid.model.in_domain(z):
        raise QuadError("target outside the domain")
    if kernel.eval(grid.centers[0], z).zeta_degree() != (0, q):
        return DoubleForm.zero(grid.n)
    vals = apply_kernel(kernel, f_func, grid, z[None, :], q)[0]
    return DoubleForm(grid.n, {((), (), (), k): v for k, v in zip(anti_keys(grid.n, q), vals)})


# -- vectorized kernels ---------------------------------------------------------


def batch_frames(model: DomainModel, pts: np.ndarray) -> np.ndarray:
    """Coframes at the rows of pts, (P, n, n): `DomainModel.frame`.  Kept
    under this name only because the benchmark's tracer looks it up."""
    return model.frame(pts)


def batch_kernel(kernel: KernelEvaluator, q: int):
    """The kernel's packed coefficient array (nodes, C(n,q), C(n,q)) for
    fixed z, from `KernelEvaluator.rows` in blocks of nodes so its
    temporaries have one size whatever the number of nodes.  A kernel with
    packed rows of degree q hands its arrays over as they are; other values
    are packed by `kernels.packed_coefficients`, QuadError where they do not
    pack."""
    ncomp = len(anti_keys(kernel.n, q))
    if kernel.packed_q == q:
        rows = kernel.zeta_rows
    else:
        def rows(nodes, z):
            values = kernel.rows(nodes, z)
            try:
                return [kernels.packed_coefficients(v, q) for v in values]
            except KernelError as e:
                raise QuadError(f"{kernel.id}: {e}") from None

    def ev(nodes: np.ndarray, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        out = np.empty((len(nodes), ncomp, ncomp), dtype=complex)
        for lo in range(0, len(nodes), BLOCK_NODES):
            out[lo:lo + BLOCK_NODES] = rows(nodes[lo:lo + BLOCK_NODES], z)
        return out

    return ev


def batch_nq(model: DomainModel, q: int):
    """Principal Neumann kernel `kernels.nq_rows`, packed (nodes, B, A) with
    the coefficient of dzetabar^B ^ dz^A: `batch_kernel` of `kernels.nq`."""
    return batch_kernel(kernels.nq(model, q), q)


def batch_isotropic_model(model: DomainModel):
    """Scalar borderline isotropic kernel rho^-(2n-1), packed (nodes, 1, 1)."""

    def ev(nodes: np.ndarray, z: np.ndarray) -> np.ndarray:
        rho = np.sqrt(model.rho2(nodes, z))
        return (rho ** (1 - 2 * model.n))[:, None, None].astype(complex)

    return ev


# -- seeded smooth test fields ---------------------------------------------------

FIELD_SCALE = 0.25   # Gaussian width of a test field
FIELD_MARGIN = 0.4   # test-field centres lie in the box |Re|, |Im| <= FIELD_MARGIN / 2


class TestField:
    """Gaussian bump times affine polynomial frames, seeded; smoothness scale
    fixed well above the grid resolutions in use."""

    def __init__(self, model: DomainModel, q: int, seed: int):
        rng = np.random.default_rng(seed)
        n = model.n
        center = rng.uniform(-FIELD_MARGIN / 2, FIELD_MARGIN / 2, 2 * n)
        self.c = center[0::2] + 1j * center[1::2]
        ncomp = len(anti_keys(n, q))
        self.coef = rng.standard_normal(ncomp) + 1j * rng.standard_normal(ncomp)
        self.lin = rng.standard_normal(2 * n) * 0.5
        self.coefficients = self.coef[None, :]   # the field is its one profile times coef

    def profiles(self, pts: np.ndarray) -> np.ndarray:
        return _sample_profiles(np.atleast_2d(pts), [self])

    def batch(self, pts: np.ndarray) -> np.ndarray:
        return self.profiles(pts) * self.coef


def _sample_profiles(pts: np.ndarray, fields) -> np.ndarray:
    """The real profiles of the test fields at the rows of pts, (points,
    nfields): the Gaussian of |x-c|^2 = |x|^2 - 2 x.c + |c|^2 times
    1 + (x-c).lin, with x and c in real coordinates (Re part, then Im part),
    from one matrix product against the stacked centers and lin."""
    x = np.concatenate([pts.real, pts.imag], axis=1)
    c = np.array([np.concatenate([f.c.real, f.c.imag]) for f in fields])
    lin = np.array([f.lin for f in fields])
    xc, xl = np.hsplit(x @ np.concatenate([c, lin]).T, 2)
    r2 = np.sum(x ** 2, axis=1)[:, None] - 2.0 * xc + np.sum(c ** 2, axis=1)
    return np.exp(-r2 / (2 * FIELD_SCALE ** 2)) * (1.0 + xl - np.sum(c * lin, axis=1))


def random_test_field(model: DomainModel, q: int, seed: int) -> TestField:
    return TestField(model, q, seed)


# -- ratio tables -----------------------------------------------------------------


class _FieldStack:
    """Test fields as one stack, for `apply_kernel`: their profiles
    (points, nfields) and coefficients (nfields, nfields, ncomp), where field
    j is profile j times its coef."""

    def __init__(self, fields):
        self.fields = fields
        self.coefficients = np.eye(len(fields))[:, :, None] * [f.coef for f in fields]

    def profiles(self, pts: np.ndarray) -> np.ndarray:
        return _sample_profiles(pts, self.fields)


# name -> (batch evaluator of (model, q), degree of its field, descriptors of
# (typecalc, n, q)).  Builders are looked up at each call, so a wrapper bound to
# them runs; typecalc is passed in, so importing quad does not import it.
RATIO_KERNELS = {
    "E": (lambda model, q: batch_isotropic_model(model), lambda q: 0,
          lambda tc, n, q: [tc.dbar_gamma0q_descriptor(n, q)]),
    "Nq": (lambda model, q: batch_nq(model, q), lambda q: q,
           lambda tc, n, q: [*tc.neumann_main_terms(n, q), *tc.neumann_ratio_terms(n, q),
                             tc.neumann_nu_term(n, q)]),
}


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
                n_targets: int = 32, eps: float | None = None) -> dict:
    """Max weighted-norm ratios per resolution for seeded smooth fields.

    ||gamma^a K f||_(L^s, targets) / (||gamma^b f||_(L^p) + ||f||_(L^2)).
    Targets are drawn once and the exhaustion parameter is pinned to the
    coarsest grid, so the ratios compare like for like across refinements.
    s is admissible when 1/s (s as a fraction with denominator at most 1000)
    exceeds the kernel's threshold.
    """
    if kernel_name not in RATIO_KERNELS:
        raise QuadError(f"no vectorized kernel {kernel_name!r}")
    n = model.n
    cand = np.random.default_rng(seed).uniform(-0.45, 0.45, (TARGET_DRAWS, 2 * n))
    cand = cand[:, 0::2] + 1j * cand[:, 1::2]
    targets = cand[model.r(cand) < -0.3][:n_targets]
    if len(targets) < n_targets:
        raise QuadError(f"{model.name}: fewer than {n_targets} targets with r < -0.3 "
                        f"in {TARGET_DRAWS} draws from the box |Re|, |Im| < 0.45")
    build, degree, descriptors = RATIO_KERNELS[kernel_name]
    batch, kq = build(model, q), degree(q)
    if eps is None:
        eps = 2.0 * (2.0 * GRID_BOX / min(resolutions))
    fields = [random_test_field(model, kq, seed=seed + 100 * trial)
              for trial in range(trials)]
    coefs = np.array([f.coef for f in fields])
    gam_t = model.gamma(targets)
    rows: list[RatioRow] = []
    summary = {}
    for res in resolutions:
        h = 2.0 * GRID_BOX / res
        grid = make_grid(model, h, eps=eps)
        tw = grid.total_volume() / len(targets)
        prof = _sample_profiles(grid.centers, fields)
        pointwise = np.sqrt(np.sum(np.abs(prof[:, :, None] * coefs) ** 2, axis=2))
        kept, denoms = [], []
        for trial, vals in enumerate(pointwise.T):
            denom = (norm_values(vals, grid.gamma_values, grid.cell_volume, b, p)
                     + norm_values(vals, grid.gamma_values, grid.cell_volume, 0.0, 2))
            if denom >= 1e-14:
                kept.append(trial)
                denoms.append(denom)
        if not kept:
            continue
        # one kernel evaluation per target, contracted against every kept trial
        out = apply_kernel(None, _FieldStack([fields[t] for t in kept]), grid, targets,
                           kq, batch_eval=batch)
        vals = np.sqrt(np.sum(np.abs(out) ** 2, axis=2))
        ratios = [norm_values(vals[:, j], gam_t, tw, a, s) / denoms[j]
                  for j in range(len(kept))]
        rows += [RatioRow(res, p, s, a, b, t, r) for t, r in zip(kept, ratios)]
        summary[res] = max(ratios)
    from . import typecalc, zalg     # only the threshold needs them
    inv_s = 0 if s == np.inf else 1 / Fraction(s).limit_denominator(1000)
    meta = {"kernel": kernel_name, "domain": model.name, "n": n, "q": q,
            "p": p, "s": s, "a": a, "b": b, "seed": seed,
            "admissible": inv_s > zalg.type_threshold(descriptors(typecalc, n, q), p, n),
            "max_ratio_by_resolution": dict(sorted(summary.items()))}
    return {"rows": rows, "meta": meta}


# -- discrete adjointness ----------------------------------------------------------


def _field_forms(model: DomainModel, seed: int, q: int):
    """Compactly supported smooth (0,q) field b(zeta) F with exact first
    derivatives: the constant form F, the fixed forms dzetabar_k ^ F and
    -*(dzeta_k ^ *F), and the bump's parts(zeta) = (b, db/dzeta_k,
    db/dzetabar_k) on points of shape (..., n).  The field's dbar is
    sum_k db/dzetabar_k dzetabar_k ^ F, and its vartheta = -*d*, as
    `kernels.kernel_vartheta_zeta` assembles it, is
    sum_k db/dzeta_k (-*(dzeta_k ^ *F))."""
    rng = np.random.default_rng(seed)
    n = model.n
    keys = anti_keys(n, q)
    coef = rng.standard_normal(len(keys)) + 1j * rng.standard_normal(len(keys))
    R = 0.75
    F = DoubleForm(n, {((), k, (), ()): c for k, c in zip(keys, coef)})
    star_f = forms.hodge_star(F, "zeta")
    dbar_f = [forms.wedge(DoubleForm.monomial(n, az=(k,)), F) for k in range(1, n + 1)]
    vartheta_f = [forms.hodge_star(forms.wedge(DoubleForm.monomial(n, hz=(k,)), star_f),
                                   "zeta").scale(-1.0) for k in range(1, n + 1)]

    def parts(zeta):
        zeta = np.asarray(zeta, dtype=complex)
        u = np.sum(np.abs(zeta) ** 2, axis=-1) / R ** 2
        inside = u < 1.0
        w = np.where(inside, 1.0 - u, 1.0)      # keeps 1 / w finite off the support
        amp = np.where(inside, np.exp(-1.0 / w + 1.0), 0.0)
        damp_du = (-amp / w ** 2)[..., None]

        def grad(du):                           # exact zeros off the support
            return np.where(inside[..., None], damp_du * du, 0.0)

        return amp[()], grad(zeta.conj() / R ** 2), grad(zeta / R ** 2)

    return F, dbar_f, vartheta_f, parts


def _combination(fixed: list[DoubleForm], weights) -> DoubleForm:
    """sum_k weights[k] fixed[k], summed in k order."""
    out = DoubleForm.zero(fixed[0].n)
    for f, w in zip(fixed, weights):
        out = out + f.scale(w)
    return out


def adjointness_residual(model: DomainModel, h: float, seed: int = 5) -> float:
    """|<dbar u, v> - <u, vartheta v>| / (||u|| ||v||) on one grid.

    Both bumps are evaluated at every cell at once; the forms are built and
    summed, in cell order, only where a bump is nonzero, since every other
    cell adds exactly 0."""
    grid = make_grid(model, h)
    u, u_dbar, _, u_parts = _field_forms(model, seed, 0)
    v, _, v_vartheta, v_parts = _field_forms(model, seed + 1, 1)
    u_amp, _, u_dzb = u_parts(grid.centers)
    v_amp, v_dz, _ = v_parts(grid.centers)
    ip1 = ip2 = 0.0 + 0.0j
    nu = nv = 0.0
    for i in np.flatnonzero((u_amp != 0) | (v_amp != 0)):
        uu, vv = u.scale(u_amp[i]), v.scale(v_amp[i])
        ip1 += forms.inner(_combination(u_dbar, u_dzb[i]), vv)
        ip2 += forms.inner(uu, _combination(v_vartheta, v_dz[i]))
        nu += uu.norm() ** 2
        nv += vv.norm() ** 2
    vol = grid.cell_volume
    nu, nv = np.sqrt(nu * vol), np.sqrt(nv * vol)
    if nu * nv == 0:
        raise QuadError("degenerate test fields")
    return float(abs(ip1 - ip2) * vol / (nu * nv))
