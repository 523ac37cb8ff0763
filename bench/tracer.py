"""In-memory span tracer that instruments hlkernels from the outside.

`instrumented(tracer)` patches the public entry points of the `forms`,
`domain`, `kernels`, `quad` and `verify` modules for the duration of a
`with` block and restores them afterwards; no file under `src/` changes.

* Module functions are replaced in every module namespace that binds them,
  so names imported with `from .forms import wedge` are reached as well as
  `forms.wedge`.
* `DomainModel` and `DoubleForm` methods are wrapped at class level.
* Every kernel builder in `kernels` (a function annotated to return a
  `KernelEvaluator`) is wrapped so that the evaluator it returns records one
  span per `eval` call.  Builders call each other through module globals, so
  nested evaluators are traced too.
* The closures returned by `quad.batch_nq` and `quad.batch_isotropic_model`
  are wrapped through their builders.

Each wrapped call appends one span (name, start, end, parent span, payload)
to flat arrays.  `Tracer.metrics` derives the per-layer metrics from them
after the run and `Tracer.save` writes them out.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import re
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

# forms: the algebra operations; tiny index helpers (merge_sign, perm_sign,
# complement, ...) are left inside their callers' self time.
FORMS_FUNCTIONS = (
    "wedge", "wedge_power", "conj_form", "swap_variables", "adjoint_value",
    "transform_slot", "change_frame_zeta", "change_frame_z", "to_coord",
    "hodge_star", "inner", "pair_pointwise", "restrict_boundary",
)
DOUBLEFORM_METHODS = (
    "copy", "is_zero", "__add__", "__sub__", "scale", "__mul__", "__rmul__",
    "bidegrees", "bidegree", "zeta_degree", "z_degree", "norm", "component",
    "filter_keys",
)
DOUBLEFORM_STATIC = ("zero", "scalar", "monomial")
DOMAIN_FUNCTIONS = ("make_domain", "ball", "pinched")
KERNELS_HELPERS = (
    "coefficient_a", "coefficient_c", "mixed_rho2_form", "lbar_rho2",
    "tau_nu_split", "neumann_tangential_scalar", "theta_coefficient",
)
QUAD_FUNCTIONS = (
    "make_grid", "field_from_function", "weighted_lp_norm", "norm_values",
    "_split_nodes", "apply_kernel", "pair_operator",
    "batch_frames", "random_test_field", "ratio_table", "adjointness_residual",
)
QUAD_BATCH_BUILDERS = ("batch_nq", "batch_isotropic_model")

# Top-level evaluator ids whose per-pair latency is reported.
PAIR_KERNELS = {
    "Nq": re.compile(r"Nq\[q=\d+\]"),
    "Tq": re.compile(r"Tq\[q=\d+\]"),
    "dbar_Nq": re.compile(r"dbar_z\[Nq\[q=\d+\]\]"),
    "vartheta_Nq": re.compile(r"vartheta\[Nq\[q=\d+\]\]"),
    "Tq_adj": re.compile(r"Tq\[q=\d+\]\*"),
}
EVAL_PREFIX = "kernels.eval:"


class Tracer:
    """Spans in flat arrays; parent is the index of the enclosing span or -1."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.payload = array("d")
        self._stack = [-1]
        self.doubleform_new = 0
        self.raised: dict[str, int] = {}
        self.batch_keys: set = set()
        self.batch_bytes = 0

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, payload=None):
        """Wrap fn so each call records one span; payload(result) -> float."""
        nid = self._intern(name)
        stack, name_id, parent = self._stack, self.name_id, self.parent
        start, end, pay = self.start, self.end, self.payload

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            pay.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.raised[name] = self.raised.get(name, 0) + 1
                raise
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if payload is not None:
                pay[idx] = payload(out)
            return out

        return traced

    # -- derived metrics ------------------------------------------------------

    def arrays(self):
        return (np.array(self.name_id, dtype=np.int32), np.array(self.parent, dtype=np.int32),
                np.array(self.start), np.array(self.end), np.array(self.payload))

    def metrics(self, traced_wall: float, untraced_wall: float) -> dict[str, float]:
        """Per-layer metrics; self time is span duration minus child spans."""
        nid, par, st, en, pay = self.arrays()
        dur = en - st
        child = np.zeros(len(dur))
        has_parent = par >= 0
        np.add.at(child, par[has_parent], dur[has_parent])
        self_t = dur - child
        layer_of_name = np.array([n.split(".", 1)[0] for n in self.names] + [""])
        span_layer = layer_of_name[nid]
        parent_layer = np.where(has_parent, span_layer[np.where(has_parent, par, 0)], "")

        def ids(*wanted):
            return [self._ids[w] for w in wanted if w in self._ids]

        def sel(*wanted):
            return np.isin(nid, ids(*wanted))

        def calls(*wanted):
            return int(np.count_nonzero(sel(*wanted)))

        def self_s(*wanted):
            return float(self_t[sel(*wanted)].sum())

        def total_s(*wanted):
            return float(dur[sel(*wanted)].sum())

        def layer_self(layer):
            return float(self_t[span_layer == layer].sum())

        eval_ids = {i: n[len(EVAL_PREFIX):] for i, n in enumerate(self.names)
                    if n.startswith(EVAL_PREFIX)}
        is_eval = np.isin(nid, list(eval_ids))
        top_eval = is_eval & (parent_layer == "verify")
        n_eval = int(np.count_nonzero(is_eval))
        n_top = int(np.count_nonzero(top_eval))

        m: dict[str, float] = {
            "forms.wedge.calls": calls("forms.wedge"),
            "forms.wedge.self_s": self_s("forms.wedge"),
            "forms.hodge_star.calls": calls("forms.hodge_star"),
            "forms.hodge_star.self_s": self_s("forms.hodge_star"),
            "forms.change_frame.calls": calls("forms.change_frame_zeta", "forms.change_frame_z"),
            "forms.change_frame.self_s": self_s("forms.change_frame_zeta", "forms.change_frame_z"),
            "forms.inner.calls": calls("forms.inner"),
            "forms.doubleform_new.count": self.doubleform_new,
            "forms.self_s": layer_self("forms"),
            "domain.phi.calls": calls("domain.phi"),
            "domain.rho2.calls": calls("domain.rho2"),
            "domain.big_p.calls": calls("domain.big_p"),
            "domain.gamma.calls": calls("domain.gamma"),
            "domain.frame.calls": calls("domain.frame"),
            "domain.jet.calls": calls("domain.jet"),
            "domain.self_s": layer_self("domain"),
            "kernels.eval.calls": n_eval,
            "kernels.eval.top_calls": n_top,
            "kernels.eval.useful_frac": n_top / n_eval if n_eval else 0.0,
            "kernels.errors": sum(v for k, v in self.raised.items() if k.startswith(EVAL_PREFIX)),
            "kernels.self_s": layer_self("kernels"),
        }
        for label, pattern in PAIR_KERNELS.items():
            matching = [i for i, kid in eval_ids.items() if pattern.fullmatch(kid)]
            durs = dur[top_eval & np.isin(nid, matching)]
            m[f"kernels.{label}.pair_ms"] = float(np.median(durs) * 1e3) if len(durs) else 0.0
        batch = sel("quad.batch_eval")
        n_batch = int(np.count_nonzero(batch))
        grids = sel("quad.make_grid")
        adj = sel("quad.adjointness_residual")
        adj_s = float(dur[adj].sum())
        in_adj = has_parent & np.isin(par, np.flatnonzero(adj))
        adj_cells = float(pay[grids & in_adj].sum())
        m.update({
            "quad.apply_kernel.calls": calls("quad.apply_kernel"),
            "quad.apply_kernel.self_s": self_s("quad.apply_kernel"),
            "quad.batch_eval.calls": n_batch,
            "quad.batch_eval.self_s": self_s("quad.batch_eval"),
            "quad.batch_eval.nodes": int(pay[batch].sum()),
            "quad.kernel_reuse": len(self.batch_keys) / n_batch if n_batch else 0.0,
            "quad.kernel_bytes_computed": self.batch_bytes,
            "quad.make_grid.s": total_s("quad.make_grid"),
            "quad.grid_cells": int(pay[grids].sum()),
            "quad.adjointness_residual.s": adj_s,
            "quad.adjointness.cells_per_s": adj_cells / adj_s if adj_s > 0 else 0.0,
            "quad.self_s": layer_self("quad"),
            "verify.suite.nkern.s": total_s("verify.suite_nkern"),
            "verify.suite.dgh.s": total_s("verify.suite_dgh"),
            "verify.slope_fit.calls": calls("verify.slope_fit"),
            "verify.self_s": layer_self("verify"),
            "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
            "trace.unaccounted_frac": (traced_wall - float(dur[~has_parent].sum())) / traced_wall,
            "trace.spans": len(dur),
        })
        return m

    def save(self, path: Path) -> None:
        """Write every span: names table plus one row per span."""
        nid, par, st, en, _ = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = st.min() if len(st) else 0.0
        np.savez_compressed(path, names=np.array(self.names), name_id=nid, parent=par,
                            start=st - t0, end=en - t0)


# -- instrumentation -----------------------------------------------------------------


class _Patcher:
    """Replaces attributes and remembers the originals for restore()."""

    def __init__(self, modules):
        self.modules = modules
        self.saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr, value):
        self.saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def rebind(self, original, replacement):
        """Replace every module-level binding (and dict entry) of original."""
        found = False
        for mod in self.modules:
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self.set(mod, attr, replacement)
                    found = True
                elif isinstance(val, dict):
                    for key, item in list(val.items()):
                        if item is original:
                            self.saved.append((val, key, item))
                            val[key] = replacement
        if not found:
            raise RuntimeError(f"{original.__qualname__} is bound nowhere")

    def restore(self):
        for owner, attr, value in reversed(self.saved):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self.saved.clear()


def _kernel_builders(kernels):
    return [name for name, fn in vars(kernels).items()
            if inspect.isfunction(fn) and fn.__module__ == kernels.__name__
            and fn.__annotations__.get("return") == "KernelEvaluator"]


@contextmanager
def instrumented(tracer: Tracer):
    """Patch hlkernels so every traced call records into tracer."""
    from hlkernels import cli, domain, forms, kernels, quad, typecalc, verify, zalg

    patch = _Patcher((forms, domain, kernels, quad, verify, typecalc, zalg, cli))
    try:
        for name in FORMS_FUNCTIONS:
            fn = getattr(forms, name)
            patch.rebind(fn, tracer.wrap(fn, f"forms.{name}"))
        DoubleForm = forms.DoubleForm
        for name in DOUBLEFORM_METHODS:
            patch.set(DoubleForm, name, tracer.wrap(DoubleForm.__dict__[name], f"forms.{name}"))
        for name in DOUBLEFORM_STATIC:
            fn = DoubleForm.__dict__[name].__func__
            patch.set(DoubleForm, name, staticmethod(tracer.wrap(fn, f"forms.{name}")))
        init = DoubleForm.__init__

        @functools.wraps(init)
        def counted_init(self, *args, **kwargs):
            tracer.doubleform_new += 1
            init(self, *args, **kwargs)

        patch.set(DoubleForm, "__init__", counted_init)

        for name, fn in list(vars(domain.DomainModel).items()):
            if inspect.isfunction(fn) and not name.startswith("_"):
                patch.set(domain.DomainModel, name, tracer.wrap(fn, f"domain.{name}"))
        for name in DOMAIN_FUNCTIONS:
            fn = getattr(domain, name)
            patch.rebind(fn, tracer.wrap(fn, f"domain.{name}"))

        for name in KERNELS_HELPERS:
            fn = getattr(kernels, name)
            patch.rebind(fn, tracer.wrap(fn, f"kernels.{name}"))
        for name in _kernel_builders(kernels):
            fn = getattr(kernels, name)
            patch.rebind(fn, _traced_builder(tracer, fn))

        for name in QUAD_FUNCTIONS:
            fn = getattr(quad, name)
            payload = (len if name == "make_grid" else None)
            wrapped = tracer.wrap(fn, f"quad.{name}", payload)
            if name == "apply_kernel":
                wrapped = _note_batch_targets(tracer, wrapped)
            patch.rebind(fn, wrapped)
        for name in QUAD_BATCH_BUILDERS:
            fn = getattr(quad, name)
            patch.rebind(fn, _traced_batch_builder(tracer, fn, name))

        for name, fn in list(vars(verify).items()):
            if inspect.isfunction(fn) and fn.__module__ == verify.__name__:
                patch.rebind(fn, tracer.wrap(fn, f"verify.{name}"))
        patch.set(verify.PathSpec, "pairs",
                  tracer.wrap(verify.PathSpec.__dict__["pairs"], "verify.PathSpec.pairs"))
        yield tracer
    finally:
        patch.restore()


def _traced_builder(tracer: Tracer, builder):
    @functools.wraps(builder)
    def build(*args, **kwargs):
        kern = builder(*args, **kwargs)
        return dataclasses.replace(kern, eval=tracer.wrap(kern.eval, EVAL_PREFIX + kern.id))

    return build


def _traced_batch_builder(tracer: Tracer, builder, name: str):
    @functools.wraps(builder)
    def build(*args, **kwargs):
        ev = builder(*args, **kwargs)

        def count(K):
            tracer.batch_bytes += K.size * K.itemsize
            return K.shape[0]

        traced = tracer.wrap(ev, "quad.batch_eval", count)
        model = args[0]
        traced.bench_label = (name, model.name, model.n, repr(args[1:]))
        return traced

    return build


def _note_batch_targets(tracer: Tracer, apply_kernel):
    """Record the distinct (kernel, grid, target) triples given to batch_eval."""

    @functools.wraps(apply_kernel)
    def apply(kernel, f_func, grid, targets, q, batch_eval=None):
        if batch_eval is not None:
            label = getattr(batch_eval, "bench_label", id(batch_eval))
            for z in np.asarray(targets, dtype=complex):
                tracer.batch_keys.add((label, grid.h, grid.eps, z.tobytes()))
        return apply_kernel(kernel, f_func, grid, targets, q, batch_eval=batch_eval)

    return apply
