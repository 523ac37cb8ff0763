"""The benchmark's tracer finds every name it instruments, and the
benchmark's workloads call the package as it is.

`bench/tracer.py` patches hlkernels by name and reports per-pair latency for
evaluator ids it matches by pattern.  `bench/workloads.py` calls `verify`,
`quad` and `domain`.  A rename, a deletion or a dropped parameter in the
package that breaks `bench/run.py` fails here.  Only reads `bench/`.
"""

import ast
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from hlkernels import domain, forms, kernels, quad, verify

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACER_PATH = BENCH / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_instrumented_names_resolve(tracer):
    tables = [(forms, tracer.FORMS_FUNCTIONS), (kernels, tracer.KERNELS_HELPERS),
              (quad, tracer.QUAD_FUNCTIONS), (quad, tracer.QUAD_BATCH_BUILDERS),
              (domain, tracer.DOMAIN_FUNCTIONS)]
    missing = [f"{mod.__name__}.{name}" for mod, names in tables for name in names
               if not callable(getattr(mod, name, None))]
    assert missing == []
    nq = kernels.nq
    with tracer.instrumented(tracer.Tracer()):
        assert kernels.nq is not nq
    assert kernels.nq is nq


def test_pair_kernel_ids_match(tracer):
    nk = kernels.nq(domain.ball(3), 1)
    dn = kernels.kernel_derivative(nk, "dbar", "zeta")
    vt = kernels.kernel_vartheta_zeta(nk)
    assert tracer.PAIR_KERNELS["Nq"].fullmatch(nk.id)
    assert tracer.PAIR_KERNELS["dbar_Nq"].fullmatch(dn.id)
    assert tracer.PAIR_KERNELS["vartheta_Nq"].fullmatch(vt.id)


def test_workload_calls_bind_to_the_package():
    """Every `verify.`, `quad.` or `domain.` call in `bench/workloads.py`
    binds to the current signature, with its positional count and keywords."""
    modules = {"verify": verify, "quad": quad, "domain": domain}
    tree = ast.parse((BENCH / "workloads.py").read_text())
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and isinstance(node.func.value, ast.Name) and node.func.value.id in modules]
    assert len(calls) >= 5
    unbound = []
    for call in calls:
        assert not any(isinstance(a, ast.Starred) for a in call.args)
        assert all(k.arg is not None for k in call.keywords)
        name = f"{call.func.value.id}.{call.func.attr}"
        fn = getattr(modules[call.func.value.id], call.func.attr, None)
        try:
            inspect.signature(fn).bind(*[None] * len(call.args),
                                       **{k.arg: None for k in call.keywords})
        except (TypeError, ValueError) as e:
            unbound.append(f"line {call.lineno}: {name}: {e}")
    assert unbound == []


def test_traced_apply_kernel_binds_and_records_each_target(tracer):
    """The wrapper `_note_batch_targets` puts on `apply_kernel` calls it with
    the package's signature, returns what it returns, and sees every
    (batch evaluator, target) pair; so `--trace 1` runs the same operator."""
    tree = ast.parse(TRACER_PATH.read_text())
    note = next(node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
                and node.name == "_note_batch_targets")
    calls = [node for node in ast.walk(note) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "apply_kernel"]
    assert len(calls) == 1
    call = calls[0]
    assert not any(isinstance(a, ast.Starred) for a in call.args)
    inspect.signature(quad.apply_kernel).bind(*[None] * len(call.args),
                                              **{k.arg: None for k in call.keywords})
    model = domain.ball(2)
    grid = quad.make_grid(model, 0.3, eps=0.3)
    field = quad.random_test_field(model, 0, seed=1)
    batch = quad.batch_isotropic_model(model)
    targets = np.array([[0.05, -0.1j], [0.2j, 0.1]])
    t = tracer.Tracer()
    got = tracer._note_batch_targets(t, quad.apply_kernel)(None, field, grid, targets, 0,
                                                           batch_eval=batch)
    np.testing.assert_array_equal(
        got, quad.apply_kernel(None, field, grid, targets, 0, batch_eval=batch))
    assert len(t.batch_keys) == len(targets)


@pytest.mark.parametrize("build, model, ncomp", [
    (lambda m: quad.batch_nq(m, 1), domain.ball(3), 3),
    (quad.batch_isotropic_model, domain.ball(2), 1)], ids=["batch_nq", "isotropic"])
def test_batch_builders_return_node_major_arrays(build, model, ncomp):
    # the tracer counts K.shape[0] nodes and K.size * K.itemsize bytes
    nodes = quad.make_grid(model, 0.45, eps=0.3).centers[:5]
    K = build(model)(nodes, np.array([0.1j] + [0.05] * (model.n - 1)))
    assert isinstance(K, np.ndarray) and K.shape == (len(nodes), ncomp, ncomp)
    assert K.dtype == complex
