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
