"""The benchmark's tracer finds every name it instruments.

`bench/tracer.py` patches hlkernels by name and reports per-pair latency for
evaluator ids it matches by pattern.  A rename or deletion in the package
that breaks `bench/run.py --trace 1` fails here.  Only reads `bench/`.
"""

import importlib.util
from pathlib import Path

import pytest

from hlkernels import domain, forms, kernels, quad

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


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
