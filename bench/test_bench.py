"""Tests for the benchmark itself (not part of the tier-1 suite).

    PYTHONPATH=src python3 -m pytest bench/test_bench.py -q

The workloads run here on reduced inputs so the file finishes in about a
minute; the properties tested do not depend on input size.
"""

from __future__ import annotations

import copy
import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "KERNEL_PATH_SUITES": (("nkern", "ball", 3, 1), ("dgh", "ball", 3, 1)),
    "ADJOINTNESS_MESHES": (6,),
    "RATIO_TABLES": (("Nq", 3, 1, 15.0, 2.0, (6,)), ("E", 2, 0, 0.0, 0.0, (8,))),
    "RATIO_TRIALS": 2,
}
LAYER_SELF = ("forms.self_s", "domain.self_s", "kernels.self_s", "quad.self_s",
              "verify.self_s")


def test_instrumentation_reaches_every_binding_and_is_removed_on_exit():
    from hlkernels import domain, forms, kernels, quad, verify
    bindings = [(kernels, "wedge"), (kernels, "wedge_power"), (kernels, "conj_form"),
                (forms, "wedge"), (kernels, "nq"), (kernels, "tq"), (quad, "batch_nq"),
                (verify, "make_domain"), (domain.DomainModel, "phi")]
    before = [getattr(owner, name) for owner, name in bindings]
    suite = verify.SUITES["nkern"]
    with tracing.instrumented(tracing.Tracer()):
        for (owner, name), orig in zip(bindings, before):
            assert getattr(owner, name) is not orig, name
        assert verify.SUITES["nkern"] is not suite
    assert [getattr(owner, name) for owner, name in bindings] == before
    assert verify.SUITES["nkern"] is suite


class TestTracedRuns:
    """Reduced inputs; the workload constants are restored after the class."""

    @pytest.fixture(scope="class")
    def small_runs(self):
        """Per workload: one untraced and two traced passes on reduced inputs."""
        saved = {k: getattr(workloads, k) for k in SMALL}
        for k, v in SMALL.items():
            setattr(workloads, k, v)
        try:
            models = workloads.build_models()
            runs = {}
            for name, wl in workloads.WORKLOADS.items():
                plain = wl.run(models, 3)
                traced = []
                for _ in range(2):
                    tr = tracing.Tracer()
                    with tracing.instrumented(tr):
                        t0 = perf_counter()
                        out = wl.run(models, 3)
                        wall = perf_counter() - t0
                    traced.append((out, tr.metrics(wall, wall), wall))
                runs[name] = (plain, traced)
            yield runs
        finally:
            for k, v in saved.items():
                setattr(workloads, k, v)

    @pytest.mark.parametrize("name", list(workloads.WORKLOADS))
    def test_traced_outputs_are_bit_identical(self, small_runs, name):
        plain, traced = small_runs[name]
        for out, _, _ in traced:
            assert json.dumps(out) == json.dumps(plain)

    @pytest.mark.parametrize("name", list(workloads.WORKLOADS))
    def test_counts_repeat_exactly(self, small_runs, name):
        (_, m1, _), (_, m2, _) = small_runs[name][1]
        counts = [k for k in m1 if k.endswith((".calls", ".count", "_calls", ".nodes",
                                               "grid_cells", "bytes_computed", "trace.spans"))]
        assert len(counts) > 15
        assert {k: m1[k] for k in counts} == {k: m2[k] for k in counts}

    @pytest.mark.parametrize("name", list(workloads.WORKLOADS))
    def test_layer_self_times_add_up_to_wall(self, small_runs, name):
        for _, m, wall in small_runs[name][1]:
            total = sum(m[k] for k in LAYER_SELF) + m["trace.unaccounted_frac"] * wall
            assert total == pytest.approx(wall, rel=1e-9)
            assert 0.0 <= m["trace.unaccounted_frac"] < 0.05

    def test_workload_layers_are_where_expected(self, small_runs):
        kp = small_runs["kernel-paths"][1][0][1]
        assert kp["kernels.eval.top_calls"] > 0 and kp["quad.batch_eval.calls"] == 0
        assert kp["kernels.eval.useful_frac"] < 0.01
        adj = small_runs["adjointness-grid"][1][0][1]
        assert adj["forms.inner.calls"] > 0 and adj["kernels.eval.calls"] == 0
        assert adj["domain.jet.calls"] == 0
        rt = small_runs["ratio-table"][1][0][1]
        assert rt["quad.batch_eval.calls"] == 2 * 32 * 2     # tables x targets x trials
        assert rt["quad.kernel_reuse"] == pytest.approx(1 / 2)
        assert rt["kernels.eval.calls"] == 0 and rt["forms.wedge.calls"] == 0


def test_sampler_probes_while_active_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    sampler = hostspeed.Sampler()
    sampler.sample_now(3)
    with sampler:
        t0 = perf_counter()
        while perf_counter() - t0 < 5 * hostspeed.PERIOD_S:
            sum(i * i for i in range(1000))
    assert len(sampler.samples) >= 3 + 3
    assert 0.0 < sampler.handler_wall < perf_counter() - t0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert sampler.slowdown() > 0.0
    with pytest.raises(RuntimeError):
        hostspeed.Sampler().slowdown()


def _reference(name, seed):
    return copy.deepcopy(workloads.load_reference()[name][str(seed)])


def test_reference_outputs_pass_their_own_check():
    refs = workloads.load_reference()
    for name, wl in workloads.WORKLOADS.items():
        assert sorted(refs[name]) == ["0", "11", "5"]
        for seed, out in refs[name].items():
            outcome = workloads.check(wl, out, int(seed), refs)
            assert outcome.failed == 0 and outcome.attempted > 0, outcome.notes


def test_flipped_verdict_fails():
    wl = workloads.WORKLOADS["kernel-paths"]
    out = _reference("kernel-paths", 0)
    out["nkern/ball/n3q1"]["verdicts"] = "PPPP"       # 3b would turn green
    outcome = workloads.check(wl, out, 0, workloads.load_reference())
    assert outcome.failed == 1


def test_unrecorded_seed_checks_invariants_only():
    wl = workloads.WORKLOADS["kernel-paths"]
    refs = workloads.load_reference()
    out = _reference("kernel-paths", 0)
    out["nkern/pinched/n3q1"]["verdicts"] = "PFFP"    # as seed 12 gives
    outcome = workloads.check(wl, out, 12, refs)
    assert outcome.failed == 0
    assert any("not counted" in note for note in outcome.notes)
    out["nkern/pinched/n3q1"]["slopes"][0] = float("nan")
    assert workloads.check(wl, out, 12, refs).failed == 1


def test_perturbed_ratio_fails():
    wl = workloads.WORKLOADS["ratio-table"]
    refs = workloads.load_reference()
    out = _reference("ratio-table", 11)
    out["Nq/ball/n3"]["max_ratio"]["8"] *= 1 + 1e-8
    assert workloads.check(wl, out, 11, refs).failed == 1
    out["Nq/ball/n3"]["max_ratio"]["8"] = float("nan")
    assert workloads.check(wl, out, 12, refs).failed == 1


def test_large_adjointness_residual_fails():
    wl = workloads.WORKLOADS["adjointness-grid"]
    out = _reference("adjointness-grid", 5)
    out["h=1/10"] = 1e-12
    assert workloads.check(wl, out, 5, workloads.load_reference()).failed == 1


def test_raising_suite_fails_every_line():
    wl = workloads.WORKLOADS["kernel-paths"]
    out = _reference("kernel-paths", 0)
    out["dgh/ball/n4q2"] = {"error": "KernelError: boom"}
    assert workloads.check(wl, out, 0, workloads.load_reference()).failed == 7


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "ratio-table",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
