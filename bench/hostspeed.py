"""Host speed during a timed region, for timing on a shared machine.

The benchmark's host is a few cores of a shared machine whose speed changes
by up to 40% over seconds to minutes, as neighbours load it.  Every time the
benchmark reports is therefore scaled to a fixed reference speed: while a
region is timed, a SIGALRM handler times a fixed probe every PERIOD_S
seconds of wall time, and

    scaled time = (raw time - time spent in the handler) * REFERENCE_PROBE_S / mean probe time

The probe does not touch hlkernels, so a change to the program moves the
scaled time exactly as it moves the raw time; a slow spell of the host moves
both the probe and the program, and cancels.  Python runs the handler
between bytecodes only, so during a long numpy call the pending samples
collapse into one taken when the call returns.
"""

from __future__ import annotations

import functools
import signal
import statistics
from time import perf_counter, process_time

PROBE_LOOP = 5_000
PROBE_DICT = 1_500
PROBE_BATCH = 2_000         # rows of the (rows, 3, 3) complex einsum operand
PROBE_SMALL = 400           # small-array numpy calls
# The probe's time at the reference speed: about its fastest on the host the
# baseline was measured on (2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4).
REFERENCE_PROBE_S = 4.0e-3
PERIOD_S = 0.2


@functools.cache
def _operands():
    # numpy is imported on first use, so that set-up time, measured before
    # any probe, still includes importing it.
    import numpy as np
    rng = np.random.default_rng(0)
    u = rng.standard_normal((PROBE_BATCH, 3, 3)) + 1j * rng.standard_normal((PROBE_BATCH, 3, 3))
    return np, u, u[0, 0], u[0]


def probe() -> float:
    """Wall time of fixed work of the kinds the workloads do: an integer
    loop, small tuple-keyed dict updates (as in the forms layer), a batched
    complex einsum over about 1 MB (as in quad's batched kernels) and, for
    most of the time, numpy calls on 3-element arrays (as in the domain
    and kernels layers)."""
    np, u, vec, mat = _operands()
    t = perf_counter()
    s = 0
    for i in range(PROBE_LOOP):
        s += i * i
    d: dict = {}
    for i in range(PROBE_DICT):
        k = (i & 63, (i >> 6) & 7)
        d[k] = d.get(k, 0.0) + i * 0.5
    np.einsum("cji,cjk->cik", u.conj(), u)
    acc = 0j
    for _ in range(PROBE_SMALL):
        w = mat @ vec
        acc += np.vdot(w, vec) + np.sum(np.abs(w) ** 2)
    return perf_counter() - t


class Sampler:
    """Context manager: samples the probe every PERIOD_S s while active.

    `handler_wall` and `handler_cpu` are the wall and CPU time spent in the
    handler, which callers subtract from their own timings.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.handler_wall = 0.0
        self.handler_cpu = 0.0
        self._previous = None

    def _handle(self, signum, frame):
        w, c = perf_counter(), process_time()
        self.samples.append(probe())
        self.handler_wall += perf_counter() - w
        self.handler_cpu += process_time() - c

    def sample_now(self, count: int) -> None:
        """Take `count` probes in a row (outside any timed span)."""
        for _ in range(count):
            self.samples.append(probe())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handle)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def slowdown(self) -> float:
        """Mean probe time over the reference probe time (> 1: host slower)."""
        if not self.samples:
            raise RuntimeError("no host-speed samples were taken")
        return statistics.fmean(self.samples) / REFERENCE_PROBE_S
