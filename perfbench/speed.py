"""Machine-speed probe for a shared, drifting CPU.

On the machine this benchmark was written on (2 vCPUs shared with other
tenants), the same fixed work takes up to twice as long from one minute to
the next, with no steal time reported, so the drift shows in process CPU
time as well as in wall time.  ``SpeedProbe`` measures that drift while a
workload runs: every ``interval`` seconds a SIGALRM handler runs a short
fixed kernel (complex matrix products, exp/log, a memory copy and a Python
loop, the ingredients of the program's own cost) and records how long it
took.  The kernel is part of the benchmark, not of the program, so a
change to the program moves the workload's time and not the probe's.

Each firing runs the kernel twice (the first run also refills the caches
the workload used).  A timed span is reported without the probe's own
time, each stretch between two firings scaled by ``REFERENCE_S / kernel
time`` of the firing that ends it: seconds at the reference speed.  This
follows speed changes inside a span, which one median over the span does
not: on 6 s spans it left 6 % spread where a median left 9 % and the raw
time 15 %.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Typical warm kernel time inside a workload on the 2-vCPU VM the benchmark
# was written on (Python 3.11, numpy 2.4, one BLAS thread); it sets only the
# scale of the reported seconds, which read as seconds at that speed.
REFERENCE_S = 0.004

_rng = np.random.default_rng(20161214)
_A = _rng.standard_normal((128, 8)) + 1j * _rng.standard_normal((128, 8))
_B_CONJ = (_rng.standard_normal((256, 8)) + 1j * _rng.standard_normal((256, 8))).conj()
_Y = _rng.uniform(0.5, 2.0, 480)
_BIG = _rng.standard_normal(1 << 18)
# Preallocated outputs: the probe adds no transient memory to the workload's
# peak resident size.
_PROD = np.empty((128, 256), dtype=complex)
_LN = np.empty((128, 256))
_Q = np.empty(480)
_ACC = np.empty(480)
_COPY = np.empty_like(_BIG)


def kernel() -> float:
    """One fixed unit of work (about 4 ms); returns its duration in seconds.

    Its parts mirror the program's own: a complex matrix product with a
    log-sum-exp (the MI kernel), a series recurrence over a few hundred
    points with a few small numpy calls per term (the Marcum Q window inside
    the quadrature), a memory copy and plain Python arithmetic."""
    t0 = time.perf_counter()
    for _ in range(3):
        np.einsum("jm,nm->jn", _A, _B_CONJ, out=_PROD)
        np.multiply(_PROD.real, -2.0, out=_LN)
        np.subtract(_LN, _LN.max(), out=_LN)
        np.exp(_LN, out=_LN)
        float(np.log(_LN.sum()))
        np.exp(-_Y, out=_Q)
        np.copyto(_ACC, _Q)
        for j in range(1, 120):
            np.multiply(_Q, _Y, out=_Q)
            np.divide(_Q, j, out=_Q)
            np.add(_ACC, _Q, out=_ACC)
        np.copyto(_COPY, _BIG)
        s = 0.0
        for i in range(1500):
            s += i * 0.5
    return time.perf_counter() - t0


def at_reference(raw_s: float) -> float:
    """``raw_s`` scaled by six kernel runs taken now (for spans too short to
    hold a probe firing)."""
    return raw_s * REFERENCE_S / statistics.median(kernel() for _ in range(6))


class SpeedProbe:
    """Samples machine speed on a timer while installed (``with`` block)."""

    def __init__(self, interval: float = 0.25):
        self.interval = interval
        # (start, first kernel s, second kernel s, handler s), in time order.
        self.firings: list[tuple[float, float, float, float]] = []
        self._inside = False

    def _handler(self, signum, frame):
        if self._inside:
            return
        self._inside = True
        try:
            t0 = time.perf_counter()
            first, second = kernel(), kernel()
            self.firings.append((t0, first, second, time.perf_counter() - t0))
        finally:
            self._inside = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mark(self) -> tuple[int, float]:
        return len(self.firings), time.perf_counter()

    def measure(self, since: tuple[int, float]) -> tuple[float, float]:
        """Seconds since ``since = mark()`` without the probe's own time:
        (raw, at the reference speed).  Each stretch between firings is
        scaled by the kernel time of the firing that ends it (the last
        stretch by the last firing)."""
        n0, edge = since
        end = time.perf_counter()
        fired = [f for f in self.firings[n0:] if f[0] < end]
        if not fired:
            return end - edge, at_reference(end - edge)
        raw = scaled = 0.0
        last = fired[-1]
        for start, first, second, busy in fired + [(end, last[1], last[2], 0.0)]:
            raw += start - edge
            scaled += (start - edge) * REFERENCE_S / (0.5 * (first + second))
            edge = start + busy
        return raw, scaled
