"""Host-speed probes that turn measured seconds into reference seconds.

The reference machine is a 2-vCPU virtual machine whose cores are shared
with other tenants. Its speed swings by 20-30 % within seconds and drifts
by as much over minutes, and the swings reach retroq's numpy work as they
reach any other code of the same kind. So each timed interval is paired
with timings of a fixed block of work that does not touch retroq, taken
during or right around the interval, and

    reference seconds = measured seconds * NOMINAL[kind] / median(block times)

NOMINAL is each block's median time on the reference machine in a quiet
period. A retroq change moves the measured seconds and leaves the block
times alone, so it shows in full. Measured wall times are reported next to
the reference-scaled ones.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

# Median block times on the reference machine (seconds).
NOMINAL = {"batch2": 0.0072, "batch8": 0.0109, "scalar": 0.0056}

# The block kind whose work resembles each workload's.
KIND = {
    "qubit-ensembles": "batch2",  # (1000, 2, 2) stacks, like the d = 2 ensemble kernels
    "cavity-ensembles": "batch8",  # (512, 8, 8) stacks with eigh, like the d = 8 kernels
    "smoothing-thermo": "scalar",  # one 2x2 matrix at a time, like the per-step loops
}


class SpeedProbe:
    """Times a numpy block every PERIOD seconds while measured code runs.

    A SIGALRM handler runs the block in the main thread, between the
    bytecodes of whatever is being measured, and records when it started
    and how long it took.
    """

    PERIOD = 0.1

    def __init__(self, kind):
        import numpy as np

        self.np = np
        self.kind = kind
        g = np.random.default_rng(0)
        size = {"batch2": (1000, 2), "batch8": (512, 8), "scalar": (1, 2)}[kind]
        a = g.normal(size=(size[0], size[1], size[1])) + 1j * g.normal(size=(size[0], size[1], size[1]))
        self.stack = a + a.conj().transpose(0, 2, 1)
        self.samples = []  # (start, seconds) of each block

    def block(self) -> float:
        """Time one fixed block of numpy work of this probe's kind."""
        np = self.np
        x0 = self.stack
        t0 = time.perf_counter()
        if self.kind == "scalar":
            r = m = x0[0]
            for _ in range(300):
                r = 0.5 * (r @ m + r.conj().T) / (1.0 + np.trace(r).real ** 2)
                r = r / (1.0 + np.linalg.eigvalsh(r).max())
        else:
            x = x0
            for _ in range(5 if self.kind == "batch2" else 1):
                w, v = np.linalg.eigh(x)
                y = (v * np.clip(w, 0.0, None)[:, None, :]) @ v.conj().transpose(0, 2, 1)
                tr = np.einsum("nii->n", y).real
                x = 0.5 * (x0 + y / (1.0 + tr[:, None, None]))
        return time.perf_counter() - t0

    def _tick(self, signum, frame):
        self.samples.append((time.perf_counter(), self.block()))

    @contextlib.contextmanager
    def active(self):
        """Sample the block every PERIOD seconds inside the with-block."""
        self.samples = []
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def seconds(self, intervals):
        """(wall, reference) seconds of intervals timed under the last `active`.

        Probe time inside an interval is subtracted from it. Each interval
        is scaled by the blocks timed inside it, or by all blocks when it
        was too short to hold one.
        """
        everything = [d for _, d in self.samples] or [self.block()]
        wall = ref = 0.0
        for a, b in intervals:
            inside = [d for t, d in self.samples if a <= t < b]
            own = b - a - sum(inside)
            wall += own
            ref += own * NOMINAL[self.kind] / statistics.median(inside or everything)
        return wall, ref


def nominal_medians(repeats=200) -> dict:
    """Median time of every block kind on this machine, for NOMINAL."""
    out = {}
    for kind in NOMINAL:
        p = SpeedProbe(kind)
        out[kind] = statistics.median(p.block() for _ in range(repeats))
    return out


if __name__ == "__main__":
    print({k: round(v, 5) for k, v in nominal_medians().items()})
