"""Machine-speed references for the benchmark's time metrics.

On a shared machine the speed of a vCPU changes from one second to the
next (slow spells run every job type 1.5-1.8x slower alike), which moves
raw wall times far more than the program does. A clock here times a fixed
piece of work that does not touch schurmaps; the run loop samples it
between jobs, and a job's wall time is scaled by
``REF / (median sample time around that job)``: the time the job would
take on a machine where the reference work takes ``REF``. One sample jumps
by up to 2x from the next, so a factor always comes from the median of
many samples. ``REF`` is the work's time on a calm 2-vCPU x86-64 machine,
so the scaled figures read as seconds or milliseconds there.

Two kinds of work need two references:

* ``KernelClock`` for work inside the benchmark process: a small LAPACK
  ``eigh``, a complex matmul, an ``einsum``, a bytecode loop and a few
  numpy calls on tiny arrays, the mix the library's calls are made of.
* ``ProcessClock`` for fresh processes (set-up children, CLI jobs): a
  fresh ``python3 -c "import numpy"``, which starts the interpreter and
  loads numpy as those processes do, but imports no schurmaps code. A
  kernel timed in the parent just after a child has run reads slow and
  jumpy, so it does not track them.
"""

import statistics
import subprocess
import sys
import time

import numpy as np


class Clock:
    """Samples of one reference; ``REF`` is its time on the calm machine and
    ``EVERY_S`` the gap between samples in a run."""

    REF = EVERY_S = None

    def __init__(self):
        self.samples = []

    def sample(self):
        """Time the reference once; keep and return the time in seconds."""
        t0 = time.perf_counter()
        self.run_once()
        elapsed = time.perf_counter() - t0
        self.samples.append(elapsed)
        return elapsed

    @classmethod
    def scale(cls, samples):
        """Factor from wall time to reference time for work done while the
        reference took ``samples`` (seconds)."""
        return cls.REF / statistics.median(samples)


class KernelClock(Clock):
    REF = 2.3e-3
    EVERY_S = 0.05
    REPS = 25

    def __init__(self):
        super().__init__()
        rng = np.random.default_rng(0)
        self.a = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
        self.h = (self.a + self.a.conj().T)[:16, :16]
        self.v = self.a[:6, :6].copy()
        self.run_once()  # warm-up, so the first kept sample is not a cold one

    def run_once(self):
        a, h, v = self.a, self.h, self.v
        for _ in range(self.REPS):
            np.linalg.eigh(h)
            a @ a
            np.einsum("ij,jk->ik", v, v)
            acc = 0
            for i in range(300):
                acc += i * i
            np.abs(v).sum()
            np.trace(v).real


class ProcessClock(Clock):
    REF = 0.11
    EVERY_S = 1.5

    def __init__(self, env, cwd):
        super().__init__()
        self.argv = [sys.executable, "-c", "import numpy"]
        self.env, self.cwd = env, cwd

    def run_once(self):
        if subprocess.run(self.argv, env=self.env, cwd=self.cwd).returncode != 0:
            raise RuntimeError("reference process failed")
