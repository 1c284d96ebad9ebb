"""A fixed reference kernel that measures how fast the host is right now.

The host this benchmark was written on gives a process a fast and a roughly
1.4 times slower state, per CPU, switching every second or so, and has
minutes in which every CPU stays slow; the states slow dense, sparse and
interpreted work alike.  The runner times this kernel between ops and
divides each op's latency by the mean slowdown, against ``REFERENCE_S``, of
the samples just before and just after it, so the end-to-end times read as
seconds on the host in its fast state.

The kernel does, at a small fixed size, the three kinds of work roughchain's
prices are made of: dense matrix products (the Strang slice loop and the
Pade exponentials), sparse matrix-vector products (uniformization) and
interpreted Python.  It never calls roughchain, so a change to roughchain
leaves its time alone.  It runs once untimed to refill the caches the op
before it evicted, then twice timed, and the faster time counts: its time
then depends on the host, not on what the op before it did.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse

# Fast-state time of one kernel execution on an Intel Xeon KVM guest with
# 2 vCPUs, Python 3.11, numpy 2.4 and OpenBLAS 0.3.31 on one thread.
REFERENCE_S = 0.95e-3


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.dense = rng.random((96, 96)) / 96.0
        n, per_row = 3000, 9
        rows = np.repeat(np.arange(n), per_row)
        cols = rng.integers(0, n, size=n * per_row)
        self.sparse = scipy.sparse.csr_matrix((rng.random(n * per_row), (rows, cols)), (n, n))
        self.vector = rng.random(n)

    def _run(self) -> float:
        t0 = time.perf_counter()
        b = self.dense
        for _ in range(12):
            b = self.dense @ b
        for _ in range(20):
            self.sparse @ self.vector
        s = 0
        for i in range(2000):
            s += i * i
        return time.perf_counter() - t0

    def slowdown(self) -> float:
        """How many times slower than its fast state the host runs now."""
        self._run()
        return min(self._run(), self._run()) / REFERENCE_S
