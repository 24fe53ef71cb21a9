"""A fixed piece of work that measures how fast the host runs right now.

The benchmark shares a host whose speed drifts by up to 1.5x over minutes
as other tenants come and go.  CPU time drifts with wall time, so the
process is not waiting: it runs slower.  A run's median over 30 s cannot
average that away.  So run.py times this probe between passes, on the CPU
the passes run on, and uses it as a control variate: a pass's times are
multiplied by (REFERENCE_S / probe_s) ** SENSITIVITY, with probe_s the
probe's time around that pass.

SENSITIVITY is how strongly tifem's times follow the probe's: the slope of
log pass time on log probe time, pooled over the four workloads (each
centred on its own mean), was 0.89 over 356 passes of twenty 30-second runs
per workload on a shared 2-vCPU virtual machine (0.89 beam study, 1.01
Cook sweep, 0.56 large panels, 0.70 stability scan).  The probe tracks the
passes only when both run on the same CPU: unpinned, the slope was 0.4-0.5.

The probe mixes what tifem's workloads spend their time on: small dense
numpy products (the element kernels), Python-level loops over dicts and
floats (drivers, CLI rows), string formatting (CSV writing) and a sparse LU
factorisation (the large panel solves).  It uses only numpy and scipy and
runs in the benchmark's own process, so no change to tifem can change it.
"""

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# Seconds the probe takes at the host speed reported times are scaled to:
# about its median on the machine that recorded the baseline in README.md.
REFERENCE_S = 0.5
# Exponent of the scaling; see above.
SENSITIVITY = 0.9


def scale(probe_s):
    """Factor that takes a time measured around a probe of `probe_s` seconds
    to the reference host speed."""
    return (REFERENCE_S / probe_s) ** SENSITIVITY


class Probe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = rng.standard_normal((8, 8))
        n = 60
        line = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        eye = sp.eye(n)
        self.laplacian = (sp.kron(eye, line) + sp.kron(line, eye)).tocsc()
        self.rhs = np.ones(n * n)
        self.work()  # warm-up: caches and lazy imports, not timed

    def work(self):
        acc = 0.0
        for i in range(12000):
            k = np.einsum("ij,kj->ik", self.small, self.small) + np.eye(8)
            acc += float(k[1, 2])
            row = {j: j * 0.5 for j in range(20)}
            acc += sum(row.values())
            if i % 8 == 0:
                acc += len(",".join(f"{v:.17g}" for v in row.values()))
        for _ in range(32):
            acc += float(spla.splu(self.laplacian).solve(self.rhs)[0])
        return acc

    def __call__(self):
        """Seconds the fixed work took."""
        start = time.perf_counter()
        self.work()
        return time.perf_counter() - start
