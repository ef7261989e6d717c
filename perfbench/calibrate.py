"""Machine-speed calibration for the benchmark's time metrics.

The benchmark runs on a shared machine whose speed drifts by 20-70% over
minutes, alike for every workload. A fixed reference kernel, which does not
touch hydrochain, is timed between jobs. Job times are then reported in
reference seconds:

    seconds * REFERENCE_S / (mean kernel time just before and just after)

which is the time the work would take at the speed the machine had when
REFERENCE_S was measured. REFERENCE_S only sets the scale: comparisons
between two commits are ratios, in which it cancels.

Set-up is a different kind of work, whole-array arithmetic on a large grid,
and its speed drifts apart from the job kernel's. It has a kernel of its
own, timed just before and just after each set-up sample.
"""

from __future__ import annotations

import time

import numpy as np

# Median kernel times on a 2-vCPU Intel Xeon, Python 3.11, numpy 2.4.
REFERENCE_S = 0.0135
SETUP_REFERENCE_S = 0.2


def kernel_seconds() -> float:
    """Wall time of the reference kernel: an interpreted float loop plus
    small-array numpy operations, the two kinds of work hydrochain does."""
    t0 = time.perf_counter()
    x = 0.0
    for i in range(100_000):
        x += (i * 0.5) ** 0.5 if i & 1 else -i * 1e-3
    a = np.linspace(0.0, 1.0, 1024)
    for _ in range(300):
        b = np.concatenate(([0.0], a[:-1])) - a
        a = a + 1e-9 * np.where(b > 0.0, b, 0.5 * b)
    return time.perf_counter() - t0


def scale(kernel_s: float) -> float:
    """Factor that turns wall seconds into reference seconds."""
    return REFERENCE_S / kernel_s


def setup_kernel_seconds() -> float:
    """Wall time of a kernel like ThermoModel's table build: clipped
    polynomials, ``where`` and ``exp`` on arrays the size of its quadrature
    grid, 3600 strains by 80 nodes."""
    t0 = time.perf_counter()
    r = np.linspace(-4.0, 4.0, 3600 * 80).reshape(3600, 80)
    for _ in range(8):
        x = np.clip(r / 0.5, -1.0, 1.0)
        poly = x**3 / 8.0 - x**5 / 80.0 + x**2 / 4.0 + 3.0 * x / 16.0
        v = np.where(r >= 0.5, r**2 / 2.0, np.where(r <= -0.5, 0.0, poly))
        r = r + 1e-12 * np.sum(np.exp(-v) * r, axis=1)[:, None]
    return time.perf_counter() - t0


def setup_scale(kernel_s: float) -> float:
    """Factor that turns set-up wall seconds into reference seconds."""
    return SETUP_REFERENCE_S / kernel_s
