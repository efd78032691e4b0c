"""Machine-speed calibration for the end-to-end timings.

The benchmark runs on a shared virtual machine whose speed drifts by up
to ±30% over minutes (other tenants' load; no steal time shows, so CPU
time drifts with wall time). The benchmark therefore times a fixed
kernel just before and just after each operation it times, and reports
each end-to-end timing as the median over operations of the time scaled
to a machine on which that kernel takes NOMINAL_S:
``measured × NOMINAL_S / kernel``, with the mean of the two kernel times.

The kernel mirrors the workloads' mix of interpreter overhead and numpy
element-wise work (softmax and GELU on attention-shaped arrays). It
calls no BLAS routine, so the BLAS thread count cannot change it; it
allocates no array, so the state the package leaves the allocator in
cannot change it; and it calls no ``elastst`` code.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

NOMINAL_S = 0.020  # near the kernel's time on the 2-vCPU VM of the reference figures (16-25 ms as its load varied)
_X = np.random.default_rng(0).standard_normal((32, 102, 64))
_A = np.empty_like(_X)
_B = np.empty_like(_X)
_ROW = np.empty((32, 102, 1))


def kernel() -> float:
    """Softmax and GELU into preallocated arrays, so the allocator's state cannot change the time."""
    acc = 0.0
    for _ in range(6):
        np.max(_X, axis=-1, keepdims=True, out=_ROW)
        np.subtract(_X, _ROW, out=_A)
        np.exp(_A, out=_A)
        np.sum(_A, axis=-1, keepdims=True, out=_ROW)
        np.divide(_A, _ROW, out=_A)
        np.multiply(_A, _A, out=_B)
        np.multiply(_B, _A, out=_B)
        np.multiply(_B, 0.044715, out=_B)
        np.add(_B, _A, out=_B)
        np.multiply(_B, 0.7978845608, out=_B)
        np.tanh(_B, out=_B)
        np.add(_B, 1.0, out=_B)
        np.multiply(_B, _A, out=_B)
        acc += 0.5 * float(_B.sum())
        d: dict[int, float] = {}
        for i in range(400):
            d[i % 17] = d.get(i % 17, 0.0) + i * 1e-9
        acc += sum(d.values())
    return acc


def kernel_time() -> float:
    """Wall time of one run of the kernel."""
    start = perf_counter()
    kernel()
    return perf_counter() - start


def scaled(value: float, kernel_s: float, power: int) -> float:
    """``value`` at NOMINAL_S, given the kernel time measured around it.

    ``power`` is 1 for a duration and -1 for a rate.
    """
    return value * (NOMINAL_S / kernel_s) ** power
