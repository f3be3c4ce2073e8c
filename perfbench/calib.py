"""Machine-speed calibration.

On a virtual machine that shares its cores, the same code can run up to 1.6
times slower for stretches of tens of seconds.  So every op is bracketed by
a calibration sample, the best of three runs of a fixed kernel, and its
time is rescaled to the reference speed at which one kernel run takes
``REFERENCE_S``:

    normalized = measured * REFERENCE_S / mean(sample before, sample after)

A change to the package cannot move the samples, which run no package code.

Two kernels, because neither tracked both kinds of op.  On a shared 2-core
KVM guest, sets of ten 30-second runs of each workload gave these spreads
(interquartile range / median) of run_s, op_p50_ms and op_tail_ms:

    workload   big-integer products   small-integer loop
    formulas   0.04 0.06 0.06         0.15 0.14 0.14
    graphs     0.05 0.08 0.06         0.14 0.12 0.13
    counts     0.18 0.16 0.17         0.05 0.04 0.04, and 0.11 0.11 0.10

In-process ops (big-integer double sums, subset scans) use ``bigint_sample``;
CLI children and cold imports, dominated by interpreter start-up, use
``loop_sample``.
"""

from __future__ import annotations

import time

_OPERAND = 3 ** 20_000  # a 31,700-bit integer
REFERENCE_S = 0.001


def _bigint_kernel():
    for _ in range(4):
        _OPERAND * _OPERAND


def _loop_kernel():
    total = 0
    for i in range(12_500):
        total += i * i


def _best_of_three(kernel) -> float:
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def bigint_sample() -> float:
    """Seconds for one run of the big-integer kernel: the best of three."""
    return _best_of_three(_bigint_kernel)


def loop_sample() -> float:
    """Seconds for one run of the small-integer loop: the best of three."""
    return _best_of_three(_loop_kernel)


def factors(samples: list[float]) -> list[float]:
    """Scale factor for each interval between consecutive samples."""
    return [2 * REFERENCE_S / (a + b) for a, b in zip(samples, samples[1:])]
