"""Host-speed calibration.

The benchmark may run on a few cores of a shared host whose speed drifts
(by up to 1.7x within minutes on a 2-vCPU Intel Xeon virtual machine), and a
pure-Python program's times drift with it.  A fixed pure-Python kernel,
run just before every timed call, measures the host's speed at that moment,
and every time the benchmark reports is scaled to a host on which the kernel
takes ``REFERENCE_S``:

    reported = measured * REFERENCE_S / kernel time around the call

The kernel is the benchmark's own code, which the program cannot change, so
a slower program still reads slower while the host's drift cancels.  The
kernel mixes what the package spends its time on: dict and string work,
sorting, JSON and bit operations on Python ints.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter

REFERENCE_S = 0.004

_DOC = [{"id": f"x{i}", "v": [i, i * 3, i * 7], "m": {"a": i}} for i in range(300)]


def kernel():
    table = {}
    digits = 0
    for i in range(6000):
        key = i * 2654435761 % 1000003
        table[key] = i
        digits += len(str(key))
    rows = json.loads(json.dumps(_DOC))
    index = {row["id"]: n for n, row in enumerate(rows)}
    masks = [0] * 64
    for row in rows:
        for v in row["v"]:
            masks[v % 64] |= 1 << (index[row["id"]] % 200)
    bits = 0
    for mask in masks:
        while mask:
            mask &= mask - 1
            bits += 1
    return digits + bits + sorted(table)[-1]


def timed_kernel():
    start = perf_counter()
    kernel()
    return perf_counter() - start


def factors(cals):
    """Scale factor for the call made right after kernel run ``i``.

    The host's speed during that call is taken as the median of the kernel
    times just before and after it and their neighbours, so that one kernel
    run slowed by an interrupt does not decide it.
    """
    return [REFERENCE_S / statistics.median(cals[max(0, i - 1):i + 3])
            for i in range(len(cals))]
