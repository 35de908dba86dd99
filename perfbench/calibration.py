"""Host-speed calibration of the timed work.

On a shared host the speed of a core swings by up to a half, in spells of a
fraction of a second to minutes, as other tenants come and go. A run of a
few tens of seconds cannot average that away, so two runs of the same code
can differ by more than any useful bound.

So the timed work is interleaved with a fixed pure-Python kernel. The kernel
does what the engine does most (tuple keys in dicts, small frozensets, sorts
by key, float arithmetic) but uses nothing of caseflow, so it does not change
when the program does. Each piece of work is scaled by REFERENCE_NS over the
kernel's time around it. Scaled times are in reference-host units: what the
work would take on a host on which one kernel call takes REFERENCE_NS. A
program that gets faster still reads faster by the same share. The raw times
are printed beside the scaled ones.
"""

from __future__ import annotations

import gc
import statistics
import time

# About one kernel call between pieces of engine work, on a 2-vCPU x86-64
# cloud host under CPython 3.11.
REFERENCE_NS = 2_500_000
# kernel samples on each side of a piece of work that set its factor
WINDOW = 4


def _table(size: int = 1 << 16, probes: int = 2048):
    """A dict of tuple keys the size of a small store, and keys to probe it
    with in an order scattered over its memory."""
    state = 1
    keys = []
    for i in range(size):
        state = (state * 1103515245 + 12345) % (1 << 31)
        keys.append((state % 9973, i))
    table = {key: float(i) for i, key in enumerate(keys)}
    keys.sort()  # by a pseudo-random field, so neighbours lie far apart
    return table, keys[::size // probes]


_TABLE, _PROBES = _table()


def kernel() -> float:
    """About half small-object work, half probes of a table that is out of
    the innermost caches, so it slows down both when the core is shared and
    when the memory is."""
    counts: dict = {}
    spans = []
    total = 0.0
    for i in range(600):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + 1
        spans.append((frozenset((i % 5, i % 7)), i * 0.5))
        if len(spans) > 64:
            spans.sort(key=lambda s: (len(s[0]), -s[1]))
            total += sum(w for _, w in spans[:32])
            del spans[:32]
    for key in _PROBES:
        total += _TABLE[key]
    return len(counts) + total


def sample_ns() -> int:
    """Wall ns of one kernel call, with the collector off so that the
    program's heap does not make the kernel slower."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter_ns()
        kernel()
        return time.perf_counter_ns() - start
    finally:
        if enabled:
            gc.enable()


def factor(kernel_ns) -> float:
    """Scale for work done while the kernel took these times."""
    return REFERENCE_NS / statistics.median(kernel_ns)


def scale(samples, marks, kernel_ns):
    """Scales each sample to the reference host.

    `kernel_ns[j]` was taken just before sample `marks[j]`; the last mark is
    `len(samples)`. The samples between two marks form a piece, scaled by
    the WINDOW kernel samples on each side of it.
    """
    scaled = []
    for j in range(len(marks) - 1):
        f = factor(kernel_ns[max(0, j + 1 - WINDOW):j + 1 + WINDOW])
        scaled += [s * f for s in samples[marks[j]:marks[j + 1]]]
    return scaled
