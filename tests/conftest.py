"""Helpers shared by the test modules, which import them by name."""

import tracemalloc


def traced_peak(fn):
    """(fn(), the peak of the memory tracemalloc traced while it ran): one
    tracing session of its own around one call."""
    tracemalloc.start()
    try:
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak
