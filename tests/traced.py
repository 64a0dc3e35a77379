"""The numpy peak memory of one call, as tracemalloc counts it."""

import tracemalloc


def traced_peak(fn, *args, **kwargs):
    """Run ``fn(*args, **kwargs)`` under tracemalloc; return its result and
    the peak of the traced memory, in bytes."""
    tracemalloc.start()
    try:
        return fn(*args, **kwargs), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
