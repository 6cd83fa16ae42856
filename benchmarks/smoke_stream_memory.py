"""CI smoke: a live stream's memory does not grow with its length.

For a resident pair and a resident trio, one home's held-out sessions are
streamed back to back (cycled to 10,000 steps) through
``SessionRouter.push`` at lag 4, twice, each step as a fresh copy (as a
live stream delivers it, so a step the router kept would count).  The
first pass warms the model's bounded memos and the interpreter's free
lists; the second, in a fresh session, runs under tracemalloc and samples
the bytes held after every push.  The smoke fails when the least-squares
growth between steps 2,000 and 10,000 exceeds 512 B/step (the committed
labels, one small dict per step, are the only per-step record a session
keeps) or the smoother's lag window ever holds more than ``lag + 1``
steps.

Run with ``PYTHONPATH=src python benchmarks/smoke_stream_memory.py``.
"""

import copy
import gc
import itertools
import sys
import time
import tracemalloc

import numpy as np

from repro.core.engine import CaceEngine
from repro.datasets import generate_cace_dataset, train_test_split
from repro.serve import SessionRouter

LAG = 4
STEPS = 10_000
FROM_STEP = 2_000
MAX_GROWTH_B_PER_STEP = 512.0


def _home_stream(residents: int):
    """A fitted c2 engine and 10,000 steps of one home's test sessions."""
    dataset = generate_cace_dataset(
        n_homes=1, sessions_per_home=4, duration_s=3600.0, residents_per_home=residents, seed=17
    )
    train, test = train_test_split(dataset, 0.25, seed=3)
    engine = CaceEngine(strategy="c2", seed=0).fit(train)
    steps = [step for seq in test.sequences for step in seq.steps]
    return engine, list(itertools.islice(itertools.cycle(steps), STEPS))


def _measure(engine, steps):
    """``(growth B/step, largest window, seconds)`` of the measured pass."""
    warm = SessionRouter(engine, lag=LAG)
    for step in steps:
        warm.push("s", copy.deepcopy(step))
    warm.close_session("s")

    router = SessionRouter(engine, lag=LAG)
    held = np.zeros(len(steps))
    window = 0
    gc.collect()
    t0 = time.perf_counter()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for t, step in enumerate(steps):
            router.push("s", copy.deepcopy(step))
            held[t] = tracemalloc.get_traced_memory()[0] - base
            window = max(window, router.session("s").smoother.window)
    finally:
        tracemalloc.stop()
    seconds = time.perf_counter() - t0
    router.close_session("s")
    growth = np.polyfit(np.arange(FROM_STEP, len(steps)), held[FROM_STEP:], 1)[0]
    return float(growth), window, seconds


def main() -> int:
    failures = []
    for name, residents in (("pair", 2), ("trio", 3)):
        engine, steps = _home_stream(residents)
        growth, window, seconds = _measure(engine, steps)
        print(
            f"{name}: {len(steps)} steps at lag {LAG}, growth {growth:.0f} B/step "
            f"over steps {FROM_STEP}-{len(steps)}, window <= {window}, "
            f"measured pass {seconds:.1f} s"
        )
        if growth > MAX_GROWTH_B_PER_STEP:
            failures.append(
                f"{name} session grows {growth:.0f} B/step (> {MAX_GROWTH_B_PER_STEP:.0f})"
            )
        if window > LAG + 1:
            failures.append(f"{name} lag window held {window} steps (> {LAG + 1})")
    for failure in failures:
        print(f"SMOKE FAILURE: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
