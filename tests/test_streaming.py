"""Streaming serving paths: agreement with their references, and memory
that does not grow with the length of a stream.

Every way of serving a session commits the labels of its reference: the
smoother at lag >= T the offline posterior argmax, router ``push`` the
smoother run on the whole sequence, ``push_many`` under any chunking
``push``, a worker pool the serial batch, a reloaded artifact the model
it was saved from.  A live session holds its lag window and its
committed labels, nothing else per step.
"""

from __future__ import annotations

import copy
import gc
import tracemalloc

import numpy as np
import pytest

from repro.core.engine import CaceEngine
from repro.core.kernels import macro_argmax
from repro.core.smoother import OnlineSmoother
from repro.datasets import LabeledSequence, generate_cace_dataset, train_test_split
from repro.datasets.trace import StepWindow
from repro.serve import SessionRouter

from decode_spec import ReferenceOnlineSmoother

#: Lag of the memory test (the serving default).
LAG = 4
#: Per-session growth allowed once the lag window is full: the committed
#: labels (one dict per step, about 0.2 KB) fit, a step's tables do not.
MAX_GROWTH_B_PER_STEP = 512


@pytest.fixture(scope="module")
def homes(cace_split):
    """A fitted c2 engine and its held-out split, per home size."""
    pair_train, pair_test = cace_split
    trio = generate_cace_dataset(
        n_homes=1, sessions_per_home=3, duration_s=700.0, residents_per_home=3, seed=42
    )
    trio_train, trio_test = train_test_split(trio, 0.67, seed=7)
    return {
        "pair": (CaceEngine(strategy="c2", seed=11).fit(pair_train), pair_test),
        "trio": (CaceEngine(strategy="c2", seed=0).fit(trio_train), trio_test),
    }


@pytest.mark.parametrize("home", ["pair", "trio"])
def test_serving_paths_agree(home, homes, tmp_path):
    engine, test = homes[home]
    model = engine.model_
    seq = test.sequences[0]
    assert len(seq.resident_ids) == {"pair": 2, "trio": 3}[home]
    lag = 3

    # The smoother at lag >= T commits the offline posterior argmax.
    marginals = model.posterior_marginals(seq)
    index = model.trellis_sessions(seq)[0].macro_index
    assert OnlineSmoother(model, lag=len(seq)).run(seq) == {
        rid: [index.label(macro_argmax(row)) for row in gamma]
        for rid, gamma in marginals.items()
    }

    # Router push commits what the smoother commits on the whole sequence,
    # and counts the same work.
    smoother = OnlineSmoother(model, lag=lag)
    expected = smoother.run(seq)
    router = SessionRouter(engine, lag=lag)
    single = [router.push("s", step) for step in seq.steps]
    single_stats = router.session("s").stats
    assert single_stats == smoother.stats
    assert router.close_session("s") == expected

    # push_many under random chunking returns, commits and counts what
    # one push per step does.
    rng = np.random.default_rng(5)
    for _ in range(3):
        router = SessionRouter(engine, lag=lag)
        batched = []
        t = 0
        while t < len(seq):
            n = int(rng.integers(1, 9))
            batched.extend(router.push_many("s", list(seq.steps[t : t + n])))
            t += n
        assert batched == single
        assert router.session("s").stats == single_stats
        assert router.close_session("s") == expected

    # A worker pool decodes what the serial batch decodes.
    batch = test.subset(list(test.sequences) + [seq.slice(0, len(seq) // 2)])
    serial = engine.predict_dataset(batch, workers=1)
    serial_stats = engine.batch_stats_
    try:
        pooled = engine.predict_dataset(batch, workers=2)
    finally:
        engine.close()
    assert pooled == serial
    assert engine.batch_stats_ == serial_stats

    # A reloaded artifact decodes and streams what the original does.
    path = tmp_path / "model.json"
    engine.save(path)
    reloaded = CaceEngine.load(path)
    assert reloaded.predict_dataset(batch) == serial
    assert OnlineSmoother(reloaded.model_, lag=lag).run(seq) == expected


@pytest.fixture(scope="module")
def long_pair_stream():
    """A c2 engine and one pair home's test sessions concatenated into a
    stream of more than 1,000 steps."""
    dataset = generate_cace_dataset(n_homes=1, sessions_per_home=4, duration_s=5100.0, seed=17)
    train, test = train_test_split(dataset, 0.25, seed=3)
    first = test.sequences[0]
    stream = LabeledSequence(
        home_id=first.home_id,
        resident_ids=first.resident_ids,
        step_s=first.step_s,
        steps=[step for seq in test.sequences for step in seq.steps],
        truths=[truth for seq in test.sequences for truth in seq.truths],
    )
    return CaceEngine(strategy="c2", seed=0).fit(train), stream


def test_stream_memory_is_flat(long_pair_stream):
    """A session's traced bytes grow by less than 512 B per pushed step
    once its lag window is full, the window never holds more than
    ``lag + 1`` steps, and the labels are the unbounded log-domain spec's.

    Each step is pushed as a fresh copy, as a live stream delivers it, so
    a step the router kept would count.  The first pass warms the model's
    bounded memos (and the interpreter's free lists); the second, in a
    fresh session, is measured.  Growth is the least-squares slope of the
    bytes held after each push, so the size of the blocks the window holds
    at any one step does not decide it."""
    engine, seq = long_pair_stream
    n_steps = len(seq)
    assert n_steps >= 1000
    warm = SessionRouter(engine, lag=LAG)
    for step in seq.steps:
        warm.push("s", copy.deepcopy(step))
    warm.close_session("s")

    router = SessionRouter(engine, lag=LAG)
    held, windows = [], []
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for step in seq.steps:
            router.push("s", copy.deepcopy(step))
            held.append(tracemalloc.get_traced_memory()[0] - base)
            windows.append(router.describe_dict()["sessions"]["s"]["window"])
    finally:
        tracemalloc.stop()
    labels = router.close_session("s")

    filled = 100  # window full, per-session memos warm
    growth = np.polyfit(np.arange(filled, n_steps), held[filled:], 1)[0]
    assert growth < MAX_GROWTH_B_PER_STEP
    assert max(windows) == LAG + 1
    assert labels == ReferenceOnlineSmoother(engine.model_, lag=LAG).run(seq)


def test_step_window_indexes_by_absolute_step():
    """Released steps keep their place in ``len`` and in every index, and
    reading one raises instead of returning another step's entry."""
    w = StepWindow()
    w.extend(range(10))
    w.release(4)
    assert (len(w), w.floor, w[4], w[9]) == (10, 4, 4, 9)
    assert w[4:7] == [4, 5, 6] and w[8:] == [8, 9] and w[10:] == []
    for read in (lambda: w[3], lambda: w[2:5], lambda: list(w)):
        with pytest.raises(IndexError):
            read()
    del w[7:]
    w.append(7)
    assert (len(w), w[7]) == (8, 7)
    w.release(100)
    assert (len(w), w.floor) == (8, 8)
    w.clear()
    assert (len(w), w.floor) == (0, 0)
