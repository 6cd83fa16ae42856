"""Serving facade: interleaved sessions, eviction, and stats isolation.

The key invariant: arbitrary interleavings of ``push`` across sessions
commit exactly the labels a sequential one-session-at-a-time replay
would, because every session has its own smoother (whose trellis
sessions count into the smoother's own ``stats``, never the shared
model's).
"""

import pytest

from repro.core.api import DecodeStats
from repro.core.engine import CaceEngine
from repro.core.smoother import OnlineSmoother
from repro.resilience import corrupt_step
from repro.serve import SessionRouter

#: A divide-by-zero or invalid value in the sum-product recursion fails the
#: module instead of committing a NaN label.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


@pytest.fixture(scope="module")
def engine(cace_split):
    train, _ = cace_split
    return CaceEngine(strategy="c2", seed=11).fit(train)


@pytest.fixture(scope="module")
def test_seqs(cace_split):
    _, test = cace_split
    return test.sequences[:2]


def _sequential_reference(engine, seqs, lag):
    out = []
    for seq in seqs:
        out.append(OnlineSmoother(engine.model_, lag=lag).run(seq))
    return out


class TestInterleaving:
    def test_interleaved_equals_sequential(self, engine, test_seqs):
        lag = 3
        reference = _sequential_reference(engine, test_seqs, lag)
        router = SessionRouter(engine, lag=lag)
        horizon = max(len(seq) for seq in test_seqs)
        for t in range(horizon):
            for i, seq in enumerate(test_seqs):
                if t < len(seq):
                    router.push(f"s{i}", seq.steps[t])
        labels = router.close_all()
        for i, expected in enumerate(reference):
            assert labels[f"s{i}"] == expected

    def test_lag_zero_is_pure_filtering(self, engine, test_seqs):
        seq = test_seqs[0]
        router = SessionRouter(engine, lag=0)
        committed = [router.push("s", step) for step in seq.steps]
        # With no lag every push commits its own step immediately.
        assert all(labels is not None for labels in committed)
        final = router.close_session("s")
        for rid in seq.resident_ids:
            assert final[rid] == [labels[rid] for labels in committed]

    def test_stats_isolated_per_session(self, engine, test_seqs):
        router = SessionRouter(engine, lag=2)
        for t in range(4):
            router.push("a", test_seqs[0].steps[t])
            router.push("b", test_seqs[1].steps[t])
        a, b = router.session("a").stats, router.session("b").stats
        assert a is not b
        assert a.steps == 4 and b.steps == 4
        solo = OnlineSmoother(engine.model_, lag=2)
        solo.start(test_seqs[0])
        for t in range(4):
            solo.push(t)
        assert (a.joint_states, a.transition_entries) == (
            solo.stats.joint_states,
            solo.stats.transition_entries,
        )


class TestLifecycle:
    def test_eviction_frees_state_and_merges_stats(self, engine, test_seqs):
        router = SessionRouter(engine, lag=1, max_sessions=1)
        router.push("old", test_seqs[0].steps[0])
        router.push("old", test_seqs[0].steps[1])
        assert router.aggregate_stats == DecodeStats()
        router.push("new", test_seqs[1].steps[0])
        assert "old" not in router
        assert "new" in router
        assert len(router) == 1
        assert router.evicted == 1
        # The evicted session's full accounting landed in the aggregate.
        assert router.aggregate_stats.steps == 2

    def test_close_session_returns_full_labels(self, engine, test_seqs):
        seq = test_seqs[0]
        router = SessionRouter(engine, lag=5)
        for step in seq.steps[:8]:
            router.push("s", step)
        labels = router.close_session("s")
        for rid in seq.resident_ids:
            assert len(labels[rid]) == 8
        assert "s" not in router
        with pytest.raises(KeyError):
            router.close_session("s")

    def test_push_auto_opens_with_sorted_residents(self, engine, test_seqs):
        router = SessionRouter(engine, lag=1)
        router.push("s", test_seqs[0].steps[0])
        state = router.session("s")
        assert state.seq.resident_ids == tuple(
            sorted(test_seqs[0].steps[0].observations)
        )
        assert state.pushed == 1

    def test_invalid_configuration_rejected(self, engine):
        with pytest.raises(ValueError, match="lag"):
            SessionRouter(engine, lag=-1)
        with pytest.raises(ValueError, match="max_sessions"):
            SessionRouter(engine, max_sessions=0)
        with pytest.raises(ValueError, match="not fitted"):
            SessionRouter(CaceEngine(strategy="c2"))

    def test_double_open_rejected(self, engine, test_seqs):
        router = SessionRouter(engine, lag=1)
        router.push("s", test_seqs[0].steps[0])
        with pytest.raises(ValueError, match="already open"):
            router.open_session("s", resident_ids=("r1", "r2"))


class TestEvictionAccounting:
    """LRU eviction must finalize a session's stats into the aggregate
    counters — exactly the solo-run numbers, never another session's."""

    def _solo_stats(self, engine, seq, lag, n):
        solo = OnlineSmoother(engine.model_, lag=lag)
        solo.start(seq)
        for t in range(n):
            solo.push(t)
        solo.flush()
        return solo.stats

    def test_eviction_merges_exact_solo_stats(self, engine, test_seqs):
        router = SessionRouter(engine, lag=2, max_sessions=1)
        for t in range(5):
            router.push("old", test_seqs[0].steps[t])
        router.push("new", test_seqs[1].steps[0])  # evicts "old"
        assert "old" not in router
        solo = self._solo_stats(engine, test_seqs[0], lag=2, n=5)
        agg = router.aggregate_stats
        assert (agg.steps, agg.joint_states, agg.transition_entries) == (
            solo.steps,
            solo.joint_states,
            solo.transition_entries,
        )

    def test_interleaved_eviction_never_mixes_counters(self, engine, test_seqs):
        router = SessionRouter(engine, lag=1, max_sessions=2)
        for t in range(4):
            router.push("a", test_seqs[0].steps[t])
            router.push("b", test_seqs[1].steps[t])
        router.push("c", test_seqs[0].steps[0])  # evicts LRU "a"
        assert "a" not in router and "b" in router and "c" in router
        # The aggregate holds exactly "a"'s solo accounting...
        solo_a = self._solo_stats(engine, test_seqs[0], lag=1, n=4)
        agg = router.aggregate_stats
        assert (agg.steps, agg.joint_states, agg.transition_entries) == (
            solo_a.steps,
            solo_a.joint_states,
            solo_a.transition_entries,
        )
        # ...while the surviving session's counters are untouched by the
        # interleaving and the eviction.
        solo_b = self._solo_stats(engine, test_seqs[1], lag=1, n=4)
        b = router.session("b").stats
        assert (b.steps, b.joint_states, b.transition_entries) == (
            solo_b.steps,
            solo_b.joint_states,
            solo_b.transition_entries,
        )

    def test_quarantined_session_pushes_refresh_lru_position(self, engine, test_seqs):
        steps = test_seqs[0].steps
        router = SessionRouter(engine, lag=1, max_sessions=2)
        router.push("a", steps[0])
        router.push("a", corrupt_step(steps[1], mode="nan"))  # quarantines "a"
        assert router.session("a").degraded
        router.push("b", test_seqs[1].steps[0])
        for t in range(2, 6):
            router.push("a", steps[t])  # degraded pushes keep "a" recent
        router.open_session("c", test_seqs[0].resident_ids)  # evicts LRU "b"
        assert "b" not in router and "a" in router and "c" in router

    def test_eviction_metrics_and_snapshot(self, engine, test_seqs):
        from repro.obs.metrics import MetricsRegistry

        reg = MetricsRegistry()
        router = SessionRouter(engine, lag=1, max_sessions=1, metrics=reg)
        router.push("a", test_seqs[0].steps[0])
        router.push("a", test_seqs[0].steps[1])
        router.push("b", test_seqs[1].steps[0])  # evicts "a"
        assert reg.counter("router.sessions_evicted").value == 1
        assert reg.counter("router.sessions_opened").value == 2
        assert reg.gauge("router.sessions_active").value == 1
        assert reg.counter("router.steps").value == 3
        snap = router.metrics_snapshot()
        assert snap["router"] == router.describe_dict()
        assert snap["router"]["evicted"] == 1
        assert snap["router"]["open_sessions"] == 1
        assert snap["router"]["sessions"] == {"b": {"pushed": 1, "committed": 0, "window": 1}}
        assert 0.0 < snap["derived"]["smoother_trans_cache_hit_rate"] <= 1.0
        assert snap["metrics"]["smoother.push_seconds"]["count"] == 3
        assert snap["metrics"]["router.push_seconds"]["count"] == 3

    def test_describe_renders_from_describe_dict(self, engine, test_seqs):
        router = SessionRouter(engine, lag=3, max_sessions=2)
        router.push("s", test_seqs[0].steps[0])
        d = router.describe_dict()
        assert router.describe() == (
            f"SessionRouter(lag={d['lag']}, "
            f"{d['open_sessions']}/{d['max_sessions']} sessions, "
            f"{d['evicted']} evicted): {d['model']}"
        )


class TestPushMany:
    def test_push_many_equals_step_by_step_push(self, engine, test_seqs):
        seq = test_seqs[0]
        lag = 3
        stepwise = SessionRouter(engine, lag=lag)
        single = [stepwise.push("s", step) for step in seq.steps]
        single_final = stepwise.close_session("s")
        batched_router = SessionRouter(engine, lag=lag)
        batched = list(batched_router.push_many("s", list(seq.steps[:5])))
        batched.extend(batched_router.push_many("s", list(seq.steps[5:])))
        batched_final = batched_router.close_session("s")
        assert batched == single
        assert batched_final == single_final

    def test_push_many_empty_batch_is_a_noop(self, engine):
        router = SessionRouter(engine, lag=1)
        assert router.push_many("s", []) == []
        assert "s" not in router

    def test_push_many_auto_opens(self, engine, test_seqs):
        router = SessionRouter(engine, lag=1)
        router.push_many("s", list(test_seqs[0].steps[:2]))
        state = router.session("s")
        assert state.pushed == 2
        assert state.seq.resident_ids == tuple(
            sorted(test_seqs[0].steps[0].observations)
        )

    def test_push_many_unknown_session_id_opens_fresh(self, engine, test_seqs):
        """A batch for a never-seen session id is served from a fresh
        session, not an error — same contract as single-step push."""
        router = SessionRouter(engine, lag=1)
        router.push_many("a", list(test_seqs[0].steps[:2]))
        out = router.push_many("never-seen", list(test_seqs[1].steps[:3]))
        assert len(out) == 3
        assert router.session("never-seen").pushed == 3
        assert router.metrics.counter("router.sessions_opened").value == 2

    def test_push_many_after_eviction_reopens_from_scratch(
        self, engine, test_seqs
    ):
        """A session evicted mid-stream that pushes again gets a brand-new
        session (empty buffer, fresh smoother), and the opened counter
        reflects the reopen."""
        seq = test_seqs[0]
        router = SessionRouter(engine, lag=1, max_sessions=1)
        router.push_many("a", list(seq.steps[:4]))
        router.push_many("b", list(test_seqs[1].steps[:2]))  # evicts "a"
        assert "a" not in router
        assert router.evicted == 1
        out = router.push_many("a", list(seq.steps[4:6]))  # mid-stream resume
        assert len(out) == 2
        state = router.session("a")
        assert state.pushed == 2  # no memory of the evicted buffer
        assert state.stats.steps == 2
        assert router.metrics.counter("router.sessions_opened").value == 3

class TestWorkerPoolLifecycle:
    def test_serial_predict_dataset_creates_no_pool(self, engine, cace_split):
        _, test = cace_split
        engine.predict_dataset(test, workers=1)
        assert engine._pool is None

    def test_model_ships_once_per_pool_lifetime(self, engine, cace_split):
        _, test = cace_split
        base = engine.model_ship_count_
        try:
            first = engine.predict_dataset(test, workers=2)
            second = engine.predict_dataset(test, workers=2)
        finally:
            engine.close()
        # Two batched calls, one pool: the model was serialised exactly
        # once (the pool initializer loads it once per worker).
        assert engine.model_ship_count_ == base + 1
        assert first == second

    def test_parallel_matches_serial(self, engine, cace_split):
        _, test = cace_split
        serial = engine.predict_dataset(test, workers=1)
        serial_stats = engine.batch_stats_
        try:
            parallel = engine.predict_dataset(test, workers=2)
        finally:
            engine.close()
        assert parallel == serial
        assert engine.batch_stats_ == serial_stats

    def test_workers_clamped_to_session_count(self, engine, cace_split):
        _, test = cace_split
        try:
            engine.predict_dataset(test, workers=32)
            assert engine._pool_workers == len(test.sequences)
        finally:
            engine.close()

    def test_close_is_idempotent_and_safe_prefit(self):
        engine = CaceEngine(strategy="c2")
        engine.close()
        engine.close()
        fitted_free = CaceEngine(strategy="c2")
        with fitted_free:
            pass  # context-manager exit closes an engine with no pool
