"""Chaos suite: fault-tolerant decode, degraded serving, injection harness.

Every fault here is injected deterministically (seeded plans, no live
RNG), so the assertions are exact: which sessions fail, how many
retries happen, and that every *untouched* session returns bit-identical
labels to a fault-free run.
"""

from __future__ import annotations

import dataclasses
import json
import math
import multiprocessing
import os

import pytest

from repro.core.engine import CaceEngine
from repro.datasets import generate_cace_dataset, train_test_split
from repro.models.hmm import MacroHmm
from repro.obs import runtime as obs
from repro.resilience import (
    DEFAULT_RETRY_POLICY,
    DecodeFailure,
    DegradedLabels,
    DegradedStepFilter,
    FailureReport,
    Fault,
    FaultPlan,
    InjectedFault,
    RetryPolicy,
    SessionFailure,
    StepValidationError,
    corrupt_step,
    injected,
    prior_macro_label,
    stable_unit,
    validate_step,
)
from repro.resilience import faultinject
from repro.serve.router import SessionRouter
from repro.util.artifacts import save_engine

from decode_spec import reference_model


@pytest.fixture(autouse=True)
def _hermetic_faults(monkeypatch):
    """Scrub ambient fault plans (the CI chaos job exports a seed for the
    smoke scripts; these tests activate their own plans explicitly)."""
    monkeypatch.delenv(faultinject.ENV_PLAN, raising=False)
    monkeypatch.delenv(faultinject.ENV_SEED, raising=False)
    faultinject.deactivate()
    yield
    faultinject.deactivate()


def _malformed_steps(step, rid):
    """*step* with resident *rid*'s observation made malformed in each way
    that once raised TypeError/AttributeError out of ``validate_step``."""
    obs = step.observations[rid]

    def with_obs(o):
        return dataclasses.replace(step, observations={**step.observations, rid: o})

    return {
        "str_feature": with_obs(dataclasses.replace(obs, features=("x",) + obs.features[1:])),
        "none_feature": with_obs(dataclasses.replace(obs, features=(None,) + obs.features[1:])),
        "scalar_position": with_obs(dataclasses.replace(obs, position_estimate=5.0)),
        "str_position": with_obs(dataclasses.replace(obs, position_estimate=("a", 1.0))),
        "not_an_observation": with_obs("not an observation"),
    }


MALFORMED = ("str_feature", "none_feature", "scalar_position", "str_position",
             "not_an_observation")


@pytest.fixture(scope="module")
def corpus():
    dataset = generate_cace_dataset(
        n_homes=2, sessions_per_home=4, duration_s=900.0, seed=7
    )
    return train_test_split(dataset, 0.5, seed=9)


@pytest.fixture(scope="module")
def engine(corpus):
    train, _ = corpus
    return CaceEngine(strategy="c2", seed=11).fit(train)


@pytest.fixture(scope="module")
def fallback(corpus):
    train, _ = corpus
    return MacroHmm().fit(train)


@pytest.fixture(scope="module")
def reference(engine, corpus):
    """Fault-free batch decode everything else is compared against."""
    _, test = corpus
    return engine.predict_dataset(test)


def _keys(test):
    return [f"{seq.home_id}:{i}" for i, seq in enumerate(test.sequences)]


# -- retry policy ---------------------------------------------------------------


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base_s=-0.1)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=-0.5)

    def test_max_attempts(self):
        assert RetryPolicy(max_retries=0).max_attempts == 1
        assert DEFAULT_RETRY_POLICY.max_attempts == 3

    def test_first_attempt_has_no_delay(self):
        assert RetryPolicy().delay_s(1, "k") == 0.0

    def test_backoff_grows_and_caps(self):
        p = RetryPolicy(
            max_retries=6, backoff_base_s=0.1, backoff_factor=2.0,
            backoff_max_s=0.5, jitter=0.0,
        )
        delays = [p.delay_s(a, "k") for a in range(2, 8)]
        assert delays[0] == pytest.approx(0.1)
        assert delays[1] == pytest.approx(0.2)
        assert all(b >= a for a, b in zip(delays, delays[1:]))
        assert max(delays) <= 0.5

    def test_jitter_is_deterministic_and_bounded(self):
        p = RetryPolicy(jitter=0.25, seed=3)
        base = RetryPolicy(jitter=0.0, seed=3)
        for key in ("a", "b", "c"):
            d1 = p.delay_s(2, key)
            assert d1 == p.delay_s(2, key)  # same key -> same jitter
            b = base.delay_s(2, key)
            assert b <= d1 <= b * 1.25 + 1e-12
        # different keys spread out
        assert len({p.delay_s(2, k) for k in "abcdef"}) > 1

    def test_stable_unit_range_and_determinism(self):
        values = [stable_unit(1, "x", i) for i in range(50)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert values == [stable_unit(1, "x", i) for i in range(50)]
        assert stable_unit(1, "x") != stable_unit(2, "x")


# -- fault plans ----------------------------------------------------------------


class TestFaultPlan:
    def test_fault_validation(self):
        with pytest.raises(ValueError):
            Fault("meteor")
        with pytest.raises(ValueError):
            Fault("crash", times=0)

    def test_from_seed_is_deterministic_and_disjoint(self):
        keys = [f"s{i}" for i in range(10)]
        p1 = FaultPlan.from_seed(5, keys, n_crash=2, n_delay=3, n_error=2)
        p2 = FaultPlan.from_seed(5, keys, n_crash=2, n_delay=3, n_error=2)
        assert p1.to_json() == p2.to_json()
        assert len(p1.faults) == 7
        kinds = [f.kind for f in p1.faults.values()]
        assert kinds.count("crash") == 2
        assert kinds.count("delay") == 3
        # a different seed shuffles the assignment
        p3 = FaultPlan.from_seed(6, keys, n_crash=2, n_delay=3, n_error=2)
        assert p1.to_json() != p3.to_json()

    def test_from_seed_rejects_overcommitment(self):
        with pytest.raises(ValueError):
            FaultPlan.from_seed(1, ["a", "b"], n_crash=3)

    def test_json_round_trip(self):
        plan = FaultPlan({"a": Fault("error", times=2), "b": Fault("delay")}, seed=4)
        back = FaultPlan.from_json(plan.to_json())
        assert back.to_json() == plan.to_json()
        assert back.fault_for("a") == Fault("error", times=2)
        assert back.fault_for("missing") is None

    def test_expected_failures_excludes_delays_and_recovered(self):
        plan = FaultPlan({
            "dead": Fault("error", times=3),
            "slow": Fault("delay", times=9),
            "flaky": Fault("crash", times=1),
        })
        assert plan.expected_failures(max_attempts=3) == ["dead"]

    def test_hashed_plan_is_deterministic_and_single_shot(self):
        plan = FaultPlan.hashed(86)
        kinds = {k: plan.fault_for(f"home:{k}") for k in range(200)}
        again = FaultPlan.hashed(86)
        assert kinds == {k: again.fault_for(f"home:{k}") for k in range(200)}
        hit = [f for f in kinds.values() if f is not None]
        assert hit, "a 200-key sample should draw some faults"
        assert all(f.times == 1 for f in hit)  # default retries always recover

    def test_current_plan_prefers_explicit_over_env(self, monkeypatch):
        monkeypatch.setenv(faultinject.ENV_SEED, "86")
        env_plan = faultinject.current_plan()
        assert env_plan is not None
        explicit = FaultPlan({"a": Fault("error")})
        with injected(explicit):
            assert faultinject.current_plan() is explicit
        assert faultinject.current_plan() is not explicit

    def test_parent_process_crash_is_downgraded_to_exception(self):
        with injected(FaultPlan({"k": Fault("crash", times=5)})):
            with pytest.raises(InjectedFault) as exc:
                faultinject.maybe_inject("k", attempt=1)
            assert exc.value.kind == "crash"
            # past the fault's window: no-op
            faultinject.maybe_inject("k", attempt=6)


# -- corrupted steps ------------------------------------------------------------


class TestCorruptStep:
    def test_modes(self, corpus):
        _, test = corpus
        step = test.sequences[0].steps[0]
        nan = corrupt_step(step, mode="nan", seed=1)
        assert any(
            math.isnan(v)
            for o in nan.observations.values()
            for v in o.features
        )
        assert not corrupt_step(step, mode="empty").observations
        alien = corrupt_step(step, mode="alien", seed=2)
        assert set(alien.observations) != set(step.observations)

        def victims(s):
            return {
                r for r, o in s.observations.items()
                if any(math.isnan(v) for v in o.features)
            }

        # deterministic: the same seed always poisons the same resident
        assert victims(corrupt_step(step, mode="nan", seed=1)) == victims(nan)
        with pytest.raises(ValueError):
            corrupt_step(step, mode="werewolf")

    def test_validate_step_catches_each_mode(self, corpus):
        _, test = corpus
        seq = test.sequences[0]
        step = seq.steps[0]
        validate_step(step, seq.resident_ids)  # healthy step passes
        for mode in ("nan", "empty", "alien"):
            with pytest.raises(StepValidationError):
                validate_step(corrupt_step(step, mode=mode), seq.resident_ids)
        rid = seq.resident_ids[0]
        for pos in ((float("inf"), 0.0), (1.0, float("nan")), (1.0,)):
            obs = dataclasses.replace(step.observations[rid], position_estimate=pos)
            bad = dataclasses.replace(step, observations={**step.observations, rid: obs})
            with pytest.raises(StepValidationError, match="position"):
                validate_step(bad, seq.resident_ids)
        with pytest.raises(StepValidationError):
            validate_step("not a step")
        malformed = _malformed_steps(step, rid)
        assert set(malformed) == set(MALFORMED)
        for bad in malformed.values():
            with pytest.raises(StepValidationError):
                validate_step(bad, seq.resident_ids)


# -- batch decode: serial -------------------------------------------------------


class TestSerialResilience:
    def test_clean_run_has_empty_report(self, engine, corpus, reference):
        assert engine.failure_report_ is not None
        assert engine.failure_report_.ok()
        assert engine.failure_report_.sessions_ok == len(reference)

    def test_partial_skips_exhausted_session_bit_identically(
        self, engine, corpus, reference
    ):
        _, test = corpus
        keys = _keys(test)
        policy = RetryPolicy(max_retries=1, backoff_base_s=0.0, jitter=0.0)
        plan = FaultPlan({keys[0]: Fault("error", times=policy.max_attempts)})
        with injected(plan):
            out = engine.predict_dataset(test, retry=policy, partial=True)
        report = engine.failure_report_
        assert report.failed_keys() == [keys[0]]
        assert report.failures[0].kind == "error"
        assert report.failures[0].attempts == policy.max_attempts
        assert report.retries == policy.max_attempts - 1
        assert keys[0] not in out
        for key in keys[1:]:
            assert out[key] == reference[key]

    def test_exhausted_session_raises_without_partial(self, engine, corpus):
        _, test = corpus
        keys = _keys(test)
        plan = FaultPlan({keys[1]: Fault("error", times=99)})
        with injected(plan):
            with pytest.raises(DecodeFailure) as exc:
                engine.predict_dataset(test, retry=RetryPolicy(
                    max_retries=1, backoff_base_s=0.0))
        assert exc.value.report.failed_keys() == [keys[1]]

    def test_transient_error_recovers(self, engine, corpus, reference):
        _, test = corpus
        keys = _keys(test)
        plan = FaultPlan({keys[2]: Fault("error", times=1)})
        with injected(plan):
            out = engine.predict_dataset(
                test, retry=RetryPolicy(backoff_base_s=0.0, jitter=0.0))
        assert engine.failure_report_.ok()
        assert engine.failure_report_.retries == 1
        assert out == reference

    def test_serial_crash_is_survivable(self, engine, corpus, reference):
        _, test = corpus
        keys = _keys(test)
        plan = FaultPlan({keys[0]: Fault("crash", times=1)})
        with injected(plan):
            out = engine.predict_dataset(
                test, retry=RetryPolicy(backoff_base_s=0.0, jitter=0.0))
        assert engine.failure_report_.crashes == 1
        assert out == reference

    def test_timeout_accounting(self, engine, corpus):
        _, test = corpus
        keys = _keys(test)
        # The injected delay dwarfs a natural decode (a few ms for these
        # tiny sessions), so only the delayed session can overrun.
        plan = FaultPlan({keys[3]: Fault("delay", times=99, delay_s=0.6)})
        with injected(plan):
            out = engine.predict_dataset(
                test,
                timeout_s=0.3,
                retry=RetryPolicy(max_retries=1, backoff_base_s=0.0),
                partial=True,
            )
        report = engine.failure_report_
        assert report.failed_keys() == [keys[3]]
        assert report.failures[0].kind == "timeout"
        assert report.timeouts == 2  # both attempts overran
        assert keys[3] not in out

    def test_timeout_validation(self, engine, corpus):
        _, test = corpus
        with pytest.raises(ValueError):
            engine.predict_dataset(test, timeout_s=0.0)


# -- batch decode: worker pool --------------------------------------------------


class TestPooledResilience:
    def test_worker_crash_recovers_with_one_pool_replacement(
        self, engine, corpus, reference
    ):
        _, test = corpus
        keys = _keys(test)
        plan = FaultPlan({keys[1]: Fault("crash", times=1)})
        before_ships = engine.model_ship_count_
        with injected(plan):
            out = engine.predict_dataset(
                test,
                workers=2,
                retry=RetryPolicy(backoff_base_s=0.0, jitter=0.0),
            )
        engine.close()
        assert out == reference
        report = engine.failure_report_
        assert report.ok()
        assert report.crashes >= 1
        assert report.pool_replacements == 1
        assert engine.pool_replacements_ >= 1
        # the replacement pool re-shipped the model to its workers
        assert engine.model_ship_count_ == before_ships + 2

    def test_pooled_partial_reports_exhausted_sessions(
        self, engine, corpus, reference
    ):
        _, test = corpus
        keys = _keys(test)
        policy = RetryPolicy(max_retries=1, backoff_base_s=0.0, jitter=0.0)
        plan = FaultPlan({keys[2]: Fault("error", times=policy.max_attempts)})
        with injected(plan):
            out = engine.predict_dataset(
                test, workers=2, retry=policy, partial=True)
        engine.close()
        assert engine.failure_report_.failed_keys() == [keys[2]]
        for key in keys:
            if key == keys[2]:
                assert key not in out
            else:
                assert out[key] == reference[key]

    def test_pool_starts_every_worker_at_its_first_task(self, engine):
        # A worker started lazily by a later submit() can miss the
        # broken-pool teardown after another worker crashes, and teardown
        # then waits for it forever.
        before = set(multiprocessing.active_children())
        try:
            future = engine._worker_pool(2).submit(os.getpid)
            started = set(multiprocessing.active_children()) - before
            assert len(started) == 2
            assert future.result(timeout=60) in {p.pid for p in started}
        finally:
            engine.close()

    def test_close_zeroes_pool_workers_gauge(self, engine, corpus):
        _, test = corpus
        obs.enable(metrics=True)
        obs.reset()
        try:
            engine.predict_dataset(test, workers=2)
            reg = obs.get_registry()
            assert reg.gauge("engine.pool_workers").value == 2
            engine.close()
            assert reg.gauge("engine.pool_workers").value == 0
        finally:
            engine.close()
            obs.disable()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_serial_and_pooled_account_alike(self, engine, corpus, reference, workers):
        """One wave loop serves both modes: the same plan yields the same
        report and labels whether attempts run inline or in a pool."""
        _, test = corpus
        keys = _keys(test)
        policy = RetryPolicy(max_retries=1, backoff_base_s=0.0, jitter=0.0)
        plan = FaultPlan({
            keys[0]: Fault("error", times=policy.max_attempts),
            keys[3]: Fault("error", times=1),
        })
        try:
            with injected(plan):
                out = engine.predict_dataset(
                    test, workers=workers, retry=policy, partial=True)
        finally:
            engine.close()
        report = engine.failure_report_
        assert report.failed_keys() == [keys[0]]
        assert [(f.kind, f.attempts) for f in report.failures] == [
            ("error", policy.max_attempts)
        ]
        assert report.retries == policy.max_attempts
        assert report.sessions_ok == len(keys) - 1
        assert out == {k: v for k, v in reference.items() if k != keys[0]}

    def test_subclass_model_is_refused_not_shipped(self, engine, corpus, tmp_path):
        """The artifact codec writes exact model families only: a reference
        subclass raises TypeError instead of being saved or shipped to a
        pool as its parent class."""
        _, test = corpus
        ref_engine = CaceEngine(strategy="c2", seed=11)
        ref_engine.rule_set_ = engine.rule_set_
        ref_engine.model_ = reference_model(engine.model_)
        path = tmp_path / "model.json"
        with pytest.raises(TypeError, match="ReferenceNChainHdbn"):
            save_engine(ref_engine, path)
        assert not path.exists()
        try:
            with pytest.raises(TypeError, match="ReferenceNChainHdbn"):
                ref_engine.predict_dataset(test, workers=2)
            assert ref_engine._pool is None
        finally:
            ref_engine.close()

    def test_obs_counters_match_report(self, engine, corpus):
        _, test = corpus
        keys = _keys(test)
        policy = RetryPolicy(max_retries=1, backoff_base_s=0.0, jitter=0.0)
        plan = FaultPlan({
            keys[0]: Fault("error", times=policy.max_attempts),
            keys[3]: Fault("error", times=1),
        })
        obs.enable(metrics=True)
        obs.reset()
        try:
            with injected(plan):
                engine.predict_dataset(test, retry=policy, partial=True)
            report = engine.failure_report_
            reg = obs.get_registry()
            assert reg.counter("engine.retries").value == report.retries
            assert (
                reg.counter("engine.session_failures").value
                == len(report.failures)
            )
            assert reg.counter("engine.sessions_decoded").value == report.sessions_ok
        finally:
            obs.disable()


# -- failure report surface -----------------------------------------------------


class TestFailureReport:
    def test_round_trip_and_describe(self, tmp_path):
        report = FailureReport(
            failures=[SessionFailure("s1", "crash", 3, "boom")],
            retries=4, timeouts=1, crashes=2, pool_replacements=1, sessions_ok=7,
        )
        assert not report.ok()
        assert report.sessions_failed == 1
        d = report.to_dict()
        assert d["failures"][0]["key"] == "s1"
        path = tmp_path / "report.json"
        report.save(path)
        assert json.loads(path.read_text())["retries"] == 4
        assert "1 failed" in report.describe()


# -- streaming: degraded serving ------------------------------------------------


class TestDegradedServing:
    def test_prior_macro_label_for_both_families(self, engine, fallback, corpus):
        train, _ = corpus
        assert prior_macro_label(engine.model_) in train.macro_vocab
        assert prior_macro_label(fallback) in train.macro_vocab

    def test_degraded_filter_never_raises(self, engine, fallback, corpus):
        _, test = corpus
        seq = test.sequences[0]
        filt = DegradedStepFilter(
            engine.model_, seq.resident_ids, fallback=fallback)
        good = filt.push_step(seq.steps[0])
        assert isinstance(good, DegradedLabels)
        assert set(good) == set(seq.resident_ids)
        bad = filt.push_step(corrupt_step(seq.steps[1], mode="nan"))
        assert isinstance(bad, DegradedLabels)  # fell back to the prior
        assert filt.stats.steps == 2

    def test_degraded_labels_tag(self):
        labels = DegradedLabels({"r1": "cooking"})
        assert labels == {"r1": "cooking"}
        assert getattr(labels, "degraded", False)
        assert not getattr({"r1": "cooking"}, "degraded", False)


class TestRouterResilience:
    def _steps(self, corpus, n=16):
        _, test = corpus
        seq = test.sequences[0]
        return seq, list(seq.steps)[:n]

    def _healthy_replay(self, engine, steps):
        router = SessionRouter(engine, lag=3)
        base = [router.push("s", st) for st in steps]
        return base, router.close_session("s")

    def test_quarantine_on_corrupt_step(self, engine, fallback, corpus):
        seq, steps = self._steps(corpus)
        base, _ = self._healthy_replay(engine, steps)
        router = SessionRouter(engine, lag=3, fallback=fallback)
        out = []
        for i, st in enumerate(steps):
            out.append(router.push(
                "s", corrupt_step(st, mode="nan") if i == 8 else st))
        assert router.session("s").degraded
        assert router.quarantined == 1
        assert out[:8] == base[:8]  # healthy prefix untouched
        assert all(getattr(o, "degraded", False) for o in out[8:])
        final = router.close_session("s")
        for rid in seq.resident_ids:
            assert len(final[rid]) == len(steps)  # no step lost a label
        snap = router.metrics_snapshot()
        assert snap["router"]["quarantined"] == 1
        assert snap["metrics"]["router.degraded_steps"]["value"] == len(steps) - 8
        assert snap["metrics"]["router.steps_rejected"]["value"] == 1

    @pytest.mark.parametrize("case", MALFORMED)
    def test_malformed_step_served_degraded(self, engine, fallback, corpus, case):
        """A malformed step of any type is rejected under the quarantine
        policy, through ``push`` and ``push_many`` alike: the healthy prefix
        is untouched and the session is served degraded from it on."""
        seq, steps = self._steps(corpus, n=10)
        base, _ = self._healthy_replay(engine, steps)
        steps[4] = _malformed_steps(steps[4], seq.resident_ids[0])[case]
        single = SessionRouter(engine, lag=3, on_error="quarantine", fallback=fallback)
        batched = SessionRouter(engine, lag=3, on_error="quarantine", fallback=fallback)
        outs = ([single.push("s", st) for st in steps], batched.push_many("s", steps))
        for router, out in zip((single, batched), outs):
            assert out[:4] == base[:4]
            assert all(getattr(o, "degraded", False) for o in out[4:])
            assert router.session("s").degraded
            snap = router.metrics_snapshot()["metrics"]
            assert snap["router.steps_rejected"]["value"] == 1
            final = router.close_session("s")
            assert all(len(final[rid]) == len(steps) for rid in seq.resident_ids)

    def test_smoother_exception_quarantines(self, engine, fallback, corpus):
        seq, steps = self._steps(corpus, n=8)
        router = SessionRouter(engine, lag=3, fallback=fallback)
        for st in steps[:5]:
            router.push("s", st)

        def boom(t):
            raise RuntimeError("kaboom")

        router.session("s").smoother.push = boom
        out = router.push("s", steps[5])
        assert getattr(out, "degraded", False)
        assert router.session("s").degraded
        final = router.close_session("s")
        for rid in seq.resident_ids:
            assert len(final[rid]) == 6

    def test_reset_policy_rebuilds_session(self, engine, corpus):
        _, steps = self._steps(corpus)
        router = SessionRouter(engine, lag=3, on_error="reset")
        for i, st in enumerate(steps):
            if i == 8:
                assert router.push(
                    "s", corrupt_step(st, mode="alien")) is None
            else:
                router.push("s", st)
        state = router.session("s")
        assert not state.degraded
        assert router.resets == 1
        assert state.pushed == len(steps) - 9  # buffer restarted after step 8
        router.close_session("s")

    def test_raise_policy_propagates(self, engine, corpus):
        _, steps = self._steps(corpus, n=4)
        router = SessionRouter(engine, lag=3, on_error="raise")
        router.push("s", steps[0])
        with pytest.raises(StepValidationError):
            router.push("s", corrupt_step(steps[1], mode="empty"))

    def test_invalid_on_error_rejected(self, engine):
        with pytest.raises(ValueError):
            SessionRouter(engine, on_error="panic")

    def test_invalid_opening_step_is_dropped(self, engine, corpus):
        _, steps = self._steps(corpus, n=2)
        router = SessionRouter(engine, lag=3)
        assert router.push("zz", corrupt_step(steps[0], mode="empty")) is None
        assert "zz" not in router

    def test_push_many_mid_batch_corruption(self, engine, fallback, corpus):
        _, steps = self._steps(corpus, n=12)
        base, _ = self._healthy_replay(engine, steps)
        router = SessionRouter(engine, lag=3, fallback=fallback)
        batch = list(steps)
        batch[6] = corrupt_step(batch[6], mode="nan")
        out = router.push_many("s", batch)
        assert len(out) == len(batch)
        assert out[:6] == base[:6]
        assert all(getattr(o, "degraded", False) for o in out[6:])
        assert router.session("s").pushed == len(batch)

    def test_push_many_healthy_matches_per_step(self, engine, corpus):
        _, steps = self._steps(corpus)
        base, base_final = self._healthy_replay(engine, steps)
        router = SessionRouter(engine, lag=3)
        assert router.push_many("s", steps) == base
        assert router.close_session("s") == base_final

    def test_degraded_without_fallback_uses_prior(self, engine, corpus):
        _, steps = self._steps(corpus, n=4)
        router = SessionRouter(engine, lag=3)
        router.push("s", steps[0])
        router.push("s", corrupt_step(steps[1], mode="nan"))
        out = router.push("s", steps[2])
        assert getattr(out, "degraded", False)
        prior = prior_macro_label(engine.model_)
        assert set(out.values()) == {prior}

    def test_quarantined_session_buffers_no_steps(self, engine, fallback, corpus):
        """Degraded serving reads only the step it is given: a quarantined
        session counts every step it serves but keeps none of them, through
        ``push`` and ``push_many`` alike."""
        _, steps = self._steps(corpus)
        router = SessionRouter(engine, lag=3, fallback=fallback)
        for i, st in enumerate(steps[:10]):
            router.push("s", corrupt_step(st, mode="nan") if i == 4 else st)
        router.push_many("s", steps[10:])
        state = router.session("s")
        assert state.degraded
        assert state.pushed == len(steps)
        assert state.seq.steps.floor == state.seq.truths.floor == len(steps)
        with pytest.raises(IndexError):
            state.seq.steps[len(steps) - 1]
        assert len(state.committed) == len(steps)

    def test_describe_marks_degraded_sessions(self, engine, corpus):
        _, steps = self._steps(corpus, n=4)
        router = SessionRouter(engine, lag=3)
        router.push("a", steps[0])
        router.push("b", steps[0])
        router.push("b", corrupt_step(steps[1], mode="nan"))
        d = router.describe_dict()
        assert "degraded" not in d["sessions"]["a"]
        assert d["sessions"]["b"]["degraded"] is True
        assert d["degraded_sessions"] == 1


# -- acceptance: seeded chaos leaves untouched sessions bit-identical -----------


class TestChaosAcceptance:
    def test_env_seeded_plan_is_transparent_with_default_retries(
        self, engine, corpus, reference, monkeypatch
    ):
        """The CI chaos mode: REPRO_FAULT_SEED injects single-shot faults
        everywhere, default retries absorb them, results stay
        bit-identical and the report stays clean."""
        _, test = corpus
        monkeypatch.setenv(faultinject.ENV_SEED, "86")
        out = engine.predict_dataset(test)
        assert out == reference
        assert engine.failure_report_.ok()

    def test_planned_chaos_accounting_is_exact(self, engine, corpus, reference):
        _, test = corpus
        keys = _keys(test)
        policy = RetryPolicy(max_retries=2, backoff_base_s=0.0, jitter=0.0)
        plan = FaultPlan.from_seed(
            86, keys, n_crash=1, n_delay=1, n_error=1, times=1, delay_s=0.01
        )
        doomed = next(k for k in keys if k not in plan.faults)
        plan.faults[doomed] = Fault("error", times=policy.max_attempts)
        assert plan.expected_failures(policy.max_attempts) == [doomed]
        with injected(plan):
            out = engine.predict_dataset(test, retry=policy, partial=True)
        report = engine.failure_report_
        assert report.failed_keys() == [doomed]
        for key in keys:
            if key == doomed:
                assert key not in out
            else:
                assert out[key] == reference[key]
