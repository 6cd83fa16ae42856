"""Multi-session serving over one fitted recogniser.

A deployment serves many concurrent streams — several homes, several
recording sessions — against a single loaded model artifact.  The
:class:`SessionRouter` owns that model and a bounded LRU table of live
sessions, each wrapped in its own
:class:`~repro.core.smoother.OnlineSmoother` (per-session smoothers keep
per-session :class:`~repro.core.api.DecodeStats` that their trellis
sessions count into, so interleaved streams never mix their counters).

Steps are pushed as plain :class:`~repro.datasets.trace.ContextStep`
objects, one per ``push`` or a batch per ``push_many``; both take the one
step path: validate, auto-open, append each maximal run of valid steps
to a per-session sequence buffer the smoother's trellis adapters read
from, batch-build the run's evidence
(:meth:`~repro.core.smoother.OnlineSmoother.prepare_range`), push its
steps, then release and commit.  Arbitrary interleavings across sessions
therefore commit exactly the labels a sequential replay would.  The
buffer is a :class:`~repro.datasets.trace.StepWindow`: once
the smoother has consumed a step the router releases it, so a live
session holds O(lag) steps whatever its length (its committed labels are
the one per-step record it keeps).  When the session table is full the
least-recently-used session is evicted: its lag window is flushed, its
stats merged into the aggregate, and its buffered state freed.

Fault isolation: every incoming step is validated
(:func:`~repro.resilience.validate_step`) and a session whose smoother
raises is handled per the ``on_error`` policy — ``"quarantine"`` (the
default) flushes the healthy lag window and switches the session to
degraded-mode serving (cheap fallback / prior-only labels, each commit a
:class:`~repro.resilience.DegradedLabels` tagged ``degraded=True``),
``"reset"`` rebuilds the session's smoother from scratch, ``"raise"``
propagates.  One poisoned stream never takes down its neighbours.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.core.api import DecodeStats, Recognizer
from repro.core.smoother import OnlineSmoother
from repro.datasets.trace import ContextStep, LabeledSequence, StepWindow
from repro.obs import runtime as obs
from repro.obs.metrics import MetricsRegistry
from repro.resilience.streaming import (
    DegradedStepFilter,
    StepValidationError,
    validate_step,
)

#: Valid ``SessionRouter(on_error=...)`` policies.
ON_ERROR_POLICIES = ("quarantine", "reset", "raise")


def derived_metrics(registry: MetricsRegistry) -> Dict[str, float]:
    """Rates derived from *registry*'s raw counters (the ``"derived"``
    section of :meth:`SessionRouter.metrics_snapshot` and of the CLI's
    ``--metrics-out`` JSON)."""
    computed = registry.counter("smoother.trans_blocks_computed").value
    reused = registry.counter("smoother.trans_blocks_reused").value
    total = computed + reused
    return {
        # Fraction of lag-window transition-block reads served by the
        # push-time cache instead of a recomputation.
        "smoother_trans_cache_hit_rate": (reused / total) if total else 0.0,
    }


@dataclass
class SessionState:
    """One live stream: its step buffer, smoother, and committed labels."""

    seq: LabeledSequence
    smoother: OnlineSmoother
    #: Labels committed so far, in step order (one dict per committed step).
    committed: List[Dict[str, str]] = field(default_factory=list)
    #: True once the session is quarantined into degraded-mode serving.
    degraded: bool = False
    #: The fallback labeller serving this session while degraded.
    degraded_filter: Optional[DegradedStepFilter] = None

    @property
    def stats(self) -> DecodeStats:
        """This session's work accounting."""
        return self.smoother.stats

    @property
    def pushed(self) -> int:
        """Number of steps consumed so far."""
        return len(self.seq)

    def release(self, t: int) -> None:
        """Drop the buffered steps below *t*: the smoother has consumed them."""
        self.seq.steps.release(t)
        self.seq.truths.release(t)

    def labels(self) -> Dict[str, List[str]]:
        """Committed labels pivoted per resident."""
        rids = self.smoother.residents
        return {rid: [step[rid] for step in self.committed] for rid in rids}


class SessionRouter:
    """Route interleaved context streams through per-session smoothers.

    Parameters
    ----------
    model:
        A fitted :class:`~repro.core.api.Recognizer`, or a fitted
        :class:`~repro.core.engine.CaceEngine` (its ``model_`` is used).
    lag:
        Fixed-lag smoothing latency for every session (0 = filtering).
    max_sessions:
        Upper bound on concurrently open sessions; exceeding it evicts the
        least-recently-used session (flushing it first).
    metrics:
        Metrics destination.  ``None`` uses the process-wide registry when
        observability is enabled, else a private registry — so
        :meth:`metrics_snapshot` is always meaningful.  Every session's
        smoother reports into the same registry (aggregate latency
        histograms); per-session isolation stays in per-session
        :class:`DecodeStats`.
    on_error:
        What to do when a session's step fails validation or its smoother
        raises: ``"quarantine"`` (default) flushes the healthy lag window
        and serves the session degraded from then on, ``"reset"`` rebuilds
        the session's smoother (committed labels are kept, the buffered
        window and the offending step are dropped), ``"raise"``
        propagates the error to the caller.
    fallback:
        Optional cheap recogniser (e.g. a fitted
        :class:`~repro.models.hmm.MacroHmm`) used for degraded-mode
        per-step labels; without one, degraded sessions emit the model's
        prior-argmax label.
    """

    def __init__(
        self,
        model: Union[Recognizer, object],
        lag: int = 4,
        max_sessions: int = 64,
        metrics: Optional[MetricsRegistry] = None,
        on_error: str = "quarantine",
        fallback: Optional[Recognizer] = None,
    ) -> None:
        inner = getattr(model, "model_", model)
        if inner is None:
            raise ValueError("model is not fitted")
        if lag < 0:
            raise ValueError(f"lag must be >= 0, got {lag}")
        if max_sessions < 1:
            raise ValueError(f"max_sessions must be >= 1, got {max_sessions}")
        if on_error not in ON_ERROR_POLICIES:
            raise ValueError(
                f"on_error must be one of {ON_ERROR_POLICIES}, got {on_error!r}"
            )
        self.model: Recognizer = inner
        self.lag = lag
        self.max_sessions = max_sessions
        self.on_error = on_error
        self.fallback = getattr(fallback, "model_", fallback)
        self._sessions: "OrderedDict[str, SessionState]" = OrderedDict()
        #: Merged DecodeStats of every closed/evicted session.
        self.aggregate_stats = DecodeStats()
        #: Sessions evicted to honour ``max_sessions`` (observability).
        self.evicted = 0
        #: Sessions quarantined into degraded-mode serving so far.
        self.quarantined = 0
        #: Sessions rebuilt by the ``"reset"`` policy so far.
        self.resets = 0
        if metrics is None:
            metrics = obs.registry_if_enabled() or MetricsRegistry()
        self.metrics = metrics
        self._h_push = metrics.histogram("router.push_seconds")
        self._h_push_many = metrics.histogram("router.push_many_seconds")
        self._c_steps = metrics.counter("router.steps")
        self._c_opened = metrics.counter("router.sessions_opened")
        self._c_closed = metrics.counter("router.sessions_closed")
        self._c_evicted = metrics.counter("router.sessions_evicted")
        self._g_active = metrics.gauge("router.sessions_active")
        self._c_quarantined = metrics.counter("router.sessions_quarantined")
        self._c_reset = metrics.counter("router.sessions_reset")
        self._c_rejected = metrics.counter("router.steps_rejected")
        self._c_degraded_steps = metrics.counter("router.degraded_steps")
        self._g_degraded = metrics.gauge("router.sessions_degraded")

    # -- session lifecycle ---------------------------------------------------------

    def open_session(
        self,
        session_id: str,
        resident_ids: Tuple[str, ...],
        step_s: float = 15.0,
    ) -> SessionState:
        """Explicitly open a session (``push`` auto-opens otherwise)."""
        if session_id in self._sessions:
            raise ValueError(f"session {session_id!r} is already open")
        seq = LabeledSequence(
            home_id=session_id,
            resident_ids=tuple(resident_ids),
            step_s=step_s,
            steps=StepWindow(),
            truths=StepWindow(),
        )
        # Every session's smoother reports into the router's registry.
        smoother = OnlineSmoother(self.model, lag=self.lag, metrics=self.metrics)
        smoother.start(seq)
        state = SessionState(seq=seq, smoother=smoother)
        self._sessions[session_id] = state
        self._c_opened.inc()
        self._evict_over_capacity(keep=session_id)
        self._g_active.set(len(self._sessions))
        return state

    def push(self, session_id: str, step: ContextStep) -> Optional[Dict[str, str]]:
        """Consume one step for *session_id*; auto-opens on first step.

        Returns the labels committed by this push (the step ``lag`` behind
        the stream head), or None while the lag window is still filling.
        A quarantined session returns a :class:`DegradedLabels` dict for
        every push instead.
        """
        t_push = time.perf_counter()
        try:
            return self._push_run(session_id, [step], 0)[1][0]
        finally:
            self._h_push.observe(time.perf_counter() - t_push)

    def push_many(
        self, session_id: str, steps: List[ContextStep]
    ) -> List[Optional[Dict[str, str]]]:
        """Consume a batch of steps for *session_id* in one call.

        Maximal runs of valid steps are appended to the session buffer
        first, so the smoother's trellis adapters batch-build their
        per-sequence evidence tables across the run instead of
        re-dispatching per step.  Returns one entry per pushed step —
        exactly what step-by-step :meth:`push` would have returned (None
        entries while the lag window fills, degraded/None entries per the
        ``on_error`` policy when steps fail).
        """
        if not steps:
            return []
        t_push = time.perf_counter()
        out: List[Optional[Dict[str, str]]] = []
        try:
            i = 0
            while i < len(steps):
                consumed, labels = self._push_run(session_id, steps, i)
                out.extend(labels)
                i += consumed
            return out
        finally:
            self._h_push_many.observe(time.perf_counter() - t_push)

    def close_session(self, session_id: str) -> Dict[str, List[str]]:
        """Flush the lag window, free the session, return all its labels."""
        if session_id not in self._sessions:
            raise KeyError(f"unknown session {session_id!r}")
        state = self._sessions.pop(session_id)
        self._c_closed.inc()
        self._g_active.set(len(self._sessions))
        return self._finish(state)

    def close_all(self) -> Dict[str, Dict[str, List[str]]]:
        """Close every open session; labels keyed by session id."""
        out = {}
        while self._sessions:
            sid, state = self._sessions.popitem(last=False)
            self._c_closed.inc()
            out[sid] = self._finish(state)
        self._g_active.set(0)
        return out

    # -- introspection -------------------------------------------------------------

    def session(self, session_id: str) -> SessionState:
        """The live state of an open session (does not touch LRU order)."""
        return self._sessions[session_id]

    def __len__(self) -> int:
        return len(self._sessions)

    def __contains__(self, session_id: str) -> bool:
        return session_id in self._sessions

    def describe_dict(self) -> Dict[str, object]:
        """Structured router state: configuration, lifecycle counters, and
        per-session step counters (:meth:`describe` and
        :meth:`metrics_snapshot` both render from this)."""
        return {
            "lag": self.lag,
            "max_sessions": self.max_sessions,
            "open_sessions": len(self._sessions),
            "evicted": self.evicted,
            "on_error": self.on_error,
            "quarantined": self.quarantined,
            "resets": self.resets,
            "degraded_sessions": self._degraded_count(),
            "model": self.model.describe(),
            "sessions": {
                sid: self._describe_session(state)
                for sid, state in self._sessions.items()
            },
        }

    def _describe_session(self, state: SessionState) -> Dict[str, object]:
        d: Dict[str, object] = {
            "pushed": state.pushed,
            "committed": len(state.committed),
            "window": state.smoother.window,
        }
        if state.degraded:
            # Only present when True, so healthy snapshots stay lean.
            d["degraded"] = True
        return d

    def describe(self) -> str:
        """One-line summary for logs and CLIs."""
        d = self.describe_dict()
        return (
            f"SessionRouter(lag={d['lag']}, "
            f"{d['open_sessions']}/{d['max_sessions']} sessions, "
            f"{d['evicted']} evicted): {d['model']}"
        )

    def metrics_snapshot(self) -> Dict[str, object]:
        """JSON-ready observability snapshot: structured router state, the
        full metrics registry (router gauges, push-latency histograms, the
        smoothers' lag-window instruments), and derived rates."""
        return {
            "router": self.describe_dict(),
            "derived": derived_metrics(self.metrics),
            "metrics": self.metrics.snapshot(),
        }

    # -- internals -----------------------------------------------------------------

    def _finish(self, state: SessionState) -> Dict[str, List[str]]:
        if state.degraded:
            # The healthy window was flushed at quarantine time; a second
            # flush is a no-op for a consistent smoother and must never
            # block session teardown for a poisoned one.
            try:
                state.committed.extend(state.smoother.flush())
            except Exception:
                pass
            self.aggregate_stats.merge(state.degraded_filter.stats)
        else:
            state.committed.extend(state.smoother.flush())
        self.aggregate_stats.merge(state.stats)
        self._g_degraded.set(self._degraded_count())
        return state.labels()

    def _evict_over_capacity(self, keep: str) -> None:
        while len(self._sessions) > self.max_sessions:
            sid, state = next(iter(self._sessions.items()))
            if sid == keep:  # never evict the session we just opened
                self._sessions.move_to_end(sid)
                continue
            del self._sessions[sid]
            self._finish(state)
            self.evicted += 1
            self._c_evicted.inc()

    # -- fault handling ------------------------------------------------------------

    def _degraded_count(self) -> int:
        return sum(1 for s in self._sessions.values() if s.degraded)

    def _degraded_push(
        self, state: SessionState, step: ContextStep, append: bool = True
    ) -> Dict[str, str]:
        """Serve one step of a quarantined session through its fallback
        (which reads only *step*, so the buffer keeps none of them; they
        still count as pushed)."""
        if append:
            state.seq.steps.append(step)
            state.seq.truths.append({})
        state.release(len(state.seq))
        labels = state.degraded_filter.push_step(step)
        state.committed.append(labels)
        self._c_steps.inc()
        self._c_degraded_steps.inc()
        return labels

    def _quarantine(
        self, state: SessionState, step: ContextStep, append: bool
    ) -> Dict[str, str]:
        """Flush the healthy window, switch to degraded serving, and serve
        *step* (``append=False`` when the step already sits in the buffer,
        i.e. the smoother choked on it after the append)."""
        self.quarantined += 1
        self._c_quarantined.inc()
        try:
            state.committed.extend(state.smoother.flush())
        except Exception:
            pass  # a poisoned window forfeits its lag tail
        state.degraded = True
        state.degraded_filter = DegradedStepFilter(
            self.model,
            state.seq.resident_ids,
            fallback=self.fallback,
            step_s=state.seq.step_s,
        )
        self._g_degraded.set(self._degraded_count())
        return self._degraded_push(state, step, append=append)

    def _reset_session(self, state: SessionState) -> None:
        """Rebuild the session's smoother from scratch: committed labels
        survive, the buffered window and offending step do not."""
        self.resets += 1
        self._c_reset.inc()
        self.aggregate_stats.merge(state.stats)
        state.seq.steps.clear()
        state.seq.truths.clear()
        smoother = OnlineSmoother(self.model, lag=self.lag, metrics=self.metrics)
        smoother.start(state.seq)
        state.smoother = smoother

    def _handle_error(
        self,
        session_id: str,
        state: Optional[SessionState],
        step: ContextStep,
        exc: Exception,
        appended: bool,
    ) -> Optional[Dict[str, str]]:
        """Policy dispatch for *step*: it failed validation (not yet in the
        buffer) or the smoother raised on it (``appended``)."""
        if not appended:
            self._c_rejected.inc()
        if self.on_error == "raise":
            raise exc
        if state is None:
            # Nothing to quarantine or reset: an invalid opening step is
            # dropped without creating a session.
            return None
        self._sessions.move_to_end(session_id)
        if self.on_error == "reset":
            self._reset_session(state)
            return None
        return self._quarantine(state, step, append=not appended)

    def _push_run(
        self, session_id: str, steps: List[ContextStep], i: int
    ) -> Tuple[int, List[Optional[Dict[str, str]]]]:
        """Consume a maximal homogeneous run of ``steps[i:]``; returns
        ``(n_consumed, labels)`` with one label entry per consumed step."""
        state = self._sessions.get(session_id)
        if state is not None and state.degraded:
            self._sessions.move_to_end(session_id)
            labels = [self._degraded_push(state, step) for step in steps[i:]]
            return len(steps) - i, labels
        # The run: steps[i:j], all valid.  A new session's residents are
        # its first step's.
        rids = state.seq.resident_ids if state is not None else None
        j = i
        while j < len(steps):
            try:
                validate_step(steps[j], rids)
            except StepValidationError as exc:
                if j == i:
                    return 1, [
                        self._handle_error(session_id, state, steps[i], exc, False)
                    ]
                break
            rids = rids or tuple(sorted(steps[j].observations))
            j += 1
        if state is None:
            state = self.open_session(session_id, resident_ids=rids)
        else:
            self._sessions.move_to_end(session_id)
        # Append the run, bulk-prepare its evidence, push it step by step.
        t0 = len(state.seq.steps)
        state.seq.steps.extend(steps[i:j])
        state.seq.truths.extend({} for _ in range(i, j))
        out: List[Optional[Dict[str, str]]] = []
        error: Optional[Exception] = None
        try:
            state.smoother.prepare_range(t0, t0 + (j - i))
            for t in range(t0, t0 + (j - i)):
                labels = state.smoother.push(t)
                if labels is not None:
                    state.committed.append(labels)
                out.append(labels)
                self._c_steps.inc()
        except Exception as exc:  # noqa: BLE001 — isolate any decode fault
            error = exc
        t = t0 + len(out)
        state.release(t)
        if error is not None:
            # Drop the unconsumed tail from the buffer; the failing step t
            # stays (it was appended when the smoother choked on it), then
            # hand it to the policy.
            del state.seq.steps[t + 1 :]
            del state.seq.truths[t + 1 :]
            failed = steps[i + len(out)]
            out.append(self._handle_error(session_id, state, failed, error, True))
        return len(out), out
