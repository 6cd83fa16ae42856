"""End-to-end CACE engine (the Fig 2 pipeline).

``CaceEngine.fit`` runs the context miners appropriate to the selected
pruning strategy and assembles the recogniser; ``predict`` decodes macro
activities for a session.  ``build_seconds`` holds the last ``fit``'s
wall-clock — the paper's computational-overhead metric (Fig 11b, "total
time required to build entire model") — and ``decode_seconds`` the
decode wall-clock accumulated since then.

Batched decoding: ``predict_dataset(dataset, workers=N)`` fans whole
sessions across worker processes (sessions are independent given a fitted
model, so this is embarrassingly parallel) and merges each session's
:class:`~repro.core.api.DecodeStats` into ``batch_stats_`` — the
aggregate the throughput benchmarks and capacity planning read.  The model
reaches the workers once per pool lifetime, as its ``repro.model/1`` JSON
payload (:func:`repro.util.artifacts.model_to_payload`).
``posterior_marginals`` is available for every strategy, including NCR's
frame-wise posteriors, so ROC/PRC sweeps cover all four.

Fault tolerance: serial and pooled batches run through one wave loop.
Every pending session is submitted, results are drained in submission
order, and the sessions to retry form the next wave; with one worker no
pool is built and each attempt runs in this process as it is submitted.
Every batch runs under a :class:`~repro.resilience.RetryPolicy` (bounded
retries, exponential backoff with deterministic jitter, slept once per
wave as the longest of that wave's delays), per-session timeouts
(``timeout_s``), and automatic pool replacement after a worker crash
(``BrokenProcessPool`` — the pool is respawned once per call, re-shipping
the model's JSON payload, and every unfinished session is re-submitted).
With ``partial=True`` a batch never raises: completed sessions are
returned and the structured :class:`~repro.resilience.FailureReport`
lands in ``failure_report_``.
"""

from __future__ import annotations

import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.api import DecodeStats, Recognizer
from repro.core.hdbn import SingleUserHdbn
from repro.core.loosely_coupled import PAIR_CAPS, NChainHdbn
from repro.core.pruning import PruningStrategy
from repro.datasets.trace import Dataset, LabeledSequence
from repro.mining.constraint_miner import ConstraintMiner
from repro.mining.correlation_miner import CorrelationMiner, CorrelationRuleSet
from repro.models.hmm import MacroHmm
from repro.obs import runtime as obs
from repro.resilience import faultinject
from repro.resilience.policy import (
    DEFAULT_RETRY_POLICY,
    DecodeFailure,
    FailureReport,
    RetryPolicy,
    SessionFailure,
    SessionTimeout,
)
from repro.util.rng import RandomState, ensure_rng
from repro.util.validation import check_positive


#: Per-worker-process model installed by :func:`_init_worker` — loaded once
#: per pool lifetime instead of being shipped with every task submission.
_WORKER_MODEL: Optional[Recognizer] = None


def _init_worker(payload: bytes) -> None:
    """Pool initializer: load the fitted model from its ``repro.model/1``
    JSON payload once per worker."""
    from repro.util.artifacts import model_from_payload  # lazy: cycle

    global _WORKER_MODEL
    faultinject.mark_worker()  # arms real os._exit crash injection
    _WORKER_MODEL = model_from_payload(payload)


def _decode_attempt(model: Recognizer, key: str, seq: LabeledSequence, attempt: int):
    """One attempt at one session.  Returns ``(predictions, DecodeStats,
    decode_seconds)`` — the decode wall-clock lets the parent split a
    future's turnaround into decode time vs queue wait, and is what
    per-session timeouts are checked against.

    ``attempt`` is the 1-based retry ordinal; the fault-injection hook
    uses it to stop firing once a planned fault is spent."""
    t0 = time.perf_counter()
    faultinject.maybe_inject(key, attempt)
    stats = DecodeStats()
    pred = model.decode(seq, stats)
    return pred, stats, time.perf_counter() - t0


def _decode_session(key: str, seq: LabeledSequence, attempt: int):
    """Pool task: one attempt against the worker-resident model.
    Submitting sessions one at a time gives dynamic scheduling (fast
    workers pick up the next session instead of idling behind a
    pre-assigned chunk)."""
    return _decode_attempt(_WORKER_MODEL, key, seq, attempt)


def _run_inline(model: Recognizer, key: str, seq: LabeledSequence, attempt: int) -> Future:
    """One attempt run now, in this process, into a completed future."""
    future: Future = Future()
    try:
        future.set_result(_decode_attempt(model, key, seq, attempt))
    except Exception as exc:  # noqa: BLE001 — the wave loop accounts it
        future.set_exception(exc)
    return future


class _BatchInstruments:
    """Cached obs handles for one predict_dataset call (None when off)."""

    __slots__ = (
        "decode",
        "wait",
        "sessions",
        "retries",
        "timeouts",
        "failures",
        "pool_replacements",
    )

    def __init__(self, reg) -> None:
        self.decode = reg.histogram("engine.decode_seconds")
        self.wait = reg.histogram("engine.queue_wait_seconds")
        self.sessions = reg.counter("engine.sessions_decoded")
        self.retries = reg.counter("engine.retries")
        self.timeouts = reg.counter("engine.timeouts")
        self.failures = reg.counter("engine.session_failures")
        self.pool_replacements = reg.counter("engine.pool_replacements")


def _failure_kind(exc: BaseException) -> str:
    """Map an attempt's exception onto the shared failure taxonomy."""
    from concurrent.futures import TimeoutError as FuturesTimeout
    from concurrent.futures.process import BrokenProcessPool

    if isinstance(exc, (SessionTimeout, FuturesTimeout)):
        return "timeout"
    if isinstance(exc, BrokenProcessPool) or getattr(exc, "kind", None) == "crash":
        return "crash"
    return "error"


@dataclass
class CaceEngine:
    """High-level recogniser with pluggable pruning strategy.

    Parameters
    ----------
    strategy:
        ``"nh"`` / ``"ncr"`` / ``"ncs"`` / ``"c2"`` (the CACE default).
    min_support / min_confidence:
        Apriori thresholds for the correlation miner (paper: 4% / 99%).
    initial_rules:
        Optional user-seeded rules (Base application, Fig 12); merged with
        mined rules for correlation-using strategies.
    max_states_per_user:
        Per-resident candidate cap of NCR and of resident pairs (3+ chains: 24).
    """

    strategy: str = "c2"
    min_support: float = 0.04
    min_confidence: float = 0.99
    initial_rules: Optional[CorrelationRuleSet] = None
    gmm_components: int = 4
    max_states_per_user: int = 36
    seed: RandomState = None
    #: Wall-clock of the last ``fit`` (0.0 for a loaded artifact).
    build_seconds: float = field(default=0.0, init=False)
    #: Wall-clock of every ``predict`` / ``predict_dataset`` call since the
    #: last ``fit``, including calls that raised.
    decode_seconds: float = field(default=0.0, init=False)
    rule_set_: Optional[CorrelationRuleSet] = field(default=None, init=False)
    model_: Optional[Recognizer] = field(default=None, init=False)
    #: Aggregate DecodeStats of the last predict_dataset call.
    batch_stats_: Optional[DecodeStats] = field(default=None, init=False)
    #: Structured failure outcome of the last predict_dataset call
    #: (empty report when every session succeeded).
    failure_report_: Optional[FailureReport] = field(default=None, init=False)
    #: Worker pools replaced after a crash, over the engine's lifetime.
    pool_replacements_: int = field(default=0, init=False)
    _rng: np.random.Generator = field(init=False, repr=False)
    #: Times the fitted model was serialised for worker shipping (once per
    #: pool lifetime — observability for the ship-once contract).
    model_ship_count_: int = field(default=0, init=False)
    #: Lazily created worker pool, reused across predict_dataset calls so
    #: steady-state batched decoding doesn't pay process spawn per batch.
    _pool: object = field(default=None, init=False, repr=False)
    _pool_workers: int = field(default=0, init=False, repr=False)
    #: Strong reference to the model the live pool was initialised with; a
    #: refit swaps ``model_`` and forces a pool rebuild.  (Identity of a
    #: held reference, not ``id()`` of a dead one — ids get reused.)
    _pool_model_ref: object = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        check_positive("max_states_per_user", self.max_states_per_user)
        self._strategy = PruningStrategy(self.strategy)
        self._rng = ensure_rng(self.seed)

    # -- training ------------------------------------------------------------------

    def fit(self, train: Dataset) -> "CaceEngine":
        """Mine rules/constraints per the strategy and build the model."""
        t0 = time.perf_counter()
        self.decode_seconds = 0.0
        strategy = self._strategy

        if strategy.name == "nh":
            self.model_ = MacroHmm().fit(train)
            self.build_seconds = time.perf_counter() - t0
            return self

        rule_set: Optional[CorrelationRuleSet] = None
        if strategy.uses_correlations:
            miner = CorrelationMiner(
                min_support=self.min_support, min_confidence=self.min_confidence
            )
            rule_set = miner.mine(train.sequences)
            if self.initial_rules is not None:
                rule_set = rule_set.merge(self.initial_rules)
        elif self.initial_rules is not None:
            rule_set = self.initial_rules
        self.rule_set_ = rule_set

        constraint_model = ConstraintMiner().fit(
            train.sequences,
            train.macro_vocab,
            train.postural_vocab,
            train.gestural_vocab if train.has_gestural else (),
            train.subloc_vocab,
        )

        n_residents = max(
            (len(seq.resident_ids) for seq in train.sequences), default=2
        )
        if strategy.name == "ncr":
            model = SingleUserHdbn(
                constraint_model=constraint_model,
                rule_set=rule_set,
                gmm_components=self.gmm_components,
                max_states_per_user=self.max_states_per_user,
                seed=self._rng.integers(0, 2**31),
            )
        else:
            # ncs / c2: the coupled HDBN over every resident chain.  Pairs
            # keep the testbed's per-user and ncs caps: trios given them kept
            # their labels but ran slower in 3 of 3 stream-trio runs.
            pair = {**PAIR_CAPS, "max_states_per_user": self.max_states_per_user}
            caps = pair if n_residents <= 2 else {}
            model = NChainHdbn(
                constraint_model=constraint_model,
                rule_set=rule_set if strategy.name == "c2" else None,
                gmm_components=self.gmm_components,
                seed=self._rng.integers(0, 2**31),
                **caps,
            )
        model.fit(train)
        self.model_ = model
        self.build_seconds = time.perf_counter() - t0
        return self

    # -- inference ------------------------------------------------------------------

    def predict(self, seq: LabeledSequence) -> Dict[str, List[str]]:
        """Per-resident macro labels for one session."""
        if self.model_ is None:
            raise RuntimeError("engine is not fitted")
        t0 = time.perf_counter()
        try:
            return self.model_.decode(seq)
        finally:
            self.decode_seconds += time.perf_counter() - t0

    def predict_dataset(
        self,
        dataset: Dataset,
        workers: int = 1,
        *,
        timeout_s: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        partial: bool = False,
    ) -> Dict[str, Dict[str, List[str]]]:
        """Predictions keyed by a per-sequence identifier.

        With ``workers > 1`` sessions are fanned across that many worker
        processes (the fitted model is shipped to each worker once, as its
        JSON payload; a model the artifact codec cannot write raises
        ``TypeError``).  With one worker no pool is built and sessions
        decode in this process.  Per-session :class:`DecodeStats` are
        merged into ``batch_stats_`` and the batch's wall-clock is added
        to ``decode_seconds`` in both modes.

        Fault tolerance
        ---------------
        Each session is attempted up to ``retry.max_attempts`` times
        (default :data:`~repro.resilience.DEFAULT_RETRY_POLICY`).  Failed
        sessions are retried in waves, after one backoff sleep per wave
        (the longest of the wave's exponential, deterministically
        jittered delays).  ``timeout_s`` bounds one attempt's decode
        wall-clock: it is checked against the attempt's measured
        duration, and with a pool also enforced while waiting on the
        future (a hung worker is abandoned and the session re-submitted).
        A worker crash breaks the whole pool (``BrokenProcessPool``); the
        pool is respawned once per call — re-shipping the model's JSON
        payload — and every unfinished session re-submitted.

        The structured outcome lands in ``failure_report_`` (always set,
        empty on a clean run).  Sessions that exhaust their attempts
        raise :class:`~repro.resilience.DecodeFailure` — unless
        ``partial=True``, which returns the completed sessions and
        leaves the failures in the report instead.
        """
        if self.model_ is None:
            raise RuntimeError("engine is not fitted")
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError(f"timeout_s must be > 0, got {timeout_s}")
        policy = retry if retry is not None else DEFAULT_RETRY_POLICY
        items = [
            (f"{seq.home_id}:{i}", seq) for i, seq in enumerate(dataset.sequences)
        ]
        self.batch_stats_ = DecodeStats()
        report = FailureReport()
        self.failure_report_ = report
        out: Dict[str, Dict[str, List[str]]] = {}
        # Resolved per call (cheap: once per dataset, not per step) so an
        # engine built before obs.enable() still reports.
        reg = obs.registry_if_enabled()
        ins = _BatchInstruments(reg) if reg is not None else None
        workers = max(1, min(workers, len(items)))
        t0 = time.perf_counter()
        try:
            with obs.span("engine.predict_dataset", sessions=len(items), workers=workers):
                self._decode_waves(items, workers, out, policy, timeout_s, report, ins)
        finally:
            self.decode_seconds += time.perf_counter() - t0
        report.sessions_ok = len(out)
        if report.failures and not partial:
            raise DecodeFailure(report)
        return out

    # -- fault-tolerant decode internals -------------------------------------------

    def _account_failure(
        self,
        key: str,
        attempt: int,
        exc: BaseException,
        policy: RetryPolicy,
        report: FailureReport,
        ins: Optional[_BatchInstruments],
    ) -> bool:
        """Book one failed attempt; True when the session is exhausted
        (a :class:`SessionFailure` was recorded), False to retry."""
        kind = _failure_kind(exc)
        if kind == "timeout":
            report.timeouts += 1
            if ins is not None:
                ins.timeouts.inc()
        elif kind == "crash":
            report.crashes += 1
        if attempt >= policy.max_attempts:
            report.failures.append(SessionFailure(key, kind, attempt, str(exc)))
            if ins is not None:
                ins.failures.inc()
            return True
        report.retries += 1
        if ins is not None:
            ins.retries.inc()
        return False

    def _decode_waves(
        self, items, workers, out, policy, timeout_s, report, ins
    ) -> None:
        """The batch loop, serial and pooled: submit every pending
        session, drain in submission order, collect retries into the next
        wave and sleep that wave's longest backoff before it.  With one
        worker no pool is built: each attempt runs in this process as it
        is submitted, into an already-completed future.  With no failures
        there is exactly one wave."""
        from concurrent.futures.process import BrokenProcessPool

        pool = self._worker_pool(workers) if workers > 1 else None
        wave: List[Tuple[str, LabeledSequence, int]] = [
            (key, seq, 1) for key, seq in items
        ]
        while wave:
            futures = []
            done_at: Dict[object, float] = {}
            broken: Optional[BaseException] = None
            try:
                for key, seq, attempt in wave:
                    if pool is None:
                        future = _run_inline(self.model_, key, seq, attempt)
                    else:
                        future = pool.submit(_decode_session, key, seq, attempt)
                    if ins is not None:
                        # Completion wall-clock captured the moment the
                        # result lands, not when we drain it below.
                        future.add_done_callback(
                            lambda f: done_at.__setitem__(f, time.perf_counter())
                        )
                    futures.append((future, time.perf_counter()))
            except BrokenProcessPool as exc:
                broken = exc  # pool died mid-submission: crash-handle the rest
            next_wave: List[Tuple[str, LabeledSequence, int]] = []
            max_delay = 0.0
            for i, (key, seq, attempt) in enumerate(wave):
                if broken is not None and i >= len(futures):
                    exc: BaseException = broken  # never submitted this wave
                else:
                    future, submit_t = futures[i]
                    try:
                        pred, stats, decode_s = future.result(timeout=timeout_s)
                        if timeout_s is not None and decode_s > timeout_s:
                            raise SessionTimeout(
                                f"session {key!r} decoded in {decode_s:.3f}s "
                                f"(timeout {timeout_s}s)"
                            )
                        out[key] = pred
                        self.batch_stats_.merge(stats)
                        if ins is not None:
                            ins.decode.observe(decode_s)
                            ins.sessions.inc()
                            turnaround = (
                                done_at.get(future, time.perf_counter()) - submit_t
                            )
                            ins.wait.observe(max(turnaround - decode_s, 0.0))
                        continue
                    except BrokenProcessPool as exc_:
                        broken = exc_
                        exc = exc_
                    except Exception as exc_:
                        exc = exc_
                if not self._account_failure(key, attempt, exc, policy, report, ins):
                    next_wave.append((key, seq, attempt + 1))
                    max_delay = max(max_delay, policy.delay_s(attempt + 1, key))
            if broken is not None and not next_wave:
                # Nothing left to retry, but never leave a broken pool
                # cached for the next batch call.
                self.close()
            elif broken is not None:
                pool = self._replace_pool(workers, report, ins)
                if pool is None:
                    # Second crash in one call: stop retrying, fail the rest.
                    for key, _seq, attempt in next_wave:
                        report.failures.append(
                            SessionFailure(key, "crash", attempt, str(broken))
                        )
                        if ins is not None:
                            ins.failures.inc()
                    return
            if max_delay > 0.0:
                time.sleep(max_delay)
            wave = next_wave

    def _replace_pool(self, workers, report, ins):
        """Tear down a broken pool and respawn it once per batch call
        (re-shipping the model through the initializer); None when this
        call's replacement budget is spent."""
        if report.pool_replacements >= 1:
            self.close()
            return None
        self.close()
        report.pool_replacements += 1
        self.pool_replacements_ += 1
        if ins is not None:
            ins.pool_replacements.inc()
        return self._worker_pool(workers)

    def _worker_pool(self, workers: int):
        """The persistent process pool, (re)built when the size or the
        fitted model changes.  The model ships to the workers exactly once
        per pool lifetime, through the pool initializer — task submissions
        carry only ``(key, sequence)`` items.

        Workers are spawned, not forked: forking a parent that already runs
        the executor's threads can deadlock a child on a lock copied
        mid-acquire.  A fault plan reaches them through ``REPRO_FAULT_PLAN``
        in the environment.  The first ``submit`` starts every worker, as
        the executor does for forked workers, before any task reaches one.
        Left to the executor, spawned workers start one per ``submit``; on
        Python 3.11 a worker still starting when another one crashes is
        never terminated, and the broken pool's teardown, and so
        interpreter exit, waits for it forever."""
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if (
            self._pool is None
            or self._pool_workers != workers
            or self._pool_model_ref is not self.model_
        ):
            self.close()
            self._pool = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("spawn"),
                initializer=_init_worker,
                initargs=(self._model_payload(),),
            )
            self._pool._safe_to_dynamically_spawn_children = False
            self._pool_workers = workers
            self._pool_model_ref = self.model_
            reg = obs.registry_if_enabled()
            if reg is not None:
                reg.gauge("engine.pool_workers").set(workers)
        return self._pool

    def _model_payload(self) -> bytes:
        """Serialise ``model_`` once for worker shipping, as its
        ``repro.model/1`` JSON payload (``TypeError`` for a model the
        artifact codec cannot write)."""
        from repro.util.artifacts import model_to_payload  # lazy: avoid a cycle

        payload = model_to_payload(self.model_)
        self.model_ship_count_ += 1
        reg = obs.registry_if_enabled()
        if reg is not None:
            reg.counter("engine.model_ships").inc()
        return payload

    def close(self) -> None:
        """Shut down the batched-decoding worker pool, if any.

        Idempotent, and safe on a partially-initialised engine (e.g. when
        ``__post_init__`` raised before the pool field existed, or when
        ``fit`` was never called).  Every teardown path — including one
        triggered by a ``BrokenProcessPool`` — zeroes the
        ``engine.pool_workers`` gauge so it never reports dead workers.
        """
        pool = getattr(self, "_pool", None)
        if pool is not None:
            pool.shutdown(wait=False)
            reg = obs.registry_if_enabled()
            if reg is not None:
                reg.gauge("engine.pool_workers").set(0)
        self._pool = None
        self._pool_workers = 0
        self._pool_model_ref = None

    def __enter__(self) -> "CaceEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:
        # Best-effort: don't strand worker processes when the engine is
        # garbage-collected without close().
        try:
            self.close()
        except Exception:
            pass

    def posterior_marginals(self, seq: LabeledSequence) -> Dict[str, np.ndarray]:
        """Posterior macro marginals per resident (scores for ROC/PRC).

        Every strategy is covered through the shared
        :class:`~repro.core.api.Recognizer` surface: NH via the flat HMM's
        forward-backward, NCR via its frame-wise classifier's per-step
        posteriors, NCS/C2 via the coupled trellis sum-product.
        """
        if self.model_ is None:
            raise RuntimeError("engine is not fitted")
        return self.model_.posterior_marginals(seq)

    def describe(self) -> str:
        """One-line summary of the engine and its fitted model."""
        model = self.model_.describe() if self.model_ is not None else "unfitted"
        return f"CaceEngine(strategy={self.strategy!r}): {model}"

    # -- persistence ----------------------------------------------------------------

    def save(self, path: Union[str, Path]) -> None:
        """Write the fitted engine as a versioned JSON model artifact."""
        from repro.util.artifacts import save_engine  # lazy: avoid a cycle

        save_engine(self, path)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "CaceEngine":
        """Reconstruct a fitted engine from :meth:`save`'s artifact."""
        from repro.util.artifacts import load_engine  # lazy: avoid a cycle

        return load_engine(path)
