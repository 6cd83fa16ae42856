"""Workloads of the repository benchmark: inputs, set-up and measured passes.

Every workload fits one model on a generated corpus, then runs timed
*passes* over the corpus's test split until ``--seconds`` are used:

* a **decode** pass is one ``CaceEngine.predict_dataset(test, workers=1)``
  call;
* a **closed** stream pass feeds every test session once through a fresh
  ``SessionRouter``, round-robin, ``burst`` steps per router call, each
  call issued when the previous one returns;
* an **open** stream pass does the same on a schedule: every home emits a
  call every ``sessions * burst / open_rate`` seconds in its own slot of
  that period, whatever happened to earlier calls, and latency is timed
  from the due time.

Each session is closed after its last step.  A workload interleaves its
modes by their shares of the run, so every mode samples the whole run
window and every end-to-end metric exists on every workload; only the
first (primary) mode is traced.

Inputs.  The corpus and the fitted model are fixed per workload (the
corpus seed is part of the configuration): re-mining rules on another
corpus moves the per-step joint-state and transition work by 30-45%
between seeds, more than any bound a regression check could use.  The
``--seed`` argument makes the traffic: the order sessions are interleaved
in (which also fixes each home's open-loop slot) and the held-out session
that warms the model up during set-up.
"""

from __future__ import annotations

import gc
import hashlib
import json
import pickle
import statistics
import time
import tracemalloc
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import CaceEngine, generate_cace_dataset, train_test_split
from repro.serve.router import SessionRouter

#: Fixed-lag smoothing latency of every streamed session, in steps.
LAG = 4
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: Pruning strategy of every workload: the CACE default (rule-pruned
#: coupled decoding), the path being served.
STRATEGY = "c2"
TRAIN_FRACTION = 0.7
#: Seconds one :func:`host_slowdown` loop takes on an idle host of the
#: type the benchmark was tuned on (2-vCPU x86_64, CPython 3.11, numpy 2).
CALIBRATION_S = 0.0105

_CAL_RNG = np.random.default_rng(0)
_CAL_TABLE = _CAL_RNG.random((100, 100))
_CAL_INDEX = _CAL_RNG.integers(0, 100, 100)

Labels = List[Dict[str, List[str]]]


@dataclass(frozen=True)
class Corpus:
    """Arguments of ``generate_cace_dataset`` (split 70/30 by
    :data:`TRAIN_FRACTION` with the same seed)."""

    residents: int
    homes: int
    sessions_per_home: int
    duration_s: float
    seed: int = 2016


@dataclass(frozen=True)
class Workload:
    """One benchmark workload (its full configuration is stamped into
    every result)."""

    name: str
    why: str
    corpus: Corpus
    #: Steps per router call (1 = ``push``, more = ``push_many``).
    burst: int
    #: ``(mode, share of --seconds)``; the first mode is the traced one.
    phases: Tuple[Tuple[str, float], ...]
    #: Aggregate offered steps/s of open-loop passes.
    open_rate: float = 0.0

    @property
    def served(self) -> str:
        """``decode`` or ``stream``: the mode whose labels the workload
        serves (scored for ``label_accuracy``)."""
        return "decode" if self.phases[0][0] == "decode" else "stream"


PAIRS = Corpus(residents=2, homes=6, sessions_per_home=3, duration_s=1800.0)
TRIOS = Corpus(residents=3, homes=4, sessions_per_home=3, duration_s=1200.0, seed=2)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="offline-pair",
            why="batch Viterbi decode of 2-resident homes: transition blocks, "
            "joint candidates and the sweep dominate; bypasses smoother, "
            "per-step kernel build and router",
            corpus=PAIRS, burst=1, phases=(("decode", 0.8), ("closed", 0.2)),
        ),
        Workload(
            name="stream-pair",
            why="open-loop push of one step per call at a fixed rate: "
            "per-step evidence kernel build and the lag-window sweep dominate",
            corpus=PAIRS, burst=1,
            phases=(("closed", 0.25), ("open", 0.55), ("decode", 0.2)),
            open_rate=360.0,
        ),
        Workload(
            name="stream-trio",
            why="3-resident homes through push_many bursts, closed loop: bulk "
            "kernel build and 3-chain transitions; mining dominates set-up",
            corpus=TRIOS, burst=4, phases=(("closed", 0.7), ("decode", 0.3)),
        ),
    )
}


# -- inputs -------------------------------------------------------------------------


def corpus(spec: Corpus, cache_dir: Path, source_sha: str):
    """Train and test splits, cached by configuration and source digest
    (generation is never timed)."""
    key = hashlib.sha256(
        json.dumps([asdict(spec), TRAIN_FRACTION, source_sha], sort_keys=True).encode()
    ).hexdigest()[:16]
    path = cache_dir / f"corpus-{key}.pickle"
    if path.exists():
        with path.open("rb") as fh:
            return pickle.load(fh)
    dataset = generate_cace_dataset(
        n_homes=spec.homes,
        sessions_per_home=spec.sessions_per_home,
        duration_s=spec.duration_s,
        residents_per_home=spec.residents,
        seed=spec.seed,
    )
    split = train_test_split(dataset, TRAIN_FRACTION, seed=spec.seed)
    cache_dir.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{id(split)}.tmp")
    with tmp.open("wb") as fh:
        pickle.dump(split, fh, protocol=pickle.HIGHEST_PROTOCOL)
    tmp.replace(path)
    return split


@dataclass(frozen=True)
class Traffic:
    """What ``--seed`` decides."""

    #: Test-session indices in the order they are interleaved.
    order: Tuple[int, ...]
    #: Test session served by the set-up warm-up.
    warm: int

    @classmethod
    def from_seed(cls, seed: int, sessions: int) -> "Traffic":
        rng = np.random.default_rng(seed)
        return cls(
            order=tuple(int(i) for i in rng.permutation(sessions)),
            warm=int(rng.integers(sessions)),
        )


# -- results ------------------------------------------------------------------------


@dataclass
class Pass:
    """One timed pass over the test split."""

    mode: str
    seconds: float
    steps: int
    ops: int
    failed: int
    traced: bool
    #: Per test session (test-split order): ``{resident: [label per step]}``.
    labels: Labels
    latencies: List[float] = field(default_factory=list)
    lateness: List[float] = field(default_factory=list)
    #: DecodeStats fields summed over the pass.
    stats: Dict[str, int] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)
    #: ``LayerTracer.take()`` of a traced pass.
    trace: Optional[tuple] = None
    #: Host slowdown measured around the pass (see :func:`host_slowdown`).
    host: float = 1.0

    @property
    def rate(self) -> float:
        return self.steps / self.seconds


@dataclass
class Run:
    """Everything one benchmark run measured."""

    setup_s: List[float] = field(default_factory=list)
    #: Host slowdown measured around each set-up.
    setup_host: List[float] = field(default_factory=list)
    #: Per traced set-up: layer self seconds, layer calls, set-up wall.
    setup_layers: List[tuple] = field(default_factory=list)
    fingerprints: List[str] = field(default_factory=list)
    artifact_bytes: int = 0
    passes: List[Pass] = field(default_factory=list)
    #: First labels seen per kind (decode / stream); later passes must equal.
    reference: Dict[str, Labels] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    memory: Dict[str, float] = field(default_factory=dict)

    def record(self, p: Pass) -> None:
        """Book a pass: its operations, failures and label mismatches."""
        self.passes.append(p)
        self.attempted += p.ops
        self.failed += p.failed
        kind = "decode" if p.mode == "decode" else "stream"
        ref = self.reference.setdefault(kind, p.labels)
        self.failed += sum(1 for a, b in zip(ref, p.labels) if b and a != b)

    def mode_passes(self, *modes: str) -> List[Pass]:
        return [p for p in self.passes if p.mode in modes]


def digest(labels: Labels) -> str:
    """sha256 of a label set (printed per workload and seed)."""
    return hashlib.sha256(json.dumps(labels, sort_keys=True).encode()).hexdigest()


def agreement(a: Labels, b: Labels) -> float:
    """Share of (step, resident) labels equal between two label sets."""
    same = total = 0
    for sa, sb in zip(a, b):
        for rid, la in sa.items():
            same += sum(x == y for x, y in zip(la, sb[rid]))
            total += len(la)
    return same / total


def truth_labels(test) -> Labels:
    return [{rid: seq.macro_labels(rid) for rid in seq.resident_ids} for seq in test.sequences]


# -- host speed ---------------------------------------------------------------------


def host_slowdown() -> float:
    """How much slower the host runs right now than :data:`CALIBRATION_S`
    says an idle one does, from one fixed loop with the decode path's mix
    of operations (fancy indexing, log-sum-exp over small arrays, building
    small dicts).

    The host the benchmark was tuned on slowed down by up to half for tens
    of seconds at a time while nothing else ran in the machine; a pass's
    time divided by the slowdown measured around it kept those periods out
    of the figures (over eight runs, the quartile spread of the median
    decode rate fell from 0.19 to 0.04).  The loop runs no repository code,
    so a code change moves the calibrated figures as much as the raw ones.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for k in range(150):
        block = _CAL_TABLE[_CAL_INDEX][:, _CAL_INDEX] + _CAL_TABLE[k % 100]
        top = block.max(axis=0)
        acc += float(np.log(np.exp(block - top).sum(axis=0)).sum())
        acc += sum({i: i * k for i in range(60)}.values()) * 1e-9
    return (time.perf_counter() - t0) / CALIBRATION_S


# -- set-up -------------------------------------------------------------------------


def set_up(wl: Workload, train, test, traffic: Traffic, path: Path, run: Run,
           tracer=None) -> CaceEngine:
    """Fit, save, load and warm up once; returns the loaded engine.

    The warm-up serves one held-out session in the workload's primary mode,
    so memoised candidate lists start filling inside the timed set-up."""
    t0 = time.perf_counter()
    fitted = CaceEngine(strategy=STRATEGY, seed=wl.corpus.seed).fit(train)
    fitted.save(path)
    engine = CaceEngine.load(path)
    warm = test.sequences[traffic.warm]
    if wl.served == "decode":
        engine.predict(warm)
    else:
        router = SessionRouter(engine, lag=LAG)
        for j in range(0, len(warm), wl.burst):
            if wl.burst == 1:
                router.push("warm-up", warm.steps[j])
            else:
                router.push_many("warm-up", warm.steps[j : j + wl.burst])
        router.close_session("warm-up")
    run.setup_s.append(time.perf_counter() - t0)
    if tracer is not None:
        self_s, calls, _counts, _top = tracer.take()
        run.setup_layers.append((self_s, calls, run.setup_s[-1]))
    data = path.read_bytes()
    run.fingerprints.append(hashlib.sha256(data).hexdigest())
    run.artifact_bytes = len(data)
    path.unlink()
    return engine


# -- passes -------------------------------------------------------------------------


def decode_pass(engine: CaceEngine, test, traffic: Traffic, traced: bool) -> Pass:
    """One ``predict_dataset`` call over the test split, in traffic order."""
    ordered = test.subset([test.sequences[i] for i in traffic.order], "ordered")
    t0 = time.perf_counter()
    try:
        out = engine.predict_dataset(ordered, workers=1)
    except Exception:  # noqa: BLE001 — a failed batch fails every session
        out = {}
    seconds = time.perf_counter() - t0
    labels: Labels = [{} for _ in test.sequences]
    for k, i in enumerate(traffic.order):
        labels[i] = out.get(f"{test.sequences[i].home_id}:{k}", {})
    stats = engine.batch_stats_
    return Pass(
        mode="decode", seconds=seconds, steps=test.total_steps,
        ops=len(labels), failed=sum(1 for x in labels if not x), traced=traced,
        labels=labels, stats=dict(vars(stats)),
        counters={"engine.retries": engine.failure_report_.retries},
    )


def schedule(test, traffic: Traffic, burst: int, rate: float = 0.0) -> List[Tuple[float, int, int]]:
    """``(due offset s, test index, first step)`` of every router call,
    round-robin over the sessions in traffic order.

    Open loop (``rate > 0``): the session at position p of n emits its
    c-th call at ``(c + p / n) * period``, where ``period = n * burst /
    rate`` makes the aggregate offered rate ``rate`` steps/s."""
    n = len(traffic.order)
    period = n * burst / rate if rate else float(n)
    out = []
    for p, i in enumerate(traffic.order):
        for c, j in enumerate(range(0, len(test.sequences[i]), burst)):
            out.append(((c + p / n) * period, i, j))
    out.sort()
    return out


def stream_pass(engine: CaceEngine, test, calls, burst: int, mode: str, tag: str,
                traced: bool, sample=None) -> Pass:
    """Serve *calls* (from :func:`schedule`) through a fresh router.

    In mode ``open`` each call first waits for its due time and its
    latency is timed from that due time; otherwise calls go back to back
    and a call's latency is its own duration.  With *sample* (the memory
    pass) sessions stay open until the end and ``sample(steps)`` runs after
    every call."""
    router = SessionRouter(engine, lag=LAG)
    last = {i: j for _due, i, j in calls}
    labels: Labels = [{} for _ in test.sequences]
    latencies: List[float] = []
    lateness: List[float] = []
    failed = steps = 0
    t0 = time.perf_counter()
    start = t0 + 0.005
    for due_off, i, j in calls:
        chunk = test.sequences[i].steps[j : j + burst]
        sid = f"{tag}:{i}"
        if mode == "open":
            due = start + due_off
            # Spin, not sleep: waking from sleep on a shared host can
            # overshoot by milliseconds, which would be charged to the call.
            while time.perf_counter() < due:
                pass
            lateness.append(time.perf_counter() - due)
        else:
            due = time.perf_counter()
        try:
            if burst == 1:
                router.push(sid, chunk[0])
            else:
                router.push_many(sid, chunk)
        except Exception:  # noqa: BLE001 — count it, keep serving
            failed += 1
        latencies.append(time.perf_counter() - due)
        steps += len(chunk)
        if sample is not None:
            sample(steps)
        elif j == last[i]:
            labels[i] = router.close_session(sid)
    if sample is not None:
        for sid, got in router.close_all().items():
            labels[int(sid.rsplit(":", 1)[1])] = got
    seconds = time.perf_counter() - t0
    snap = router.metrics_snapshot()
    counters = {
        "router.evicted": router.evicted,
        "router.rejected": router.metrics.counter("router.steps_rejected").value,
        "router.degraded_steps": router.metrics.counter("router.degraded_steps").value,
        "smoother.trans_cache_hit_rate": snap["derived"]["smoother_trans_cache_hit_rate"],
    }
    failed += int(counters["router.evicted"] + counters["router.rejected"]
                  + counters["router.degraded_steps"])
    return Pass(
        mode=mode, seconds=seconds, steps=steps, ops=len(calls), failed=failed,
        traced=traced, labels=labels, latencies=latencies, lateness=lateness,
        stats=dict(vars(router.aggregate_stats)), counters=counters,
    )


def memory_pass(engine: CaceEngine, test, wl: Workload, traffic: Traffic, run: Run) -> None:
    """Untimed tracemalloc pass: bytes held per live session at the end
    of its stream, and the slope of held bytes against steps pushed."""
    n = len(test.sequences)
    calls = schedule(test, traffic, wl.burst)
    points: List[Tuple[int, int]] = []
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        p = stream_pass(
            engine, test, calls, wl.burst, "memory", "memory", False,
            sample=lambda steps: points.append(
                (steps, tracemalloc.get_traced_memory()[0] - base)
            ),
        )
    finally:
        tracemalloc.stop()
    run.record(p)
    steps, held = zip(*points)
    run.memory = {
        "session_mb": held[-1] / n / 1e6,
        "bytes_per_step": float(np.polyfit(steps, held, 1)[0]),
    }


def run_workload(wl: Workload, seed: int, seconds: float, cache_dir: Path,
                 source_sha: str, tracer=None) -> Tuple[Run, object, Traffic]:
    """Set up :data:`SETUPS` times, then interleave the workload's modes
    by their shares of *seconds*, then the memory pass."""
    train, test = corpus(wl.corpus, cache_dir, source_sha)
    traffic = Traffic.from_seed(seed, len(test.sequences))
    run = Run()
    path = cache_dir / f"model-{wl.name}-{seed}.json"
    cache_dir.mkdir(parents=True, exist_ok=True)
    if tracer is not None:
        tracer.active = True
    before = host_slowdown()
    for _ in range(SETUPS):
        engine = set_up(wl, train, test, traffic, path, run, tracer)
        after = host_slowdown()
        run.setup_host.append((before + after) / 2)
        before = after
    if tracer is not None:
        tracer.active = False
        tracer.install_model(engine.model_, test.sequences[0])
        tracer.clear()

    calls = {mode: schedule(test, traffic, wl.burst, wl.open_rate if mode == "open" else 0.0)
             for mode, _share in wl.phases if mode != "decode"}
    shares = dict(wl.phases)
    spent = {mode: 0.0 for mode in shares}
    primary = wl.phases[0][0]
    # A traced run needs an untraced, a traced and another untraced pass.
    min_primary = 3 if tracer is not None else 1
    t_end = time.perf_counter() + seconds
    k = 0  # primary passes so far
    while True:
        if time.perf_counter() < t_end:
            # The mode furthest behind its share goes next (primary first).
            mode = min(shares, key=lambda m: spent[m] / shares[m])
        else:
            short = [m for m in shares if not spent[m]]
            short += [primary] if k < min_primary else []
            if not short:
                break
            mode = short[0]
        # Every other primary pass is traced (pass 0, the coldest, is not),
        # so one traced run also measures the tracing overhead.
        traced = tracer is not None and mode == primary and k % 2 == 1
        if tracer is not None:
            tracer.active = traced
        if mode == "decode":
            p = decode_pass(engine, test, traffic, traced)
        else:
            p = stream_pass(engine, test, calls[mode], wl.burst, mode,
                            f"{mode}{len(run.passes)}", traced)
        if tracer is not None:
            tracer.active = False
            if traced:
                p.trace = tracer.take()
            tracer.clear()
        after = host_slowdown()
        p.host = (before + after) / 2
        before = after
        run.record(p)
        spent[mode] += p.seconds
        k += mode == primary
    memory_pass(engine, test, wl, traffic, run)
    return run, test, traffic


# -- metrics ------------------------------------------------------------------------


def latency_passes(run: Run) -> List[Pass]:
    """Passes whose call latencies make ``push_p50_ms``/``push_p99_ms``:
    open-loop passes where the workload has them, else closed-loop ones."""
    return run.mode_passes("open") or run.mode_passes("closed")


def call_latency_ms(run: Run, calibrated: bool = True) -> np.ndarray:
    """Per router call of a latency pass, its median latency over those
    passes, in ms.

    Passes of one mode make the same calls in the same order, so position
    k is the same call in every pass.  A host stall delays every call due
    while it lasts (at 360 calls/s a 20 ms stall makes seven calls late);
    pooled over a run, a few stalls moved the p99 by a factor of three
    between runs.  A stall hits different calls in different passes, so
    the per-call median keeps it out."""
    passes = latency_passes(run)
    return np.median(
        [np.asarray(p.latencies) / (p.host if calibrated else 1.0) for p in passes], axis=0
    ) * 1e3


def end_to_end(wl: Workload, run: Run, test, calibrated: bool = True
               ) -> Dict[str, Tuple[float, str]]:
    """Every end-to-end metric as ``name -> (value, unit)``; times are
    divided by the host slowdown measured around them unless
    *calibrated* is false."""

    def host(x) -> float:
        return x.host if calibrated else 1.0

    hosts = run.setup_host if calibrated else [1.0] * len(run.setup_s)
    lat_ms = call_latency_ms(run, calibrated)
    return {
        "setup_s": (statistics.median(s / h for s, h in zip(run.setup_s, hosts)), "s"),
        "decode_steps_per_s": (
            statistics.median(p.rate * host(p) for p in run.mode_passes("decode")), "steps/s"
        ),
        "push_steps_per_s": (
            statistics.median(p.rate * host(p) for p in run.mode_passes("closed")), "steps/s"
        ),
        "push_p50_ms": (float(np.percentile(lat_ms, 50)), "ms"),
        "push_p99_ms": (float(np.percentile(lat_ms, 99)), "ms"),
        "session_mb": (run.memory["session_mb"], "MB"),
        "label_accuracy": (agreement(run.reference[wl.served], truth_labels(test)), "fraction"),
        "stream_agreement": (
            agreement(run.reference["stream"], run.reference["decode"]), "fraction"
        ),
    }
