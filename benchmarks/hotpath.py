"""Decode hot-path throughput: the optimised recognisers vs the seed reference.

:func:`decode_hotpath_benchmark` times six decode paths on one fitted model
per path, each against its seed reference in ``tests/decode_spec.py``
(this module puts ``tests/`` on ``sys.path``), and checks that both decode
the same labels:

* ``c2`` -- 2-resident offline decode (the reference with ``PAIR_CAPS``);
* ``nchain`` -- 3-resident offline decode;
* ``smoother`` -- the fixed-lag smoother on pairs after one bulk
  ``prepare_range``, then a ``push`` per step;
* ``smoother_push`` -- the same stream, one ``push`` per step;
* ``nchain_smoother`` -- one ``push`` per step on 3-resident homes;
* ``nchain_quad`` -- 4-resident offline decode on a one-home corpus.

The smoother references run ``ReferenceOnlineSmoother``, the log-domain
spec of the smoother's recursion.  The pair, trio and quad corpora are
drawn, in that order, through ``repro.eval.experiments._split`` from one
seeded generator.  ``bench_decode_hotpath.py`` (the 5x / 3x floors,
writes ``BENCH_decode.json``) and ``smoke_decode.py`` (the CI smoke,
>= 1x) import it.
"""

import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

from repro.core.engine import CaceEngine
from repro.eval.experiments import _split
from repro.mining.correlation_miner import CorrelationMiner
from repro.util.rng import RandomState, ensure_rng

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))


@dataclass
class PathResult:
    """One benchmark path: seed-reference vs optimised timings."""

    name: str
    steps: int
    seconds_reference: float
    seconds_optimised: float
    labels_identical: bool

    @property
    def reference_steps_per_s(self) -> float:
        """Seed-implementation throughput."""
        return self.steps / max(self.seconds_reference, 1e-12)

    @property
    def optimised_steps_per_s(self) -> float:
        """Optimised-implementation throughput."""
        return self.steps / max(self.seconds_optimised, 1e-12)

    @property
    def speedup(self) -> float:
        """Optimised vs seed reference."""
        return self.seconds_reference / max(self.seconds_optimised, 1e-12)

    def to_dict(self) -> Dict:
        """Machine-readable form (BENCH_decode.json)."""
        return {
            "name": self.name,
            "steps": self.steps,
            "seconds_reference": self.seconds_reference,
            "seconds_optimised": self.seconds_optimised,
            "speedup": self.speedup,
            "labels_identical": self.labels_identical,
        }


@dataclass
class DecodeHotpathResult:
    """Steps/sec of the optimised decode hot paths vs the seed reference."""

    #: 2-resident c2 offline decode.
    c2: PathResult
    #: 3-resident N-chain offline decode.
    nchain: PathResult
    #: Fixed-lag smoother on pairs: one bulk ``prepare_range``, then a
    #: ``push`` per step.
    smoother: PathResult
    #: The same smoother stream, one ``push`` per step with no bulk
    #: build (the ``SessionRouter.push`` regime).
    smoother_push: PathResult
    #: One ``push`` per step on the 3-resident N-chain model.
    nchain_smoother: PathResult
    #: 4-resident N-chain decode on a one-home corpus.
    nchain_quad: PathResult
    #: c2 ``predict_dataset`` wall-clock per worker count.
    fanout: Dict[int, float] = field(default_factory=dict)

    @property
    def paths(self) -> List[PathResult]:
        """Every benchmarked path, c2 first."""
        return [
            self.c2, self.nchain, self.smoother, self.smoother_push,
            self.nchain_smoother, self.nchain_quad,
        ]

    def _fanout_steps_per_s(self, secs: float) -> float:
        return self.c2.steps / max(secs, 1e-12)

    def to_dict(self) -> Dict:
        """Machine-readable form for ``BENCH_decode.json``."""
        out = {path.name: path.to_dict() for path in self.paths}
        out["fanout"] = {
            str(w): {"seconds": secs, "steps_per_s": self._fanout_steps_per_s(secs)}
            for w, secs in sorted(self.fanout.items())
        }
        return out

    def render(self) -> str:
        """Benchmark table (before vs after, plus the batched c2 paths)."""
        rows = []
        for p in self.paths:
            rows.append(
                (f"{p.name} reference (seed)", p.seconds_reference, p.reference_steps_per_s)
            )
            rows.append((f"{p.name} optimised", p.seconds_optimised, p.optimised_steps_per_s))
        for w, secs in sorted(self.fanout.items()):
            rows.append((f"c2 optimised x{w} workers", secs, self._fanout_steps_per_s(secs)))
        lines = ["decode hot path (seeded CACE corpus)"]
        lines.append(f"{'variant':<34}{'seconds':>10}{'steps/s':>12}")
        for name, secs, sps in rows:
            lines.append(f"{name:<34}{secs:>10.3f}{sps:>12.1f}")
        for path in self.paths:
            lines.append(
                f"{path.name} speedup: {path.speedup:.2f}x | "
                f"labels identical: {path.labels_identical}"
            )
        return "\n".join(lines)


def _stream_labels_bulk(model, seq, lag: int) -> Dict[str, List[str]]:
    """Per-resident labels from streaming *seq* after one bulk
    ``prepare_range``, then a ``push`` per step."""
    from repro.core.smoother import OnlineSmoother

    sm = OnlineSmoother(model, lag=lag)
    sm.start(seq)
    sm.prepare_range(0, len(seq))
    per_step = [x for x in map(sm.push, range(len(seq))) if x is not None]
    per_step.extend(sm.flush())
    return {rid: [labels[rid] for labels in per_step] for rid in sm.residents}


def decode_hotpath_benchmark(
    n_homes: int = 2,
    sessions_per_home: int = 4,
    duration_s: float = 2400.0,
    seed: RandomState = 7,
    workers: int = 2,
    fanout_workers: Sequence[int] = (2, 4),
    nchain_duration_s: float = 1200.0,
) -> DecodeHotpathResult:
    """Time every decode hot path, seed reference vs optimised, each pair
    of recognisers on one fitted model.

    Both recognisers are constructed with identical parameters and share
    one fit (deterministic-annealing GMMs included); only the per-step
    machinery differs.  Emission *scores* can differ from the seed in the last ulp
    (the object channel's baseline+delta summation rounds differently
    from the seed's sequential per-object sum), so label identity is an
    empirical property at fixed seeds — exactly what
    ``labels_identical`` asserts — rather than a floating-point
    guarantee under score ties.  The smoother paths run at lag 4, and c2's
    ``predict_dataset`` is timed at every width in *fanout_workers* and
    *workers*.

    Measures *steady-state* throughput: each variant decodes the test set
    once untimed first, so the optimised path's memoised candidate lists
    and rule matrices are warm — the regime a long-running recogniser
    lives in (those caches key on the small fused-candidate vocabulary
    and fill within the first session).
    """
    from repro.core.loosely_coupled import PAIR_CAPS
    from decode_spec import ReferenceOnlineSmoother
    from repro.core.smoother import OnlineSmoother

    lag = 4
    rng = ensure_rng(seed)
    fast, reference, test = _fitted_pair(
        rng, 2, n_homes, sessions_per_home, duration_s, **PAIR_CAPS
    )
    c2 = _decode_path("c2", fast, reference, test.sequences)

    engine = CaceEngine(strategy="c2", seed=fast.seed)
    engine.model_ = fast
    fanout: Dict[int, float] = {}
    try:
        for w in dict.fromkeys(tuple(fanout_workers) + (workers,)):
            engine.predict_dataset(test, workers=w)  # warm-up (pool spawn + model ship)
            t0 = time.perf_counter()
            engine.predict_dataset(test, workers=w)
            fanout[w] = time.perf_counter() - t0
    finally:
        engine.close()

    # The fast path streams once after one bulk prepare_range (bulk
    # kernel builds) and once one push per step (one-step kernel builds,
    # the router's push regime); the reference replays push-by-push on the seed model
    # through the log-domain smoother.
    sm_many, many_s = _timed_runs(
        lambda seq: _stream_labels_bulk(fast, seq, lag), test.sequences
    )
    sm_push, push_s = _timed_runs(
        lambda seq: OnlineSmoother(fast, lag=lag).run(seq), test.sequences
    )
    sm_ref, ref_s = _timed_runs(
        lambda seq: ReferenceOnlineSmoother(reference, lag=lag).run(seq), test.sequences
    )
    smoother = PathResult("smoother", c2.steps, ref_s, many_s, sm_many == sm_ref)
    smoother_push = PathResult("smoother_push", c2.steps, ref_s, push_s, sm_push == sm_ref)

    fast, reference, test = _fitted_pair(rng, 3, n_homes, sessions_per_home, nchain_duration_s)
    nchain = _decode_path("nchain", fast, reference, test.sequences)
    sm_fast, fast_s = _timed_runs(
        lambda seq: OnlineSmoother(fast, lag=lag).run(seq), test.sequences
    )
    sm_ref, ref_s = _timed_runs(
        lambda seq: ReferenceOnlineSmoother(reference, lag=lag).run(seq), test.sequences
    )
    nchain_smoother = PathResult("nchain_smoother", nchain.steps, ref_s, fast_s, sm_fast == sm_ref)
    # One home, one 10-minute test session: the seed reference is slow on
    # the 4-way product.
    fast, reference, test = _fitted_pair(rng, 4, 1, 2, 600.0)
    nchain_quad = _decode_path("nchain_quad", fast, reference, test.sequences)

    return DecodeHotpathResult(
        c2=c2,
        nchain=nchain,
        smoother=smoother,
        smoother_push=smoother_push,
        nchain_smoother=nchain_smoother,
        nchain_quad=nchain_quad,
        fanout=fanout,
    )


def _fitted_pair(
    rng: np.random.Generator,
    residents: int,
    n_homes: int,
    sessions_per_home: int,
    duration_s: float,
    **caps: int,
):
    """``(NChainHdbn, ReferenceNChainHdbn, test)``: the model fitted on the
    training split of a fresh CACE corpus (class-default caps unless *caps*
    are given) and the seed reference built from it with the same
    parameters and fitted state (a fit draws nothing from *rng*)."""
    from decode_spec import reference_model
    from repro.core.loosely_coupled import NChainHdbn
    from repro.mining.constraint_miner import ConstraintMiner

    train, test = _split(rng, n_homes, sessions_per_home, duration_s, residents)
    rules = CorrelationMiner().mine(train.sequences)
    constraints = ConstraintMiner().fit(
        train.sequences,
        train.macro_vocab,
        train.postural_vocab,
        train.gestural_vocab,
        train.subloc_vocab,
    )
    seed = int(rng.integers(0, 2**31))
    fast = NChainHdbn(constraint_model=constraints, rule_set=rules, seed=seed, **caps).fit(train)
    return fast, reference_model(fast), test


def _timed_runs(run, sequences, warm_all: bool = False):
    """``[run(seq) for seq in sequences]`` and its seconds, after an untimed
    warm-up on the first sequence (on all of them with *warm_all*, which
    also asserts the warm-up's result is reproduced)."""
    warm = [run(seq) for seq in (sequences if warm_all else sequences[:1])]
    t0 = time.perf_counter()
    out = [run(seq) for seq in sequences]
    seconds = time.perf_counter() - t0
    assert not warm_all or out == warm
    return out, seconds


def _decode_path(name: str, fast, reference, sequences) -> PathResult:
    """Offline decode of *sequences* by both models, each timed on a second
    pass over the whole set."""
    fast_labels, fast_s = _timed_runs(fast.decode, sequences, warm_all=True)
    ref_labels, ref_s = _timed_runs(reference.decode, sequences, warm_all=True)
    steps = sum(len(seq) for seq in sequences)
    return PathResult(name, steps, ref_s, fast_s, fast_labels == ref_labels)
