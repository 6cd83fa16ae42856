"""Per-layer tracing for the traced benchmark run (``--trace 1``).

The tracer wraps each layer's public entry points from outside the
program: every ``repro`` module that binds an entry-point function by name
gets the wrapper (consumers import ``viterbi_path``, ``chain_block`` and
``build_candidate_set`` by name, so patching one module would miss calls),
and entry-point methods are wrapped on their classes.  Nothing under
``src/`` changes.  A name that cannot be found raises, so a refactor that
renames or removes an entry point breaks the benchmark loudly instead of
reporting a silent 0% layer.

Each wrapper keeps a stack of open calls: a layer's *self* time is its
call's duration minus the time spent in nested wrapped calls, so the layer
times add up to the time spent inside the outermost wrapped calls.  While
the tracer is inactive a wrapper costs one attribute check.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import weakref
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: Layers timed during set-up (seconds per set-up).
SETUP_LAYERS = (
    "mining.correlation",
    "mining.constraint",
    "fit.emissions",
    "artifact.save",
    "artifact.load",
)

#: Layers each workload must exercise in its traced passes; a zero call
#: count for one of them is an error, not a 0% share.
EXPECTED_LAYERS = {
    "decode": ("kernel", "candidates", "joint", "transition", "sweep", "engine"),
    "stream": ("kernel", "candidates", "joint", "transition", "smoother", "router"),
}

#: ``(name, unit)`` of every per-layer metric, in report order.
PER_LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("mining.correlation_s", "s"),
    ("mining.constraint_s", "s"),
    ("fit.emissions_s", "s"),
    ("artifact.save_s", "s"),
    ("artifact.load_s", "s"),
    ("artifact.kb", "KB"),
    ("setup.other_s", "s"),
    ("kernel.ensure_s", "ms/step"),
    ("kernel.ensure_calls", "1/step"),
    ("kernel.steps_per_call", "steps"),
    ("candidates.s", "ms/step"),
    ("candidates.calls", "1/step"),
    ("candidates.mean_size", "states"),
    ("joint.s", "ms/step"),
    ("joint.mean_states", "states"),
    ("joint.pruned_ratio", "fraction"),
    ("joint.capped", "1/step"),
    ("transition.s", "ms/step"),
    ("transition.calls", "1/step"),
    ("transition.entries", "1/step"),
    ("transition.mb_computed", "MB/step"),
    ("sweep.viterbi_s", "ms/step"),
    ("smoother.sweep_s", "ms/step"),
    ("smoother.trans_cache_hit_rate", "fraction"),
    ("router.s", "ms/step"),
    ("router.evicted", "count"),
    ("router.rejected", "count"),
    ("router.degraded_steps", "count"),
    ("engine.s", "ms/step"),
    ("engine.retries", "count"),
    ("loadgen.offered_steps_per_s", "steps/s"),
    ("loadgen.late_p99_ms", "ms"),
    ("session.bytes_per_step", "B/step"),
    ("trace.wall_s", "ms/step"),
    ("trace.residual_s", "ms/step"),
    ("trace.overhead", "ratio"),
)

Hook = Callable[["LayerTracer", tuple, object], None]


class LayerTracer:
    """Self time, call counts and work counts per layer."""

    def __init__(self) -> None:
        self.active = False
        self._stack: List[float] = []
        self._kernel_built: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self.clear()

    def clear(self) -> None:
        """Drop everything recorded so far (keeps the wrappers)."""
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        #: Time spent inside outermost wrapped calls.
        self.top_s = 0.0

    def wrap(self, layer: str, fn: Callable, hook: Optional[Hook] = None) -> Callable:
        """*fn* timed as a call into *layer*; *hook* sees its arguments and
        result (for work counts)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                tracer.self_s[layer] += dt - stack.pop()
                tracer.calls[layer] += 1
                if stack:
                    stack[-1] += dt
                else:
                    tracer.top_s += dt
            if hook is not None:
                hook(tracer, args, result)
            return result

        wrapper.__wrapped_layer__ = layer
        return wrapper

    # -- installation ----------------------------------------------------------------

    def install(self) -> None:
        """Wrap every static entry point (functions and known classes)."""
        from repro import core
        from repro.core.engine import CaceEngine
        from repro.core.kernels import SequenceKernel
        from repro.core.smoother import OnlineSmoother
        from repro.mining.constraint_miner import ConstraintMiner
        from repro.mining.correlation_miner import CorrelationMiner
        from repro.serve.router import SessionRouter

        self.patch_function(
            "repro.core.chdbn", "build_candidate_set", "candidates", _count_candidates
        )
        self.patch_function("repro.core.chdbn", "chain_block", "transition")
        self.patch_function(
            "repro.core.kernels", "viterbi_path", "sweep", wrap_args=self._wrap_viterbi
        )
        self.patch_method(CorrelationMiner, "mine", "mining.correlation")
        self.patch_method(ConstraintMiner, "fit", "mining.constraint")
        families = [
            obj
            for obj in vars(core).values()
            if isinstance(obj, type)
            and "fit" in vars(obj)
            and hasattr(obj, "trellis_sessions")
        ]
        if not families:
            raise LookupError("no Recognizer family with a fit method in repro.core")
        for cls in families:
            self.patch_method(cls, "fit", "fit.emissions")
        self.patch_method(CaceEngine, "save", "artifact.save")
        self.patch_method(CaceEngine, "load", "artifact.load")
        self.patch_method(CaceEngine, "predict_dataset", "engine")
        self.patch_method(SequenceKernel, "ensure", "kernel", _count_kernel_steps)
        self.patch_method(OnlineSmoother, "push", "smoother")
        self.patch_method(SessionRouter, "push", "router")
        self.patch_method(SessionRouter, "push_many", "router")

    def install_model(self, model, seq) -> None:
        """Wrap the fitted model's decode and its trellis-session adapter
        (found through the public ``trellis_sessions``), once per class."""
        self.patch_method(type(model), "decode", "joint")
        for sess in model.trellis_sessions(seq):
            self.patch_method(type(sess), "piece", "joint")
            self.patch_method(type(sess), "transition", "transition", _count_block)

    def patch_function(self, home: str, name: str, layer: str,
                       hook: Optional[Hook] = None, wrap_args=None) -> None:
        """Replace function *name* of module *home* in every loaded
        ``repro`` module that binds it."""
        original = vars(importlib.import_module(home)).get(name)
        if original is None:
            raise LookupError(f"{home} defines no {name!r}")
        if getattr(original, "__wrapped_layer__", None):
            return
        target = original if wrap_args is None else wrap_args(original)
        wrapper = self.wrap(layer, target, hook)
        for mod_name, mod in list(sys.modules.items()):
            if mod is not None and (mod_name == "repro" or mod_name.startswith("repro.")):
                if vars(mod).get(name) is original:
                    setattr(mod, name, wrapper)

    def patch_method(self, cls: type, name: str, layer: str,
                     hook: Optional[Hook] = None) -> None:
        """Wrap ``cls.name`` (plain method or classmethod) unless done."""
        attr = vars(cls).get(name)
        if attr is None:
            raise LookupError(f"{cls.__module__}.{cls.__qualname__} defines no {name!r}")
        if isinstance(attr, classmethod):
            if not getattr(attr.__func__, "__wrapped_layer__", None):
                setattr(cls, name, classmethod(self.wrap(layer, attr.__func__, hook)))
        elif not getattr(attr, "__wrapped_layer__", None):
            setattr(cls, name, self.wrap(layer, attr, hook))

    def _wrap_viterbi(self, viterbi_path: Callable) -> Callable:
        """``viterbi_path`` with its transition callback timed as a
        transition-layer call, so the sweep's self time excludes it."""
        tracer = self

        @functools.wraps(viterbi_path)
        def with_timed_transition(initial, per_scores, transition, *args, **kwargs):
            timed = tracer.wrap("transition", transition, _count_block)
            return viterbi_path(initial, per_scores, timed, *args, **kwargs)

        return with_timed_transition

    # -- reports ---------------------------------------------------------------------

    def take(self) -> Tuple[Dict[str, float], Counter, Counter, float]:
        """Return and clear ``(self_s, calls, counts, top_s)``."""
        out = (dict(self.self_s), Counter(self.calls), Counter(self.counts), self.top_s)
        self.clear()
        return out


def _count_candidates(tracer: LayerTracer, args: tuple, result) -> None:
    tracer.counts["candidates.states"] += len(result)


def _count_block(tracer: LayerTracer, args: tuple, result) -> None:
    if result is not None:
        tracer.counts["transition.blocks"] += 1
        tracer.counts["transition.entries"] += int(result.size)


def _count_kernel_steps(tracer: LayerTracer, args: tuple, result) -> None:
    """Steps newly built by ``SequenceKernel.ensure(t0, t1)``: tables are
    contiguous from step 0, so a call builds up to ``min(t1, len(seq))``."""
    kern, t1 = args[0], args[2]
    covered = min(t1, len(kern.seq.steps))
    before = tracer._kernel_built.get(kern, 0)
    if covered > before:
        tracer._kernel_built[kern] = covered
        tracer.counts["kernel.build_calls"] += 1
        tracer.counts["kernel.steps_built"] += covered - before


def report(run, primary_mode: str, served: str) -> Dict[str, float]:
    """Every per-layer metric of a traced run (``run`` is a
    :class:`workloads.Run`); raises when an expected layer saw no calls."""
    setups = run.setup_layers
    out: Dict[str, float] = {}
    for layer in SETUP_LAYERS:
        if any(calls[layer] == 0 for _s, calls, _w in setups):
            raise RuntimeError(f"layer {layer!r} recorded no calls during set-up")
        out[f"{layer}_s"] = sum(s.get(layer, 0.0) for s, _c, _w in setups) / len(setups)
    out["artifact.kb"] = run.artifact_bytes / 1e3
    out["setup.other_s"] = sum(
        wall - sum(s.get(layer, 0.0) for layer in SETUP_LAYERS) for s, _c, wall in setups
    ) / len(setups)

    traced = [p for p in run.passes if p.traced]
    untraced = [p for p in run.mode_passes(primary_mode) if not p.traced][1:]
    if not traced or not untraced:
        raise RuntimeError("the run was too short for traced and untraced passes")
    self_s: Counter = Counter()
    calls: Counter = Counter()
    counts: Counter = Counter()
    stats: Counter = Counter()
    top = wall = 0.0
    for p in traced:
        p_self, p_calls, p_counts, p_top = p.trace
        self_s.update(p_self)
        calls.update(p_calls)
        counts.update(p_counts)
        stats.update(p.stats)
        top += p_top
        wall += p.seconds
    missing = [layer for layer in EXPECTED_LAYERS[served] if calls[layer] == 0]
    if missing:
        raise RuntimeError(f"layers {missing} recorded no calls in the traced passes")
    steps = sum(p.steps for p in traced)

    def ms(seconds: float) -> float:
        return 1e3 * seconds / steps

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    streams = run.mode_passes("closed", "open", "memory")
    opened = run.mode_passes("open")
    lateness = [x for p in opened for x in p.lateness]
    generated = stats["joint_states"] + stats["pruned_joint_states"] + stats["capped_joint_states"]
    hit_rates = [p.counters["smoother.trans_cache_hit_rate"] for p in traced if p.mode != "decode"]
    out.update({
        "kernel.ensure_s": ms(self_s["kernel"]),
        "kernel.ensure_calls": counts["kernel.build_calls"] / steps,
        "kernel.steps_per_call": ratio(counts["kernel.steps_built"], counts["kernel.build_calls"]),
        "candidates.s": ms(self_s["candidates"]),
        "candidates.calls": calls["candidates"] / steps,
        "candidates.mean_size": ratio(counts["candidates.states"], calls["candidates"]),
        "joint.s": ms(self_s["joint"]),
        "joint.mean_states": ratio(stats["joint_states"], stats["steps"]),
        "joint.pruned_ratio": ratio(stats["pruned_joint_states"], generated),
        "joint.capped": ratio(stats["capped_joint_states"], stats["steps"]),
        "transition.s": ms(self_s["transition"]),
        "transition.calls": counts["transition.blocks"] / steps,
        "transition.entries": counts["transition.entries"] / steps,
        "transition.mb_computed": counts["transition.entries"] * 8 / 1e6 / steps,
        "sweep.viterbi_s": ms(self_s["sweep"]),
        "smoother.sweep_s": ms(self_s["smoother"]),
        "smoother.trans_cache_hit_rate": ratio(sum(hit_rates), len(hit_rates)),
        "router.s": ms(self_s["router"]),
        "router.evicted": sum(p.counters["router.evicted"] for p in streams),
        "router.rejected": sum(p.counters["router.rejected"] for p in streams),
        "router.degraded_steps": sum(p.counters["router.degraded_steps"] for p in streams),
        "engine.s": ms(self_s["engine"]),
        "engine.retries": sum(p.counters["engine.retries"] for p in run.mode_passes("decode")),
        "loadgen.offered_steps_per_s": ratio(
            sum(p.steps for p in opened), sum(p.seconds for p in opened)
        ),
        "loadgen.late_p99_ms": float(np.percentile(lateness, 99)) * 1e3 if lateness else 0.0,
        "session.bytes_per_step": run.memory["bytes_per_step"],
        "trace.wall_s": ms(wall),
        "trace.residual_s": ms(wall - top),
        "trace.overhead": statistics.median(p.seconds / p.host for p in traced)
        / statistics.median(p.seconds / p.host for p in untraced),
    })
    return out
