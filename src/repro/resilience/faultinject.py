"""Deterministic fault injection for the chaos suite and CI.

A :class:`FaultPlan` maps session keys to :class:`Fault` specs — worker
crashes, decode delays, raised exceptions — injected on attempts
``1..times`` so bounded retries can be exercised end to end.  Plans are
built either explicitly (tests that assert exact accounting) or from a
seed (:meth:`FaultPlan.hashed` — every key draws its fault from a stable
hash, so no key list is needed up front; the CI chaos job drives this
through the ``REPRO_FAULT_SEED`` environment variable).

Activation is process-global: :func:`activate` installs a plan in this
process and, by default, exports it through ``REPRO_FAULT_PLAN`` so
worker processes spawned *afterwards* inherit it (the engine's pool
initializer marks workers, which is what arms real ``os._exit`` crashes
— in the parent process a "crash" fault degrades to a raised
:class:`InjectedFault` so the test runner itself never dies).

:func:`corrupt_step` builds deterministically malformed
:class:`~repro.datasets.trace.ContextStep` objects (NaN features, empty
observations, alien resident ids) for the serving-path chaos tests.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.resilience.policy import stable_unit

#: Environment variables the harness reads (exported to pool workers).
ENV_PLAN = "REPRO_FAULT_PLAN"
ENV_SEED = "REPRO_FAULT_SEED"

FAULT_KINDS = ("crash", "delay", "error")


class InjectedFault(RuntimeError):
    """An exception injected by the harness (never a real decode bug)."""

    def __init__(self, message: str, kind: str = "error") -> None:
        super().__init__(message)
        self.kind = kind

    def __reduce__(self):
        # Survive the pickle round-trip from worker to parent intact.
        return (InjectedFault, (self.args[0], self.kind))


@dataclass(frozen=True)
class Fault:
    """One session's injected failure mode.

    ``times`` is how many (1-based) attempts the fault fires on: with
    ``times=1`` the first retry succeeds; with ``times >= max_attempts``
    the session exhausts its retries and lands in the FailureReport.
    """

    kind: str  # "crash" | "delay" | "error"
    times: int = 1
    delay_s: float = 0.05

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"kind must be one of {FAULT_KINDS}, got {self.kind!r}")
        if self.times < 1:
            raise ValueError(f"times must be >= 1, got {self.times}")

    def to_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "times": self.times, "delay_s": self.delay_s}

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "Fault":
        return cls(
            kind=str(d["kind"]),
            times=int(d.get("times", 1)),
            delay_s=float(d.get("delay_s", 0.05)),
        )


class FaultPlan:
    """Which sessions fail, how, and on which attempts — all by seed."""

    def __init__(self, faults: Dict[str, Fault], seed: int = 0) -> None:
        self.faults = dict(faults)
        self.seed = seed

    @classmethod
    def from_seed(
        cls,
        seed: int,
        keys: Iterable[str],
        n_crash: int = 0,
        n_delay: int = 0,
        n_error: int = 0,
        times: int = 1,
        delay_s: float = 0.05,
    ) -> "FaultPlan":
        """Assign disjoint fault subsets over *keys*, ordered by a stable
        per-key hash of *seed* (no live RNG: the same seed and key set
        always produce the same plan, in any process)."""
        ordered = sorted(keys, key=lambda k: stable_unit(seed, k))
        want = n_crash + n_delay + n_error
        if want > len(ordered):
            raise ValueError(
                f"plan wants {want} faulted sessions but only {len(ordered)} keys"
            )
        faults: Dict[str, Fault] = {}
        i = 0
        for kind, n in (("crash", n_crash), ("delay", n_delay), ("error", n_error)):
            for key in ordered[i : i + n]:
                faults[key] = Fault(kind, times=times, delay_s=delay_s)
            i += n
        return cls(faults, seed=seed)

    @classmethod
    def hashed(
        cls,
        seed: int,
        crash_rate: float = 0.25,
        delay_rate: float = 0.10,
        error_rate: float = 0.10,
        delay_s: float = 0.02,
    ) -> "_HashedPlan":
        """A key-list-free plan: each key draws ``stable_unit(seed, key)``
        and falls into a fault band by rate.  All faults fire once
        (``times=1``) so the engine's default retries recover — this is
        the ``REPRO_FAULT_SEED`` CI mode, which must leave results
        bit-identical while still exercising crash recovery."""
        return _HashedPlan(seed, crash_rate, delay_rate, error_rate, delay_s)

    def fault_for(self, key: str) -> Optional[Fault]:
        return self.faults.get(key)

    def expected_failures(self, max_attempts: int) -> List[str]:
        """Keys whose fault outlives *max_attempts* (sorted): exactly the
        sessions a ``partial=True`` run must report as failed."""
        return sorted(
            k
            for k, f in self.faults.items()
            if f.times >= max_attempts and f.kind != "delay"
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "faults": {k: f.to_dict() for k, f in self.faults.items()},
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        d = json.loads(text)
        return cls(
            {k: Fault.from_dict(f) for k, f in d["faults"].items()},
            seed=int(d.get("seed", 0)),
        )


class _HashedPlan(FaultPlan):
    """Rate-based plan: the fault for a key is derived on demand."""

    def __init__(
        self,
        seed: int,
        crash_rate: float,
        delay_rate: float,
        error_rate: float,
        delay_s: float,
    ) -> None:
        super().__init__({}, seed=seed)
        self.crash_rate = crash_rate
        self.delay_rate = delay_rate
        self.error_rate = error_rate
        self.delay_s = delay_s

    def fault_for(self, key: str) -> Optional[Fault]:
        u = stable_unit(self.seed, key)
        if u < self.crash_rate:
            return Fault("crash", times=1)
        if u < self.crash_rate + self.delay_rate:
            return Fault("delay", times=1, delay_s=self.delay_s)
        if u < self.crash_rate + self.delay_rate + self.error_rate:
            return Fault("error", times=1)
        return None


# -- process-global activation ---------------------------------------------------

_ACTIVE: Optional[FaultPlan] = None
_ENV_CACHE: Optional[FaultPlan] = None
_ENV_CACHE_KEY: Optional[str] = None
_IN_WORKER = False


def activate(plan: FaultPlan, export_env: bool = True) -> None:
    """Install *plan* in this process; with *export_env* (default) also
    export it so worker pools created afterwards inherit it.  A hashed plan
    is not exported; workers see one only through ``REPRO_FAULT_SEED``."""
    global _ACTIVE
    _ACTIVE = plan
    if export_env and not isinstance(plan, _HashedPlan):
        os.environ[ENV_PLAN] = plan.to_json()


def deactivate() -> None:
    """Remove any active plan (including the environment export)."""
    global _ACTIVE, _ENV_CACHE, _ENV_CACHE_KEY
    _ACTIVE = None
    _ENV_CACHE = None
    _ENV_CACHE_KEY = None
    os.environ.pop(ENV_PLAN, None)


class injected:
    """``with injected(plan):`` — activate for a block, always deactivate."""

    def __init__(self, plan: FaultPlan, export_env: bool = True) -> None:
        self._plan = plan
        self._export = export_env

    def __enter__(self) -> FaultPlan:
        activate(self._plan, export_env=self._export)
        return self._plan

    def __exit__(self, *exc) -> None:
        deactivate()


def mark_worker() -> None:
    """Called by pool initializers: arms real ``os._exit`` crashes (the
    parent process only ever simulates a crash by raising)."""
    global _IN_WORKER
    _IN_WORKER = True


def current_plan() -> Optional[FaultPlan]:
    """The plan in effect: explicit activation, else the environment
    (``REPRO_FAULT_PLAN`` wins over ``REPRO_FAULT_SEED``), else None."""
    global _ENV_CACHE, _ENV_CACHE_KEY
    if _ACTIVE is not None:
        return _ACTIVE
    env_plan = os.environ.get(ENV_PLAN)
    env_seed = os.environ.get(ENV_SEED)
    cache_key = env_plan if env_plan is not None else (
        f"seed:{env_seed}" if env_seed is not None else None
    )
    if cache_key is None:
        return None
    if cache_key != _ENV_CACHE_KEY:
        if env_plan is not None:
            _ENV_CACHE = FaultPlan.from_json(env_plan)
        else:
            _ENV_CACHE = FaultPlan.hashed(int(env_seed))
        _ENV_CACHE_KEY = cache_key
    return _ENV_CACHE


def maybe_inject(key: str, attempt: int = 1) -> None:
    """Fire *key*'s planned fault for (1-based) *attempt*, if any.

    Called from the decode attempt paths (worker body and the serial
    loop).  A no-op without an active plan, so the production hot path
    pays one global read and a None check.
    """
    plan = current_plan()
    if plan is None:
        return
    fault = plan.fault_for(key)
    if fault is None or attempt > fault.times:
        return
    if fault.kind == "delay":
        time.sleep(fault.delay_s)
        return
    if fault.kind == "crash" and _IN_WORKER:
        os._exit(86)  # a real worker death, not an exception
    raise InjectedFault(
        f"injected {fault.kind} for session {key!r} (attempt {attempt})",
        kind=fault.kind,
    )


# -- corrupted observations ------------------------------------------------------


def corrupt_step(step, mode: str = "nan", seed: int = 0):
    """A deterministically malformed copy of a ContextStep.

    Modes: ``"nan"`` poisons one resident's feature vector with NaNs,
    ``"empty"`` drops every observation, ``"alien"`` relabels one
    resident with an id the session has never seen.  Which resident is
    hit is a stable function of *seed*.
    """
    from dataclasses import replace

    if mode == "empty":
        return replace(step, observations={})
    rids = sorted(step.observations)
    if not rids:
        raise ValueError("step has no observations to corrupt")
    victim = rids[int(stable_unit(seed, *rids) * len(rids))]
    obs = dict(step.observations)
    if mode == "nan":
        bad = replace(
            obs[victim], features=tuple(float("nan") for _ in obs[victim].features)
        )
        obs[victim] = bad
    elif mode == "alien":
        obs[f"intruder-{seed}"] = obs.pop(victim)
    else:
        raise ValueError(f"unknown corruption mode {mode!r}")
    return replace(step, observations=obs)
