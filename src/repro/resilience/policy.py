"""Retry/timeout policy and structured failure reporting.

The batch and streaming decode paths share one failure vocabulary: an
attempt either succeeds, times out, crashes its worker, or raises.  A
:class:`RetryPolicy` decides how many times a failed session is retried
and how long to back off between attempts (exponential with bounded,
*deterministic* jitter — the chaos suite asserts exact retry schedules,
so the jitter is a stable hash of ``(seed, session key, attempt)``, not
a live RNG draw).  A :class:`FailureReport` is the structured outcome of
a ``partial=True`` batch: which sessions failed, how, after how many
attempts, plus the retry/timeout/pool-replacement totals — JSON-able so
the CI chaos job can archive it as an artifact.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Union

#: Failure taxonomy shared by the engine, the router, and the reports.
FAILURE_KINDS = ("timeout", "crash", "error", "bad_step")


def stable_unit(*parts: object) -> float:
    """Deterministic hash of *parts* mapped into ``[0, 1)``.

    Used for retry jitter and seeded fault placement: the same inputs
    give the same value in every process, which is what lets the chaos
    suite predict schedules exactly.
    """
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and deterministic jitter.

    ``max_retries=0`` disables retrying (one attempt per session).  The
    delay before retry attempt ``a`` (attempts are 1-based, so the first
    retry is attempt 2) is::

        min(backoff_base_s * backoff_factor**(a - 2), backoff_max_s)
        * (1 + jitter * stable_unit(seed, key, a))
    """

    max_retries: int = 2
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 2.0
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ValueError("backoff bounds must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError(f"backoff_factor must be >= 1, got {self.backoff_factor}")
        if self.jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {self.jitter}")

    @property
    def max_attempts(self) -> int:
        """Total attempts per session (first try + retries)."""
        return self.max_retries + 1

    def delay_s(self, attempt: int, key: str = "") -> float:
        """Seconds to back off before (1-based) retry *attempt*."""
        if attempt < 2:
            return 0.0
        base = min(
            self.backoff_base_s * self.backoff_factor ** (attempt - 2),
            self.backoff_max_s,
        )
        if self.jitter <= 0 or base <= 0:
            return base
        return base * (1.0 + self.jitter * stable_unit(self.seed, key, attempt))


#: The engine's default when no policy is passed: a couple of fast
#: retries, so transient worker crashes heal without configuration.
DEFAULT_RETRY_POLICY = RetryPolicy()


@dataclass
class SessionFailure:
    """One session that exhausted its attempts."""

    key: str
    kind: str  # one of FAILURE_KINDS
    attempts: int
    message: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "key": self.key,
            "kind": self.kind,
            "attempts": self.attempts,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "SessionFailure":
        return cls(
            key=str(d["key"]),
            kind=str(d["kind"]),
            attempts=int(d["attempts"]),
            message=str(d.get("message", "")),
        )


@dataclass
class FailureReport:
    """Structured outcome of a fault-tolerant batch decode.

    ``failures`` holds only sessions that *exhausted* their attempts;
    recovered sessions show up in ``retries``/``timeouts`` totals but
    deliver normal results.  ``retries`` counts every re-submission,
    including sessions re-shipped wholesale after a worker-pool crash.
    """

    failures: List[SessionFailure] = field(default_factory=list)
    retries: int = 0
    timeouts: int = 0
    crashes: int = 0
    pool_replacements: int = 0
    sessions_ok: int = 0

    def ok(self) -> bool:
        """True when every session ultimately delivered a result."""
        return not self.failures

    @property
    def sessions_failed(self) -> int:
        return len(self.failures)

    def failed_keys(self) -> List[str]:
        """Session keys that delivered no result, in failure order."""
        return [f.key for f in self.failures]

    def to_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok(),
            "sessions_ok": self.sessions_ok,
            "sessions_failed": self.sessions_failed,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "crashes": self.crashes,
            "pool_replacements": self.pool_replacements,
            "failures": [f.to_dict() for f in self.failures],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def save(self, path: Union[str, Path]) -> None:
        """Write the report as JSON (the chaos CI job's artifact)."""
        Path(path).write_text(self.to_json() + "\n", encoding="utf-8")

    def describe(self) -> str:
        """One-line summary for logs and CLIs."""
        return (
            f"FailureReport({self.sessions_ok} ok, {self.sessions_failed} failed, "
            f"{self.retries} retries, {self.timeouts} timeouts, "
            f"{self.pool_replacements} pool replacements)"
        )


class DecodeFailure(RuntimeError):
    """Raised by ``predict_dataset(..., partial=False)`` when sessions
    exhaust their retries; carries the full :class:`FailureReport`."""

    def __init__(self, report: FailureReport) -> None:
        super().__init__(report.describe())
        self.report = report


class SessionTimeout(RuntimeError):
    """A session attempt exceeded the configured per-session timeout."""
