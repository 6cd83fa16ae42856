"""Wall-clock timing used for the paper's computational-overhead metrics.

The paper reports "total time required to build entire model" (Fig 11b);
:class:`Stopwatch` accumulates named phases so experiments can report both
per-phase and total overhead.

Since the observability subsystem landed, ``Stopwatch`` is a thin facade
over a private :class:`~repro.obs.metrics.MetricsRegistry`: each phase is
a latency histogram named ``phase.<name>.seconds``, so anything holding a
stopwatch (the engine, the experiment harness) gets distribution
summaries and metrics exposition for free while the historical public
surface — the ``phases`` mapping, ``total``, ``report`` — is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.obs.metrics import Histogram, MetricsRegistry

_PHASE_PREFIX = "phase."
_PHASE_SUFFIX = ".seconds"


@dataclass
class Stopwatch:
    """Accumulates elapsed wall-clock time across named phases.

    Each phase is backed by a ``phase.<name>.seconds`` histogram in
    ``registry`` (a private registry by default), so repeated phases
    accumulate both total seconds (the classic ``phases`` view) and a
    latency distribution (``histogram("name").summary()``).
    """

    registry: MetricsRegistry = field(default_factory=MetricsRegistry)

    def phase(self, name: str):
        """Time a named phase; repeated phases accumulate."""
        return self.registry.histogram(f"{_PHASE_PREFIX}{name}{_PHASE_SUFFIX}").time()

    def histogram(self, name: str) -> Histogram:
        """The backing histogram for a phase (latency distribution)."""
        return self.registry.histogram(f"{_PHASE_PREFIX}{name}{_PHASE_SUFFIX}")

    @property
    def phases(self) -> Dict[str, float]:
        """Accumulated seconds per phase (the historical dict view)."""
        out: Dict[str, float] = {}
        for full, data in self.registry.snapshot().items():
            if (
                data.get("type") == "histogram"
                and full.startswith(_PHASE_PREFIX)
                and full.endswith(_PHASE_SUFFIX)
            ):
                name = full[len(_PHASE_PREFIX) : -len(_PHASE_SUFFIX)]
                out[name] = data["sum"]
        return out

    @property
    def total(self) -> float:
        """Total seconds across all phases."""
        return sum(self.phases.values())

    def report(self) -> str:
        """Human-readable per-phase breakdown."""
        lines = [f"{name}: {secs:.4f}s" for name, secs in sorted(self.phases.items())]
        lines.append(f"total: {self.total:.4f}s")
        return "\n".join(lines)
