"""The four pruning strategies of §VII-G.

=====  ==========================================================
NH     Naive-HMM: exhaustive flat macro HMM on frame features [9]
NCR    Naive-Correlation: per-user rule pruning, frame-wise [1]
NCS    Naive-Constraint: full coupled HDBN, no correlation pruning
C2     Correlation+Constraint: the loosely-coupled HDBN (CACE)
=====  ==========================================================
"""

from __future__ import annotations

from typing import Tuple

#: Strategy identifiers, in the paper's order.
STRATEGIES: Tuple[str, ...] = ("nh", "ncr", "ncs", "c2")


class PruningStrategy:
    """Validated strategy name with capability flags."""

    def __init__(self, name: str) -> None:
        name = name.lower()
        if name not in STRATEGIES:
            raise ValueError(f"unknown strategy {name!r}; choose from {STRATEGIES}")
        self.name = name

    @property
    def uses_correlations(self) -> bool:
        """Does the strategy run the correlation miner?"""
        return self.name in ("ncr", "c2")

    def __repr__(self) -> str:
        return f"PruningStrategy({self.name!r})"
