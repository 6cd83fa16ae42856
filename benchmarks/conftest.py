"""Benchmark configuration.

Each bench regenerates one of the paper's tables/figures at a scaled-down
workload (so the suite completes in minutes) and prints the paper-style
rows.  Set ``REPRO_BENCH_SCALE=full`` for paper-scale workloads.
"""

import os
from pathlib import Path

import pytest

#: Workload presets: (n_homes, sessions_per_home, duration_s).  Mined
#: "deterministic" rules need enough steps to be stable — below ~3 homes
#: the 4%-support itemsets overfit single sessions — and sessions under
#: ~1 h cover only a fraction of the 11-activity catalogue, which makes
#: per-class recalls degenerate in small test splits.
SMALL = {"n_homes": 3, "sessions_per_home": 4, "duration_s": 3600.0}
FULL = {"n_homes": 5, "sessions_per_home": 6, "duration_s": 5400.0}


def workload() -> dict:
    """The active CACE-corpus preset."""
    return FULL if os.environ.get("REPRO_BENCH_SCALE") == "full" else SMALL


@pytest.fixture(scope="session")
def bench_workload():
    """Fixture view of :func:`workload`."""
    return workload()


def record(name: str, text: str) -> None:
    """Persist a rendered table under ``benchmarks/out/`` for inspection.

    pytest captures stdout, so benches also write their paper-style tables
    to files.
    """
    out_dir = Path(__file__).parent / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{name}.txt").write_text(text + "\n")
