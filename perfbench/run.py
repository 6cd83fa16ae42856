"""Repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload offline-pair --seed 1 --seconds 20 --trace 0

Run from the root of a checkout (the package is imported from ``src/``).
``--trace 0`` prints every end-to-end metric; ``--trace 1`` repeats the run
with the per-layer tracer installed and prints every per-layer metric.
The last line of standard output is the result object; the line before it
stamps the run (provenance, source digest, full configuration, seed,
label digests, sample counts).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CACHE = ROOT / ".perfbench"
#: Seed reserved for confirming a claimed gain; never used while tuning.
CONFIRMATION_SEED = 7919


def source_digest(src: Path) -> str:
    """sha256 over every ``.py`` file of the package (names and bytes)."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit(root: Path):
    """HEAD commit read from ``.git`` when present, else None."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def main(argv=None) -> int:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package at {src / 'repro'}", file=sys.stderr)
        return 2
    # One thread of load: no BLAS worker threads behind numpy calls.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    # The benchmark measures fault-free serving: a fault plan exported for
    # a chaos run must not leak into it.
    for var in ("REPRO_FAULT_PLAN", "REPRO_FAULT_SEED"):
        os.environ.pop(var, None)
    sys.path.insert(0, str(src))
    import layers
    import workloads
    from repro.obs import provenance

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]
    sha = source_digest(src)
    tracer = None
    if args.trace:
        tracer = layers.LayerTracer()
        tracer.install()
    run, test, traffic = workloads.run_workload(
        wl, args.seed, args.seconds, CACHE, sha, tracer
    )

    correct = run.failed == 0 and len(set(run.fingerprints)) == 1
    if args.trace:
        values = layers.report(run, wl.phases[0][0], wl.served)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in layers.PER_LAYER_METRICS}
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in workloads.end_to_end(wl, run, test).items()}

    stamp = {
        "workload": asdict(wl),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "lag": workloads.LAG,
        "setups": workloads.SETUPS,
        "strategy": workloads.STRATEGY,
        "train_fraction": workloads.TRAIN_FRACTION,
        "confirmation_seed": CONFIRMATION_SEED,
        "git_commit": git_commit(ROOT),
        "source_sha256": sha,
        "provenance": provenance(),
        "label_digest": {mode: workloads.digest(labels)
                         for mode, labels in sorted(run.reference.items())},
        "artifact_sha256": sorted(set(run.fingerprints)),
        "passes": {mode: len(run.mode_passes(mode))
                   for mode in ("decode", "closed", "open", "memory")},
        "latency_passes": len(workloads.latency_passes(run)),
        "latency_calls": len(workloads.latency_passes(run)[0].latencies),
        "calibration_s": workloads.CALIBRATION_S,
        "host_slowdown": statistics.median(p.host for p in run.passes),
        "uncalibrated": {name: value for name, (value, _unit)
                         in workloads.end_to_end(wl, run, test, calibrated=False).items()},
        "traffic": asdict(traffic),
        "test_steps": test.total_steps,
        "test_sessions": len(test.sequences),
    }
    print(json.dumps({"run": stamp}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
