"""CI smoke run of the decode hot-path benchmark at a small workload.

Fails loudly on any label mismatch between the optimised kernels and the
seed reference decoders (the bit-identity contract), and when the c2,
N-chain or smoother kernels are slower than their references.  The
N-chain decode is checked offline on 3-resident homes and on a tiny
4-resident corpus, whose sessions must be long enough
(``STACKED_MIN_STEPS``) for offline decode to build them in stacked
passes.  The smoother is checked against the log-domain
reference smoother three times: on pairs after one bulk
``prepare_range``, then a ``push`` per step, and one ``push`` per step
alone, and on 3-resident homes one ``push`` per step.  The speedup assertions are
relaxed to >= 1x because shared CI runners make timing ratios
unreliable.  The full thresholds (5x c2 serial, 3x N-chain, 3x smoother
either way) are asserted by ``bench_decode_hotpath.py`` on dedicated
hardware.

Results are written provenance-stamped (python/numpy versions, CPU
count) to ``benchmarks/out/BENCH_decode_smoke.json`` — the smoke
analogue of the root ``BENCH_decode.json`` — so archived CI numbers say
what machine produced them.

Run with ``PYTHONPATH=src python benchmarks/smoke_decode.py``.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from benchmarks.hotpath import decode_hotpath_benchmark  # noqa: E402
from repro.core.loosely_coupled import STACKED_MIN_STEPS  # noqa: E402
from repro.obs import provenance  # noqa: E402


def main() -> int:
    result = decode_hotpath_benchmark(
        n_homes=1,
        sessions_per_home=3,
        duration_s=1200.0,
        seed=7,
        workers=2,
        fanout_workers=(2,),
        nchain_duration_s=900.0,
    )
    print(result.render())
    out = Path(__file__).parent / "out" / "BENCH_decode_smoke.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    payload = result.to_dict()
    payload["provenance"] = provenance()
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")
    failures = []
    for run in result.paths:
        if not run.labels_identical:
            failures.append(f"{run.name} labels diverge from the seed reference")
        if run.speedup < 1.0:
            failures.append(f"{run.name} kernels slower than the reference ({run.speedup:.2f}x)")
    for run in (result.nchain, result.nchain_quad):
        if run.shortest_session < STACKED_MIN_STEPS:
            failures.append(
                f"{run.name} has a {run.shortest_session}-step session, shorter than "
                f"STACKED_MIN_STEPS = {STACKED_MIN_STEPS}: its decode skips the stacked build"
            )
    for failure in failures:
        print(f"SMOKE FAILURE: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
