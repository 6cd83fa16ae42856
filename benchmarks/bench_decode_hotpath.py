"""Bench: decode hot-path throughput — seed implementation vs overhaul.

The sequence-level decode kernels stack each session's feature rows into
a ``(T, d)`` matrix scored against the stacked GMM bank with one einsum,
batch object-evidence deltas and soft-location rows into per-sequence
tables — the per-step trellis only indexes precomputed rows.  Correlation
rules are evaluated once per model on the (macro, sub-location) grid and
gathered by candidate code.  This bench measures steps/sec before (the
``Reference*`` seed hot paths) vs after on the same fitted models,
asserting the contract: >= 5x serial c2 speedup, >= 3x on
the 3-resident N-chain and fixed-lag smoother paths (the smoother on
pairs both after one bulk ``prepare_range``, then a ``push`` per step,
and one ``push`` per step alone, and on 3-resident homes one ``push`` per
step, against the log-domain reference
smoother) and on 4-resident offline decode, all with bit-for-bit
identical decoded labels.  Results are also written machine-readable to
``BENCH_decode.json`` at the repo root.
"""

import json
from pathlib import Path

from benchmarks.conftest import record
from benchmarks.hotpath import decode_hotpath_benchmark
from repro.obs import provenance


def test_decode_hotpath(benchmark):
    result = benchmark.pedantic(
        decode_hotpath_benchmark,
        kwargs={
            "n_homes": 2,
            "sessions_per_home": 4,
            "duration_s": 2400.0,
            "seed": 7,
            "workers": 2,
            "fanout_workers": (2, 4),
        },
        rounds=1,
        iterations=1,
    )
    print("\n" + result.render())
    record("decode_hotpath", result.render())
    out = Path(__file__).parents[1] / "BENCH_decode.json"
    payload = result.to_dict()
    payload["provenance"] = provenance()  # wall-clock numbers need context
    out.write_text(json.dumps(payload, indent=2) + "\n")
    # The kernels must not change any decoded label at the same seed...
    for path in result.paths:
        assert path.labels_identical, path.name
    # ...and must buy at least 5x serial steps/sec on the c2 hot path,
    # 3x on the N-chain paths (3 and 4 residents) and the fixed-lag
    # smoother paths (one bulk prepare_range then a push per step, and
    # one push per step, on pairs and on 3-resident homes).
    assert result.c2.speedup >= 5.0
    assert result.nchain.speedup >= 3.0
    assert result.smoother.speedup >= 3.0
    assert result.smoother_push.speedup >= 3.0
    assert result.nchain_smoother.speedup >= 3.0
    assert result.nchain_quad.speedup >= 3.0
    # The worker fan-out must at least have run at every requested width.
    assert set(result.fanout) >= {2, 4}
